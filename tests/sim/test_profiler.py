"""The simulator's own stage profiler and its SimResult ride-along."""

import time

import pytest

from repro.sim.profiler import (
    Profiler,
    StageTiming,
    check_stage_totals,
    format_profile,
    format_top_stages,
    merge_profiles,
    top_stages,
)
from repro.sim.run import run_workload

SCALE = 1.0 / 256.0


def test_stage_context_accumulates():
    prof = Profiler()
    for _ in range(3):
        with prof.stage("work"):
            time.sleep(0.001)
    assert prof.stages["work"].calls == 3
    assert prof.stages["work"].seconds >= 0.003


def test_stage_records_on_exception():
    prof = Profiler()
    with pytest.raises(RuntimeError):
        with prof.stage("boom"):
            raise RuntimeError
    assert prof.stages["boom"].calls == 1


def test_merge_profiles_sums_and_copies():
    a = {"x": StageTiming(1.0, 2), "y": StageTiming(0.5, 1)}
    b = {"x": StageTiming(0.25, 1), "z": StageTiming(2.0, 4)}
    merged = merge_profiles(a, b)
    assert merged["x"] == StageTiming(1.25, 3)
    assert merged["y"] == StageTiming(0.5, 1)
    assert merged["z"] == StageTiming(2.0, 4)
    merged["x"].add(9.0)
    assert a["x"] == StageTiming(1.0, 2)  # inputs untouched


def test_format_profile_table():
    out = format_profile({"phase.locks": StageTiming(0.75, 2),
                          "run.build": StageTiming(2.25, 1)},
                         total_seconds=4.0)
    lines = out.splitlines()
    assert lines[0].split() == ["stage", "seconds", "calls", "share"]
    assert lines[1].startswith("run.build")      # widest stage first
    assert "75.0%" not in out and "56.2%" in out  # share of wall time
    assert "total (measured)" in out and "total (wall)" in out
    assert format_profile({}) == "(no stage timings recorded)"


def test_top_stages_ranks_and_shares():
    stages = {"a": StageTiming(3.0, 1), "b": StageTiming(1.0, 2),
              "c": StageTiming(0.5, 1)}
    rows = top_stages(stages, 2, total_seconds=6.0)
    assert [name for name, _, _ in rows] == ["a", "b"]
    assert rows[0][2] == pytest.approx(0.5)      # share of wall time
    # Without a wall total the denominator is the measured sum.
    rows = top_stages(stages, 3)
    assert rows[0][2] == pytest.approx(3.0 / 4.5)
    assert top_stages({}, 5) == []


def test_format_top_stages_line():
    stages = {"a": StageTiming(3.0, 1), "b": StageTiming(1.0, 1)}
    line = format_top_stages(stages, 2, total_seconds=4.0)
    assert line == "top: a 75.0%, b 25.0%"
    assert format_top_stages({}, 3).startswith("top: (no stage")


def test_check_stage_totals_accepts_disjoint_sum():
    stages = {"a": StageTiming(1.0, 1), "b": StageTiming(0.5, 1)}
    assert check_stage_totals(stages, 2.0) == pytest.approx(1.5)
    # Clock-noise slack: a hair over the wall time still passes.
    assert check_stage_totals(stages, 1.49) == pytest.approx(1.5)


def test_check_stage_totals_rejects_double_counting():
    stages = {"a": StageTiming(1.5, 1), "a.nested": StageTiming(1.0, 1)}
    with pytest.raises(ValueError, match="double-counted"):
        check_stage_totals(stages, 2.0)


def test_check_stage_totals_min_coverage():
    stages = {"a": StageTiming(0.9, 1), "b": StageTiming(0.05, 1)}
    # 95% of a 1.0s wall is covered: passes at the default CI bar.
    assert check_stage_totals(stages, 1.0, min_coverage=0.95) \
        == pytest.approx(0.95)
    with pytest.raises(ValueError, match="cover only"):
        check_stage_totals(stages, 2.0, min_coverage=0.95)
    # No coverage requirement: under-measurement is fine.
    assert check_stage_totals(stages, 2.0) == pytest.approx(0.95)


def test_run_workload_stage_totals_within_wall_time():
    """The run's stages are disjoint, so they must sum to <= wall time."""
    start = time.perf_counter()
    r = run_workload("memset", scale=SCALE, use_replay=False)
    wall = time.perf_counter() - start
    assert check_stage_totals(r.profile, wall, slack=0.10) <= wall * 1.10


def test_run_workload_populates_profile():
    r = run_workload("memset", scale=SCALE, use_replay=False)
    assert "run.build" in r.profile
    assert "phase.sample_caches" in r.profile
    assert "phase.timing" in r.profile
    for timing in r.profile.values():
        assert timing.seconds >= 0.0
        assert timing.calls >= 1


def test_warm_run_profile_is_near_complete(tmp_path, monkeypatch):
    """The cached fast path's stages cover nearly all of its wall time:
    setup, trace load, per-phase work, and the finish accounting all
    show up — the `repro profile --min-coverage` contract."""
    from repro.eval import result_cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    old = result_cache._default_cache
    result_cache.set_default_cache(tmp_path)
    try:
        run_workload("histogram", scale=SCALE)        # record
        start = time.perf_counter()
        r = run_workload("histogram", scale=SCALE)    # replay, warm
        wall = time.perf_counter() - start
    finally:
        result_cache._default_cache = old
    for stage in ("run.setup", "run.replay", "run.trace_load",
                  "run.finish", "phase.setup", "phase.stats",
                  "phase.timing"):
        assert stage in r.profile, stage
    assert "run.build" not in r.profile               # replayed
    assert "run.store" not in r.profile               # entry complete
    # Tiny runs carry fixed per-stage timer noise, so the bar here is
    # deliberately below the CI smoke's 95% on real-sized runs.
    assert check_stage_totals(r.profile, wall, slack=0.10,
                              min_coverage=0.80) <= wall * 1.10


def test_profile_excluded_from_result_dict():
    """to_dict stays schema-stable: host-side timings never enter it, so
    cached results and JSON consumers are unaffected."""
    r = run_workload("memset", scale=SCALE, use_replay=False)
    assert "profile" not in r.to_dict()
