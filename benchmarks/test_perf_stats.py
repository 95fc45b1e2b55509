"""Stream geometry stored with the functional trace: warm-path speedups.

Times the warm replay path with and without the stored geometry — it
removes per-run stream-geometry recomputation (vectorized translation,
bank/hop reductions, lock-contention analysis), which dominated warm
runs on big meshes.  Prints the timings and asserts the acceptance
bars: warm big-mesh runs spend <15% of their wall in ``phase.stats``,
and a steady-state warm replay is at least twice as fast as the cold
run (build, record, store) of the same point in the same process.  Both
bars are ratios measured in one process, so they hold on any host.

A by-name run returns the trace its process last loaded when the entry
is unchanged (:func:`~repro.workloads.build_cache.load_or_record`), so
every timed warm call first forgets it and keeps timing the store load
and decode; the reuse time is printed beside it, not gated.
"""

import dataclasses
import os
import time

import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads import build_cache
from repro.workloads.build_cache import trace_key

#: BENCH_PR6.json replay_throughput: bfs_push/ns warm replays at scale
#: 1/64, before the stats bundle existed.  Printed for comparison only:
#: an absolute rate depends on the host.
PR6_POINTS_PER_SEC = 37.19

SCALE = float(os.environ.get("REPRO_SCALE") or 1.0 / 64.0)
MESH32_SCALE = min(SCALE * 16, 0.25)  # big-mesh run at the issue's scale


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    old = result_cache._default_cache
    result_cache.set_default_cache(tmp_path)
    yield
    result_cache._default_cache = old


def _without_stats(workload, config, scale):
    """Run ``workload`` from its stored trace with the geometry stripped,
    so the run recomputes it (the path before geometry was stored)."""
    trace = result_cache.get_default_cache().lookup(
        trace_key(workload, scale, 42, config))
    return run_workload(dataclasses.replace(trace, stats=None),
                        ExecMode.NS, config=config, scale=scale)


def _timed(n, func, setup=None):
    """Best-of-n wall time plus the last result (steady-state timing);
    ``setup`` runs untimed before each call."""
    best, result = float("inf"), None
    for _ in range(n):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stats_share(result):
    """phase.stats' share of a run's measured stage time."""
    measured = sum(t.seconds for t in result.profile.values())
    return result.profile["phase.stats"].seconds / measured


def test_warm_mesh32_stats_share(fresh_cache, monkeypatch):
    """bfs_push on the 32x32 mesh: cold vs warm, and the warm profile's
    phase.stats share — the geometry work must be a minor line item."""
    config = SystemConfig.paper_mesh(32)

    def run():
        return run_workload("bfs_push", ExecMode.NS, config=config,
                            scale=MESH32_SCALE)

    def forget():
        monkeypatch.setattr(build_cache, "_last_loaded", None)

    t0 = time.perf_counter()
    cold = run()
    t_cold = time.perf_counter() - t0
    assert "run.store" in cold.profile

    t_warm, warm = _timed(3, run, setup=forget)
    assert warm.to_dict() == cold.to_dict()
    assert "run.store" not in warm.profile
    t_reuse, reused = _timed(3, run)
    assert reused.to_dict() == cold.to_dict()

    t_nostats, nostats = _timed(3, lambda: _without_stats(
        "bfs_push", config, MESH32_SCALE))
    assert nostats.to_dict() == cold.to_dict()

    stats_share = _stats_share(warm)
    print(f"\nbfs_push mesh32: cold {t_cold:.3f}s, warm {t_warm:.3f}s "
          f"({t_cold / t_warm:.1f}x), reuse {t_reuse:.3f}s, no-bundle "
          f"{t_nostats:.3f}s, phase.stats {stats_share:.1%} of measured "
          f"warm time ({_stats_share(nostats):.1%} without the bundle)")
    assert stats_share < 0.15, (
        f"phase.stats is {stats_share:.1%} of the warm run (bar: <15%); "
        f"the stored geometry is not being reused")
    # Lax floor (timings vary by host): stored geometry must never slow the
    # warm path down.  The headline numbers live in EXPERIMENTS.md.
    assert t_warm <= t_nostats


def test_stats_throughput_vs_cold_run(fresh_cache, monkeypatch):
    """Steady-state warm replay rate (the sweep unit) against the cold
    run of the same point, which builds, records and stores the trace.
    Each timed replay loads and decodes its trace from the store."""
    config = SystemConfig.ooo8()
    scale = 1.0 / 64.0  # BENCH_PR6's replay_throughput operating point

    def run():
        return run_workload("bfs_push", ExecMode.NS, config=config,
                            scale=scale)

    def load_and_run():
        monkeypatch.setattr(build_cache, "_last_loaded", None)
        return run()

    t0 = time.perf_counter()
    cold = run()
    t_cold = time.perf_counter() - t0
    assert "run.store" in cold.profile

    run()  # steady the caches before timing
    n = 8
    t0 = time.perf_counter()
    for _ in range(n):
        result = load_and_run()
    per_run = (time.perf_counter() - t0) / n
    assert "run.replay" in result.profile
    assert "run.store" not in result.profile
    assert result.to_dict() == cold.to_dict()
    t_reuse, _ = _timed(3, run)

    t_nostats, _ = _timed(3, lambda: _without_stats("bfs_push", config,
                                                    scale))

    points_per_sec = 1.0 / per_run
    speedup = points_per_sec / PR6_POINTS_PER_SEC
    warm_speedup = t_cold / per_run
    print(f"\nbfs_push warm replay: {per_run * 1000:.1f} ms/run "
          f"({points_per_sec:.1f} points/s, {speedup:.2f}x the "
          f"BENCH_PR6 {PR6_POINTS_PER_SEC} points/s figure); cold run "
          f"{t_cold * 1000:.1f} ms, {warm_speedup:.1f}x slower; reusing "
          f"the loaded trace {t_reuse * 1000:.1f} ms/run, without the "
          f"stored geometry {t_nostats * 1000:.1f} ms/run")
    assert warm_speedup >= 2.0, (
        f"a warm replay takes {per_run * 1000:.1f} ms against "
        f"{t_cold * 1000:.1f} ms for the cold run ({warm_speedup:.2f}x); "
        f"the bar is 2x")
