"""The parallel sweep harness: determinism, dedup, and workload reuse."""

import os

import pytest

import repro.eval.experiments
import repro.sim.run
import repro.workloads
from repro.config import SystemConfig
from repro.eval.experiments import _SWEEP_CACHE, EvalConfig, run_all_modes
from repro.eval.sweep import SweepFailed, SweepPoint, resolve_jobs, \
    run_sweep
from repro.offload.modes import ExecMode

SCALE = 1.0 / 256.0
WORKLOADS = ("histogram", "bfs_push", "srad")
MODES = (ExecMode.BASE, ExecMode.NS, ExecMode.NS_DECOUPLE)


def _points():
    system = SystemConfig.ooo8()
    return [SweepPoint(w, m, system, scale=SCALE)
            for w in WORKLOADS for m in MODES]


def test_parallel_results_identical_to_serial():
    points = _points()
    serial = run_sweep(points, jobs=1)
    parallel = run_sweep(points, jobs=4)
    assert set(serial) == set(parallel) == set(points)
    for point in points:
        assert serial[point].to_dict() == parallel[point].to_dict()


def test_run_all_modes_parallel_matches_serial():
    cfg1 = EvalConfig(scale=SCALE, workloads=WORKLOADS, jobs=1)
    cfg4 = EvalConfig(scale=SCALE, workloads=WORKLOADS, jobs=4)
    serial = run_all_modes(cfg1, MODES)
    _SWEEP_CACHE.clear()  # jobs is not part of the memo key
    parallel = run_all_modes(cfg4, MODES)
    assert serial is not parallel
    for name in WORKLOADS:
        for mode in MODES:
            assert serial[name][mode].to_dict() == \
                parallel[name][mode].to_dict()


def test_figure_sweep_with_a_failed_point_raises_and_is_not_memoized(
        monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("injected figure failure")

    monkeypatch.setattr(repro.sim.run, "run_workload", explode)
    monkeypatch.setattr(repro.eval.experiments, "_SWEEP_CACHE", {})
    cfg = EvalConfig(scale=SCALE, workloads=("histogram",), jobs=1)
    with pytest.raises(SweepFailed, match="injected figure failure") \
            as excinfo:
        run_all_modes(cfg, MODES)
    assert len(excinfo.value.results.failures) == len(MODES)
    assert not repro.eval.experiments._SWEEP_CACHE


def test_workload_built_once_per_group(monkeypatch):
    builds = []
    real = repro.workloads.make_workload

    def counting(name, **kwargs):
        builds.append(name)
        return real(name, **kwargs)

    monkeypatch.setattr(repro.workloads, "make_workload", counting)
    run_sweep(_points(), jobs=1)
    # one build per workload despite three modes each
    assert sorted(builds) == sorted(WORKLOADS)


def test_duplicate_points_run_once(monkeypatch):
    runs = []
    real = repro.sim.run.run_workload

    def counting(workload, mode, **kwargs):
        runs.append(mode)
        return real(workload, mode, **kwargs)

    monkeypatch.setattr(repro.sim.run, "run_workload", counting)
    point = SweepPoint("histogram", ExecMode.NS, SystemConfig.ooo8(),
                       scale=SCALE)
    results = run_sweep([point, point, point], jobs=1)
    assert len(runs) == 1
    assert list(results) == [point]


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


@pytest.mark.parametrize("garbage", ["all", "2.5", "3 cores", "--", "None"])
def test_resolve_jobs_malformed_env_warns_and_falls_back(monkeypatch,
                                                         garbage):
    """$REPRO_JOBS garbage must not crash a sweep (bugfix)."""
    monkeypatch.setenv("REPRO_JOBS", garbage)
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert resolve_jobs(None) == 1


def test_resolve_jobs_empty_and_negative_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "   ")
    assert resolve_jobs(None) == 1          # blank → serial, no warning
    monkeypatch.setenv("REPRO_JOBS", "-2")
    assert resolve_jobs(None) == (os.cpu_count() or 1)  # <=0 → all cores


def test_point_key_strings_unchanged_and_memoized_per_object():
    """SweepPoint.key() is computed once per instance and its strings
    stay exactly what stored results and journals were keyed with."""
    from repro.eval.result_cache import point_key
    from repro.fault.plan import FaultPlan

    pinned = [
        (SweepPoint("histogram", ExecMode.NS, SystemConfig.ooo8(),
                    scale=SCALE),
         "a45ab0057a69d5a8bc0b47b3e2ea68ea119c89236068573ac693849a062f6c28"),
        (SweepPoint("bfs_push", ExecMode.BASE,
                    SystemConfig.ooo8().with_se(scalar_pe=False), scale=1,
                    seed=7),
         "cd33929941150104f4732d5218095cecb53603a380a97800a2b3283783d10564"),
        (SweepPoint("bfs_push", ExecMode.BASE,
                    SystemConfig.ooo8().with_se(scalar_pe=False), scale=1.0,
                    seed=7),
         "d1ccb69f29bc7e1948dd39254146ed7c3f5b2eb0670637d10d7a758d76d9be5e"),
        (SweepPoint("sssp", ExecMode.NS_DECOUPLE, SystemConfig.paper_mesh(16),
                    sample_cores=2,
                    fault_plan=FaultPlan.uniform(100.0, seed=3)),
         "e075a5107c3de3014b451a42090afbdc16f91c03d9e81eab5ed073d5ae6d2814"),
    ]
    for point, expected in pinned:
        assert point.key() == expected
        assert point.key() is point.key()          # memoized
        assert expected == point_key(
            point.workload, point.mode, point.config, point.scale,
            point.seed, point.sample_cores, point.fault_plan)
    # scale=1 and scale=1.0 are equal (and hash alike) but keep their
    # own keys: the memo is per object, never shared by equality.
    int_scale, float_scale = pinned[1][0], pinned[2][0]
    assert int_scale == float_scale
    assert int_scale.key() != float_scale.key()
    # The memo never leaks into equality, hashing or the repr.
    fresh = SweepPoint("histogram", ExecMode.NS, SystemConfig.ooo8(),
                       scale=SCALE)
    assert fresh == pinned[0][0] and hash(fresh) == hash(pinned[0][0])
    assert "_key" not in repr(pinned[0][0])
