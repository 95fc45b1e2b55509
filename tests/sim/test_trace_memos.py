"""Per-trace memos of the sampled cache walk and the pair geometry.

A replayed :class:`~repro.sim.replay.FunctionalTrace` keeps, for the life
of the object, each run's raw per-stream level counts, keyed by the
machine's cache shape (sampled cores, scaled L1/L2 geometry, L3 lines)
and every phase's stream paths, and each phase's
:class:`~repro.sim.tracestats.PairGeometry` (forward groups among its
entries). A run that reuses them must equal the same run on a freshly
loaded trace whose memos are empty; a run on another cache shape must
walk afresh; and neither memo is pickled. A stored trace carries its
pair entries, so on a freshly loaded trace even the first run computes
no forward groups; a trace without them computes them once.
"""

import dataclasses
import pickle

import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.mem.hierarchy import HierarchyModel
from repro.offload.modes import ExecMode
from repro.sim.machine import Machine
from repro.sim.phase import PhaseEngine
from repro.sim.run import run_workload
from repro.sim.tracestats import PairGeometry
from repro.workloads import build_cache
from repro.workloads.build_cache import trace_key

SCALE = 1.0 / 256.0
CONFIG = SystemConfig.ooo8()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Isolated store, with no trace remembered from an earlier test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(build_cache, "_last_loaded", None)
    old = result_cache._default_cache
    result_cache.set_default_cache(tmp_path)
    yield tmp_path
    result_cache._default_cache = old


def _counter(monkeypatch, cls, name):
    """Count calls of ``cls.name`` (still calling through)."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.fixture
def walks(monkeypatch):
    return _counter(monkeypatch, HierarchyModel, "walk_elements")


def _fresh(workload):
    """The stored trace as a new object, its memos empty; a first call
    records and stores it."""
    cache = result_cache.get_default_cache()
    key = trace_key(workload, SCALE, 42, CONFIG)
    trace = cache.lookup(key)
    if trace is None:
        run_workload(workload, ExecMode.BASE, config=CONFIG, scale=SCALE)
        trace = cache.lookup(key)
    assert not trace._levels and not trace._geometry
    return trace


@pytest.mark.parametrize("workload", ["pr_push", "bfs_push"])
def test_modes_by_name_equal_runs_on_a_fresh_trace(cache_dir, monkeypatch,
                                                   workload):
    sampled = _counter(monkeypatch, PhaseEngine, "_walk_caches")
    _fresh(workload)   # stored, so every run by name loads one object
    sampled.clear()
    by_name = {mode: run_workload(workload, mode, config=CONFIG,
                                  scale=SCALE)
               for mode in ExecMode}
    sampled_by_name = len(sampled)
    shared = build_cache._last_loaded[3]
    assert len(shared._levels) < len(ExecMode), "no mode reused a walk"
    sampled.clear()
    for mode, result in by_name.items():
        fresh = run_workload(_fresh(workload), mode, config=CONFIG)
        assert fresh.to_dict() == result.to_dict(), mode
    assert sampled_by_name < len(sampled)


def _reuse_case(trace, walks, monkeypatch):
    """Run BASE and NS twice on ``trace``: forward-group computations of
    the first pair of runs, and the check that the second pair walks and
    forwards nothing and equals the first."""
    groups = _counter(monkeypatch, PairGeometry, "_forwards")
    modes = (ExecMode.BASE, ExecMode.NS)
    first = [run_workload(trace, mode, config=CONFIG) for mode in modes]
    assert walks
    assert any(value for geometry in trace._geometry.values()
               for key, value in geometry.entries.items()
               if key[0] == "forwards"), "no forward groups to reuse"
    computed = len(groups)
    walks.clear()
    groups.clear()
    again = [run_workload(trace, mode, config=CONFIG) for mode in modes]
    assert not walks and not groups
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
    return computed


def test_reusing_run_walks_nothing(cache_dir, walks, monkeypatch):
    """BASE walks the private caches and NS forwards between SE_L3s; a
    second run of each on the same trace does neither.  The stored trace
    carries its forward groups, so even its first NS run computes none."""
    assert _reuse_case(_fresh("hotspot"), walks, monkeypatch) == 0


def test_trace_without_stored_pairs_computes_forwards_once(
        cache_dir, walks, monkeypatch):
    """A trace whose stored geometry is stripped computes the forward
    groups on its first NS run, and only then."""
    bare = dataclasses.replace(_fresh("hotspot"), stats=None)
    assert _reuse_case(bare, walks, monkeypatch) > 0


def _other_l1(config):
    return dataclasses.replace(
        config, l1d=dataclasses.replace(config.l1d, assoc=4))


@pytest.mark.parametrize("change", ["l1_geometry", "sample_cores"])
def test_other_cache_shape_walks_afresh(cache_dir, walks, change):
    config, kwargs = CONFIG, {}
    if change == "l1_geometry":
        config = _other_l1(CONFIG)
    else:
        kwargs = {"sample_cores": 2}
    shape = Machine.build(config, data_scale=SCALE, **kwargs).cache_shape
    assert shape != Machine.build(CONFIG, data_scale=SCALE).cache_shape
    trace = _fresh("pr_push")
    run_workload(trace, ExecMode.BASE, config=CONFIG)
    walks.clear()
    got = run_workload(trace, ExecMode.BASE, config=config, **kwargs)
    assert walks, "a run on another cache shape reused the walk"
    want = run_workload(_fresh("pr_push"), ExecMode.BASE, config=config,
                        **kwargs)
    assert got.to_dict() == want.to_dict()


def test_memos_are_not_pickled(cache_dir):
    trace = _fresh("hotspot")
    run_workload(trace, ExecMode.NS, config=CONFIG)
    assert trace._levels and trace._geometry
    state = trace.__getstate__()
    assert "_levels" not in state and "_geometry" not in state
    copy = pickle.loads(pickle.dumps(trace))
    assert copy._levels == {} and copy._geometry == {}
    replaced = dataclasses.replace(trace)
    assert replaced._levels == {} and replaced._geometry == {}
