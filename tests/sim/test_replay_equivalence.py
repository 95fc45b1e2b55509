"""Replay must be bit-identical to live execution — the core invariant of
the functional-trace fast path.

Same discipline as the scalar-oracle equivalence suites
(``tests/oracles``): the optimized path (record once, replay everywhere)
is property-tested against the retained live path for every workload and
mode, on ``SimResult.to_dict()`` (the repo's bit-identity convention)
plus the full per-message-type traffic inventory and the strict
sanitizer's trace-metrics snapshot.  ``$REPRO_TRACE=1`` (suite-wide) puts
the online ProtocolSanitizer — including the exact per-MessageType count
cross-check at ``finish()`` — over every replayed run here.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import SweepPoint, _group_key, run_sweep
from repro.fault.plan import FaultPlan
from repro.mem.address import AddressSpace
from repro.offload.modes import ExecMode
from repro.sim.replay import FunctionalTrace, record_trace
from repro.sim.run import run_workload
from repro.workloads import all_workload_names, make_workload
from repro.workloads.build_cache import load_or_record, trace_key

SCALE = 1.0 / 256.0
ALL_WORKLOADS = all_workload_names()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Isolated persistent cache for one test (env + default cache)."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    old = result_cache._default_cache
    result_cache.set_default_cache(root)
    yield root
    result_cache._default_cache = old


def _live(workload: str, mode: ExecMode, config: SystemConfig,
          scale: float = SCALE, seed: int = 42):
    """The pure live path: prebuilt workload, no caches, no replay."""
    wl = make_workload(workload, scale=scale, seed=seed)
    wl.build(AddressSpace(config))
    return run_workload(wl, mode, config=config, scale=scale, seed=seed)


def _assert_identical(live, replayed):
    assert replayed.to_dict() == live.to_dict()
    # to_dict flattens; also require the exact per-type message inventory
    # and the strict sanitizer's metrics snapshot to match.
    assert replayed.traffic.messages == live.traffic.messages
    assert replayed.traffic.byte_hops_by_type == live.traffic.byte_hops_by_type
    assert replayed.energy.total == live.energy.total
    if live.trace is not None:
        assert replayed.trace is not None
        assert replayed.trace.to_dict() == live.trace.to_dict()
        assert replayed.trace.violations == 0


@pytest.mark.parametrize("mode", [ExecMode.NS, ExecMode.BASE],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_replay_bit_identical(workload, mode, cache_dir):
    """All 14 workloads x {ns, base}: live == recorded == replayed."""
    config = SystemConfig.ooo8()
    live = _live(workload, mode, config)
    cold = run_workload(workload, mode, config=config, scale=SCALE)
    warm = run_workload(workload, mode, config=config, scale=SCALE)
    _assert_identical(live, cold)
    _assert_identical(live, warm)
    # The cold run recorded; the warm run replayed without building.
    assert "run.record" in cold.profile
    assert "run.replay" in warm.profile
    assert "run.build" not in warm.profile
    assert "run.compile" not in warm.profile


@settings(max_examples=8, deadline=None)
@given(workload=st.sampled_from(ALL_WORKLOADS),
       mode=st.sampled_from([ExecMode.NS, ExecMode.BASE]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_replay_equivalence_property(tmp_path_factory, workload, mode, seed):
    """Replay equivalence holds for arbitrary seeds, not just the default."""
    root = tmp_path_factory.mktemp("replay-prop")
    config = SystemConfig.ooo8()
    cache = ResultCache(root)
    live = _live(workload, mode, config, seed=seed)
    trace = record_trace(make_built(workload, config, seed))
    cache.store(trace_key(workload, SCALE, seed, config), trace,
                kind="replay")
    loaded = load_or_record(workload, SCALE, seed, config, cache)
    assert isinstance(loaded, FunctionalTrace) and loaded is not trace
    assert cache.hits == 1
    replayed = run_workload(loaded, mode, config=config, scale=SCALE,
                            seed=seed)
    _assert_identical(live, replayed)


def make_built(workload: str, config: SystemConfig, seed: int):
    wl = make_workload(workload, scale=SCALE, seed=seed)
    wl.build(AddressSpace(config))
    return wl


def test_replay_identical_across_modes_from_one_trace(cache_dir):
    """One recorded trace serves every mode bit-identically."""
    config = SystemConfig.ooo8()
    cold = run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE)
    assert "run.record" in cold.profile
    for mode in (ExecMode.BASE, ExecMode.INST, ExecMode.NS_DECOUPLE):
        live = _live("bfs_push", mode, config)
        warm = run_workload("bfs_push", mode, config=config, scale=SCALE)
        assert "run.replay" in warm.profile
        _assert_identical(live, warm)


def test_trace_roundtrips_through_pickle():
    """The packed SoA layout survives serialization exactly."""
    import pickle

    config = SystemConfig.ooo8()
    wl = make_built("hash_join", config, 42)
    trace = record_trace(wl)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.workload == trace.workload
    assert clone.schema == trace.schema
    assert len(clone.phases) == len(trace.phases)
    for orig, phase in zip(wl.phases(), clone.phase_programs()):
        rebuilt, program = phase
        assert list(rebuilt.traces) == list(orig.traces)  # order preserved
        assert rebuilt.invocations == orig.invocations
        assert rebuilt.barrier_count == orig.barrier_count
        assert rebuilt.data_scale == orig.data_scale
        assert program.kernel.name == orig.kernel.name
        for name, t in orig.traces.items():
            r = rebuilt.traces[name]
            assert np.array_equal(r.vaddrs, t.vaddrs)
            assert r.is_write == t.is_write
            assert r.element_bytes == t.element_bytes
            assert r.affine_fraction == t.affine_fraction
            if t.modifies is None:
                assert r.modifies is None
            else:
                assert np.array_equal(r.modifies, t.modifies)
            if t.chain_lengths is None:
                assert r.chain_lengths is None
            else:
                assert np.array_equal(r.chain_lengths, t.chain_lengths)


def test_replay_refuses_mismatched_config():
    config = SystemConfig.ooo8()
    wl = make_built("bfs_push", config, 42)
    trace = record_trace(wl)
    for other in (SystemConfig.ooo8(cores=16),
                  dataclasses.replace(config, use_huge_pages=False)):
        with pytest.raises(ValueError, match="different address layout"):
            run_workload(trace, ExecMode.NS, config=other, scale=SCALE)


def test_poisoned_trace_quarantines_and_falls_back(cache_dir):
    """A corrupt replay envelope degrades to a live build, bit-identically."""
    config = SystemConfig.ooo8()
    live = _live("bfs_push", ExecMode.NS, config)
    cold = run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE)
    key = trace_key("bfs_push", SCALE, 42, config)
    path = cache_dir / key[:2] / f"{key}.pkl"
    assert path.exists()
    path.write_bytes(b"\x80\x04 flipped bits, not a cache entry")
    rebuilt = run_workload("bfs_push", ExecMode.NS, config=config,
                           scale=SCALE)
    _assert_identical(live, cold)
    _assert_identical(live, rebuilt)
    # The poisoned entry was quarantined, the run re-recorded the trace,
    # and the store degraded transparently (lookup never raised).
    quarantined = list((cache_dir / "quarantine").glob("*.pkl"))
    assert quarantined, "corrupt entry was not quarantined"
    assert "run.build" in rebuilt.profile
    assert "run.record" in rebuilt.profile
    again = run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE)
    assert "run.replay" in again.profile
    _assert_identical(live, again)


def test_foreign_value_under_trace_key_is_a_miss(cache_dir):
    """A valid envelope holding the wrong type must not be replayed:
    the trace is recorded afresh instead."""
    from repro.sim.profiler import Profiler

    config = SystemConfig.ooo8()
    cache = result_cache.get_default_cache()
    cache.store(trace_key("bfs_push", SCALE, 42, config),
                {"not": "a trace"}, kind="replay")
    profiler = Profiler()
    trace = load_or_record("bfs_push", SCALE, 42, config, cache, profiler)
    assert isinstance(trace, FunctionalTrace)
    assert "run.record" in profiler.stages


def test_no_replay_env_disables_fast_path(cache_dir, monkeypatch):
    config = SystemConfig.ooo8()
    monkeypatch.setenv("REPRO_NO_REPLAY", "1")
    result = run_workload("bfs_push", ExecMode.NS, config=config,
                          scale=SCALE)
    assert "run.replay" not in result.profile
    assert "run.record" not in result.profile
    assert not cache_dir.exists()  # the store was never touched
    monkeypatch.delenv("REPRO_NO_REPLAY")
    live = _live("bfs_push", ExecMode.NS, config)
    _assert_identical(live, result)


def test_sweep_groups_by_functional_key():
    """Modes, sample_cores, and fault plans share one group."""
    config = SystemConfig.ooo8()
    points = [
        SweepPoint("bfs_push", ExecMode.NS, config, scale=SCALE),
        SweepPoint("bfs_push", ExecMode.BASE, config, scale=SCALE),
        SweepPoint("bfs_push", ExecMode.NS, config, scale=SCALE,
                   sample_cores=2),
        SweepPoint("bfs_push", ExecMode.NS, config, scale=SCALE,
                   fault_plan=FaultPlan.uniform(10.0)),
    ]
    keys = {_group_key(p) for p in points}
    assert len(keys) == 1
    assert len({_group_key(p) for p in points + [
        SweepPoint("bfs_push", ExecMode.NS, config, scale=SCALE, seed=7)
    ]}) == 2


def test_sweep_replays_bit_identically(cache_dir):
    """A cached sweep records one trace and every point matches live."""
    config = SystemConfig.ooo8()
    cache = result_cache.get_default_cache()
    modes = [ExecMode.NS, ExecMode.BASE, ExecMode.INST]
    points = [SweepPoint("hash_join", m, config, scale=SCALE)
              for m in modes]
    results = run_sweep(points, jobs=1, cache=cache)
    assert results.ok
    for point in points:
        live = _live("hash_join", point.mode, config)
        assert results[point].to_dict() == live.to_dict()
    # Exactly one replay artifact was recorded for the whole group.
    disk = cache.disk_stats(by_kind=True)
    assert disk["kinds"].get("replay", {}).get("entries") == 1
    # A second sweep is all cache hits (results) — nothing re-simulated.
    again = run_sweep(points, jobs=1, cache=cache)
    for point in points:
        assert again[point].to_dict() == results[point].to_dict()


def test_uncached_sweep_writes_nothing(tmp_path, monkeypatch):
    """In-memory replay in an uncached sweep leaves the disk untouched."""
    root = tmp_path / "never-created"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    old = result_cache._default_cache
    result_cache.set_default_cache(root)
    try:
        config = SystemConfig.ooo8()
        points = [SweepPoint("hash_join", m, config, scale=SCALE)
                  for m in (ExecMode.NS, ExecMode.BASE)]
        results = run_sweep(points, jobs=1, cache=None)
        assert results.ok and len(results) == 2
        assert not root.exists()
        for point in points:
            live = _live("hash_join", point.mode, config)
            assert results[point].to_dict() == live.to_dict()
    finally:
        result_cache._default_cache = old


def test_fault_plan_replays_identically(cache_dir):
    """Faults are replay-invariant: same seeds, same episodes, on replay."""
    from repro.fault.plan import FaultPlan

    config = SystemConfig.ooo8()
    plan = FaultPlan.uniform(500.0, seed=3)
    wl = make_built("bfs_push", config, 42)
    live = run_workload(wl, ExecMode.NS, config=config, scale=SCALE,
                        fault_plan=plan)
    cold = run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE,
                        fault_plan=plan)
    warm = run_workload("bfs_push", ExecMode.NS, config=config, scale=SCALE,
                        fault_plan=plan)
    assert "run.replay" in warm.profile and "run.build" not in warm.profile
    _assert_identical(live, cold)
    _assert_identical(live, warm)
    assert warm.faults is not None
    assert warm.faults.to_dict() == live.faults.to_dict()
