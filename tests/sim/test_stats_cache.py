"""The derived stream geometry stored with each functional trace must be
invisible: loading it is bit-identical to recomputing from the trace.

Same discipline as the replay-equivalence suite: the optimized path
(compute stream geometry once, store it inside the trace's entry, reuse
it on every later run of any mode or SE knob) is property-tested against
fresh computation for every workload on the paper's mesh sweep axis
{4x4, 8x8, 32x32}, under the suite-wide strict sanitizer
(``$REPRO_TRACE=1``).  Corruption, schema drift, and layout mismatches
must all degrade to recomputation or a clear error — never to a wrong
answer.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.eval.result_cache import KIND_REPLAY
from repro.offload.modes import ExecMode
from repro.sim.machine import Machine
from repro.sim.phase import PhaseEngine
from repro.sim.replay import REPLAY_SCHEMA
from repro.sim.run import run_workload
from repro.sim.tracestats import compute_phase_stats, hops_matrix
from repro.workloads import all_workload_names
from repro.workloads.build_cache import load_or_record, save_trace, \
    trace_key

SCALE = 1.0 / 256.0
ALL_WORKLOADS = all_workload_names()
MESHES = (4, 8, 32)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Isolated persistent cache for one test (env + default cache)."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    old = result_cache._default_cache
    result_cache.set_default_cache(root)
    yield root
    result_cache._default_cache = old


def _entry_path(cache_dir, key):
    return cache_dir / key[:2] / f"{key}.pkl"


def _stored(workload, config):
    """The trace entry as stored (None on a miss)."""
    return result_cache.get_default_cache().lookup(
        trace_key(workload, SCALE, 42, config))


def _assert_stream_stats_equal(unpacked, fresh):
    """Field-by-field bit-identity of two per-stream stats dicts."""
    assert set(unpacked) == set(fresh)
    for name, a in unpacked.items():
        b = fresh[name]
        assert a.name == b.name
        assert a.elements == b.elements
        assert a.element_bytes == b.element_bytes
        assert np.array_equal(a.lines, b.lines)
        assert np.array_equal(a.banks, b.banks)
        assert np.array_equal(a.cores, b.cores)
        assert a.line_fetches == b.line_fetches
        assert a.migrations == b.migrations
        assert a.migration_hops == b.migration_hops
        assert a.mean_hops_core_bank == b.mean_hops_core_bank
        assert a.pages_touched == b.pages_touched
        assert a.distinct_lines == b.distinct_lines
        assert a.is_write == b.is_write
        assert a.affine_fraction == b.affine_fraction
        assert a.alloc_region == b.alloc_region


@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_stats_bundle_bit_identical(workload, mesh, cache_dir):
    """All 14 workloads x {4x4, 8x8, 32x32}: cold == warm, and the stored
    stats unpack to exactly what a fresh computation gives."""
    config = SystemConfig.paper_mesh(mesh)
    cold = run_workload(workload, config=config, scale=SCALE)
    assert "run.store" in cold.profile
    warm = run_workload(workload, config=config, scale=SCALE)
    assert "run.store" not in warm.profile  # loaded, not rebuilt
    assert "run.build" not in warm.profile
    assert warm.to_dict() == cold.to_dict()
    if warm.trace is not None:
        assert warm.trace.violations == 0

    # Unpack the stored stats directly and compare against a
    # from-scratch computation, stream by stream, array by array.  This
    # is the mode-independence proof: every mode consumes these objects.
    trace = _stored(workload, config)
    assert trace.stats is not None
    assert len(trace.stats) == len(trace.phases)
    machine = Machine.build(config, sample_cores=4, data_scale=SCALE)
    hmat = hops_matrix(machine.mesh)
    for i, (phase, _) in enumerate(trace.phase_programs()):
        unpacked = trace.stats[i].to_stats(phase, machine.mesh)
        fresh = compute_phase_stats(phase.traces, trace.space,
                                    machine.mesh, hmat,
                                    config.page_bytes)
        _assert_stream_stats_equal(unpacked, fresh)


@pytest.mark.parametrize("mesh", MESHES)
def test_cross_mode_warm_equals_uncached(mesh, cache_dir, monkeypatch):
    """Every mode replayed with the stored stats matches the same mode
    replaying a copy of the trace without them (geometry recomputed).
    A mode's first run writes its cache walk back when the entry lacks
    it; its second run writes nothing and walks nothing."""
    config = SystemConfig.paper_mesh(mesh)
    run_workload("bfs_push", config=config, scale=SCALE)  # populate
    cache = result_cache.get_default_cache()
    walks = []
    walk = PhaseEngine._walk_caches
    monkeypatch.setattr(PhaseEngine, "_walk_caches",
                        lambda self: walks.append(1) or walk(self))
    for mode in (ExecMode.BASE, ExecMode.INST, ExecMode.NS,
                 ExecMode.NS_DECOUPLE):
        run_workload("bfs_push", mode, config=config, scale=SCALE)
        written = cache.bytes_written
        walks.clear()
        warm = run_workload("bfs_push", mode, config=config, scale=SCALE)
        assert "run.store" not in warm.profile
        assert cache.bytes_written == written and walks == [], mode
        bare = dataclasses.replace(_stored("bfs_push", config), stats=None)
        live = run_workload(bare, mode, config=config, scale=SCALE)
        assert warm.to_dict() == live.to_dict()


def test_poisoned_bundle_quarantines_and_recomputes(cache_dir):
    """Poisoning the combined entry quarantines it; the next run
    rebuilds, recomputes geometry and stores a good entry again."""
    config = SystemConfig.ooo8()
    cold = run_workload("histogram", config=config, scale=SCALE)
    path = _entry_path(cache_dir, trace_key("histogram", SCALE, 42, config))
    assert path.exists()
    path.write_bytes(b"this is not a checksummed envelope")

    again = run_workload("histogram", config=config, scale=SCALE)
    assert again.to_dict() == cold.to_dict()
    # The corrupt entry moved aside, the run rebuilt, recomputed
    # geometry and re-recorded a good entry in its place.
    assert list((cache_dir / "quarantine").glob("*.pkl"))
    assert "run.build" in again.profile and "run.store" in again.profile
    assert _stored("histogram", config).stats is not None


def test_foreign_payload_under_stats_key_is_a_miss(cache_dir):
    """A stale-schema trace or a foreign value under the key never
    reaches a run: it is re-recorded."""
    config = SystemConfig.ooo8()
    run_workload("memset", config=config, scale=SCALE)
    cache = result_cache.get_default_cache()
    key = trace_key("memset", SCALE, 42, config)
    stale = dataclasses.replace(_stored("memset", config),
                                schema=REPLAY_SCHEMA - 1)
    for value in (stale, {"not": "a trace"}):
        cache.store(key, value, kind=KIND_REPLAY)
        got = load_or_record("memset", SCALE, 42, config, cache)
        assert got.schema == REPLAY_SCHEMA and got.stats is None


def test_config_fingerprint_mismatch_rejected(cache_dir):
    """Stored geometry is bound to the address layout: a trace from
    another mesh is refused (wrong banks and hops), one from another SE
    knob on the same layout is replayed."""
    config = SystemConfig.ooo8()
    run_workload("vecsum", config=config, scale=SCALE)
    trace = _stored("vecsum", config)
    assert trace.stats is not None

    other = SystemConfig.paper_mesh(4)
    assert trace_key("vecsum", SCALE, 42, other) != \
        trace_key("vecsum", SCALE, 42, config)
    assert _stored("vecsum", other) is None
    with pytest.raises(ValueError, match="different address layout"):
        run_workload(trace, config=other, scale=SCALE)

    knob = config.with_se(scc_rob_entries=8)
    assert _stored("vecsum", knob) is not None
    replayed = run_workload(trace, config=knob, scale=SCALE)
    assert replayed.to_dict() == run_workload(
        "vecsum", config=knob, scale=SCALE, use_replay=False).to_dict()


def test_stale_bundle_falls_back_to_recompute(cache_dir):
    """A pack whose streams do not describe the phase raises ValueError
    at unpack, which ``geometry_for`` treats as a miss."""
    config = SystemConfig.ooo8()
    run_workload("srad", config=config, scale=SCALE)
    trace = _stored("srad", config)
    pack = trace.stats[0]
    renamed = dataclasses.replace(pack, names=["bogus"] * len(pack.names))
    phase, _ = trace.phase_programs()[0]
    machine = Machine.build(config, sample_cores=4, data_scale=SCALE)
    with pytest.raises(ValueError):
        renamed.to_stats(phase, machine.mesh)

    # End to end: replay a trace carrying the doctored pack; the run
    # must still be bit-identical because geometry_for degrades to
    # recomputing.
    trace.stats = [renamed] + list(trace.stats[1:])
    doctored = run_workload(trace, config=config, scale=SCALE)
    clean = run_workload("srad", config=config, scale=SCALE)
    assert doctored.to_dict() == clean.to_dict()


def test_stats_ride_inside_the_replay_entry(cache_dir):
    """One entry per trace: the cold run writes exactly one replay
    entry (no build or stats kinds), the warm run writes nothing."""
    cold = run_workload("histogram", scale=SCALE)
    cache = result_cache.get_default_cache()
    kinds = cache.disk_stats(by_kind=True)["kinds"]
    assert {k: v["entries"] for k, v in kinds.items()} == {"replay": 1}
    written = cache.bytes_written
    warm = run_workload("histogram", scale=SCALE)
    assert warm.to_dict() == cold.to_dict()
    assert cache.bytes_written == written


def test_bundle_survives_pickle_but_trace_memo_does_not(cache_dir):
    """The stored stats round-trip; the in-process memo never leaks into
    a pickled FunctionalTrace."""
    config = SystemConfig.ooo8()
    run_workload("hash_join", config=config, scale=SCALE)
    trace = _stored("hash_join", config)
    run_workload(trace, config=config, scale=SCALE)   # fills the memo
    assert trace._geometry
    clone = pickle.loads(pickle.dumps(trace))
    assert clone.workload == trace.workload
    assert clone.layout == trace.layout
    assert clone.nbytes == trace.nbytes
    assert len(clone.stats) == len(trace.stats)
    assert clone._geometry == {}


def test_store_stats_requires_full_memo(cache_dir):
    """save_trace writes nothing until a run populated every phase."""
    config = SystemConfig.ooo8()
    cache = result_cache.get_default_cache()
    trace = load_or_record("bfs_push", SCALE, 42, config, cache)
    assert not trace.pack_stats()            # fresh record: memo empty
    assert not save_trace(trace, cache)
    assert _stored("bfs_push", config) is None

    run_workload(trace, config=config, scale=SCALE)
    assert save_trace(trace, cache)
    assert _stored("bfs_push", config).stats is not None


def test_cache_stats_cli_reports_stats_kind(cache_dir, capsys):
    """``repro cache stats`` shows the replay kind that now holds the
    stream geometry, and no separate build or stats kind."""
    from repro.cli import main

    run_workload("histogram", scale=SCALE)
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "replay  : 1" in out
    assert "build" not in out and "stats   :" not in out
