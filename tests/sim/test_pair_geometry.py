"""Stream-pair geometry stored with each trace must be invisible.

:class:`~repro.sim.tracestats.PairGeometry` holds what the placement and
traffic stages reduce from pairs of whole element arrays: forward
groups, mean bank hops and NS_no-comp's load-overlap test.  A stored
trace carries every entry its program can ask for, so a run on a
just-loaded trace computes none of them, and each entry read back
equals a fresh computation exactly.  Runs that do not store
(``use_replay=False``) compute only what their mode asks for.
"""

import pickle

import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.eval.result_cache import ResultCache
from repro.offload.modes import ExecMode
from repro.sim.machine import Machine
from repro.sim.run import run_workload
from repro.sim.tracestats import (PairGeometry, compute_phase_stats,
                                  hops_matrix)
from repro.workloads import all_workload_names, build_cache
from repro.workloads.build_cache import trace_key

SCALE = 1.0 / 256.0
ALL_WORKLOADS = all_workload_names()


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Isolated store, with no trace remembered from an earlier test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(build_cache, "_last_loaded", None)
    old = result_cache._default_cache
    result_cache.set_default_cache(tmp_path)
    yield tmp_path
    result_cache._default_cache = old


@pytest.fixture
def computed(monkeypatch):
    """Keys of the pair-geometry entries computed (not read) from here on."""
    keys = []
    original = PairGeometry._get

    def counting(self, key, *args):
        if key not in self.entries:
            keys.append(key)
        return original(self, key, *args)

    monkeypatch.setattr(PairGeometry, "_get", counting)
    return keys


def _stored(workload, config):
    return result_cache.get_default_cache().lookup(
        trace_key(workload, SCALE, 42, config))


@pytest.mark.parametrize("mesh", (8, 16))
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_stored_pairs_equal_a_fresh_computation(cache_dir, workload, mesh):
    config = SystemConfig.paper_mesh(mesh)
    run_workload(workload, ExecMode.BASE, config=config, scale=SCALE)
    trace = _stored(workload, config)
    mesh_model = Machine.build(config, data_scale=SCALE).mesh
    hmat = hops_matrix(mesh_model)
    for i, (phase, program) in enumerate(trace.phase_programs()):
        stored = trace.stats[i].to_geometry(phase, program, mesh_model)
        fresh = PairGeometry(program, phase,
                             compute_phase_stats(phase.traces, trace.space,
                                                 mesh_model, hmat,
                                                 config.page_bytes),
                             mesh_model)
        fresh.complete()
        assert stored.entries == fresh.entries
        assert "forwards" in {key[0] for key in stored.entries}


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_runs_on_a_loaded_trace_compute_no_pair_geometry(
        cache_dir, computed, workload):
    config = SystemConfig.ooo8()
    run_workload(workload, ExecMode.BASE, config=config, scale=SCALE)
    assert computed, "the stored entry was not completed"
    build_cache._last_loaded = None    # the next run loads and decodes
    computed.clear()
    for mode in ExecMode:
        replayed = run_workload(workload, mode, config=config, scale=SCALE)
        assert computed == [], mode
        live = run_workload(workload, mode, config=config, scale=SCALE,
                            use_replay=False)
        computed.clear()
        assert replayed.to_dict() == live.to_dict(), mode


def test_uncached_base_run_computes_no_pair_geometry(cache_dir, computed):
    run_workload("bfs_push", ExecMode.BASE, config=SystemConfig.ooo8(),
                 scale=SCALE, use_replay=False)
    assert computed == []


def test_stored_entry_carries_pairs_and_no_level_counts(cache_dir):
    """The cold run that writes the entry has walked the caches and
    asked for pairs; the entry holds the completed pairs, not the walk."""
    config = SystemConfig.ooo8()
    run_workload("hotspot", ExecMode.NS, config=config, scale=SCALE)
    cache = result_cache.get_default_cache()
    key = trace_key("hotspot", SCALE, 42, config)
    payload = ResultCache._payload(cache._path(key).read_bytes())
    assert b"_levels" not in payload and b"_geometry" not in payload
    trace = pickle.loads(payload)
    assert trace.stats and all(pack.pairs for pack in trace.stats)
    assert trace._levels == {} and trace._geometry == {}


def test_damaged_pair_entry_is_refused(cache_dir):
    config = SystemConfig.ooo8()
    run_workload("srad", ExecMode.BASE, config=config, scale=SCALE)
    trace = _stored("srad", config)
    pack = trace.stats[0]
    phase, program = trace.phase_programs()[0]
    mesh = Machine.build(config, data_scale=SCALE).mesh
    name = pack.names[0]
    for key, value in ((("hops", "bogus", name), 1.0),
                       (("hops", name, name), "far"),
                       (("hops", name), 1.0),
                       (("mc", name), 1.0),
                       (("overlap", -1), True),
                       (("forwards",), ()),
                       (("level", name), 1.0)):
        damaged = dict(pack.pairs)
        damaged[key] = value
        with pytest.raises(ValueError):
            PairGeometry(program, phase, pack.to_stats(phase, mesh), mesh,
                         entries=damaged)
