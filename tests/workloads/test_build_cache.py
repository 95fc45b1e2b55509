"""The content-keyed functional-trace store: one entry per workload and
address layout, loaded or recorded by ``load_or_record`` and written by
``save_trace`` once a run derived the trace's stream geometry."""

import numpy as np

from repro.config import SystemConfig
from repro.eval.result_cache import ResultCache
from repro.mem.address import AddressSpace
from repro.sim.run import run_workload
from repro.workloads.build_cache import load_or_record, save_trace, \
    trace_key

SCALE = 1.0 / 256.0
CFG = SystemConfig.ooo8()


def test_build_key_is_content_addressed():
    a = trace_key("memset", SCALE, 42, CFG)
    assert a == trace_key("memset", SCALE, 42, SystemConfig.ooo8())
    assert a == trace_key("memset", SCALE, 42, CFG.layout)
    assert a != trace_key("vecsum", SCALE, 42, CFG)
    assert a != trace_key("memset", SCALE / 2, 42, CFG)
    assert a != trace_key("memset", SCALE, 43, CFG)
    assert a != trace_key("memset", SCALE, 42, SystemConfig.ooo8(cores=16))
    # Another core on the same mesh and pages: same addresses, one trace.
    assert a == trace_key("memset", SCALE, 42, SystemConfig.io4())


def test_cold_build_stores_warm_build_loads(tmp_path):
    cache = ResultCache(tmp_path)
    cold = load_or_record("histogram", SCALE, 42, CFG, cache)
    assert (cache.hits, cache.misses) == (0, 1)
    # Not stored yet: the entry is written once geometry exists.
    assert not save_trace(cold, cache)
    assert cache.disk_stats()["entries"] == 0

    run_workload(cold, config=CFG, scale=SCALE)
    assert save_trace(cold, cache)
    assert not save_trace(cold, cache)      # nothing new to write
    assert cache.disk_stats()["entries"] == 1

    warm = load_or_record("histogram", SCALE, 42, CFG, cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm is not cold  # fresh object per lookup, no shared state
    assert warm.workload == cold.workload
    assert len(warm.phases) == len(cold.phases)
    assert warm.stats is not None and not warm._stats
    for a, b in zip(warm.phases, cold.phases):
        assert np.array_equal(a.vaddrs, b.vaddrs)


def test_cached_build_simulates_identically(tmp_path):
    cache = ResultCache(tmp_path)
    results = []
    for _ in range(2):
        trace = load_or_record("bfs_push", SCALE, 42, CFG, cache)
        r = run_workload(trace, config=CFG, scale=SCALE)
        save_trace(trace, cache)
        results.append((r.cycles, r.traffic.total_byte_hops,
                        r.energy_joules, r.core_uops_executed))
    assert cache.hits == 1
    assert results[0] == results[1]


def test_custom_space_opts_out(tmp_path, monkeypatch):
    from repro.eval import result_cache as rc
    monkeypatch.setattr(rc, "_default_cache", ResultCache(tmp_path))
    r = run_workload("memset", scale=SCALE, space=AddressSpace(CFG))
    assert "run.build" in r.profile and "run.replay" not in r.profile
    assert (rc._default_cache.hits, rc._default_cache.misses) == (0, 0)
    assert rc._default_cache.disk_stats()["entries"] == 0


def test_run_consults_store_once_per_run(tmp_path, monkeypatch):
    """One lookup per run: the cold run misses and writes one entry,
    the warm run hits and writes nothing."""
    from repro.eval import result_cache as rc
    monkeypatch.setattr(rc, "_default_cache", ResultCache(tmp_path))
    cold = run_workload("memset", scale=SCALE)
    cache = rc._default_cache
    assert (cache.hits, cache.misses) == (0, 1)
    assert "run.store" in cold.profile
    written = cache.bytes_written
    warm = run_workload("memset", scale=SCALE)
    assert (cache.hits, cache.misses) == (1, 1)
    assert "run.store" not in warm.profile
    assert cache.bytes_written == written
    assert warm.to_dict() == cold.to_dict()


def test_use_replay_flag_skips_the_store(tmp_path, monkeypatch):
    from repro.eval import result_cache as rc
    monkeypatch.setattr(rc, "_default_cache", ResultCache(tmp_path))
    run_workload("memset", scale=SCALE, use_replay=False)
    assert (rc._default_cache.hits, rc._default_cache.misses) == (0, 0)
    assert rc._default_cache.disk_stats()["entries"] == 0
