"""The content-keyed functional-trace store: one entry per workload and
address layout, loaded or recorded by ``load_or_record`` and written by
``save_trace`` once a run derived the trace's stream geometry; the trace
a process last loaded serves the next run of its key while its entry is
unchanged."""

import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.eval.result_cache import ResultCache
from repro.mem.address import AddressSpace
from repro.offload.modes import ExecMode
from repro.sim import replay
from repro.sim.run import run_workload
from repro.workloads import build_cache
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
    assert warm.stats is not None and not warm._geometry
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


# ----------------------------------------------------------------------
# The trace a process last loaded serves the next by-name run of its key
# ----------------------------------------------------------------------
@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh default store and no remembered trace."""
    from repro.eval import result_cache as rc
    monkeypatch.setattr(rc, "_default_cache",
                        ResultCache(tmp_path / "store"))
    monkeypatch.setattr(build_cache, "_last_loaded", None)
    return rc._default_cache


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends its first argument."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _loaded(cache, name="memset", **kw):
    """Store ``name``'s trace with a cold run, then load it (remembered)."""
    run_workload(name, scale=SCALE, **kw)
    trace = load_or_record(name, SCALE, kw.get("seed", 42),
                           kw.get("config", CFG), cache)
    assert build_cache._last_loaded[3] is trace
    return trace


def test_second_mode_reuses_the_loaded_trace(store, monkeypatch):
    """Of two by-name runs of one stored key, the first loads and the
    second reads, checks and decodes nothing; both equal the live path."""
    run_workload("histogram", ExecMode.BASE, scale=SCALE)  # records
    first = run_workload("histogram", ExecMode.NS, scale=SCALE)
    lookups = _count_calls(monkeypatch, ResultCache, "lookup")
    decodes = _count_calls(monkeypatch, replay, "unpack_slices")
    second = run_workload("histogram", ExecMode.INST, scale=SCALE)
    assert (lookups, decodes) == ([], [])
    assert "run.replay" in second.profile
    assert "run.build" not in second.profile
    for mode, result in ((ExecMode.NS, first), (ExecMode.INST, second)):
        live = run_workload("histogram", mode, scale=SCALE,
                            use_replay=False)
        assert result.to_dict() == live.to_dict()


def test_reuse_counts_a_hit_and_reads_no_bytes(store):
    _loaded(store)
    hits, read = store.hits, store.bytes_read
    run_workload("memset", ExecMode.INST, scale=SCALE)
    assert (store.hits, store.bytes_read) == (hits + 1, read)
    assert store.misses == 1                     # the cold run's only


@pytest.mark.parametrize("change", ["workload", "seed", "scale", "layout",
                                    "store"])
def test_another_key_or_store_looks_up_after_releasing_the_trace(
        store, tmp_path, monkeypatch, change):
    """Any other key — or the same key in another store — makes a real
    lookup, and the remembered trace is already released when it runs,
    so two decoded traces are never alive at once."""
    ref = weakref.ref(_loaded(store))
    args = {"workload": "memset", "seed": 42, "scale": SCALE,
            "config": CFG, "cache": store}
    args.update({"workload": {"workload": "vecsum"},
                 "seed": {"seed": 43},
                 "scale": {"scale": SCALE / 2},
                 "layout": {"config": SystemConfig.ooo8(cores=16)},
                 "store": {"cache": ResultCache(tmp_path / "other")},
                 }[change])
    released = []
    real = ResultCache.lookup

    def lookup(self, key):
        gc.collect()
        released.append(ref() is None)
        return real(self, key)

    monkeypatch.setattr(ResultCache, "lookup", lookup)
    load_or_record(args["workload"], args["scale"], args["seed"],
                   args["config"], args["cache"])
    assert released == [True]
    gc.collect()
    assert ref() is None


def test_rewritten_entry_is_quarantined_and_rebuilt(store):
    """The remembered entry rewritten with one byte flipped: the next
    run reads it, quarantines it and rebuilds the same result."""
    _loaded(store)
    want = run_workload("memset", ExecMode.NS, scale=SCALE)
    path = store._path(trace_key("memset", SCALE, 42, CFG))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(bytes(blob))
    os.replace(tmp, path)
    got = run_workload("memset", ExecMode.NS, scale=SCALE)
    assert store.quarantined == 1
    assert "run.build" in got.profile and "run.store" in got.profile
    assert got.to_dict() == want.to_dict()


def test_deleted_entry_records_again(store):
    _loaded(store)
    want = run_workload("memset", ExecMode.NS, scale=SCALE)
    assert store.clear() == 1
    got = run_workload("memset", ExecMode.NS, scale=SCALE)
    assert "run.build" in got.profile and "run.record" in got.profile
    assert got.to_dict() == want.to_dict()


def test_recorded_and_uncached_traces_are_not_remembered(store):
    run_workload("memset", scale=SCALE)           # records and stores
    assert build_cache._last_loaded is None
    load_or_record("memset", SCALE, 42, CFG, None)
    run_workload("memset", scale=SCALE, use_replay=False)
    assert build_cache._last_loaded is None
    trace = load_or_record("memset", SCALE, 42, CFG, store)
    load_or_record("memset", SCALE, 42, CFG, None)
    run_workload("memset", scale=SCALE, use_replay=False)
    assert build_cache._last_loaded[3] is trace


def test_threads_sharing_the_memo_get_their_own_key(store):
    """Sweep-service jobs run groups in threads of one process: however
    their loads interleave, each call returns the trace of its own key."""
    names = ("memset", "vecsum")
    for name in names:
        run_workload(name, scale=SCALE)           # store both traces
    wrong, errors = [], []

    def worker(offset):
        try:
            for i in range(200):
                name = names[(i + offset) % 2]
                trace = load_or_record(name, SCALE, 42, CFG,
                                       ResultCache(store.root))
                if trace.workload != name:
                    wrong.append((name, trace.workload))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert (wrong, errors) == ([], [])
