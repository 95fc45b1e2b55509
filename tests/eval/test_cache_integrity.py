"""Checksummed cache envelopes, quarantine, and the entry-size cap."""

import pickle

import pytest

from repro.eval.result_cache import (CACHE_SCHEMA, KIND_REPLAY,
                                     KIND_RESULT, ResultCache,
                                     max_entry_bytes)

#: Kinds that stores written before traces carried their geometry still
#: hold; nothing looks them up, but they must quarantine like the rest.
LEGACY_KINDS = ["build", "stats"]


def _store_one(tmp_path, value={"x": 1}):
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    assert cache.store(key, value) is True
    return cache, key


def test_round_trip_through_envelope(tmp_path):
    cache, key = _store_one(tmp_path, {"cycles": 1.5, "mode": "ns"})
    assert cache.lookup(key) == {"cycles": 1.5, "mode": "ns"}
    assert cache.quarantined == 0


def test_bit_flip_quarantines(tmp_path):
    cache, key = _store_one(tmp_path)
    path = cache._path(key)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    path.write_bytes(bytes(blob))
    assert cache.lookup(key) is None
    assert cache.quarantined == 1
    assert not path.exists()
    assert list(cache.quarantine_root.iterdir())
    # the slot is rewritable after quarantine
    assert cache.store(key, "fresh") is True
    assert cache.lookup(key) == "fresh"


def test_truncation_quarantines(tmp_path):
    cache, key = _store_one(tmp_path)
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.lookup(key) is None
    assert cache.quarantined == 1


def test_foreign_pickle_quarantines(tmp_path):
    """Pre-envelope (schema ≤2) entries are raw pickles: quarantined."""
    cache, key = _store_one(tmp_path)
    cache._path(key).write_bytes(
        pickle.dumps({"legacy": "result"}))
    assert cache.lookup(key) is None
    assert cache.quarantined == 1


def test_schema_mismatch_quarantines(tmp_path):
    cache, key = _store_one(tmp_path)
    envelope = pickle.loads(cache._path(key).read_bytes())
    envelope["schema"] = CACHE_SCHEMA + 1
    cache._path(key).write_bytes(pickle.dumps(envelope))
    assert cache.lookup(key) is None
    assert cache.quarantined == 1


@pytest.mark.parametrize("kind", [KIND_RESULT, KIND_REPLAY]
                         + LEGACY_KINDS)
@pytest.mark.parametrize("corrupt", ["torn", "flip"])
def test_every_kind_quarantines_torn_and_flipped(tmp_path, kind, corrupt):
    """The quarantine contract holds for every artifact kind — replay
    traces (and legacy entries) degrade exactly like results."""
    cache = ResultCache(tmp_path / f"{kind}-{corrupt}")
    key = "ab" + "0" * 62
    assert cache.store(key, {"kind": kind}, kind=kind) is True
    path = cache._path(key)
    blob = bytearray(path.read_bytes())
    if corrupt == "torn":
        path.write_bytes(bytes(blob[:len(blob) // 2]))
    else:
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
    assert cache.lookup(key) is None
    assert cache.quarantined == 1
    assert list(cache.quarantine_root.glob("*.pkl"))
    # the slot is immediately rewritable with a fresh artifact
    assert cache.store(key, {"kind": kind}, kind=kind) is True
    assert cache.lookup(key) == {"kind": kind}


@pytest.mark.parametrize("kind_label", ["replay", "stats"])
def test_corrupt_replay_and_stats_entries_recompute_identically(
        tmp_path, monkeypatch, kind_label):
    """End to end: damaging the trace entry a sweep wrote never changes
    numbers.  ``replay``: flipped bytes in the envelope quarantine it and
    the re-sweep rebuilds.  ``stats``: a well-formed entry whose packed
    geometry no longer describes the trace — first its stream names,
    then one stream-pair entry — makes the re-sweep recompute the
    geometry.  Each damage is bit-identical to the first sweep, rewrites
    the entry once, and the sweep after that replays the stored geometry
    without recomputing it."""
    import dataclasses

    from repro.config import SystemConfig
    from repro.eval.sweep import SweepPoint, run_sweep
    from repro.offload.modes import ExecMode
    from repro.sim import replay
    from repro.sim.tracestats import PairGeometry
    from repro.workloads.build_cache import trace_key

    cache = ResultCache(tmp_path)
    config = SystemConfig.ooo8()
    point = SweepPoint("histogram", ExecMode.NS, config, scale=1.0 / 256.0)
    first = run_sweep([point], jobs=1, cache=cache)[point]

    key = trace_key("histogram", point.scale, point.seed, config)
    path = cache._path(key)
    assert ResultCache._entry_kind(path.read_bytes()) == KIND_REPLAY
    n_phases = len(cache.lookup(key).phases)

    def flip_bytes():
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        path.write_bytes(bytes(blob))

    def repack(damage):
        trace = cache.lookup(key)
        trace.stats = [damage(p) for p in trace.stats]
        assert cache.store(key, trace, kind=KIND_REPLAY)

    def rename_streams():
        repack(lambda p: dataclasses.replace(
            p, names=["bogus"] * len(p.names)))

    def bogus_pair():
        repack(lambda p: dataclasses.replace(
            p, pairs={**p.pairs, ("hops", "bogus", p.names[0]): 1.0}))

    def drop_results():
        # so a re-sweep exercises the trace entry instead of
        # short-circuiting on cached results
        for entry in cache.root.rglob("*.pkl"):
            if cache.quarantine_root not in entry.parents \
                    and ResultCache._entry_kind(entry.read_bytes()) \
                    == "result":
                entry.unlink()

    computed, pairs = [], []
    compute = replay.compute_phase_stats
    get = PairGeometry._get

    def counting(*args, **kwargs):
        computed.append(1)
        return compute(*args, **kwargs)

    def counting_get(self, pair_key, *args):
        if pair_key not in self.entries:
            pairs.append(pair_key)
        return get(self, pair_key, *args)

    monkeypatch.setattr(replay, "compute_phase_stats", counting)
    monkeypatch.setattr(PairGeometry, "_get", counting_get)
    damages = ([flip_bytes] if kind_label == "replay"
               else [rename_streams, bogus_pair])
    for damage in damages:
        damage()
        del computed[:], pairs[:]
        drop_results()
        before = cache.entry_identity(key)
        fresh = ResultCache(tmp_path)
        results = run_sweep([point], jobs=1, cache=fresh)
        assert results.ok
        assert results[point].to_dict() == first.to_dict()
        # quarantining happened in the group's own cache handle; the
        # files in the shared quarantine directory are the durable
        # evidence
        quarantined = list(fresh.quarantine_root.glob("*.pkl"))
        assert len(quarantined) == (1 if kind_label == "replay" else 0)
        # one recompute and one rewrite: the entry now carries geometry
        # for its phases, pairs included
        assert len(computed) == n_phases and pairs
        rewritten_at = cache.entry_identity(key)
        assert rewritten_at != before
        rewritten = ResultCache(tmp_path).lookup(key)
        assert [p.names for p in rewritten.stats] \
            == [p.names for p in rewritten.phases]
        assert all(p.pairs and all(k[1] != "bogus" for k in p.pairs)
                   for p in rewritten.stats)

        drop_results()
        del pairs[:]
        again = run_sweep([point], jobs=1, cache=ResultCache(tmp_path))
        assert again[point].to_dict() == first.to_dict()
        assert len(computed) == n_phases  # the packed geometry served it
        assert pairs == []
        assert cache.entry_identity(key) == rewritten_at


def test_stats_and_disk_stats_exclude_quarantine(tmp_path):
    cache, key = _store_one(tmp_path)
    cache._path(key).write_bytes(b"garbage")
    cache.lookup(key)
    disk = cache.disk_stats()
    assert disk["entries"] == 0  # quarantined files are not live entries
    stats = cache.stats()
    assert stats["quarantined"] == 1
    assert stats["misses"] == 1


def test_max_entry_bytes_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    assert max_entry_bytes() == int(512 * 1024 * 1024)
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.5")
    assert max_entry_bytes() == int(1.5 * 1024 * 1024)
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
    assert max_entry_bytes() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "banana")
    assert max_entry_bytes() == int(512 * 1024 * 1024)


def test_oversized_entry_is_skipped(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.0001")  # ~100 bytes
    cache = ResultCache(tmp_path)
    key = "cd" + "1" * 62
    assert cache.store(key, "x" * 10_000) is False
    assert cache.oversize_skips == 1
    assert cache.lookup(key) is None
    assert not cache._path(key).exists()


def _recorded_trace(cache):
    """A freshly recorded histogram trace whose geometry is derived."""
    from repro.config import SystemConfig
    from repro.sim.run import run_workload
    from repro.workloads.build_cache import load_or_record

    config = SystemConfig.ooo8()
    trace = load_or_record("histogram", 1.0 / 256.0, 42, config, cache)
    run_workload(trace, config=config, scale=1.0 / 256.0)
    return trace


def test_oversized_build_warns_once_per_call(tmp_path, monkeypatch):
    from repro.workloads.build_cache import save_trace

    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.0001")
    cache = ResultCache(tmp_path)
    trace = _recorded_trace(cache)
    with pytest.warns(UserWarning, match="REPRO_CACHE_MAX_MB"):
        assert save_trace(trace, cache) is False
    assert trace.stats is not None  # still usable in this process
    assert cache.disk_stats()["entries"] == 0


def test_unpicklable_build_warns_and_degrades(tmp_path):
    from repro.workloads.build_cache import save_trace

    cache = ResultCache(tmp_path)
    trace = _recorded_trace(cache)
    trace.space._unpicklable = lambda: None  # lambdas cannot pickle
    with pytest.warns(UserWarning, match="unpicklable"):
        assert save_trace(trace, cache) is False
    assert trace.stats is not None
    assert cache.disk_stats()["entries"] == 0
