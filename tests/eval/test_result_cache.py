"""The persistent result cache: keys, round trips, and invalidation."""

import pytest

from repro.config import SystemConfig
from repro.eval.experiments import _SWEEP_CACHE, EvalConfig, run_all_modes
from repro.eval.result_cache import ResultCache, config_fingerprint, \
    point_key
from repro.eval.sweep import SweepPoint, run_sweep
from repro.offload.modes import ExecMode

SCALE = 1.0 / 256.0


def test_key_is_content_addressed():
    a = point_key("srad", ExecMode.NS, SystemConfig.ooo8(), SCALE, 42, 4)
    b = point_key("srad", ExecMode.NS, SystemConfig.ooo8(), SCALE, 42, 4)
    assert a == b  # equal-but-distinct configs share a key
    assert a != point_key("srad", ExecMode.BASE, SystemConfig.ooo8(),
                          SCALE, 42, 4)
    assert a != point_key("srad", ExecMode.NS, SystemConfig.io4(),
                          SCALE, 42, 4)
    assert a != point_key("srad", ExecMode.NS, SystemConfig.ooo8(),
                          SCALE, 43, 4)


def test_config_fingerprint_sees_nested_fields():
    base = SystemConfig.ooo8()
    assert config_fingerprint(base) == config_fingerprint(
        SystemConfig.ooo8())
    assert config_fingerprint(base) != config_fingerprint(
        base.with_se(scm_issue_latency=9))


def test_round_trip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    point = SweepPoint("histogram", ExecMode.NS, SystemConfig.ooo8(),
                       scale=SCALE)
    cold = run_sweep([point], cache=cache)[point]
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.bytes_read == 0 and cache.bytes_written > 0
    warm = run_sweep([point], cache=cache)[point]
    assert warm.to_dict() == cold.to_dict()
    assert cache.hits == 1
    disk = cache.disk_stats(by_kind=True)
    # One simulation result and the functional trace the sweep recorded
    # for replay, which carries its derived stream geometry.
    assert disk["entries"] == 2 and disk["bytes"] > 0
    assert disk["quarantined_entries"] == 0
    assert {k: v["entries"] for k, v in disk["kinds"].items()} == {
        "result": 1, "replay": 1}
    assert sum(v["bytes"] for v in disk["kinds"].values()) == disk["bytes"]


def test_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("srad", ExecMode.NS, SystemConfig.ooo8(), SCALE, 42, 4)
    cache.store(key, {"ok": True})
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.lookup(key) is None
    assert not path.exists()
    assert cache.misses == 1


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(3):
        cache.store(point_key("srad", ExecMode.NS, SystemConfig.ooo8(),
                              SCALE, i, 4), i)
    assert cache.clear() == 3
    assert cache.disk_stats() == {"entries": 0, "bytes": 0,
                                  "quarantined_entries": 0,
                                  "quarantined_bytes": 0}


def test_envelope_carries_artifact_kind(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("a" * 64, {"v": 1})                  # default: result
    cache.store("b" * 64, {"v": 2}, kind="build")
    cache.store("c" * 64, {"v": 3}, kind="replay")
    disk = cache.disk_stats(by_kind=True)
    assert {k: v["entries"] for k, v in disk["kinds"].items()} == {
        "result": 1, "build": 1, "replay": 1}
    # Kind is metadata only: lookups return the payload regardless.
    assert cache.lookup("c" * 64) == {"v": 3}


def test_disk_stats_accounts_quarantine(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("a" * 64, {"v": 1})
    cache.store("b" * 64, {"v": 2}, kind="replay")
    cache._path("b" * 64).write_bytes(b"garbage")
    assert cache.lookup("b" * 64) is None            # quarantines
    disk = cache.disk_stats(by_kind=True)
    assert disk["entries"] == 1
    assert disk["quarantined_entries"] == 1
    assert disk["quarantined_bytes"] > 0
    assert "replay" not in disk["kinds"]             # it moved aside
    # Quarantined files never pollute the live per-kind accounting.
    assert disk["kinds"]["result"]["bytes"] == disk["bytes"]


def test_foreign_pickle_counts_as_corrupt_kind(tmp_path):
    import pickle

    cache = ResultCache(tmp_path)
    path = cache._path("d" * 64)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"no": "magic"}))
    disk = cache.disk_stats(by_kind=True)
    assert disk["kinds"] == {"corrupt": {"entries": 1,
                                         "bytes": path.stat().st_size}}


def test_run_all_modes_memo_keys_on_config_contents():
    """Regression: the memo used id(config), missing equal configs."""
    modes = (ExecMode.BASE,)
    cfg_a = EvalConfig(scale=SCALE, workloads=("histogram",),
                       config=SystemConfig.ooo8())
    cfg_b = EvalConfig(scale=SCALE, workloads=("histogram",),
                       config=SystemConfig.ooo8())
    assert cfg_a.config is not cfg_b.config
    first = run_all_modes(cfg_a, modes)
    assert run_all_modes(cfg_b, modes) is first
    # ... while a genuinely different config misses
    cfg_c = EvalConfig(scale=SCALE, workloads=("histogram",),
                       config=SystemConfig.ooo8().with_se(
                           scm_issue_latency=9))
    assert run_all_modes(cfg_c, modes) is not first
