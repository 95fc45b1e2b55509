"""Storage-chaos property suite (ISSUE 9 acceptance criteria).

Under seeded ENOSPC / torn-write / byte-flip / EACCES / stall injection
at the cache store, every layer above — result and replay (trace plus
stream geometry) caches, and the sweep harness on top of them — must
degrade to quarantine-and-recompute with **zero result divergence**: a
chaos run's SimResults are bit-identical (``to_dict``-equal) to a
fault-free run's.

The whole suite runs under the strict protocol sanitizer
(``conftest.py`` sets ``$REPRO_TRACE=1``), so chaos-path recomputation
is also invariant-checked end to end.
"""

import pytest

from repro.config import SystemConfig
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import SweepPoint, run_sweep
from repro.fault.chaos import (ChaosInjector, ChaosPlan, ENV_CHAOS,
                               injector_from_env)
from repro.offload.modes import ExecMode

SCALE = 1.0 / 256.0


def _points(*workloads, modes=(ExecMode.BASE, ExecMode.NS)):
    system = SystemConfig.ooo8()
    return [SweepPoint(w, m, system, scale=SCALE)
            for w in workloads for m in modes]


# ----------------------------------------------------------------------
# ChaosPlan: spec parsing and validation
# ----------------------------------------------------------------------
def test_plan_parse_round_trips_through_spec():
    plan = ChaosPlan(seed=7, enospc=0.2, torn=0.1, flip=0.05,
                     eacces=0.01, stall=0.3, stall_seconds=0.002)
    assert ChaosPlan.parse(plan.spec()) == plan
    assert plan.active


def test_plan_parse_rejects_bad_tokens():
    with pytest.raises(ValueError, match="bad chaos spec token"):
        ChaosPlan.parse("enospc:0.2")
    with pytest.raises(ValueError, match="bad chaos spec token"):
        ChaosPlan.parse("frobnicate=1")
    with pytest.raises(ValueError, match="bad chaos spec value"):
        ChaosPlan.parse("torn=lots")


@pytest.mark.parametrize("kwargs", [{"enospc": 1.5}, {"torn": -0.1},
                                    {"stall_seconds": -1.0}])
def test_plan_rejects_out_of_range_rates(kwargs):
    with pytest.raises(ValueError):
        ChaosPlan(**kwargs)


def test_inactive_plan_and_empty_env():
    assert not ChaosPlan().active
    assert injector_from_env() is None  # conftest never sets $REPRO_CHAOS


def test_injector_from_env_is_a_singleton_per_spec(monkeypatch):
    monkeypatch.setenv(ENV_CHAOS, "seed=3,torn=0.5")
    first = injector_from_env()
    assert first is injector_from_env()
    assert first.plan == ChaosPlan(seed=3, torn=0.5)
    monkeypatch.setenv(ENV_CHAOS, "seed=4,torn=0.5")
    second = injector_from_env()
    assert second is not first and second.plan.seed == 4
    monkeypatch.delenv(ENV_CHAOS)
    assert injector_from_env() is None


# ----------------------------------------------------------------------
# Injector determinism and per-kind degradation
# ----------------------------------------------------------------------
def test_same_seed_fires_the_same_fault_sequence(tmp_path):
    def run(seed):
        cache = ResultCache(tmp_path / f"s{seed}",
                            injector=ChaosInjector(
                                ChaosPlan.all_faults(seed=seed, rate=0.3)))
        for i in range(50):
            cache.store(f"{i:02x}" + "0" * 62, {"i": i})
            cache.lookup(f"{i:02x}" + "0" * 62)
        return dict(cache.injector.fired)

    assert run(11) == run(11)
    assert run(11) != run(12)  # different stream, not a constant


def test_enospc_degrades_to_counted_write_error(tmp_path):
    cache = ResultCache(tmp_path,
                        injector=ChaosInjector(ChaosPlan(enospc=1.0)))
    key = "ab" + "0" * 62
    assert cache.store(key, "value") is False
    assert cache.write_errors == 1
    assert not cache._path(key).exists()
    # no temp-file debris either: the failed write left nothing behind
    assert not list(tmp_path.rglob("*.tmp"))


def test_eacces_on_read_is_a_plain_miss(tmp_path):
    clean = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    assert clean.store(key, "value")
    chaotic = ResultCache(tmp_path,
                          injector=ChaosInjector(ChaosPlan(eacces=1.0)))
    assert chaotic.lookup(key) is None
    assert chaotic.misses == 1
    assert clean.lookup(key) == "value"  # the entry itself is unharmed


@pytest.mark.parametrize("plan", [ChaosPlan(torn=1.0),
                                  ChaosPlan(flip=1.0)])
def test_corrupting_writes_land_at_rest_and_quarantine(tmp_path, plan):
    """Torn and flipped blobs reach disk, then fail checksum on read."""
    root = tmp_path / plan.spec().replace(",", "_")
    chaotic = ResultCache(root, injector=ChaosInjector(plan))
    key = "ab" + "0" * 62
    assert chaotic.store(key, {"x": 1}) is True  # the write "succeeds"
    assert chaotic._path(key).exists()
    clean = ResultCache(root)
    assert clean.lookup(key) is None
    assert clean.quarantined == 1
    assert list(clean.quarantine_root.glob("*.pkl"))


def test_stall_only_delays(tmp_path):
    cache = ResultCache(tmp_path, injector=ChaosInjector(
        ChaosPlan(stall=1.0, stall_seconds=0.0)))
    key = "ab" + "0" * 62
    assert cache.store(key, "v") is True
    assert cache.lookup(key) == "v"
    assert cache.injector.fired["stall"] == 2


# ----------------------------------------------------------------------
# The property: zero result divergence under chaos
# ----------------------------------------------------------------------
def test_sweep_under_chaos_is_bit_identical(tmp_path):
    """Both cache kinds under all five faults: results never diverge.

    The chaotic sweep exercises every store path (replay via the worker
    groups, results via the harness) with faults on ~35%
    of operations; whatever the cache loses is recomputed, so the final
    SweepResults must equal the fault-free run's exactly, and the sweep
    must report zero failures — storage chaos is never a sweep failure.
    """
    points = _points("histogram", "memset")
    baseline = run_sweep(points, jobs=1,
                         cache=ResultCache(tmp_path / "clean"))
    assert baseline.ok

    injector = ChaosInjector(ChaosPlan.all_faults(seed=5, rate=0.35))
    chaotic_cache = ResultCache(tmp_path / "chaos", injector=injector)
    chaotic = run_sweep(points, jobs=1, cache=chaotic_cache)
    assert chaotic.ok
    assert chaotic.to_dict() == baseline.to_dict()
    assert injector.total_fired > 0  # chaos actually happened

    # A second pass over the same chaotic store: lookups now see the
    # corrupted survivors, quarantine them, and still converge.
    again = run_sweep(points, jobs=1,
                      cache=ResultCache(tmp_path / "chaos",
                                        injector=injector))
    assert again.ok
    assert again.to_dict() == baseline.to_dict()


def test_ambient_chaos_via_env_matches_fault_free(tmp_path, monkeypatch):
    """$REPRO_CHAOS drives the same property through the ambient path —
    the route sweep worker processes inherit."""
    points = _points("histogram")
    baseline = run_sweep(points, jobs=1,
                         cache=ResultCache(tmp_path / "clean"))

    monkeypatch.setenv(ENV_CHAOS, "seed=9,enospc=0.3,torn=0.3,flip=0.3,"
                                  "eacces=0.2,stall=0.1,stall_seconds=0")
    chaotic_cache = ResultCache(tmp_path / "chaos")
    assert chaotic_cache.injector is injector_from_env()
    chaotic = run_sweep(points, jobs=1, cache=chaotic_cache)
    assert chaotic.ok
    assert chaotic.to_dict() == baseline.to_dict()
