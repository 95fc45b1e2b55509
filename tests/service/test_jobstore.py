"""JobStore unit contract: states, origins, backends, and the codec.

The store is the single source of truth every sweep frontend shares
(DESIGN.md §5h): records dedup by content key, persistence follows the
result's *origin* (computed → cache + journal, cache hit → journal
only, journal replay → neither), and listeners observe every state
transition.  The wire codec round-trips preset-built points and rejects
everything that cannot safely cross the socket.
"""

import pytest

from repro.config import SystemConfig
from repro.eval.journal import SweepJournal
from repro.eval.result_cache import ResultCache
from repro.eval.service.jobstore import (DONE, FAILED, ORIGIN_CACHE,
                                         ORIGIN_COMPUTED, ORIGIN_JOURNAL,
                                         PENDING, RUNNING, JobStore,
                                         config_from_spec, config_to_spec,
                                         point_from_spec, point_to_spec)
from repro.eval.sweep import FailedPoint, SweepPoint, run_sweep
from repro.offload.modes import ExecMode

SCALE = 1.0 / 256.0


def _point(workload="histogram", mode=ExecMode.NS, **kwargs):
    return SweepPoint(workload, mode, SystemConfig.ooo8(), scale=SCALE,
                      **kwargs)


@pytest.fixture(scope="module")
def sim_result():
    """One real SimResult (journal/cache backends pickle it)."""
    point = _point()
    return run_sweep([point], jobs=1)[point]


# ----------------------------------------------------------------------
# States and dedup
# ----------------------------------------------------------------------

def test_add_is_idempotent_by_content_key():
    store = JobStore()
    a = store.add(_point())
    b = store.add(_point())  # distinct object, same content
    assert a is b
    assert len(store) == 1
    assert store.state(a.key) == PENDING


def test_lifecycle_pending_running_done(sim_result):
    store = JobStore()
    record = store.add(_point())
    store.mark_running(record.key)
    assert store.state(record.key) == RUNNING
    assert not record.terminal
    store.mark_done(record.key, sim_result)
    assert store.state(record.key) == DONE
    assert record.terminal
    assert record.result is sim_result
    assert record.origin == ORIGIN_COMPUTED
    # a terminal record cannot be knocked back to running
    store.mark_running(record.key)
    assert store.state(record.key) == DONE


def test_failed_then_reset_rearms(sim_result):
    store = JobStore()
    point = _point()
    record = store.add(point)
    store.mark_failed(FailedPoint(point=point, stage="run",
                                  error="RuntimeError", message="boom"))
    assert store.state(record.key) == FAILED
    store.reset(record.key)
    assert store.state(record.key) == PENDING
    assert record.failure is None
    # reset on a non-failed record is a no-op
    store.mark_done(record.key, sim_result)
    store.reset(record.key)
    assert store.state(record.key) == DONE


def test_pending_points_preserves_order_and_filters():
    store = JobStore()
    points = [_point(mode=m) for m in (ExecMode.BASE, ExecMode.NS,
                                       ExecMode.INST)]
    records = [store.add(p) for p in points]
    assert store.pending_points() == points
    only = store.pending_points([records[1].key])
    assert only == [points[1]]
    assert store.counts() == {PENDING: 3, RUNNING: 0, DONE: 0, FAILED: 0}


# ----------------------------------------------------------------------
# Origin-driven persistence
# ----------------------------------------------------------------------

def test_computed_results_hit_cache_and_journal(tmp_path, sim_result):
    journal = SweepJournal(tmp_path / "j.jsonl")
    cache = ResultCache(tmp_path / "cache")
    store = JobStore(journal=journal, cache=cache)
    point = _point()
    store.add(point)
    store.mark_done(point.key(), sim_result, origin=ORIGIN_COMPUTED)
    assert cache.lookup(point.key()) is not None
    assert point.key() in journal.load().completed


def test_cache_hits_journal_but_do_not_rewrite_cache(tmp_path,
                                                     sim_result,
                                                     monkeypatch):
    journal = SweepJournal(tmp_path / "j.jsonl")
    cache = ResultCache(tmp_path / "cache")
    writes = []
    monkeypatch.setattr(cache, "store",
                        lambda *a, **k: writes.append(a))
    store = JobStore(journal=journal, cache=cache)
    point = _point()
    store.add(point)
    store.mark_done(point.key(), sim_result, origin=ORIGIN_CACHE)
    assert not writes  # the cache already has it
    assert point.key() in journal.load().completed


def test_journal_replays_touch_neither_backend(tmp_path, sim_result,
                                               monkeypatch):
    journal = SweepJournal(tmp_path / "j.jsonl")
    cache = ResultCache(tmp_path / "cache")
    monkeypatch.setattr(cache, "store",
                        lambda *a, **k: pytest.fail("cache written"))
    store = JobStore(journal=journal, cache=cache)
    point = _point()
    store.add(point)
    store.mark_done(point.key(), sim_result, origin=ORIGIN_JOURNAL)
    assert not journal.exists()  # a replay must not re-append itself


def test_absorb_journal_adopts_completed_not_failed(tmp_path, sim_result):
    journal = SweepJournal(tmp_path / "j.jsonl")
    done_point = _point(mode=ExecMode.BASE)
    failed_point = _point(mode=ExecMode.NS)
    journal.record_ok(done_point, sim_result)
    journal.record_failure(FailedPoint(
        point=failed_point, stage="run", error="RuntimeError",
        message="transient"))
    store = JobStore(journal=journal)
    store.add(done_point)
    store.add(failed_point)
    assert store.absorb_journal() == 1
    assert store.state(done_point.key()) == DONE
    assert store.record(done_point.key()).origin == ORIGIN_JOURNAL
    # failures are provisional: the point is re-attempted, not adopted
    assert store.state(failed_point.key()) == PENDING


def test_absorb_cache_restricted_to_keys(tmp_path, sim_result):
    cache = ResultCache(tmp_path / "cache")
    a, b = _point(mode=ExecMode.BASE), _point(mode=ExecMode.NS)
    cache.store(a.key(), sim_result)
    cache.store(b.key(), sim_result)
    store = JobStore(cache=cache)
    store.add(a)
    store.add(b)
    assert store.absorb_cache([a.key()]) == 1
    assert store.state(a.key()) == DONE
    assert store.record(a.key()).origin == ORIGIN_CACHE
    assert store.state(b.key()) == PENDING


def test_results_for_orders_and_counts_resumed(sim_result):
    store = JobStore()
    ok = _point(mode=ExecMode.BASE)
    replayed = _point(mode=ExecMode.NS)
    bad = _point(mode=ExecMode.INST)
    for p in (ok, replayed, bad):
        store.add(p)
    store.mark_done(ok.key(), sim_result)
    store.mark_done(replayed.key(), sim_result, origin=ORIGIN_JOURNAL)
    store.mark_failed(FailedPoint(point=bad, stage="run",
                                  error="RuntimeError", message="boom"))
    results = store.results_for([bad, replayed, ok])
    assert list(results) == [replayed, ok]
    assert results.resumed == 1
    assert [f.point for f in results.failures] == [bad]
    # a view over a subset only counts/collects that subset
    sub = store.results_for([ok])
    assert list(sub) == [ok] and sub.resumed == 0 and sub.ok


# ----------------------------------------------------------------------
# Listeners
# ----------------------------------------------------------------------

def test_listeners_see_every_transition(sim_result):
    store = JobStore()
    events = []
    store.subscribe(events.append)
    point = _point()
    store.add(point)
    store.mark_running(point.key())
    store.mark_done(point.key(), sim_result)
    kinds = [e["event"] for e in events]
    assert kinds == ["point-running", "point-done"]
    done = events[-1]
    assert done["key"] == point.key()
    assert done["workload"] == "histogram" and done["mode"] == "ns"
    assert done["origin"] == ORIGIN_COMPUTED


def test_raising_listener_never_breaks_the_store(sim_result):
    store = JobStore()
    seen = []

    def bomb(event):
        raise RuntimeError("observer bug")

    store.subscribe(bomb)
    store.subscribe(seen.append)
    point = _point()
    store.add(point)
    store.mark_done(point.key(), sim_result)
    assert store.state(point.key()) == DONE
    assert seen and seen[-1]["event"] == "point-done"


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

def test_point_spec_roundtrip_presets():
    for builder in (SystemConfig.ooo8, SystemConfig.io4,
                    SystemConfig.ooo4):
        point = SweepPoint("srad", ExecMode.NS, builder(), scale=SCALE,
                           seed=7, sample_cores=2)
        spec = point_to_spec(point)
        assert point_from_spec(spec) == point
        assert point_from_spec(spec).key() == point.key()


def test_point_spec_roundtrip_mesh():
    # the spec may canonicalize to an equal tile preset; what matters is
    # that the rebuilt point (and so its content key) is identical
    point = SweepPoint("bfs_push", ExecMode.NS_DECOUPLE,
                       SystemConfig.paper_mesh(4), scale=SCALE)
    spec = point_to_spec(point)
    rebuilt = point_from_spec(spec)
    assert rebuilt == point and rebuilt.key() == point.key()
    # an explicit mesh spec parses to the named dimensions
    explicit = point_from_spec({"workload": "bfs_push",
                                "config": {"preset": "mesh",
                                           "mesh": [8, 4]}})
    assert explicit.config == SystemConfig.paper_mesh(8, 4)


def test_point_spec_defaults():
    point = point_from_spec({"workload": "histogram"})
    assert point.mode is ExecMode.NS
    assert point.config == SystemConfig.ooo8()
    assert point.seed == 42 and point.sample_cores == 4


@pytest.mark.parametrize("spec,match", [
    ({}, "workload"),
    ({"workload": "histogram", "mode": "warp9"}, "unknown mode"),
    ({"workload": "histogram", "config": {"preset": "cray"}},
     "unknown config preset"),
])
def test_malformed_specs_raise_value_error(spec, match):
    with pytest.raises(ValueError, match=match):
        point_from_spec(spec)


def test_recovery_rate_spec_rejected_with_pointer_to_fault_plan():
    """The removed knob errors instead of being dropped silently."""
    for rate in (0.5, 1000, float("nan"), "10"):
        with pytest.raises(ValueError, match="FaultPlan"):
            point_from_spec({"workload": "histogram",
                             "recovery_rate": rate})
    # a zero rate meant "no recoveries" and still does
    assert point_from_spec({"workload": "histogram",
                            "recovery_rate": 0.0}) == \
        point_from_spec({"workload": "histogram"})
    assert "recovery_rate" not in point_to_spec(
        point_from_spec({"workload": "histogram"}))


def test_fault_plans_cannot_ride_the_wire():
    from repro.fault.plan import FaultPlan
    point = SweepPoint("histogram", ExecMode.NS, SystemConfig.ooo8(),
                       fault_plan=FaultPlan())
    with pytest.raises(ValueError, match="fault plans"):
        point_to_spec(point)


def test_custom_configs_cannot_ride_the_wire():
    import dataclasses
    custom = dataclasses.replace(SystemConfig.ooo8(), freq_ghz=9.99)
    with pytest.raises(ValueError, match="preset"):
        config_to_spec(custom)
    assert config_from_spec(None) == SystemConfig.ooo8()
