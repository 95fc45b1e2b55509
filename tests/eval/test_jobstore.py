"""JobStore unit contract: states, origins and backends.

The store is the state ``run_sweep`` schedules against (DESIGN.md §5h):
records dedup by content key, and persistence follows the result's
*origin* (computed → cache + journal, cache hit → journal only, journal
replay → neither).  Results live only in the cache; the journal names
the completed keys.
"""

import pytest

from repro.config import SystemConfig
from repro.eval.journal import SweepJournal
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import (DONE, FAILED, ORIGIN_CACHE, ORIGIN_COMPUTED,
                              ORIGIN_JOURNAL, PENDING, RUNNING, FailedPoint,
                              JobStore, SweepPoint, run_sweep)
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


def test_mark_failed_records_the_failure():
    store = JobStore()
    point = _point()
    record = store.add(point)
    failure = FailedPoint(point=point, stage="run", error="RuntimeError",
                          message="boom")
    store.mark_failed(failure)
    assert store.state(record.key) == FAILED
    assert record.terminal and record.failure is failure
    assert record.origin is None


def test_pending_points_preserves_order_and_filters(sim_result):
    store = JobStore()
    points = [_point(mode=m) for m in (ExecMode.BASE, ExecMode.NS,
                                       ExecMode.INST, ExecMode.SINGLE)]
    records = [store.add(p) for p in points]
    assert store.pending_points() == points
    store.mark_running(records[1].key)
    store.mark_done(records[2].key, sim_result)
    store.mark_failed(FailedPoint(point=points[3], stage="run",
                                  error="RuntimeError", message="boom"))
    assert store.pending_points() == [points[0]]


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
    cache = ResultCache(tmp_path / "cache")
    done_point = _point(mode=ExecMode.BASE)
    failed_point = _point(mode=ExecMode.NS)
    for point in (done_point, failed_point):
        cache.store(point.key(), sim_result)
    journal.record_ok(done_point)
    journal.record_failure(FailedPoint(
        point=failed_point, stage="run", error="RuntimeError",
        message="transient"))
    store = JobStore(journal=journal, cache=cache)
    store.add(done_point)
    store.add(failed_point)
    assert store.absorb_journal() == 1
    assert store.state(done_point.key()) == DONE
    assert store.record(done_point.key()).origin == ORIGIN_JOURNAL
    assert store.record(done_point.key()).result.to_dict() \
        == sim_result.to_dict()
    # failures are provisional: the point is not adopted from the
    # journal (absorb_cache may still find it in the cache)
    assert store.state(failed_point.key()) == PENDING


def test_absorb_journal_never_trusts_a_key_alone(tmp_path, sim_result):
    """A journaled key whose cache entry is missing, or with no cache at
    all, stays pending: the point is recomputed."""
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    journal.record_ok(point)
    for cache in (None, ResultCache(tmp_path / "empty")):
        store = JobStore(journal=journal, cache=cache)
        store.add(point)
        assert store.absorb_journal() == 0
        assert store.state(point.key()) == PENDING


def test_absorb_cache_restricted_to_keys(tmp_path, sim_result):
    """Only pending records whose keys the cache holds are adopted."""
    cache = ResultCache(tmp_path / "cache")
    a, b, c = (_point(mode=m) for m in (ExecMode.BASE, ExecMode.NS,
                                        ExecMode.INST))
    cache.store(a.key(), sim_result)
    cache.store(b.key(), sim_result)
    store = JobStore(cache=cache)
    for point in (a, b, c):
        store.add(point)
    store.mark_failed(FailedPoint(point=b, stage="run",
                                  error="RuntimeError", message="boom"))
    assert store.absorb_cache() == 1
    assert store.state(a.key()) == DONE
    assert store.record(a.key()).origin == ORIGIN_CACHE
    assert store.state(b.key()) == FAILED
    assert store.state(c.key()) == PENDING


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
