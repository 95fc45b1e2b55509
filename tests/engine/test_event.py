"""Event queue: ordering, cancellation, determinism."""

import pytest
from hypothesis import given, strategies as st

from tests.oracles.engine.event import Event, EventQueue


def test_schedule_and_pop_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(5, lambda: fired.append(5))
    q.schedule(1, lambda: fired.append(1))
    q.schedule(3, lambda: fired.append(3))
    while (event := q.pop()) is not None:
        event.action()
    assert fired == [1, 3, 5]


def test_same_cycle_events_fire_in_insertion_order():
    q = EventQueue()
    fired = []
    for tag in range(10):
        q.schedule(7, lambda t=tag: fired.append(t))
    while (event := q.pop()) is not None:
        event.action()
    assert fired == list(range(10))


def test_cancelled_events_are_skipped():
    q = EventQueue()
    keep = q.schedule(1, lambda: None, label="keep")
    drop = q.schedule(1, lambda: None, label="drop")
    drop.cancel()
    assert q.pop() is keep
    assert q.pop() is None


def test_peek_time_skips_cancelled():
    q = EventQueue()
    early = q.schedule(1, lambda: None)
    q.schedule(5, lambda: None)
    early.cancel()
    assert q.peek_time() == 5


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.schedule(-1, lambda: None)


def test_len_tracks_pending_events():
    q = EventQueue()
    events = [q.schedule(i, lambda: None) for i in range(4)]
    assert len(q) == 4
    q.pop()
    assert len(q) == 3
    q.clear()
    assert len(q) == 0


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_pop_order_is_sorted_and_stable(times):
    q = EventQueue()
    for seq, when in enumerate(times):
        q.schedule(when, lambda: None, payload=seq)
    popped = []
    while (event := q.pop()) is not None:
        popped.append((event.when, event.payload))
    # Non-decreasing in time, and FIFO within equal times.
    assert popped == sorted(popped, key=lambda p: (p[0], p[1]))
    assert len(popped) == len(times)
