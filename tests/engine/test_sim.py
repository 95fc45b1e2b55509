"""Simulator event loop and component registry."""

import pytest

from tests.oracles.engine import Component, Simulator
from tests.oracles.engine.sim import SimulationError


def test_run_advances_time_to_last_event():
    sim = Simulator()
    sim.queue.schedule(10, lambda: None)
    sim.queue.schedule(42, lambda: None)
    last = sim.run()
    assert last == 42
    assert sim.now == 42
    assert sim.events_fired == 2


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.queue.schedule(sim.now + 1, lambda: chain(n + 1))

    sim.queue.schedule(0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.queue.schedule(1, lambda: fired.append(1))
    sim.queue.schedule(100, lambda: fired.append(100))
    sim.run(until=50)
    assert fired == [1]
    assert sim.now == 50
    sim.run()
    assert fired == [1, 100]


def test_max_cycles_guard_raises():
    sim = Simulator(max_cycles=100)

    def forever():
        sim.queue.schedule(sim.now + 10, forever)

    sim.queue.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run()


def test_component_registration_and_lookup():
    sim = Simulator()
    comp = Component(sim, "cache0")
    assert sim.component("cache0") is comp
    assert comp in sim.components


def test_duplicate_component_name_rejected():
    sim = Simulator()
    Component(sim, "dup")
    with pytest.raises(SimulationError):
        Component(sim, "dup")


def test_component_schedule_relative_delay():
    sim = Simulator()
    comp = Component(sim, "c")
    fired = []
    sim.queue.schedule(5, lambda: comp.schedule(3, lambda: fired.append(
        sim.now)))
    sim.run()
    assert fired == [8]


def test_component_negative_delay_rejected():
    sim = Simulator()
    comp = Component(sim, "c")
    with pytest.raises(SimulationError):
        comp.schedule(-1, lambda: None)


def test_reset_clears_time_and_queue():
    sim = Simulator()
    comp = Component(sim, "c")
    comp.stats.counter("hits").add(3)
    sim.queue.schedule(10, lambda: None)
    sim.run()
    sim.reset()
    assert sim.now == 0
    assert len(sim.queue) == 0
    assert comp.stats.get("hits") == 0
