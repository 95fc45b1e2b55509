"""Discrete-event simulation kernel, kept as a test oracle.

The range-sync reference episode (:mod:`tests.oracles.rangesync`) and the
flit-level mesh (:mod:`tests.oracles.noc_detailed`) run on it:

* :class:`~tests.oracles.engine.event.EventQueue` — a deterministic
  priority queue of timestamped events with stable FIFO ordering for
  same-cycle events.
* :class:`~tests.oracles.engine.sim.Simulator` — the event loop,
  component registry, and simulated-time source.
* :class:`~tests.oracles.engine.sim.Component` — base class for anything
  that lives on the simulated machine.
* :mod:`~tests.oracles.engine.stats` — hierarchical counters,
  distributions and stat groups owned by components.
"""

from tests.oracles.engine.event import Event, EventQueue
from tests.oracles.engine.sim import Component, Simulator
from tests.oracles.engine.stats import Counter, Distribution, StatGroup

__all__ = ["Event", "EventQueue", "Component", "Simulator", "Counter",
           "Distribution", "StatGroup"]
