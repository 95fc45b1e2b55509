"""Discrete-event simulation kernel.

The engine package provides the small, generic substrate the rest of the
simulator is built on:

* :class:`~repro.engine.event.EventQueue` — a deterministic priority queue of
  timestamped events with stable FIFO ordering for same-cycle events.
* :class:`~repro.engine.sim.Simulator` — the event loop, component registry,
  and simulated-time source.
* :class:`~repro.engine.sim.Component` — base class for anything that lives on
  the simulated machine (caches, stream engines, NoC ports, ...).
* :mod:`~repro.engine.stats` — hierarchical counters, distributions, and rate
  meters used for every reported metric.

The near-stream protocol (credits / ranges / commits) runs on this engine at
*chunk* granularity, so event counts stay small even for long streams.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Event": "repro.engine.event",
    "EventQueue": "repro.engine.event",
    "Component": "repro.engine.sim",
    "Simulator": "repro.engine.sim",
    "Counter": "repro.engine.stats",
    "Distribution": "repro.engine.stats",
    "StatGroup": "repro.engine.stats",
})
