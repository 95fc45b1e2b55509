"""The event loop and component registry."""

from __future__ import annotations

from typing import Dict, List, Optional

from tests.oracles.engine.event import Event, EventQueue
from tests.oracles.engine.stats import StatGroup


class SimulationError(RuntimeError):
    """Raised when the event loop detects an inconsistent machine state."""


class Component:
    """Base class for everything that lives on the simulated machine.

    Components register themselves with a :class:`Simulator`, own a
    :class:`~tests.oracles.engine.stats.StatGroup`, and schedule work through
    :meth:`schedule`.
    """

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats = StatGroup(name)
        sim.register(self)

    @property
    def now(self) -> int:
        return self.sim.now

    def schedule(self, delay: int, action, label: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(
                f"{self.name}: negative delay {delay} for event '{label}'")
        return self.sim.queue.schedule(self.sim.now + delay, action,
                                       label=f"{self.name}:{label}")

    def reset(self) -> None:
        """Hook: clear per-run state. Subclasses override as needed."""


class Simulator:
    """Deterministic discrete-event simulator.

    The simulator advances time only to cycles at which events fire; there is
    no per-cycle tick. ``max_cycles`` is a hard safety limit that turns an
    accidental infinite protocol loop into a loud error instead of a hang.
    """

    def __init__(self, max_cycles: int = 10_000_000_000) -> None:
        self.queue = EventQueue()
        self.now = 0
        self.max_cycles = max_cycles
        self._components: Dict[str, Component] = {}
        self._event_count = 0

    # ------------------------------------------------------------------
    # Component registry
    # ------------------------------------------------------------------
    def register(self, component: Component) -> None:
        if component.name in self._components:
            raise SimulationError(f"duplicate component name {component.name!r}")
        self._components[component.name] = component

    def component(self, name: str) -> Component:
        return self._components[name]

    @property
    def components(self) -> List[Component]:
        return list(self._components.values())

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Drain events until the queue empties (or ``until`` is reached).

        Returns the cycle of the last fired event, i.e. the completion time.
        """
        last = self.now
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            event = self.queue.pop()
            assert event is not None
            if event.when < self.now:
                raise SimulationError(
                    f"time went backwards: now={self.now}, event "
                    f"'{event.label}' at {event.when}")
            self.now = event.when
            if self.now > self.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}; runaway protocol? "
                    f"last event '{event.label}'")
            event.action()
            self._event_count += 1
            last = self.now
        return last

    @property
    def events_fired(self) -> int:
        return self._event_count

    def reset(self) -> None:
        """Reset simulated time and every registered component."""
        self.queue.clear()
        self.now = 0
        self._event_count = 0
        for component in self._components.values():
            component.stats.reset()
            component.reset()
