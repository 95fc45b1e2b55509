"""Hierarchical statistics: counters, distributions, and groups.

Each :class:`~tests.oracles.engine.sim.Component` owns a
:class:`StatGroup`; the classes are deliberately simple and exhaustively
unit-tested.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple


class Counter:
    """A monotonically accumulating scalar statistic."""

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        unit = f" {self.unit}" if self.unit else ""
        return f"Counter({self.name}={self.value:g}{unit})"


class Distribution:
    """Streaming distribution: count, sum, min, max, mean, variance.

    Uses Welford's online algorithm so variance stays numerically stable for
    long runs.
    """

    def __init__(self, name: str, unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def record(self, sample: float) -> None:
        self.count += 1
        self.total += sample
        self.minimum = min(self.minimum, sample)
        self.maximum = max(self.maximum, sample)
        delta = sample - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (sample - self._mean)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def __repr__(self) -> str:
        return (f"Distribution({self.name}: n={self.count}, mean={self.mean:g},"
                f" min={self.minimum:g}, max={self.maximum:g})")


class StatGroup:
    """A named collection of counters/distributions with dotted-path lookup."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._distributions: Dict[str, Distribution] = {}
        self._children: Dict[str, "StatGroup"] = {}

    # -- creation ------------------------------------------------------
    def counter(self, name: str, unit: str = "") -> Counter:
        """Get or create a counter."""
        if name not in self._counters:
            self._counters[name] = Counter(name, unit)
        return self._counters[name]

    def distribution(self, name: str, unit: str = "") -> Distribution:
        """Get or create a distribution."""
        if name not in self._distributions:
            self._distributions[name] = Distribution(name, unit)
        return self._distributions[name]

    def group(self, name: str) -> "StatGroup":
        """Get or create a child group."""
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    # -- lookup --------------------------------------------------------
    def get(self, path: str) -> float:
        """Look up a counter value by dotted path, e.g. ``"l1.hits"``."""
        head, _, rest = path.partition(".")
        if rest:
            if head not in self._children:
                raise KeyError(f"{self.name}: no child group {head!r}")
            return self._children[head].get(rest)
        if head in self._counters:
            return self._counters[head].value
        raise KeyError(f"{self.name}: no counter {head!r}")

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, float]]:
        """Yield (dotted-path, value) for every counter in the subtree."""
        base = f"{prefix}{self.name}."
        for counter in self._counters.values():
            yield base + counter.name, counter.value
        for dist in self._distributions.values():
            yield f"{base}{dist.name}.mean", dist.mean
            yield f"{base}{dist.name}.count", float(dist.count)
        for child in self._children.values():
            yield from child.walk(base)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.walk())

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for dist in self._distributions.values():
            dist.reset()
        for child in self._children.values():
            child.reset()

    def merge_from(self, other: "StatGroup") -> None:
        """Accumulate another group's counters into this one (same shape)."""
        for name, counter in other._counters.items():
            self.counter(name, counter.unit).add(counter.value)
        for name, child in other._children.items():
            self.group(name).merge_from(child)

