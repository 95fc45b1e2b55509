"""Counters and histograms derived from the protocol trace.

The registry aggregates online — it never holds events — so it can ride
on every traced run at negligible cost. A frozen :class:`TraceMetrics`
snapshot attaches to :class:`~repro.sim.results.SimResult` the same way
the wall-clock profile does: excluded from equality (``compare=False``)
and absent from cache keys, since it describes observability of the run,
not the simulated machine's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class HistogramSummary:
    """Streaming summary of one observed quantity (no bins kept)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merged_with(self, other: "HistogramSummary") -> "HistogramSummary":
        out = HistogramSummary(count=self.count + other.count,
                               total=self.total + other.total,
                               min=min(self.min, other.min),
                               max=max(self.max, other.max))
        return out

    def to_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min, "max": self.max}


class MetricsRegistry:
    """Named counters and histograms filled by the tracer.

    Well-known names:

    * ``events.<kind>`` — events emitted per :class:`EventKind`;
    * ``messages.<type>`` — protocol messages accounted on events;
    * ``protocol.credit_occupancy`` — outstanding credits sampled at every
      issue/done;
    * ``protocol.range_to_commit_cycles`` — first range report to commit,
      per chunk;
    * ``protocol.chunk_service_cycles`` — SE_L3 service span per chunk;
    * ``recovery.cycles`` / ``recovery.discarded_iterations`` — per
      recovery episode;
    * ``sanitizer.checks`` — invariant evaluations performed.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}

    def count(self, name: str, n: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:  # built on first use, not on every event
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram(self, name: str) -> HistogramSummary:
        return self.histograms.get(name, HistogramSummary())

    def merge_from(self, other: "MetricsRegistry") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.setdefault(name, HistogramSummary())
            self.histograms[name] = mine.merged_with(hist)

    def snapshot(self, n_events: int = 0, n_tracks: int = 0,
                 violations: int = 0) -> "TraceMetrics":
        return TraceMetrics(
            counters=dict(self.counters),
            histograms={name: hist.to_dict()
                        for name, hist in self.histograms.items()},
            n_events=n_events, n_tracks=n_tracks, violations=violations)


@dataclass
class TraceMetrics:
    """Immutable snapshot riding on ``SimResult.trace``."""

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    n_events: int = 0
    n_tracks: int = 0
    violations: int = 0

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def message_counts(self) -> Dict[str, float]:
        """Traced protocol-message totals keyed by message-type value."""
        prefix = "messages."
        return {name[len(prefix):]: value
                for name, value in self.counters.items()
                if name.startswith(prefix)}

    def to_dict(self) -> Dict[str, object]:
        return {"counters": dict(sorted(self.counters.items())),
                "histograms": {k: dict(v) for k, v in
                               sorted(self.histograms.items())},
                "n_events": self.n_events, "n_tracks": self.n_tracks,
                "violations": self.violations}


def format_metrics(metrics: TraceMetrics) -> str:
    """Human-readable metrics table for ``repro trace``."""
    lines = [f"trace: {metrics.n_events} events on {metrics.n_tracks} "
             f"tracks, {metrics.violations} violation(s)"]
    if metrics.counters:
        width = max(len(n) for n in metrics.counters)
        lines.append("counters:")
        for name in sorted(metrics.counters):
            lines.append(f"  {name.ljust(width)}  "
                         f"{metrics.counters[name]:g}")
    if metrics.histograms:
        width = max(len(n) for n in metrics.histograms)
        lines.append("histograms:")
        for name in sorted(metrics.histograms):
            h = metrics.histograms[name]
            lines.append(
                f"  {name.ljust(width)}  n={h['count']:g} "
                f"mean={h['mean']:.4g} min={h['min']:.4g} "
                f"max={h['max']:.4g}")
    return "\n".join(lines)
