"""The trace collector threaded through the protocol simulation.

A :class:`Tracer` is the single object call sites see. It fans each
emitted event into (a) the online :class:`ProtocolSanitizer`, (b) the
:class:`MetricsRegistry`, and (c) an optional retained event list for
Chrome trace export. Tracing is **off by default**: every call site
guards with ``if tracer is not None``, so an untraced run executes zero
trace instructions.

``strict=True`` (the default, and what the test suite uses) re-raises
sanitizer violations immediately; ``strict=False`` collects them on
:attr:`violations` so ``repro trace`` can report every problem in one
pass.

The ``REPRO_TRACE`` environment variable turns tracing on for runs that
did not pass an explicit tracer (the test suite sets it, see
``tests/conftest.py``): any value other than empty/``0`` enables a
strict, sanitizing, metrics-only tracer.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.noc.message import MessageType
from repro.trace.events import (
    TRACK_PROTOCOL,
    EventKind,
    ProtocolViolation,
    TraceEvent,
)
from repro.trace.metrics import MetricsRegistry, TraceMetrics
from repro.trace.sanitizer import ProtocolSanitizer

#: Environment variable enabling tracing for runs without an explicit
#: tracer ("" / "0" / unset → disabled).
ENV_TRACE = "REPRO_TRACE"

#: Counter names per event kind and message type, built once: traced
#: runs count every event, so formatting names per event shows up.
_EVENT_COUNTERS = {kind: f"events.{kind.value}" for kind in EventKind}
_MESSAGE_COUNTERS = {mtype: f"messages.{mtype.value}"
                     for mtype in MessageType}


def tracing_enabled() -> bool:
    """True when ``$REPRO_TRACE`` asks for implicit tracing."""
    return os.environ.get(ENV_TRACE, "").strip() not in ("", "0")


def tracer_from_env() -> Optional["Tracer"]:
    """A strict metrics-only tracer when ``$REPRO_TRACE`` is set."""
    return Tracer(strict=True, keep_events=False) if tracing_enabled() \
        else None


class Tracer:
    """Collects protocol events; sanitizes and aggregates online."""

    def __init__(self, strict: bool = True, keep_events: bool = False,
                 sanitize: bool = True) -> None:
        self.strict = strict
        self.metrics = MetricsRegistry()
        self.sanitizer: Optional[ProtocolSanitizer] = (
            ProtocolSanitizer() if sanitize else None)
        self.events: Optional[List[TraceEvent]] = (
            [] if keep_events else None)
        self.violations: List[ProtocolViolation] = []
        self.n_events = 0
        self._next_track = 0
        self._first_range: Dict[Tuple[int, int], float] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Track lifecycle
    # ------------------------------------------------------------------
    def begin_stream(self, stream: str, time: float = 0.0,
                     track_kind: str = TRACK_PROTOCOL,
                     **params: Any) -> int:
        """Open a new track; returns its id for subsequent emits."""
        track = self._next_track
        self._next_track += 1
        self.emit(EventKind.STREAM_BEGIN, time, track, stream,
                  track_kind=track_kind, **params)
        return track

    def end_stream(self, track: int, time: float, stream: str,
                   **args: Any) -> None:
        self.emit(EventKind.STREAM_END, time, track, stream, **args)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: EventKind, time: float, track: int, stream: str,
             chunk: int = -1, message: Optional[MessageType] = None,
             mcount: float = 0.0, **args: Any) -> None:
        event = TraceEvent(kind=kind, time=time, track=track,
                           stream=stream, chunk=chunk, message=message,
                           mcount=mcount, args=args)
        self.n_events += 1
        self._finished = False  # new activity re-arms the final sweep
        if self.events is not None:
            self.events.append(event)
        self._record_metrics(event)
        if self.sanitizer is not None:
            try:
                self.sanitizer.observe(event)
            except ProtocolViolation as violation:
                self.violations.append(violation)
                if self.strict:
                    raise

    def _record_metrics(self, event: TraceEvent) -> None:
        m = self.metrics
        kind = event.kind
        m.count(_EVENT_COUNTERS[kind])
        if event.message is not None and event.mcount:
            m.count(_MESSAGE_COUNTERS[event.message], event.mcount)
        args = event.args
        if kind in (EventKind.CREDIT_ISSUE, EventKind.DONE):
            outstanding = args.get("outstanding")
            if outstanding is not None:
                m.observe("protocol.credit_occupancy", float(outstanding))
        elif kind is EventKind.RANGE_REPORT:
            self._first_range.setdefault((event.track, event.chunk),
                                         event.time)
        elif kind is EventKind.COMMIT:
            first = self._first_range.pop((event.track, event.chunk),
                                          None)
            if first is not None:
                m.observe("protocol.range_to_commit_cycles",
                          event.time - first)
        elif kind is EventKind.CHUNK_SERVICE:
            start = args.get("start")
            if start is not None:
                m.observe("protocol.chunk_service_cycles",
                          event.time - float(start))
        elif kind is EventKind.RECOVERY_END:
            if "cycles" in args:
                m.observe("recovery.cycles", float(args["cycles"]))
            if "discarded_iterations" in args:
                m.observe("recovery.discarded_iterations",
                          float(args["discarded_iterations"]))
        elif kind is EventKind.FAULT_FIRE:
            site = args.get("site")
            if site is not None:
                m.count(f"faults.{site}")

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Run end-of-trace sanitizer sweeps (idempotent)."""
        if self._finished:
            return
        self._finished = True
        if self.sanitizer is not None:
            try:
                self.sanitizer.finish()
            except ProtocolViolation as violation:
                self.violations.append(violation)
                if self.strict:
                    raise
            self.metrics.count("sanitizer.checks", 0.0)
            self.metrics.counters["sanitizer.checks"] = float(
                self.sanitizer.checks)

    @property
    def ok(self) -> bool:
        return not self.violations

    def snapshot(self) -> TraceMetrics:
        """Immutable metrics snapshot for ``SimResult.trace``."""
        return self.metrics.snapshot(
            n_events=self.n_events, n_tracks=self._next_track,
            violations=len(self.violations))
