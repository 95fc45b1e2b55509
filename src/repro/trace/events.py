"""Structured protocol trace events (§IV-B observability).

Every coordination step of the range-sync protocol — credit issue, chunk
service, range report, alias check, commit, indirect issue, done, fault
firing, recovery episode — becomes one :class:`TraceEvent` carrying the
stream's track id, the chunk (credit) index, the simulated time, and a
small payload of event-specific arguments.

Events are grouped into **tracks**: one track per traced protocol episode
(one stream's credit loop on one simulated clock) or per fault/recovery
timeline. Track-local clocks keep episodes independent — the range-sync
simulation runs one stream at a time, so there is no global protocol
clock to align against.

Message accounting rides on the events: an event may declare that it
*sent* protocol messages (``message``/``mcount``). Summing these per
:class:`~repro.noc.message.MessageType` must reproduce the episode's
:class:`~repro.llc.rangesync.ProtocolResult` inventory exactly — the
cross-check the sanitizer enforces at every ``STREAM_END``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.noc.message import MessageType


class EventKind(Enum):
    """What happened at one protocol step."""

    #: A track opens (carries the episode's protocol parameters).
    STREAM_BEGIN = "stream_begin"
    #: SE_core issues one flow-control credit (STREAM_CREDIT).
    CREDIT_ISSUE = "credit_issue"
    #: SE_L3 finishes fetch/compute/forward for one credited chunk.
    CHUNK_SERVICE = "chunk_service"
    #: SE_L3 reports one ``[lo, hi)`` range for part of a chunk.
    RANGE_REPORT = "range_report"
    #: SE_core checks committed accesses against outstanding ranges.
    ALIAS_CHECK = "alias_check"
    #: SE_core commits a chunk's ranges (STREAM_COMMIT).
    COMMIT = "commit"
    #: Buffered indirect requests issue (post-commit only, §IV-B).
    IND_ISSUE = "ind_issue"
    #: SE_L3's done reaches SE_core, releasing exactly one credit.
    DONE = "done"
    #: A track closes (carries the authoritative message inventory).
    STREAM_END = "stream_end"
    #: An injected fault fires at a protocol site.
    FAULT_FIRE = "fault_fire"
    #: A precise-state recovery episode starts (Fig 7 b/c).
    RECOVERY_BEGIN = "recovery_begin"
    #: The recovery episode completes; uncommitted work discarded.
    RECOVERY_END = "recovery_end"
    #: SE_L3 tears down an aborted stream context (TLB shootdown).
    CONTEXT_ABORT = "context_abort"
    #: An evicted SCC thread context is restored.
    CONTEXT_RESTORE = "context_restore"

    # Identity hashing, as MessageType's: traced runs key per-event
    # tables by these members.
    __hash__ = object.__hash__


#: Track payload kinds (``STREAM_BEGIN``'s ``track_kind`` argument).
TRACK_PROTOCOL = "protocol"
TRACK_RECOVERY = "recovery"

#: Events belong to no track (metrics only) when emitted with this id.
UNTRACKED = -1


@dataclass
class TraceEvent:
    """One step of the credit/range/commit protocol."""

    kind: EventKind
    time: float                     # track-local simulated cycles
    track: int                      # episode id (UNTRACKED for free events)
    stream: str                     # stream label, e.g. "phase/out_st"
    chunk: int = -1                 # credit-chunk index, -1 if n/a
    #: Protocol message(s) this event sent, if any.
    message: Optional[MessageType] = None
    mcount: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        msg = (f" {self.message.value} x{self.mcount:g}"
               if self.message is not None else "")
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.args.items()))
        chunk = f" chunk={self.chunk}" if self.chunk >= 0 else ""
        return (f"[t={self.time:g} track={self.track} {self.stream}] "
                f"{self.kind.value}{chunk}{msg}"
                + (f" {extras}" if extras else ""))


class ProtocolViolation(AssertionError):
    """A §IV-B invariant failed during a traced run.

    Carries the offending event and the recent event window of its track
    so the failure is debuggable without re-running with full capture.
    """

    def __init__(self, invariant: str, detail: str,
                 event: Optional[TraceEvent] = None,
                 window: Optional[List[TraceEvent]] = None) -> None:
        self.invariant = invariant
        self.detail = detail
        self.event = event
        self.window = list(window or [])
        lines = [f"protocol invariant violated: {invariant}", detail]
        if self.window:
            lines.append("recent events:")
            lines.extend("  " + e.describe() for e in self.window)
        super().__init__("\n".join(lines))
