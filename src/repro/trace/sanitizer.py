"""Online invariant sanitizer for the range-sync protocol (§IV-B).

Validates, on every event as it is emitted, the properties that make the
credit/range/commit protocol preserve sequential memory semantics:

* **credit bound** — outstanding (issued, not-yet-done) credits never
  exceed the episode's ``max_credit_chunks``;
* **range order** — a stream's reported ``[lo, hi)`` ranges are
  well-formed, ordered, and non-overlapping within the uncommitted
  window (ranges of committed chunks leave the window);
* **commit before indirect** — buffered indirect requests never issue
  before their chunk's commit (the paper's two-round-trip rule);
* **done discipline** — every done releases exactly one credit, for a
  chunk that was credited and serviced, at most once, and (for streams
  under range-sync) only after its commit;
* **message inventory** — the per-:class:`MessageType` counts accounted
  on the events reproduce the episode's
  :class:`~repro.llc.rangesync.ProtocolResult` inventory exactly;
* **recovery completeness** — every injected fault is followed by a
  completed recovery episode, and committed + re-executed iterations
  partition the offloaded space (the Fig 7 b/c accounting).

A failed check raises :class:`~repro.trace.events.ProtocolViolation`
carrying the offending event and its track's recent event window.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.noc.message import MessageType
from repro.trace.events import (
    TRACK_PROTOCOL,
    TRACK_RECOVERY,
    EventKind,
    ProtocolViolation,
    TraceEvent,
)

#: Events of recent history kept per track for violation reports.
WINDOW = 16

#: Relative tolerance for the iteration-partition check (float episode
#: accounting sums many discard terms).
_PARTITION_RTOL = 1e-9


class _TrackState:
    """Per-track protocol state machine."""

    __slots__ = (
        "kind", "stream", "window", "params", "outstanding", "credited",
        "serviced", "committed", "done", "uncommitted_ranges",
        "first_range_time", "messages", "faults_fired", "recovery_open",
        "recoveries_done", "closed",
    )

    def __init__(self, kind: str, stream: str) -> None:
        self.kind = kind
        self.stream = stream
        self.window: Deque[TraceEvent] = deque(maxlen=WINDOW)
        self.params: Dict[str, object] = {}
        self.outstanding = 0
        self.credited: set = set()
        self.serviced: set = set()
        self.committed: set = set()
        self.done: set = set()
        #: (lo, hi, chunk) of ranges whose chunk is not yet committed/done.
        self.uncommitted_ranges: List[Tuple[int, int, int]] = []
        self.first_range_time: Dict[int, float] = {}
        self.messages: Dict[MessageType, float] = {}
        self.faults_fired = 0
        self.recovery_open = 0
        self.recoveries_done = 0
        self.closed = False


class ProtocolSanitizer:
    """Consumes the event stream and checks §IV-B invariants online."""

    def __init__(self) -> None:
        self.tracks: Dict[int, _TrackState] = {}
        self.checks = 0
        self.violations: List[ProtocolViolation] = []
        # Built once: rebuilding it per event hashes every key each time.
        self._handlers = {
            EventKind.CREDIT_ISSUE: self._on_credit,
            EventKind.CHUNK_SERVICE: self._on_service,
            EventKind.RANGE_REPORT: self._on_range,
            EventKind.ALIAS_CHECK: self._on_alias,
            EventKind.COMMIT: self._on_commit,
            EventKind.IND_ISSUE: self._on_indirect,
            EventKind.DONE: self._on_done,
            EventKind.STREAM_END: self._on_end,
            EventKind.FAULT_FIRE: self._on_fault,
            EventKind.RECOVERY_BEGIN: self._on_recovery_begin,
            EventKind.RECOVERY_END: self._on_recovery_end,
        }

    # ------------------------------------------------------------------
    def _fail(self, state: Optional[_TrackState], invariant: str,
              detail: str, event: TraceEvent) -> None:
        raise ProtocolViolation(
            invariant, detail, event=event,
            window=list(state.window) if state is not None else [event])

    def _check(self, state: _TrackState, condition: bool, invariant: str,
               detail: str, event: TraceEvent) -> None:
        self.checks += 1
        if not condition:
            self._fail(state, invariant, detail, event)

    # ------------------------------------------------------------------
    def observe(self, event: TraceEvent) -> None:
        """Validate one event (raises :class:`ProtocolViolation`)."""
        if event.kind is EventKind.STREAM_BEGIN:
            kind = str(event.args.get("track_kind", TRACK_PROTOCOL))
            if event.track in self.tracks:
                self._fail(self.tracks[event.track], "track-unique",
                           f"track {event.track} began twice", event)
            state = _TrackState(kind, event.stream)
            state.params = dict(event.args)
            self.tracks[event.track] = state
            state.window.append(event)
            self._count_messages(state, event)
            return
        state = self.tracks.get(event.track)
        if state is None:
            # Free-standing events (unit-level emission, context
            # aborts/restores) carry no track state to validate against.
            return
        state.window.append(event)
        if state.closed:
            self._fail(state, "end-is-final",
                       f"{event.kind.value} after STREAM_END", event)
        self._count_messages(state, event)
        handler = self._handlers.get(event.kind)
        if handler is not None:
            handler(state, event)

    # -- message accounting --------------------------------------------
    def _count_messages(self, state: _TrackState,
                        event: TraceEvent) -> None:
        if event.message is not None and event.mcount:
            state.messages[event.message] = state.messages.get(
                event.message, 0.0) + event.mcount

    # -- per-kind checks -----------------------------------------------
    def _on_credit(self, state: _TrackState, event: TraceEvent) -> None:
        self._check(state, event.chunk not in state.credited,
                    "credit-unique",
                    f"chunk {event.chunk} credited twice", event)
        state.credited.add(event.chunk)
        state.outstanding += 1
        limit = state.params.get("max_credit_chunks")
        if limit is not None:
            self._check(
                state, state.outstanding <= int(limit), "credit-bound",
                f"{state.outstanding} credits outstanding exceeds "
                f"max_credit_chunks={limit}", event)

    def _on_service(self, state: _TrackState, event: TraceEvent) -> None:
        self._check(state, event.chunk in state.credited,
                    "service-after-credit",
                    f"chunk {event.chunk} serviced without a credit",
                    event)
        self._check(state, event.chunk not in state.serviced,
                    "service-unique",
                    f"chunk {event.chunk} serviced twice", event)
        state.serviced.add(event.chunk)

    def _on_range(self, state: _TrackState, event: TraceEvent) -> None:
        lo = int(event.args["lo"])
        hi = int(event.args["hi"])
        self._check(state, event.chunk in state.credited,
                    "range-after-credit",
                    f"range for uncredited chunk {event.chunk}", event)
        self._check(state, lo < hi, "range-wellformed",
                    f"empty/inverted range [{lo}, {hi})", event)
        for (plo, phi, pchunk) in state.uncommitted_ranges:
            self._check(
                state, hi <= plo or phi <= lo, "range-nonoverlap",
                f"range [{lo}, {hi}) of chunk {event.chunk} overlaps "
                f"uncommitted [{plo}, {phi}) of chunk {pchunk}", event)
        if state.uncommitted_ranges:
            last_lo = state.uncommitted_ranges[-1][0]
            self._check(
                state, lo >= last_lo, "range-ordered",
                f"range [{lo}, {hi}) reported out of order after "
                f"lo={last_lo}", event)
        state.uncommitted_ranges.append((lo, hi, event.chunk))
        state.first_range_time.setdefault(event.chunk, event.time)

    def _on_alias(self, state: _TrackState, event: TraceEvent) -> None:
        self.checks += 1  # the alias check itself is an invariant probe

    def _on_commit(self, state: _TrackState, event: TraceEvent) -> None:
        self._check(state, bool(state.params.get("needs_commit", True)),
                    "commit-only-under-sync",
                    "commit on a stream that never commits", event)
        self._check(state, event.chunk in state.serviced,
                    "commit-after-service",
                    f"chunk {event.chunk} committed before service",
                    event)
        self._check(state, event.chunk not in state.committed,
                    "commit-unique",
                    f"chunk {event.chunk} committed twice", event)
        state.committed.add(event.chunk)
        state.uncommitted_ranges = [
            r for r in state.uncommitted_ranges if r[2] != event.chunk]

    def _on_indirect(self, state: _TrackState, event: TraceEvent) -> None:
        self._check(state, bool(state.params.get("indirect_commit")),
                    "indirect-declared",
                    "indirect issue on a non-indirect stream", event)
        self._check(
            state, event.chunk in state.committed,
            "indirect-after-commit",
            f"indirect requests for chunk {event.chunk} issued before "
            f"its commit", event)

    def _on_done(self, state: _TrackState, event: TraceEvent) -> None:
        self._check(state, event.chunk in state.credited,
                    "done-after-credit",
                    f"done for uncredited chunk {event.chunk}", event)
        self._check(state, event.chunk not in state.done, "done-unique",
                    f"chunk {event.chunk} done twice — would release two "
                    f"credits", event)
        self._check(state, state.outstanding > 0, "done-releases-credit",
                    "done with no outstanding credit to release", event)
        needs_commit = bool(state.params.get("needs_commit"))
        sync_free = bool(state.params.get("sync_free"))
        if needs_commit and not sync_free:
            self._check(
                state, event.chunk in state.committed,
                "done-after-commit",
                f"chunk {event.chunk} done before its commit", event)
        state.done.add(event.chunk)
        state.outstanding -= 1

    def _on_end(self, state: _TrackState, event: TraceEvent) -> None:
        state.closed = True
        if state.kind == TRACK_PROTOCOL:
            n_chunks = state.params.get("n_chunks")
            if n_chunks is not None:
                self._check(
                    state, len(state.done) == int(n_chunks),
                    "all-chunks-done",
                    f"{len(state.done)}/{n_chunks} chunks done at end",
                    event)
            self._check(state, state.outstanding == 0, "credits-drained",
                        f"{state.outstanding} credits still outstanding "
                        f"at end", event)
            inventory = event.args.get("messages")
            if inventory is not None:
                self._check_inventory(state, inventory, event)
        elif state.kind == TRACK_RECOVERY:
            self._check(
                state, state.recovery_open == 0, "recovery-completes",
                f"{state.recovery_open} recovery episode(s) still open "
                f"at end", event)
            self._check(
                state, state.recoveries_done >= state.faults_fired,
                "fault-recovered",
                f"{state.faults_fired} fault(s) fired but only "
                f"{state.recoveries_done} recovery episode(s) completed",
                event)
            self._check_partition(state, event)

    def _check_inventory(self, state: _TrackState, inventory: Dict,
                         event: TraceEvent) -> None:
        """Traced counts must equal the authoritative inventory exactly."""
        for mtype, expected in inventory.items():
            got = state.messages.get(mtype, 0.0)
            self._check(
                state, got == expected, "message-inventory",
                f"traced {mtype.value} count {got!r} != protocol "
                f"inventory {expected!r}", event)
        for mtype, got in state.messages.items():
            self._check(
                state, mtype in inventory, "message-inventory",
                f"traced {mtype.value} x{got:g} absent from protocol "
                f"inventory", event)

    def _check_partition(self, state: _TrackState,
                         event: TraceEvent) -> None:
        offloaded = event.args.get("offloaded_iterations")
        committed = event.args.get("committed_iterations")
        reexecuted = event.args.get("reexecuted_iterations")
        if offloaded is None or committed is None or reexecuted is None:
            return
        total = float(committed) + float(reexecuted)
        tol = _PARTITION_RTOL * max(abs(float(offloaded)), 1.0)
        self._check(
            state, abs(total - float(offloaded)) <= tol,
            "iteration-partition",
            f"committed {committed:g} + re-executed {reexecuted:g} = "
            f"{total:g} does not partition offloaded {offloaded:g}",
            event)

    def _on_fault(self, state: _TrackState, event: TraceEvent) -> None:
        state.faults_fired += 1

    def _on_recovery_begin(self, state: _TrackState,
                           event: TraceEvent) -> None:
        state.recovery_open += 1

    def _on_recovery_end(self, state: _TrackState,
                         event: TraceEvent) -> None:
        self._check(state, state.recovery_open > 0, "recovery-paired",
                    "recovery end without a matching begin", event)
        state.recovery_open -= 1
        state.recoveries_done += 1

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run sweep: no track may be left mid-protocol."""
        for track, state in self.tracks.items():
            if state.closed:
                continue
            last = state.window[-1] if state.window else TraceEvent(
                EventKind.STREAM_BEGIN, 0.0, track, state.stream)
            self._check(
                state, state.recovery_open == 0, "recovery-completes",
                f"track {track} ({state.stream}) ended with "
                f"{state.recovery_open} recovery episode(s) open", last)
            self._check(
                state, state.faults_fired <= state.recoveries_done,
                "fault-recovered",
                f"track {track} ({state.stream}) fired "
                f"{state.faults_fired} fault(s) but completed only "
                f"{state.recoveries_done} recovery episode(s)", last)
