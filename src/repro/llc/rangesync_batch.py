"""The range-sync protocol engine: one episode per offloaded stream.

A phase hands :func:`run_batch` one :class:`~repro.llc.rangesync.
ProtocolParams` per offloaded stream — a handful of episodes (1-9 on
every golden-corpus point, whatever the mesh) — and each episode runs
on one of two paths:

* **Untraced** (sweeps, figures, reports): a flat per-episode
  recurrence over the chunk index, below.  Message inventories come
  from the closed form the chunk loop would accumulate.

* **Traced**: the strict :class:`~repro.trace.ProtocolSanitizer` and
  the metrics histograms are order-sensitive (the range-nonoverlap check
  runs once per range in the uncommitted window, so even *event order*
  matters, not just per-chunk totals).  The traced path therefore
  replays each episode through a flat ``heapq`` scheduler with the
  event-driven discipline of the original engine — ``(time, seq)``
  order, one heap push per scheduled step — so it emits the same events,
  at the same times, in the same order, with the same message
  accounting.

Both paths reproduce the event-driven oracle
(``tests/oracles/rangesync.py``) bit for bit.  That engine schedules at
``int(now + latency)`` (truncation == floor for the non-negative times
involved) and services chunks on a single busy-until server, so each
episode reduces to the recurrence

    issue(c) = done(c - W0)            (0 for the initial window W0)
    arrive(c) = floor(issue(c) + fwd)
    start(c) = max(arrive(c), busy);  busy = start(c) + S
    serviced(c) = ceil(busy)
    ranges(c) = floor(serviced(c) + back)
    commit(c) = floor(ranges(c) + lag + fwd)           (commit streams)
    done(c)   = floor(commit(c) + delay + back)        (commit streams)
              = ranges(c)                              (otherwise)

with ``S = chunk_iters * service_per_iter`` and ``delay = writeback
(+ fwd + back for indirect commits)``, evaluated in exactly the event
engine's operand order.  IEEE float ops are deterministic given operand
order, so the recurrence reproduces the event engine exactly.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence

from repro.llc.rangesync import ProtocolParams, ProtocolResult
from repro.noc.message import MessageType
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer


# ----------------------------------------------------------------------
# Closed-form message inventory
# ----------------------------------------------------------------------
def _messages_for(p: ProtocolParams) -> Dict[MessageType, float]:
    """The message inventory the event engine accumulates, closed-form.

    Insertion order matters downstream (ledger rows follow ``dict``
    iteration), so keys are inserted in the order the event engine
    first counts them: CREDIT, then DONE for sync-free episodes, else
    RANGE / COMMIT / IND_REQ / DONE.
    """
    n = p.n_chunks
    messages: Dict[MessageType, float] = {MessageType.STREAM_CREDIT: n}
    if p.sync_free:
        # Batched progress reports: 0.25 per chunk, exact in binary.
        messages[MessageType.STREAM_DONE] = 0.25 * n
        return messages
    if p.sends_ranges:
        n_ranges = max(p.chunk_iters // p.range_interval, 1)
        messages[MessageType.STREAM_RANGE] = n_ranges * n
    if p.needs_commit:
        messages[MessageType.STREAM_COMMIT] = n
        if p.indirect_commit:
            messages[MessageType.STREAM_IND_REQ] = p.chunk_iters * n
        messages[MessageType.STREAM_DONE] = n
    return messages


def _result_from_finish(p: ProtocolParams, finish: int) -> ProtocolResult:
    iters = p.n_chunks * p.chunk_iters
    cycles = max(finish, 1.0)
    return ProtocolResult(cycles=cycles, iterations=iters,
                          messages=_messages_for(p),
                          throughput=iters / cycles)


# ----------------------------------------------------------------------
# Untraced: flat recurrence
# ----------------------------------------------------------------------
def _finish_flat(p: ProtocolParams) -> int:
    w0 = min(p.max_credit_chunks, p.n_chunks)
    service = p.chunk_iters * p.service_per_iter
    commit = p.needs_commit and not p.sync_free
    # SE_L3 dwell between commit arrival and done send, operands in the
    # event engine's order.
    delay = p.writeback_per_chunk
    if p.indirect_commit:
        delay += p.fwd_latency + p.back_latency
    done: List[int] = [0] * p.n_chunks
    busy = 0.0
    for c in range(p.n_chunks):
        issue = 0 if c < w0 else done[c - w0]
        arrive = int(issue + p.fwd_latency)
        start = max(arrive, busy)
        busy = start + service
        ranges = int(math.ceil(busy) + p.back_latency)
        if commit:
            commit_at = int(ranges + p.core_commit_lag + p.fwd_latency)
            done[c] = int(commit_at + delay + p.back_latency)
        else:
            done[c] = ranges
    return done[-1]


# ----------------------------------------------------------------------
# Traced: flat heap replay, event-for-event equal to the event engine
# ----------------------------------------------------------------------
# Handler opcodes of the replay scheduler; ordering ties are broken by
# the insertion sequence, as in the event kernel's queue.
_START, _CREDIT, _SERVICED, _RANGES, _COMMIT, _DONE = range(6)


class _EpisodeReplay:
    """One traced episode on a flat ``(time, seq)`` heap.

    Mirrors the event-driven oracle (``_ProtocolSim`` in
    ``tests/oracles/rangesync.py``) one scheduling call to one heap
    push, so the emitted event stream — kinds, times, chunk interleave,
    message accounting, histogram observation order — is identical and
    the strict sanitizer sees the same episode.
    """

    def __init__(self, p: ProtocolParams, tracer: Tracer,
                 label: str) -> None:
        self.p = p
        self.tracer = tracer
        self.label = label
        self.messages: Dict[MessageType, float] = {}
        self.credits_sent = 0
        self.chunks_done = 0
        self.busy = 0.0
        self.finish_time = 0
        self.now = 0
        self._heap: List = []
        self._seq = 0
        self._service_start: Dict[int, float] = {}
        self.track = tracer.begin_stream(
            label,
            max_credit_chunks=p.max_credit_chunks,
            chunk_iters=p.chunk_iters,
            n_chunks=p.n_chunks,
            needs_commit=p.needs_commit and not p.sync_free,
            sends_ranges=p.sends_ranges,
            sync_free=p.sync_free,
            indirect_commit=p.indirect_commit)

    def _push(self, when: int, op: int, chunk: int) -> None:
        heapq.heappush(self._heap, (when, self._seq, op, chunk))
        self._seq += 1

    def _count(self, mtype: MessageType, mcount: float = 1) -> None:
        self.messages[mtype] = self.messages.get(mtype, 0) + mcount

    def _emit(self, kind: EventKind, chunk: int,
              message: Optional[MessageType] = None, mcount: float = 0.0,
              **args) -> None:
        self.tracer.emit(kind, float(self.now), self.track, self.label,
                         chunk=chunk, message=message, mcount=mcount,
                         **args)

    def _issue_credits(self) -> None:
        p = self.p
        while (self.credits_sent < p.n_chunks
               and self.credits_sent - self.chunks_done
               < p.max_credit_chunks):
            chunk = self.credits_sent
            self.credits_sent += 1
            self._count(MessageType.STREAM_CREDIT)
            self._emit(EventKind.CREDIT_ISSUE, chunk,
                       message=MessageType.STREAM_CREDIT, mcount=1.0,
                       outstanding=self.credits_sent - self.chunks_done)
            self._push(int(self.now + p.fwd_latency), _CREDIT, chunk)

    def _receive_credit(self, chunk: int) -> None:
        start = max(self.now, self.busy)
        finish = start + self.p.chunk_iters * self.p.service_per_iter
        self.busy = finish
        self._service_start[chunk] = float(start)
        self._push(int(math.ceil(finish)), _SERVICED, chunk)

    def _chunk_serviced(self, chunk: int) -> None:
        p = self.p
        if p.sync_free:
            self._count(MessageType.STREAM_DONE, 0.25)
            self._emit(EventKind.CHUNK_SERVICE, chunk,
                       message=MessageType.STREAM_DONE, mcount=0.25,
                       start=self._service_start.pop(chunk, self.now))
            self._push(int(self.now + p.back_latency), _DONE, chunk)
            return
        self._emit(EventKind.CHUNK_SERVICE, chunk,
                   start=self._service_start.pop(chunk, self.now))
        if p.sends_ranges:
            n_ranges = max(p.chunk_iters // p.range_interval, 1)
            self._count(MessageType.STREAM_RANGE, n_ranges)
            base = chunk * p.chunk_iters
            for i in range(n_ranges):
                self._emit(EventKind.RANGE_REPORT, chunk,
                           message=MessageType.STREAM_RANGE, mcount=1.0,
                           lo=base + i * p.chunk_iters // n_ranges,
                           hi=base + (i + 1) * p.chunk_iters // n_ranges)
        self._push(int(self.now + p.back_latency), _RANGES, chunk)

    def _receive_ranges(self, chunk: int) -> None:
        p = self.p
        if not p.needs_commit:
            self._receive_done(chunk)
            return
        self._count(MessageType.STREAM_COMMIT)
        self._emit(EventKind.ALIAS_CHECK, chunk, aliased=False)
        self._emit(EventKind.COMMIT, chunk,
                   message=MessageType.STREAM_COMMIT, mcount=1.0)
        self._push(int(self.now + p.core_commit_lag + p.fwd_latency),
                   _COMMIT, chunk)

    def _receive_commit(self, chunk: int) -> None:
        p = self.p
        delay = p.writeback_per_chunk
        if p.indirect_commit:
            delay += p.fwd_latency + p.back_latency
            self._count(MessageType.STREAM_IND_REQ, p.chunk_iters)
            self._emit(EventKind.IND_ISSUE, chunk,
                       message=MessageType.STREAM_IND_REQ,
                       mcount=float(p.chunk_iters))
        self._count(MessageType.STREAM_DONE)
        self._push(int(self.now + delay + p.back_latency), _DONE, chunk)

    def _receive_done(self, chunk: int) -> None:
        p = self.p
        self.chunks_done += 1
        self.finish_time = self.now
        mcount = 1.0 if p.needs_commit and not p.sync_free else 0.0
        self._emit(EventKind.DONE, chunk,
                   message=MessageType.STREAM_DONE if mcount else None,
                   mcount=mcount,
                   outstanding=self.credits_sent - self.chunks_done)
        if self.chunks_done < p.n_chunks:
            self._issue_credits()

    _HANDLERS = {
        _CREDIT: _receive_credit,
        _SERVICED: _chunk_serviced,
        _RANGES: _receive_ranges,
        _COMMIT: _receive_commit,
        _DONE: _receive_done,
    }

    def run(self) -> ProtocolResult:
        self._push(0, _START, -1)
        while self._heap:
            when, _seq, op, chunk = heapq.heappop(self._heap)
            self.now = when
            if op == _START:
                self._issue_credits()
            else:
                self._HANDLERS[op](self, chunk)
        if self.chunks_done != self.p.n_chunks:
            raise RuntimeError(
                f"protocol stalled: {self.chunks_done}/{self.p.n_chunks} "
                f"chunks done")
        iters = self.p.n_chunks * self.p.chunk_iters
        cycles = max(self.finish_time, 1.0)
        self.tracer.end_stream(self.track, float(self.finish_time),
                               self.label, messages=dict(self.messages),
                               iterations=iters, cycles=cycles)
        return ProtocolResult(cycles=cycles, iterations=iters,
                              messages=self.messages,
                              throughput=iters / cycles)


# ----------------------------------------------------------------------
# Batch entry point
# ----------------------------------------------------------------------
def run_batch(batch: Sequence[ProtocolParams],
              tracer: Optional[Tracer] = None,
              labels: Optional[Sequence[str]] = None) -> List[ProtocolResult]:
    """Run a batch of episodes, results in batch order.

    Untraced episodes take the flat recurrence; traced ones replay on the
    flat heap, so the event stream equals the event-driven engine's.
    """
    if labels is None:
        labels = ["stream"] * len(batch)
    if tracer is not None:
        return [_EpisodeReplay(p, tracer, label).run()
                for p, label in zip(batch, labels)]
    return [_result_from_finish(p, _finish_flat(p)) for p in batch]
