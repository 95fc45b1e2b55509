"""Event-driven oracle for one range-sync protocol episode (§IV-B, Fig 7).

:class:`_ProtocolSim` walks one offloaded stream's credit / range /
commit / done loop through the discrete-event kernel
(:mod:`tests.oracles.engine`), one scheduled callback per protocol step.
It was the simulator's original engine; the runtime engine
(:mod:`repro.llc.rangesync_batch`) must reproduce it bit for bit — the
same :class:`~repro.llc.rangesync.ProtocolResult` untraced, and the same
events in the same order traced.

:func:`run_protocol_batch_reference` has ``run_protocol_batch``'s
signature, so a test can patch it over ``repro.sim.phase.
run_protocol_batch`` and run whole workloads on the oracle.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.llc.rangesync import ProtocolParams, ProtocolResult
from repro.noc.message import MessageType
from repro.trace.events import UNTRACKED, EventKind
from repro.trace.tracer import Tracer
from tests.oracles.engine import Simulator


class _ProtocolSim:
    """One stream's credit/range/commit loop on the event engine.

    With a :class:`~repro.trace.Tracer` attached, every protocol step
    emits a structured event on a fresh track. Message accounting on the
    events is computed *independently* at each emission site (not read
    back from ``self.messages``), so the sanitizer's end-of-episode
    inventory cross-check is a real consistency proof, not a tautology.
    """

    def __init__(self, params: ProtocolParams,
                 tracer: Optional[Tracer] = None,
                 label: str = "stream") -> None:
        self.p = params
        self.sim = Simulator()
        self.messages: Dict[MessageType, int] = {}
        self.credits_sent = 0
        self.chunks_serviced = 0
        self.chunks_done = 0         # done received at SE_core
        self.l3_busy_until = 0.0
        self.finish_time = 0.0
        self.tracer = tracer
        self.label = label
        self.track = UNTRACKED
        self._service_start: Dict[int, float] = {}
        if tracer is not None:
            self.track = tracer.begin_stream(
                label,
                max_credit_chunks=params.max_credit_chunks,
                chunk_iters=params.chunk_iters,
                n_chunks=params.n_chunks,
                needs_commit=params.needs_commit and not params.sync_free,
                sends_ranges=params.sends_ranges,
                sync_free=params.sync_free,
                indirect_commit=params.indirect_commit)

    def _count(self, mtype: MessageType, n: float = 1) -> None:
        self.messages[mtype] = self.messages.get(mtype, 0) + n

    def _emit(self, kind: EventKind, chunk: int,
              message: Optional[MessageType] = None, mcount: float = 0.0,
              **args) -> None:
        self.tracer.emit(kind, float(self.sim.now), self.track,
                         self.label, chunk=chunk, message=message,
                         mcount=mcount, **args)

    # -- SE_core side ---------------------------------------------------
    def _issue_credits(self) -> None:
        while (self.credits_sent < self.p.n_chunks
               and self.credits_sent - self.chunks_done
               < self.p.max_credit_chunks):
            chunk = self.credits_sent
            self.credits_sent += 1
            self._count(MessageType.STREAM_CREDIT)
            if self.tracer is not None:
                self._emit(EventKind.CREDIT_ISSUE, chunk,
                           message=MessageType.STREAM_CREDIT, mcount=1.0,
                           outstanding=self.credits_sent
                           - self.chunks_done)
            self.sim.queue.schedule(
                int(self.sim.now + self.p.fwd_latency),
                lambda c=chunk: self._l3_receive_credit(c),
                label=f"credit{chunk}")

    # -- SE_L3 side -------------------------------------------------------
    def _l3_receive_credit(self, chunk: int) -> None:
        start = max(self.sim.now, self.l3_busy_until)
        service = self.p.chunk_iters * self.p.service_per_iter
        finish = start + service
        self.l3_busy_until = finish
        if self.tracer is not None:
            self._service_start[chunk] = float(start)
        self.sim.queue.schedule(int(math.ceil(finish)),
                                lambda c=chunk: self._l3_chunk_serviced(c),
                                label=f"service{chunk}")

    def _chunk_ranges(self, chunk: int, n_ranges: int):
        """Synthetic ``[lo, hi)`` bounds over the chunk's iteration span.

        The protocol model is address-free, so ranges are reported in
        iteration units: contiguous, ordered, non-overlapping — exactly
        the shape the sanitizer's range invariants require of the real
        hardware's address ranges.
        """
        ci = self.p.chunk_iters
        base = chunk * ci
        for i in range(n_ranges):
            yield (base + i * ci // n_ranges,
                   base + (i + 1) * ci // n_ranges)

    def _l3_chunk_serviced(self, chunk: int) -> None:
        self.chunks_serviced += 1
        if self.p.sync_free:
            # Commit immediately; writeback folds into service. Progress
            # reports to SE_core (§V) piggyback on other messages and are
            # batched over several chunks, so they cost a fraction of a
            # message each even though every chunk's credit returns.
            self._count(MessageType.STREAM_DONE, 0.25)
            if self.tracer is not None:
                self._emit(EventKind.CHUNK_SERVICE, chunk,
                           message=MessageType.STREAM_DONE, mcount=0.25,
                           start=self._service_start.pop(chunk,
                                                         self.sim.now))
            self.sim.queue.schedule(
                int(self.sim.now + self.p.back_latency),
                lambda c=chunk: self._core_receive_done(c),
                label=f"done{chunk}")
            return
        if self.tracer is not None:
            self._emit(EventKind.CHUNK_SERVICE, chunk,
                       start=self._service_start.pop(chunk, self.sim.now))
        if self.p.sends_ranges:
            n_ranges = max(self.p.chunk_iters // self.p.range_interval, 1)
            self._count(MessageType.STREAM_RANGE, n_ranges)
            if self.tracer is not None:
                for lo, hi in self._chunk_ranges(chunk, n_ranges):
                    self._emit(EventKind.RANGE_REPORT, chunk,
                               message=MessageType.STREAM_RANGE,
                               mcount=1.0, lo=lo, hi=hi)
            delay = self.p.back_latency
        else:
            # Core already has the ranges; only the service completion
            # matters, which the core observes via data arrival.
            delay = self.p.back_latency
        self.sim.queue.schedule(int(self.sim.now + delay),
                                lambda c=chunk: self._core_receive_ranges(c),
                                label=f"ranges{chunk}")

    # -- SE_core commit path ----------------------------------------------
    def _core_receive_ranges(self, chunk: int) -> None:
        if not self.p.needs_commit:
            # Load/reduce streams: commit is implicit with core commit.
            self._core_receive_done(chunk)
            return
        self._count(MessageType.STREAM_COMMIT)
        if self.tracer is not None:
            self._emit(EventKind.ALIAS_CHECK, chunk, aliased=False)
            self._emit(EventKind.COMMIT, chunk,
                       message=MessageType.STREAM_COMMIT, mcount=1.0)
        self.sim.queue.schedule(
            int(self.sim.now + self.p.core_commit_lag + self.p.fwd_latency),
            lambda c=chunk: self._l3_receive_commit(c),
            label=f"commit{chunk}")

    def _l3_receive_commit(self, chunk: int) -> None:
        delay = self.p.writeback_per_chunk
        if self.p.indirect_commit:
            # Buffered indirect atomics issue now: one more round trip to
            # the indirect bank before the done can be sent.
            delay += self.p.fwd_latency + self.p.back_latency
            self._count(MessageType.STREAM_IND_REQ,
                        self.p.chunk_iters)
            if self.tracer is not None:
                self._emit(EventKind.IND_ISSUE, chunk,
                           message=MessageType.STREAM_IND_REQ,
                           mcount=float(self.p.chunk_iters))
        self._count(MessageType.STREAM_DONE)
        self.sim.queue.schedule(
            int(self.sim.now + delay + self.p.back_latency),
            lambda c=chunk: self._core_receive_done(c),
            label=f"l3done{chunk}")

    def _core_receive_done(self, chunk: int) -> None:
        self.chunks_done += 1
        self.finish_time = self.sim.now
        if self.tracer is not None:
            # The done message itself was sent by SE_L3: once per commit
            # round trip, a batched quarter-message under sync-free
            # (accounted on CHUNK_SERVICE), and not at all for implicit
            # (load/reduce) commits.
            mcount = (1.0 if self.p.needs_commit and not self.p.sync_free
                      else 0.0)
            self._emit(EventKind.DONE, chunk,
                       message=MessageType.STREAM_DONE if mcount else None,
                       mcount=mcount,
                       outstanding=self.credits_sent - self.chunks_done)
        if self.chunks_done < self.p.n_chunks:
            self._issue_credits()

    # ------------------------------------------------------------------
    def run(self) -> ProtocolResult:
        self.sim.queue.schedule(0, self._issue_credits, label="start")
        self.sim.run()
        if self.chunks_done != self.p.n_chunks:
            raise RuntimeError(
                f"protocol stalled: {self.chunks_done}/{self.p.n_chunks} "
                f"chunks done")
        iters = self.p.n_chunks * self.p.chunk_iters
        cycles = max(self.finish_time, 1.0)
        if self.tracer is not None:
            self.tracer.end_stream(
                self.track, float(self.finish_time), self.label,
                messages=dict(self.messages), iterations=iters,
                cycles=cycles)
        return ProtocolResult(cycles=cycles, iterations=iters,
                              messages=self.messages,
                              throughput=iters / cycles)


def run_protocol_reference(params: ProtocolParams,
                           tracer: Optional[Tracer] = None,
                           label: str = "stream") -> ProtocolResult:
    """One episode on the event kernel."""
    return _ProtocolSim(params, tracer=tracer, label=label).run()


def run_protocol_batch_reference(batch: Sequence[ProtocolParams],
                                 tracer: Optional[Tracer] = None,
                                 labels: Optional[Sequence[str]] = None
                                 ) -> List[ProtocolResult]:
    """``run_protocol_batch`` on the oracle: one episode after another."""
    if labels is None:
        labels = ["stream"] * len(batch)
    return [run_protocol_reference(p, tracer=tracer, label=label)
            for p, label in zip(batch, labels)]
