"""Range-based synchronization protocol (§IV-B, Figure 7).

An event-driven simulation of one offloaded stream's coordination loop
between SE_core and a remote SE_L3, at chunk (credit) granularity:

1. SE_core issues **credits**, each covering ``chunk_iters`` iterations, up
   to ``max_credit_chunks`` outstanding (bounded by the SE_L3 stream buffer).
2. SE_L3 processes a credited chunk — fetch, compute, forward — at the
   stream's service rate, reporting **ranges** every ``range_interval``
   iterations (unless SE_core generates affine ranges locally, Fig 15, or
   the region is sync-free).
3. SE_core checks ranges against committed core accesses; absent aliasing it
   sends a **commit** for store/RMW streams. Indirect streams only issue
   their indirect requests after the commit (the "two round trips" the paper
   calls out for bfs_push/sssp).
4. SE_L3 writes back and replies **done**, releasing the credit.

Sync-free streams skip ranges and commits entirely; chunks complete at
service rate and a done/progress message keeps SE_core's credit loop going.

The simulation reports throughput (iterations/cycle), total cycles, and an
exact message inventory — consumed by the top-level simulator for both
timing and traffic. ``run_recovery`` models the precise-state restoration
episode (alias / context switch / fault, Fig 7 b-c), and
``resolve_recovery_schedule`` a stream's whole schedule of them at once.

Two engines implement the episode:

* the **reference** engine below (``run_protocol_reference``) — the
  original event-driven simulation, retained as the property-tested
  oracle exactly as ``cache_ref`` / ``analyze_reference`` were kept;
* the **batched** engine in :mod:`~repro.llc.rangesync_batch` — a
  structure-of-arrays pass over many episodes at once, bit-identical to
  the reference and the default since it is what makes 16x16 / 32x32
  meshes tractable.

``run_protocol`` / ``run_protocol_batch`` dispatch between them; the
``REPRO_PROTOCOL_ENGINE`` env var (or an explicit ``engine=`` argument)
selects ``batched`` (default) or ``reference``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine import Simulator
from repro.noc.message import MessageType
from repro.trace.events import TRACK_RECOVERY, UNTRACKED, EventKind
from repro.trace.tracer import Tracer


@dataclass
class ProtocolParams:
    """Inputs for one stream's protocol episode."""

    chunk_iters: int = 64            # iterations per credit
    range_interval: int = 8          # iterations per range message (R)
    n_chunks: int = 32               # chunks to simulate
    service_per_iter: float = 1.0    # SE_L3 cycles per iteration
    writeback_per_chunk: float = 8.0 # cycles to write back one chunk
    fwd_latency: float = 30.0        # SE_core -> SE_L3 message latency
    back_latency: float = 30.0       # SE_L3 -> SE_core message latency
    max_credit_chunks: int = 4       # outstanding (uncommitted) chunks
    needs_commit: bool = True        # store/RMW under range-sync
    sends_ranges: bool = True        # False for core-generated affine ranges
    sync_free: bool = False
    indirect_commit: bool = False    # indirect requests issue post-commit
    core_commit_lag: float = 4.0     # core commit check turnaround

    def __post_init__(self) -> None:
        if self.chunk_iters <= 0 or self.n_chunks <= 0:
            raise ValueError("chunk_iters/n_chunks must be positive")
        if self.max_credit_chunks <= 0:
            raise ValueError("need at least one credit in flight")
        if self.range_interval <= 0:
            raise ValueError("range_interval must be positive")


@dataclass
class ProtocolResult:
    cycles: float
    iterations: int
    messages: Dict[MessageType, int]
    throughput: float                # iterations per cycle

    def message_count(self, mtype: MessageType) -> int:
        return self.messages.get(mtype, 0)


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


#: Env var selecting the protocol engine for runs that don't pass an
#: explicit ``engine=`` (``batched`` is the default).
ENV_PROTOCOL_ENGINE = "REPRO_PROTOCOL_ENGINE"

_ENGINE_ALIASES = {
    "batched": "batched",
    "soa": "batched",
    "reference": "reference",
    "ref": "reference",
    "scalar": "reference",
}


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an engine name to ``batched`` or ``reference``.

    An explicit ``engine=`` wins; otherwise ``$REPRO_PROTOCOL_ENGINE``
    is consulted; otherwise the batched engine is used.  Unknown names
    raise with the accepted spellings so a typo'd env var fails loudly
    instead of silently running the wrong engine.
    """
    if engine is None:
        engine = os.environ.get(ENV_PROTOCOL_ENGINE) or "batched"
    key = engine.strip().lower()
    if key not in _ENGINE_ALIASES:
        accepted = ", ".join(sorted(set(_ENGINE_ALIASES)))
        raise ValueError(
            f"unknown protocol engine {engine!r}; accepted: {accepted}")
    return _ENGINE_ALIASES[key]


def run_protocol_reference(params: ProtocolParams,
                           tracer: Optional[Tracer] = None,
                           label: str = "stream") -> ProtocolResult:
    """The retained scalar event-engine episode — the oracle."""
    return _ProtocolSim(params, tracer=tracer, label=label).run()


def run_protocol(params: ProtocolParams,
                 tracer: Optional[Tracer] = None,
                 label: str = "stream",
                 engine: Optional[str] = None) -> ProtocolResult:
    """Simulate one stream's range-sync episode (traced when asked)."""
    if resolve_engine(engine) == "reference":
        return run_protocol_reference(params, tracer=tracer, label=label)
    from repro.llc import rangesync_batch
    return rangesync_batch.run_batch([params], tracer=tracer,
                                     labels=[label])[0]


def run_protocol_batch(batch: Sequence[ProtocolParams],
                       tracer: Optional[Tracer] = None,
                       labels: Optional[Sequence[str]] = None,
                       engine: Optional[str] = None
                       ) -> List[ProtocolResult]:
    """Run many episodes at once through the selected engine.

    The batched engine advances all episodes together (its whole point);
    the reference engine just loops — same results, linear time.
    """
    if labels is not None and len(labels) != len(batch):
        raise ValueError("labels must match batch length")
    if resolve_engine(engine) == "reference":
        if labels is None:
            labels = ["stream"] * len(batch)
        return [run_protocol_reference(p, tracer=tracer, label=label)
                for p, label in zip(batch, labels)]
    from repro.llc import rangesync_batch
    return rangesync_batch.run_batch(batch, tracer=tracer, labels=labels)


@dataclass
class RecoveryResult:
    """Cost of restoring precise state (Fig 7 b/c)."""

    cycles: float
    discarded_iterations: int
    messages: Dict[MessageType, int]


#: In-core re-execution cost of one discarded iteration, in uops.
REEXECUTE_UOPS_PER_ITERATION = 2.0

_RECOVERY_MESSAGES = {MessageType.STREAM_END: 1, MessageType.STREAM_DONE: 1}


def run_recovery(params: ProtocolParams,
                 uncommitted_chunks: int) -> RecoveryResult:
    """Model the end-and-restore episode after an alias/fault/ctx-switch.

    SE_core issues an end message; SE_L3 writes back committed iterations,
    discards its ``uncommitted_chunks`` credit chunks of uncommitted
    progress, and replies done. Cost is one round trip plus the writeback
    of committed work; uncommitted iterations are lost and re-executed by
    the core.
    """
    cycles = (params.fwd_latency + params.writeback_per_chunk
              + params.back_latency)
    discarded = uncommitted_chunks * params.chunk_iters
    # A copy, not a literal: hashing the enum keys costs half the call.
    return RecoveryResult(cycles=cycles, discarded_iterations=discarded,
                          messages=dict(_RECOVERY_MESSAGES))


@dataclass
class RecoverySchedule:
    """One stream's recovery episodes, resolved in schedule order: the
    committed and re-executed iterations partition the offloaded ones."""

    #: Uncommitted credit chunks each episode ends with (int64).
    depths: np.ndarray
    #: The :func:`run_recovery` outcome of each distinct depth.
    outcomes: Dict[int, RecoveryResult]
    offloaded_iterations: float
    committed_iterations: float
    reexecuted_iterations: float
    #: ``base_cycles`` plus every episode's round trip and re-execution.
    cycles: float

    @property
    def episodes(self) -> int:
        return len(self.depths)


def resolve_recovery_schedule(params: ProtocolParams,
                              total_iterations: float,
                              depths: Sequence[int],
                              core_width: float = 1.0,
                              base_cycles: float = 0.0
                              ) -> RecoverySchedule:
    """Resolve a whole recovery schedule in one array pass.

    Episode ``i`` ends ``depths[i]`` uncommitted credit chunks: it costs
    :func:`run_recovery`'s round trip plus re-executing what it discards
    in-core (:data:`REEXECUTE_UOPS_PER_ITERATION` uops per iteration at
    ``core_width``).  A discard never exceeds what is still uncommitted,
    so once the iteration space is exhausted later episodes discard
    nothing.

    The result equals a per-episode loop bit for bit: an episode's
    outcome depends only on its depth (at most ``max_credit_chunks``), so
    :func:`run_recovery` runs once per distinct depth and episodes look
    their outcome up by depth; the uncommitted remainder before each
    episode is ``total - (integer prefix sum of earlier windows)``, exact
    below 2**53; and cycles accumulate left to right from ``base_cycles``
    (``np.add.accumulate``, not the pairwise ``np.sum``).
    """
    if total_iterations < 0:
        raise ValueError("need non-negative iterations")
    depths = np.asarray(depths, dtype=np.int64)
    if depths.size and not (0 <= int(depths.min()) and int(depths.max())
                            <= params.max_credit_chunks):
        raise ValueError("episode depths must lie in "
                         "[0, max_credit_chunks]")
    total = float(total_iterations)
    present = np.flatnonzero(np.bincount(depths))
    outcomes = {depth: run_recovery(params, uncommitted_chunks=depth)
                for depth in present.tolist()}
    round_trip_of = np.zeros(params.max_credit_chunks + 1)
    window_of = np.zeros(params.max_credit_chunks + 1, dtype=np.int64)
    round_trip_of[present] = [o.cycles for o in outcomes.values()]
    window_of[present] = [o.discarded_iterations for o in outcomes.values()]
    round_trip = round_trip_of[depths]
    window = window_of[depths]
    ended_before = np.cumsum(window) - window
    discarded = np.minimum(window, np.maximum(total - ended_before, 0.0))
    committed = max(total - float(window.sum()), 0.0)
    per_episode = round_trip + discarded * REEXECUTE_UOPS_PER_ITERATION \
        / core_width
    cycles = np.add.accumulate(
        np.concatenate(([float(base_cycles)], per_episode)))[-1]
    return RecoverySchedule(
        depths=depths, outcomes=outcomes,
        offloaded_iterations=total_iterations,
        committed_iterations=committed,
        reexecuted_iterations=total - committed, cycles=float(cycles))


def emit_recovery_schedule(schedule: RecoverySchedule, tracer: Tracer,
                           stream: str, sites: Sequence[str]) -> None:
    """Trace one stream's schedule on a recovery track of its own.

    One FAULT_FIRE + RECOVERY_BEGIN/END triple per episode, indexed by
    episode number (a fault schedule has no global clock; ``sites``
    names the fault that opened each episode), then a closing partition
    record the sanitizer verifies.
    """
    track = tracer.begin_stream(
        stream, track_kind=TRACK_RECOVERY,
        offloaded_iterations=schedule.offloaded_iterations)
    for episode, (site, depth) in enumerate(zip(sites,
                                                schedule.depths.tolist())):
        time = float(episode)
        outcome = schedule.outcomes[depth]
        tracer.emit(EventKind.FAULT_FIRE, time, track, stream,
                    site=site, depth=depth)
        tracer.emit(EventKind.RECOVERY_BEGIN, time, track, stream,
                    message=MessageType.STREAM_END, mcount=1.0,
                    uncommitted_chunks=depth)
        tracer.emit(EventKind.RECOVERY_END, time + outcome.cycles, track,
                    stream, message=MessageType.STREAM_DONE, mcount=1.0,
                    cycles=outcome.cycles,
                    discarded_iterations=outcome.discarded_iterations)
    tracer.end_stream(
        track, float(schedule.episodes), stream,
        offloaded_iterations=schedule.offloaded_iterations,
        committed_iterations=schedule.committed_iterations,
        reexecuted_iterations=schedule.reexecuted_iterations,
        recovery_cycles=schedule.cycles)
