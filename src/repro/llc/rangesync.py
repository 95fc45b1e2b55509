"""Range-based synchronization protocol (§IV-B, Figure 7).

One offloaded stream's coordination loop between SE_core and a remote
SE_L3, at chunk (credit) granularity:

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

An episode reports throughput (iterations/cycle), total cycles, and an
exact message inventory — consumed by the top-level simulator for both
timing and traffic. ``run_protocol`` / ``run_protocol_batch`` run
episodes through :mod:`~repro.llc.rangesync_batch`.  ``run_recovery``
models the precise-state restoration episode (alias / context switch /
fault, Fig 7 b-c), and ``resolve_recovery_schedule`` a stream's whole
schedule of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.noc.message import MessageType
from repro.trace.events import TRACK_RECOVERY, EventKind
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


def run_protocol(params: ProtocolParams,
                 tracer: Optional[Tracer] = None,
                 label: str = "stream") -> ProtocolResult:
    """Simulate one stream's range-sync episode (traced when asked)."""
    return run_protocol_batch([params], tracer=tracer, labels=[label])[0]


def run_protocol_batch(batch: Sequence[ProtocolParams],
                       tracer: Optional[Tracer] = None,
                       labels: Optional[Sequence[str]] = None
                       ) -> List[ProtocolResult]:
    """Run many episodes; results come back in batch order.

    Untraced episodes take the flat recurrence, traced ones the heap
    replay (:func:`~repro.llc.rangesync_batch.run_batch`).
    """
    if labels is not None and len(labels) != len(batch):
        raise ValueError("labels must match batch length")
    # rangesync_batch imports this module's dataclasses.
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
