"""Per-mode stream placement decisions.

For every stream of a compiled kernel, decide where it executes and whether
its computation moves with it. This encodes §VI's system descriptions:

* **BASE** — no streams; the original instruction sequence runs in-core with
  the Bingo/stride prefetchers.
* **NS_CORE** — streams execute in SE_core (prefetching only, SSP-like).
* **NS_NO_COMP** — memory *read* streams float to the LLC without
  computation (Stream Floating); writes and computation stay in the core.
* **INST** — stream prefetching plus Omni-Compute-style iteration-granularity
  offload for the (pattern x compute) combinations Table II grants it.
* **SINGLE** — Livia-style single-line functions: store/RMW/reduce offload
  with loop autonomy (chained for pointer chasing), indirect atomics fall
  back to iteration granularity, loads and multi-operand patterns stay home.
* **NS / NS_NO_SYNC / NS_DECOUPLE** — full near-stream offloading gated by
  SE_core's §IV-B profitability policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.compiler.program import StreamProgram
from repro.config import SystemConfig
from repro.isa.pattern import AddressPatternKind, ComputeKind
from repro.isa.stream import Stream
from repro.offload.modes import (
    AddrPattern,
    ExecMode,
    Support,
    Technique,
    addr_pattern_of,
    supports,
)
from repro.offload.policy import OffloadPolicy, StreamProfile
from repro.sim.tracestats import (PairGeometry, StreamStats,
                                  shares_lines_with_other_load)
from repro.workloads.base import Phase


class Placement(Enum):
    """Where a stream executes and whether its computation moves."""

    NONE = "none"            # no stream: original instructions in-core
    CORE = "core"            # stream in SE_core (prefetch), compute in-core
    OFFLOAD = "offload"      # stream at SE_L3, compute in-core or absent
    OFFLOAD_COMPUTE = "offload_compute"   # stream + computation at SE_L3
    ITER_OFFLOAD = "iter_offload"         # fine-grain per-iteration offload

    @property
    def at_llc(self) -> bool:
        return self in (Placement.OFFLOAD, Placement.OFFLOAD_COMPUTE)


@dataclass
class StreamPlan:
    stream: Stream
    placement: Placement
    reason: str

    @property
    def offloaded(self) -> bool:
        return self.placement in (Placement.OFFLOAD,
                                  Placement.OFFLOAD_COMPUTE,
                                  Placement.ITER_OFFLOAD)


def _profile_for(program: StreamProgram, stream: Stream, phase: Phase,
                 config: SystemConfig,
                 stats: Optional[Dict[str, StreamStats]] = None
                 ) -> StreamProfile:
    """Build the §IV-B decision profile from the stream's actual trace.

    ``stats`` optionally supplies the phase's precomputed
    :class:`~repro.sim.tracestats.StreamStats`: the distinct-line count
    (the only trace reduction the profile needs) is then read off the
    stats instead of re-deriving it with ``np.unique`` per stream per
    mode.  The stored value is computed with the identical expression,
    so the profile — and every placement decision — is bit-identical.
    """
    rec = program.recognized[stream.sid]
    trace = phase.traces.get(stream.name)
    st = stats.get(stream.name) if stats is not None else None
    if trace is None and rec.memory_free:
        # Reductions ride their source stream's profile.
        source = program.graph.stream(stream.base_stream)
        trace = phase.traces.get(source.name)
        st = stats.get(source.name) if stats is not None else None
    if trace is None or trace.steps == 0:
        return StreamProfile(footprint_bytes=0, miss_rate=0.0,
                             reuse_rate=1.0, aliased=False, length=0.0)
    if st is not None and st.elements == trace.steps:
        n_lines = st.distinct_lines
    else:
        import numpy as np
        n_lines = int(np.unique(trace.vaddrs >> 6).size)
    # Extrapolate to the paper's input size: the offload decision must
    # behave as it would on the unscaled workload.
    upscale = 1.0 / max(phase.data_scale, 1e-9)
    footprint = int(n_lines * 64 * upscale)
    steps = trace.steps * upscale
    # Reuse: elements touched more than once across the trace.
    reuse = 1.0 - n_lines * (64 // max(trace.element_bytes, 1)) / steps \
        if steps else 0.0
    reuse = min(max(reuse, 0.0), 1.0)
    private = config.l1d.size_bytes + config.l2.size_bytes
    miss_rate = 1.0 if footprint > private else 0.1
    length = steps / config.num_cores
    return StreamProfile(footprint_bytes=footprint, miss_rate=miss_rate,
                         reuse_rate=reuse, aliased=False, length=length)


def _depends_on_reduction(program: StreamProgram, stream: Stream) -> bool:
    """True when a value operand comes from a reduction stream — the
    instruction chain then contains a loop-carried accumulation that
    fine-grain offloaders cannot host remotely."""
    for dep in (*stream.value_deps, *stream.config_input_deps):
        if dep == stream.sid:
            continue
        if program.graph.stream(dep).compute is ComputeKind.REDUCE:
            return True
    return False


def _table2_pattern(stream: Stream) -> AddrPattern:
    return addr_pattern_of(stream.kind, multi_operand=stream.is_multi_operand)


def plan_streams(program: StreamProgram, phase: Phase, mode: ExecMode,
                 config: SystemConfig,
                 geometry: Optional[PairGeometry] = None
                 ) -> Dict[int, StreamPlan]:
    """Decide each stream's placement for the given mode.

    ``geometry`` optionally passes the phase's
    :class:`~repro.sim.tracestats.PairGeometry`, so the §IV-B profiles
    reuse its stats' distinct-line counts (see :func:`_profile_for`)
    and NS_no-comp reads its load-overlap entries; decisions are
    bit-identical with or without it.
    """
    plans: Dict[int, StreamPlan] = {}
    policy = OffloadPolicy(config)
    for stream in program.graph:
        plans[stream.sid] = _plan_one(program, phase, mode, config, policy,
                                      stream, geometry=geometry)
    _inherit_reduction_placements(program, plans)
    if mode in (ExecMode.NS, ExecMode.NS_NO_SYNC, ExecMode.NS_DECOUPLE):
        _promote_forwarding_producers(program, plans)
    return plans


def _promote_forwarding_producers(program: StreamProgram,
                                  plans: Dict[int, StreamPlan]) -> None:
    """A load stream whose data feeds only *offloaded* consumers never
    sends data to the core: it forwards between SE_L3s (Fig 2b) or feeds
    indirect address generation. Promote such streams from float/core to
    full offload so the traffic model routes their data remotely."""
    for stream in program.graph:
        plan = plans[stream.sid]
        if plan.placement not in (Placement.CORE, Placement.OFFLOAD):
            continue
        if stream.compute is not ComputeKind.LOAD:
            continue
        cost = program.costs[stream.sid]
        if cost.core_consumes:
            continue
        consumers = [c for c in program.graph
                     if stream.sid in c.value_deps
                     or stream.sid in c.config_input_deps
                     or c.base_stream == stream.sid]
        if consumers and all(plans[c.sid].offloaded for c in consumers):
            plans[stream.sid] = StreamPlan(
                stream, Placement.OFFLOAD_COMPUTE,
                "forwards to offloaded consumers")


def _plan_one(program: StreamProgram, phase: Phase, mode: ExecMode,
              config: SystemConfig, policy: OffloadPolicy,
              stream: Stream,
              geometry: Optional[PairGeometry] = None
              ) -> StreamPlan:
    rec = program.recognized[stream.sid]
    stats = geometry.stats if geometry is not None else None
    if mode is ExecMode.BASE:
        return StreamPlan(stream, Placement.NONE, "baseline")

    if mode is ExecMode.NS_CORE:
        return StreamPlan(stream, Placement.CORE, "in-core streams only")

    if mode is ExecMode.NS_NO_COMP:
        # Stream Floating: only memory read streams float, no computation,
        # no remote writes, no streaming atomics — and only when the same
        # miss/reuse profitability check (§IV-B, inherited from Stream
        # Floating itself) approves.
        if stream.compute is ComputeKind.LOAD and not rec.memory_free:
            overlaps = (geometry.shares_lines(stream) if geometry is not None
                        else shares_lines_with_other_load(program, stream,
                                                          phase))
            if overlaps:
                # Overlapping taps (stencil neighbors) reuse each other's
                # lines in the private cache; floating each stream would
                # re-send the shared data once per tap.
                return StreamPlan(stream, Placement.CORE,
                                  "overlaps another load stream")
            profile = _profile_for(program, stream, phase, config,
                                   stats=stats)
            decision = policy.decide(stream, profile)
            if decision.offload:
                return StreamPlan(stream, Placement.OFFLOAD,
                                  "read stream floats to LLC")
            return StreamPlan(stream, Placement.CORE, decision.reason)
        return StreamPlan(stream, Placement.CORE,
                          "writes/compute unsupported by floating")

    if mode is ExecMode.INST:
        support = supports(Technique.OMNI_COMPUTE, _table2_pattern(stream),
                           stream.compute)
        offloadable = (support is not Support.NONE
                       and (stream.has_computation
                            or stream.compute is ComputeKind.STORE)
                       and not _depends_on_reduction(program, stream)
                       # Omni's benefit predictor keeps dense affine load
                       # chains local: they prefetch perfectly and a
                       # per-iteration request costs more than the line.
                       and not (stream.compute is ComputeKind.LOAD
                                and stream.kind
                                is AddressPatternKind.AFFINE))
        if offloadable:
            return StreamPlan(stream, Placement.ITER_OFFLOAD,
                              "instruction-chain offload at the meet bank")
        return StreamPlan(stream, Placement.CORE,
                          "pattern unsupported; stream prefetch only")

    if mode is ExecMode.SINGLE:
        support = supports(Technique.LIVIA, _table2_pattern(stream),
                           stream.compute)
        if _depends_on_reduction(program, stream) \
                and stream.compute is not ComputeKind.REDUCE:
            # The offload chain would include a reduction the technique
            # cannot host remotely.
            return StreamPlan(stream, Placement.CORE,
                              "operand chain contains a reduction")
        if support is Support.FULL and (stream.writes_memory
                                        or stream.compute
                                        is ComputeKind.REDUCE):
            return StreamPlan(stream, Placement.OFFLOAD_COMPUTE,
                              "single-line function (chained)")
        if support is Support.PARTIAL:
            return StreamPlan(stream, Placement.ITER_OFFLOAD,
                              "indirect fallback: iteration-level offload")
        if stream.kind is AddressPatternKind.POINTER_CHASE:
            # Chained single-line functions traverse autonomously even when
            # the final compute type is a load-style lookup.
            return StreamPlan(stream, Placement.OFFLOAD_COMPUTE,
                              "chained pointer chase")
        return StreamPlan(stream, Placement.CORE,
                          "unsupported by single-line NDC; prefetch only")

    # NS family.
    if rec.operands_ineligible:
        return StreamPlan(stream, Placement.CORE,
                          "operands ineligible (§II-B); prefetch only")
    profile = _profile_for(program, stream, phase, config, stats=stats)
    decision = policy.decide(stream, profile)
    if not decision.offload:
        return StreamPlan(stream, Placement.CORE, decision.reason)
    if stream.has_computation or stream.compute is ComputeKind.STORE:
        return StreamPlan(stream, Placement.OFFLOAD_COMPUTE, decision.reason)
    return StreamPlan(stream, Placement.OFFLOAD, decision.reason)


def _inherit_reduction_placements(program: StreamProgram,
                                  plans: Dict[int, StreamPlan]) -> None:
    """A memory-free reduction stream lives wherever its source stream is;
    conversely if the reduction stays in-core its source must deliver data
    to the core."""
    for stream in program.graph:
        rec = program.recognized[stream.sid]
        if not rec.memory_free or stream.base_stream is None:
            continue
        source_plan = plans[stream.base_stream]
        mine = plans[stream.sid]
        if mine.placement is Placement.OFFLOAD_COMPUTE \
                and not source_plan.offloaded:
            plans[stream.sid] = StreamPlan(stream, source_plan.placement,
                                           "follows in-core source stream")
        elif mine.placement is Placement.OFFLOAD_COMPUTE \
                and source_plan.placement is Placement.OFFLOAD:
            # Pull the source up to compute-offload with the reduction.
            plans[stream.base_stream] = StreamPlan(
                source_plan.stream, Placement.OFFLOAD_COMPUTE,
                "feeds offloaded reduction")
