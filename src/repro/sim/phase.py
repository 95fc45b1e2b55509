"""The per-phase simulation engine.

One :class:`PhaseEngine` simulates one kernel phase of a workload under one
execution mode: cache behavior from the real traces (on a sample of cores),
exact message/traffic inventory, range-sync protocol episodes, lock
contention from measured atomic outcomes, and the combined timing bounds.

The structure mirrors the paper's system: sections below map to (a) the
compiled program's placement, (b) the private/shared cache path, (c) core
micro-op accounting per mode, (d) the NoC message inventory, (e) protocol
dynamics, (f) the final cycle composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.program import StreamProgram
from repro.config import SystemConfig
from repro.core.pipeline import CoreWork, PipelineModel
from repro.core.scm import ScmModel
from repro.energy.model import EventCounts
from repro.fault.plan import FaultPlan, FaultSite, FaultStats
from repro.isa.pattern import AddressPatternKind, ComputeKind
from repro.isa.stream import Stream
from repro.llc.indirect import atomic_window, indirect_reduction_messages
from repro.llc.rangesync import (ProtocolParams, emit_recovery_schedule,
                                 resolve_recovery_schedule,
                                 run_protocol_batch)
from repro.llc.se_l3 import SEL3Model
from repro.mem.tlb import page_walk_cycles
from repro.mem.address import AddressSpace, LINE_SHIFT
from repro.mem.hierarchy import (HierarchyModel, PrefetchModel,
                                 SharedL3Model)
from repro.mem.locks import LockAnalysis, LockKind, LockModel, LockStats
from repro.noc.flow import FlowModel
from repro.noc.message import MessageType, message_bytes
from repro.noc.topology import Mesh
from repro.offload.modes import ExecMode
from repro.sim.placement import Placement, StreamPlan, plan_streams
from repro.sim.profiler import Profiler
from repro.trace.tracer import Tracer
from repro.sim.tracestats import (
    PairGeometry,
    StreamStats,
    compute_phase_stats,
    hops_matrix,
)
from repro.workloads.base import Phase

# Stream-instruction overheads (core micro-ops per element).
SLOAD_STEP_UOPS = 1.6     # s_load + amortized s_step when the core uses data
SCONFIG_UOPS = 12.0       # s_cfg_begin/input*/end sequence
ITER_OFFLOAD_UOPS = 3.0   # request setup per offloaded iteration (INST)
BARRIER_CYCLES = 150.0    # OpenMP join: NoC sweep + pipeline drain
# Residual exposure of stream-prefetched load latency (FIFO turnaround).
STREAM_EXPOSURE = 0.05
REMOTE_RESULT_EXPOSURE = 0.02


@dataclass
class LevelRates:
    """Where a stream's accesses are served.

    ``l1`` is the element-level L1 hit rate (energy accounting); ``l2``,
    ``l3`` and ``dram`` are fractions of the stream's *line fetches* (L1-miss
    events) served at each level — the unit traffic and stall math uses.
    """

    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    dram: float = 0.0
    prefetch_hidden: float = 0.0


@dataclass
class PhaseOutcome:
    """Everything one phase's simulation produced."""

    cycles: float
    bottleneck: str
    core_uops: float
    offloaded_uops: float
    offloadable_uops: float
    events: EventCounts
    lock_stats: Optional[LockStats]
    protocol_messages: Dict[MessageType, float] = field(default_factory=dict)
    plans: Dict[int, StreamPlan] = field(default_factory=dict)
    bounds: Dict[str, float] = field(default_factory=dict)
    fault_stats: Optional[FaultStats] = None


class PhaseEngine:
    """Simulates one kernel phase under one execution mode."""

    def __init__(self, config: SystemConfig, space: AddressSpace,
                 program: StreamProgram, phase: Phase, mode: ExecMode,
                 mesh: Mesh, flow: FlowModel, shared_l3: SharedL3Model,
                 hierarchies: List[HierarchyModel],
                 sample_cores: int = 4,
                 profiler: Optional[Profiler] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None,
                 geometry: Optional[PairGeometry] = None) -> None:
        """``fault_plan`` injects discrete faults at the real protocol
        sites (SE_L3 TLB aborts, alias false positives, MRSW conflicts,
        SCC evictions — Fig 7 b/c) with a seeded RNG. Each recovery costs
        an end/writeback/done episode plus re-execution of the discarded
        uncommitted window; the realized recovery rate is the *derived*
        statistic in the phase's :class:`FaultStats`.

        ``geometry`` supplies the phase's :class:`PairGeometry`: its
        per-stream :class:`StreamStats` and its stream-pair entries (the
        replay path shares one object across modes).  Geometry is pure
        in (trace, space, mesh), so passing it is observationally
        identical to computing it here, which a live run does lazily."""
        self.config = config
        self.space = space
        self.program = program
        self.phase = phase
        self.mode = mode
        self.mesh = mesh
        self.flow = flow
        self.shared_l3 = shared_l3
        self.hierarchies = hierarchies
        self.n_cores = config.num_cores
        self.sample_cores = min(sample_cores, self.n_cores, len(hierarchies))
        self.pipeline = PipelineModel(config.core)
        self.tracer = tracer
        self.scm = ScmModel(config.se, tracer=tracer)
        self.sel3 = SEL3Model(config, tracer=tracer)
        if geometry is None:
            geometry = PairGeometry(
                program, phase,
                compute_phase_stats(phase.traces, space, mesh,
                                    hops_matrix(mesh), config.page_bytes),
                mesh)
        self.geometry = geometry
        self.stats: Dict[str, StreamStats] = geometry.stats
        self.plans = plan_streams(program, phase, mode, config,
                                  geometry=geometry)
        self.rates: Dict[str, LevelRates] = {}
        # Per-element quantities extrapolate to the paper's input size; fixed
        # per-stream costs (configuration, barriers) do not. This keeps the
        # fixed/variable cost ratio faithful despite the shrunk inputs.
        self.up = 1.0 / max(phase.data_scale, 1e-9)
        self.events = EventCounts()
        self.lock_stats: Optional[LockStats] = None
        self._protocol_cache: Dict[int, Tuple[object, int]] = {}
        self.profiler = profiler if profiler is not None else Profiler()
        # A null plan is normalized away so fault-free runs stay strict
        # no-ops (no RNGs constructed, no stats attached).
        self.fault_plan = (fault_plan
                           if fault_plan is not None
                           and not fault_plan.is_null() else None)
        self._lock_fault_stats = FaultStats()
        self._recovery_fault_stats = FaultStats()
        self._fault_draws: Dict[int, Tuple] = {}
        # Each stream's raw level counts from the sampled walk, which a
        # replayed trace shares across runs (run_workload fills them from
        # its per-trace memo) and sample_caches computes when unset.
        self.level_counts: Optional[Dict[str, Tuple[float, ...]]] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _lanes(self) -> int:
        return max(self.program.kernel.vector_lanes, 1)

    def _consumed_steps(self, stream: Stream) -> float:
        rec = self.program.recognized[stream.sid]
        if rec.memory_free:
            return rec.results_per_kernel
        return self.program.costs[stream.sid].steps

    def _decoupled(self) -> bool:
        """NS_decouple implies the s_sync_free pragma; the loop is removed
        when the kernel is structurally decouplable (§V)."""
        return (self.mode is ExecMode.NS_DECOUPLE
                and self.program.decouple.decouple_ready)

    def _is_atomic(self, stream: Stream) -> bool:
        rec = self.program.recognized[stream.sid]
        return rec.atomic_op is not None

    def _l3_round_trip(self, hops: float) -> float:
        req = self.flow.mean_latency(MessageType.READ_REQ, hops)
        resp = self.flow.mean_latency(MessageType.READ_RESP, hops)
        return req + resp + self.config.l3_bank.latency

    def _dram_latency(self) -> float:
        return self.config.dram.latency_cycles

    # ------------------------------------------------------------------
    # 1. Cache sampling
    # ------------------------------------------------------------------
    def cache_paths(self) -> Tuple[Optional[str], ...]:
        """Each stream's path into the sampled caches, in graph order: the
        only part of the mode :meth:`_walk_caches` reads."""
        return tuple(self._cache_path(stream)
                     for stream in self.program.graph)

    def _cache_path(self, stream: Stream) -> Optional[str]:
        """"l3" for a stream that goes straight to the shared L3, "l2" for
        one that skips the L1 (SE_core fetches), "l1" for one that walks
        the whole hierarchy, None for a memory-free stream."""
        if self.program.recognized[stream.sid].memory_free:
            return None
        placement = self.plans[stream.sid].placement
        if placement.at_llc or placement is Placement.ITER_OFFLOAD:
            return "l3"
        return "l2" if placement is Placement.CORE else "l1"

    def sample_caches(self) -> None:
        """Level rates of every stream from the sampled walk's raw counts
        (:meth:`_walk_caches`, unless ``level_counts`` already holds them)."""
        if self.level_counts is None:
            self.level_counts = self._walk_caches()
        self.rates = {name: LevelRates(*counts)
                      for name, counts in self.level_counts.items()}
        self._finalize_rates()

    def _walk_caches(self) -> Dict[str, Tuple[float, ...]]:
        """Drive sampled cores' private hierarchies with their slices of
        every stream trace, interleaved in iteration order; returns each
        stream's (l1, l2, l3, dram) access counts from the measuring pass.

        Interleaving matters: cross-stream reuse (a stencil's store landing
        in the private cache and next sweep's neighbor loads hitting it)
        only shows up when accesses hit the caches in program order.
        Offloaded (bypass) streams go straight to the shared L3 at line
        granularity.
        """
        sample_ids = np.linspace(0, self.n_cores - 1, self.sample_cores,
                                 dtype=int).tolist()
        # Each core's accesses depend on the traces and placements only,
        # not on cache state, so both passes replay one preparation.
        prepared = [self._core_accesses(core) for core in sample_ids]
        counts: Dict[str, List[float]] = {}
        # Warmup then measure. The warmup leaves the shared L3 resident —
        # the paper's workloads are sized to fit the 64 MB LLC, and the
        # near-cache setting measures the LLC-warm steady state. Private
        # caches only stay warm when the kernel really repeats
        # (invocations > 1); otherwise they are flushed after warmup.
        for measuring in (False, True):
            if measuring and self.phase.invocations <= 1:
                for hier in self.hierarchies:
                    hier.reset()
            for hier, (bypass, walk) in zip(self.hierarchies, prepared):
                # Per core: bypass streams in graph order, then the walk.
                for name, lines, writes in bypass:
                    hits = int(self.shared_l3.access(lines, writes).sum())
                    if measuring:
                        c = counts.setdefault(name, [0.0] * 4)
                        c[2] += hits
                        c[3] += len(lines) - hits
                if walk is None:
                    continue
                names, line_arr, write_arr, skip_arr, sidx_arr = walk
                levels = hier.walk_elements(line_arr, write_arr, skip_arr)
                if measuring:
                    served = np.bincount(sidx_arr * 4 + levels,
                                         minlength=len(names) * 4).tolist()
                    for i, name in enumerate(names):
                        c = counts.setdefault(name, [0.0] * 4)
                        for level in range(4):
                            c[level] += served[i * 4 + level]
        return {name: tuple(c) for name, c in counts.items()}

    def _core_accesses(self, core: int):
        """One sampled core's cache accesses, in the order both passes of
        :meth:`sample_caches` issue them.

        Returns ``(bypass, walk)``: ``bypass`` lists ``(stream name,
        lines, writes)`` of the streams that go straight to the shared
        L3, in graph order; ``walk`` is ``(names, lines, writes, skips,
        stream idx)``, the other streams' accesses merged in program
        order for :meth:`HierarchyModel.walk_elements`, or None when
        there are none.
        """
        total_iters = max(self.program.kernel.total_iterations, 1.0)
        bypass = []
        merged = []   # (positions, lines, writes, skips, stream idx)
        names: List[str] = []
        for stream in self.program.graph:
            path = self._cache_path(stream)
            if path is None:
                continue
            trace = self.phase.traces.get(stream.name)
            if trace is None or trace.steps == 0:
                continue
            sl = trace.slice_for(core, self.n_cores)
            vaddrs = trace.vaddrs[sl]
            if len(vaddrs) == 0:
                continue
            # Stream stats already hold the whole trace's physical lines;
            # translation is elementwise, so slicing them is bit-identical
            # to translating the slice.
            st = self.stats.get(stream.name)
            if st is not None and st.elements == trace.steps:
                lines = st.lines[sl]
            else:
                lines = self.space.translate(vaddrs) >> LINE_SHIFT
            if path == "l3":
                # SE_L3 fetches each line once, straight from L3.
                keep = np.concatenate(([True], lines[1:] != lines[:-1]))
                dedup = lines[keep]
                bypass.append((stream.name, dedup,
                               np.full(len(dedup), trace.is_write)))
                continue
            skip_l1 = path == "l2"
            stride = total_iters / len(vaddrs)
            k = np.arange(len(lines), dtype=np.float64)
            if skip_l1:
                # SE_core fetches each line once into the FIFO.
                keep = np.concatenate(([True], lines[1:] != lines[:-1]))
                lines = lines[keep]
                k = k[keep]
            names.append(stream.name)
            merged.append((k * stride, lines,
                           np.full(len(lines), trace.is_write),
                           np.full(len(lines), skip_l1),
                           np.full(len(lines), len(names) - 1,
                                   dtype=np.int64)))
        if not merged:
            return bypass, None
        # Stable sort by iteration position reproduces the program-order
        # interleave of the scalar reference (ties keep graph-iteration
        # append order).
        positions = np.concatenate([c[0] for c in merged])
        order = np.argsort(positions, kind="stable")
        line_arr = np.concatenate([c[1] for c in merged])[order]
        write_arr = np.concatenate([c[2] for c in merged])[order]
        skip_arr = np.concatenate([c[3] for c in merged])[order]
        sidx_arr = np.concatenate([c[4] for c in merged])[order]
        return bypass, (names, line_arr, write_arr, skip_arr, sidx_arr)

    def _finalize_rates(self) -> None:
        prefetch = PrefetchModel(self.config.prefetcher)
        for name, rates in self.rates.items():
            trace = self.phase.traces.get(name)
            if trace is not None:
                rates.prefetch_hidden = prefetch.hidden_fraction(
                    trace.affine_fraction)
            beyond_l1 = rates.l2 + rates.l3 + rates.dram
            total = rates.l1 + beyond_l1
            if total <= 0:
                continue
            rates.l1 /= total
            if beyond_l1 > 0:
                rates.l2 /= beyond_l1
                rates.l3 /= beyond_l1
                rates.dram /= beyond_l1
            # Shared atomics/indirect writes bounce between cores in
            # conventional modes: invalidations void private hits.
            stream = self._stream_by_name(name)
            if stream is not None and self._is_atomic(stream) \
                    and not self.plans[stream.sid].placement.at_llc:
                # Shared atomics bounce between 64 cores: most private hits
                # observed on one core's isolated slice would really be
                # invalidated by other writers.
                keep = 0.1
                rates.l3 += rates.l2 * (1.0 - keep)
                rates.l2 *= keep
                rates.l1 *= keep

    def _has_offloaded_reduce_consumer(self, stream: Stream) -> bool:
        for consumer in self.program.graph:
            if not self.program.recognized[consumer.sid].memory_free:
                continue
            if consumer.base_stream == stream.sid \
                    and self.plans[consumer.sid].placement.at_llc:
                return True
        return False

    def _stream_by_name(self, name: str) -> Optional[Stream]:
        for stream in self.program.graph:
            if stream.name == name:
                return stream
        return None

    def _rate(self, stream: Stream) -> LevelRates:
        stats = self.geometry.stream_stats(stream)
        if stats is None:
            return LevelRates(l1=1.0)
        return self.rates.get(stats.name, LevelRates(l3=1.0))

    # ------------------------------------------------------------------
    # 2. Micro-op accounting
    # ------------------------------------------------------------------
    def account_uops(self) -> Tuple[float, float, float, float]:
        """Machine-wide core uops, simd uops, offloaded uops, offloadable.

        Returns totals for ONE invocation of the kernel.
        """
        lanes = self._lanes()
        core_uops = 0.0
        simd_uops = 0.0
        offloaded = 0.0
        offloadable = 0.0
        decoupled = (self.mode is ExecMode.NS_DECOUPLE
                     and self.program.decouple.fully_decoupled)

        up = self.up
        for stream in self.program.graph:
            cost = self.program.costs[stream.sid]
            plan = self.plans[stream.sid]
            stream_total = (cost.mem_uops + cost.compute_uops) * up
            offloadable += stream_total
            fn_simd = bool(stream.function and stream.function.simd)
            if plan.placement is Placement.NONE:
                core_uops += stream_total / lanes
                if fn_simd or self.program.kernel.vector_lanes > 1:
                    simd_uops += cost.compute_uops * up / lanes
            elif plan.placement is Placement.CORE:
                # Stream instructions replace address generation + access.
                core_uops += (SLOAD_STEP_UOPS * cost.steps
                              + cost.compute_uops) * up / lanes
                if fn_simd or self.program.kernel.vector_lanes > 1:
                    simd_uops += cost.compute_uops * up / lanes
                self.events.se_elements += cost.steps * up
            elif plan.placement is Placement.OFFLOAD:
                # Address-only offload: data still consumed in-core.
                core_uops += (SLOAD_STEP_UOPS * cost.steps
                              + cost.compute_uops) * up / lanes
                if fn_simd or self.program.kernel.vector_lanes > 1:
                    simd_uops += cost.compute_uops * up / lanes
                self.events.se_elements += cost.steps * up
                offloaded += cost.mem_uops * up
            elif plan.placement is Placement.OFFLOAD_COMPUTE:
                offloaded += stream_total
                self.events.se_elements += cost.steps * up
                if cost.core_consumes and not decoupled:
                    # Reductions deliver one result per outer iteration, not
                    # one per element.
                    consumed = self._consumed_steps(stream)
                    core_uops += SLOAD_STEP_UOPS * consumed * up / lanes
                # Remote compute runs on the scalar PE or an SCC.
                if stream.function is not None:
                    if self.scm.runs_on_scalar_pe(stream.function):
                        self.events.scalar_pe_ops += cost.compute_uops * up
                    else:
                        self.events.scc_uops += cost.compute_uops * up / (
                            lanes if fn_simd else 1)
                else:
                    self.events.scalar_pe_ops += cost.compute_uops * up
            elif plan.placement is Placement.ITER_OFFLOAD:
                offloaded += stream_total
                coalesce = 3.0 if stream.kind \
                    is AddressPatternKind.AFFINE else 1.0
                core_uops += ITER_OFFLOAD_UOPS * cost.steps * up / coalesce
                self.events.scc_uops += cost.compute_uops * up / (
                    lanes if fn_simd else 1)
            if plan.placement is not Placement.NONE:
                # s_cfg_begin/input*/end once per stream per core.
                core_uops += SCONFIG_UOPS * self.n_cores

        residual = (self.program.residual_compute_uops
                    + self.program.residual_mem_uops) * up / lanes
        control = self.program.control_uops * up / lanes
        if decoupled:
            control = 0.0  # the loop itself is eliminated (§V)
        core_uops += residual + control

        self.events.core_uops += core_uops
        if self.program.kernel.vector_lanes > 1:
            # simd_uops already tracked per-stream above.
            pass
        self.events.simd_uops += simd_uops
        return core_uops, simd_uops, offloaded, offloadable

    # ------------------------------------------------------------------
    # 3. Traffic inventory
    # ------------------------------------------------------------------
    def build_traffic(self) -> None:
        for stream in self.program.graph:
            rec = self.program.recognized[stream.sid]
            if rec.memory_free:
                self._traffic_reduction(stream)
                continue
            stats = self.stats.get(stream.name)
            if stats is None or stats.elements == 0:
                continue
            plan = self.plans[stream.sid]
            if plan.placement in (Placement.NONE, Placement.CORE):
                self._traffic_demand_fetch(stream, stats, plan)
            elif plan.placement is Placement.OFFLOAD:
                self._traffic_float(stream, stats)
            elif plan.placement is Placement.OFFLOAD_COMPUTE:
                self._traffic_offload_compute(stream, stats)
            elif plan.placement is Placement.ITER_OFFLOAD:
                self._traffic_iter_offload(stream, stats)
        self._traffic_forwards()
        self._traffic_residual()

    def _traffic_forwards(self) -> None:
        """Operand forwarding between SE_L3s (Fig 2b).

        Consumer-centric: for each offloaded consumer, its per-element
        producers forward their data to the consumer's bank. Forwards are
        batched at line granularity (consecutive elements of a stream share
        a line, and consecutive receiving elements share the receiving
        line), and producers reading overlapping data (a stencil's three
        same-row taps) are deduplicated per region — the hardware forwards
        each source line once (:meth:`PairGeometry.forward_groups`)."""
        for consumer in self.program.graph:
            plan = self.plans[consumer.sid]
            if plan.placement is not Placement.OFFLOAD_COMPUTE:
                continue
            if self.program.recognized[consumer.sid].memory_free:
                continue  # reductions handled in _traffic_reduction
            for lines, hops in self.geometry.forward_groups(consumer):
                self._inject_mean(MessageType.STREAM_FORWARD,
                                  lines * self.up, hops,
                                  payload_override=64)

    def _inject_mean(self, mtype: MessageType, count: float, hops: float,
                     payload_override: int = -1) -> None:
        """Record an aggregate flow with a mean hop count."""
        if count <= 0 or hops < 0:
            return
        size = message_bytes(mtype, self.config.noc, payload_override)
        self.flow.ledger.record(mtype, size, hops, count)
        # Spread the load uniformly for the queueing model.
        total = size * count * hops
        per_link = total / max(self.mesh.num_links, 1)
        key = (-1, 0)
        self.flow._link_bytes[key] = self.flow._link_bytes.get(key, 0.0) \
            + per_link * self.mesh.num_links / max(self.mesh.num_links, 1)

    def _traffic_demand_fetch(self, stream: Stream, stats: StreamStats,
                              plan: StreamPlan) -> None:
        """Conventional fetch-to-core: lines move over request/response."""
        rates = self.rates.get(stats.name, LevelRates(l3=1.0))
        # Line events: consecutive-line dedup covers within-line locality
        # for affine streams; the L1 additionally filters irregular reuse
        # (hot graph hubs), so scale by the measured element-level L1 rate.
        line_events = min(stats.line_fetches,
                          stats.elements * (1.0 - rates.l1)) \
            if rates.l1 > 0 else stats.line_fetches
        fetches = line_events * (rates.l3 + rates.dram) * self.up
        overfetch = 1.0
        if self.mode is ExecMode.BASE and self.config.prefetcher.enabled:
            overfetch = 1.15
            self._inject_mean(MessageType.PREFETCH_REQ,
                              fetches * rates.prefetch_hidden,
                              stats.mean_hops_core_bank)
        self._inject_mean(MessageType.READ_REQ, fetches,
                          stats.mean_hops_core_bank)
        self._inject_mean(MessageType.READ_RESP, fetches * overfetch,
                          stats.mean_hops_core_bank)
        if stats.is_write:
            # Ownership + eventual writeback of dirty lines.
            self._inject_mean(MessageType.WRITEBACK, fetches,
                              stats.mean_hops_core_bank)
            if self._is_atomic(stream):
                self._inject_mean(MessageType.INVALIDATE, fetches * 0.9,
                                  stats.mean_hops_core_bank)
        self._dram_traffic(stats, line_events * rates.dram * self.up)
        self.events.l1_accesses += stats.elements * self.up
        self.events.l2_accesses += line_events * self.up
        self.events.l3_accesses += fetches

    def _traffic_float(self, stream: Stream, stats: StreamStats) -> None:
        """NS_no-comp: read stream floats at the LLC; elements stream back
        to the core in line-sized batches."""
        rates = self.rates.get(stats.name, LevelRates(l3=1.0))
        data_bytes = stats.elements * stats.element_bytes * self.up
        batches = max(data_bytes / 64.0, 1.0)
        self._inject_mean(MessageType.STREAM_DATA, batches,
                          stats.mean_hops_core_bank, payload_override=64)
        self._traffic_stream_common(stream, stats)
        self._dram_traffic(stats, stats.line_fetches * rates.dram * self.up)
        self.events.l3_accesses += stats.line_fetches * self.up

    def _traffic_offload_compute(self, stream: Stream,
                                 stats: StreamStats) -> None:
        """NS family / SINGLE autonomous: compute lives at the bank."""
        cost = self.program.costs[stream.sid]
        rates = self.rates.get(stats.name, LevelRates(l3=1.0))
        # (Operand forwarding is charged consumer-centric in
        # _traffic_forwards, line-batched per distant producer.)
        # Results consumed by the core stream back (closure-reduced size).
        if cost.core_consumes:
            out_bytes = (stream.function.output_bytes if stream.function
                         else stats.element_bytes)
            batches = max(stats.elements * self.up * out_bytes / 64.0, 1.0)
            self._inject_mean(MessageType.STREAM_DATA, batches,
                              stats.mean_hops_core_bank, payload_override=64)
        # Indirect requests hop from the base stream's bank to the target.
        if stream.kind is AddressPatternKind.INDIRECT \
                and stream.base_stream is not None:
            base_stats = self.geometry.stream_stats(
                self.program.graph.stream(stream.base_stream))
            if base_stats is not None and base_stats.elements:
                hops = self.geometry.hops(base_stats, stats)
                self._inject_mean(MessageType.STREAM_IND_REQ,
                                  stats.elements * self.up, hops)
                if self._is_atomic(stream) and not self.mode.sync_free:
                    self._inject_mean(MessageType.STREAM_IND_RESP,
                                      stats.elements * self.up, hops)
                elif stream.compute is ComputeKind.LOAD \
                        and self._has_offloaded_reduce_consumer(stream):
                    # §IV-C: partials accumulate in the visited banks; the
                    # iteration-tagged stream buffer lets banks flush them
                    # back in credit-chunk batches (8 partials per message).
                    reduce_results = max(
                        r.results_per_kernel
                        for r in self.program.recognized.values()
                        if r.memory_free and r.base_sid == stream.sid)
                    self._inject_mean(MessageType.STREAM_REDUCE_COLLECT,
                                      reduce_results * self.up / 8.0, hops,
                                      payload_override=64)
        if self.mode is ExecMode.SINGLE \
                and stream.kind is not AddressPatternKind.POINTER_CHASE:
            # Livia ships a function invocation per cache line.
            self._inject_mean(MessageType.STREAM_CONFIG,
                              stats.line_fetches * self.up,
                              stats.mean_hops_core_bank, payload_override=16)
        self._traffic_stream_common(stream, stats)
        self._dram_traffic(stats, stats.line_fetches * rates.dram * self.up)
        self.events.l3_accesses += (stats.line_fetches
                                    + (stats.elements if stream.kind
                                       is AddressPatternKind.INDIRECT
                                       else 0)) * self.up

    def _traffic_iter_offload(self, stream: Stream,
                              stats: StreamStats) -> None:
        """INST / SINGLE fallback: one offload transaction per iteration."""
        rates = self.rates.get(stats.name, LevelRates(l3=1.0))
        # One offload transaction per iteration (instruction-chain
        # granularity). Back-to-back requests on an affine chain coalesce
        # in the request path (MSHR-style, factor ~3); data-dependent
        # chains cannot coalesce.
        coalesce = (3.0 if stream.kind is AddressPatternKind.AFFINE else 1.0)
        requests = stats.elements * self.up / coalesce
        self._inject_mean(MessageType.STREAM_CONFIG, requests,
                          stats.mean_hops_core_bank, payload_override=16)
        self._inject_mean(MessageType.STREAM_IND_RESP, requests,
                          stats.mean_hops_core_bank)
        # Operands converge at the "meet" bank; with no stream buffer at
        # the bank, each offload re-fetches its operand elements.
        for dep_sid in (*stream.value_deps, *stream.config_input_deps):
            dep = self.program.graph.stream(dep_sid)
            if self.program.recognized[dep_sid].memory_free:
                continue  # reduction results are not per-element operands
            dep_stats = self.geometry.stream_stats(dep)
            if dep_stats is None or dep_stats.elements == 0:
                continue
            hops = self.geometry.hops(dep_stats, stats)
            if hops > 0:
                self._inject_mean(MessageType.STREAM_FORWARD,
                                  stats.elements * self.up / coalesce, hops,
                                  payload_override=int(
                                      min(dep_stats.element_bytes * coalesce,
                                          64)))
        self._dram_traffic(stats, stats.line_fetches * rates.dram * self.up)
        self.events.l3_accesses += stats.elements * self.up

    def _traffic_stream_common(self, stream: Stream,
                               stats: StreamStats) -> None:
        """Config, credits, migration — every offloaded stream pays these."""
        n_instances = max(self.n_cores, 1)
        self._inject_mean(MessageType.STREAM_CONFIG, n_instances,
                          stats.mean_hops_core_bank)
        chunks = max(stats.elements * self.up
                     / self.config.se.credit_chunk, 1.0)
        self._inject_mean(MessageType.STREAM_CREDIT, chunks,
                          stats.mean_hops_core_bank)
        if stats.migrations \
                and stream.kind is not AddressPatternKind.INDIRECT:
            # Indirect accesses are remote *requests*, not migrations; only
            # affine and pointer-chasing stream state moves between banks.
            self._inject_mean(
                MessageType.STREAM_MIGRATE, stats.migrations * self.up,
                stats.migration_hops / max(stats.migrations, 1))
        self._inject_mean(MessageType.STREAM_END, n_instances,
                          stats.mean_hops_core_bank)

    def _traffic_reduction(self, stream: Stream) -> None:
        """Results of an offloaded reduction (§IV-C).

        A *nested* reduction (one result per outer iteration) accumulates at
        the anchor bank and forwards each result to its consumer stream (or
        the core). A *whole-kernel* reduction accumulates partials in every
        visited bank and is collected once by multicast at stream end.
        """
        plan = self.plans[stream.sid]
        if plan.placement is not Placement.OFFLOAD_COMPUTE:
            return
        stats = self.geometry.stream_stats(stream)
        if stats is None or stats.elements == 0:
            return
        rec = self.program.recognized[stream.sid]
        results = rec.results_per_kernel * self.up
        nested = rec.results_per_kernel > 1.0
        if not nested:
            # Partial-per-bank accumulation, one multicast collection.
            collection = indirect_reduction_messages(
                stats.banks, self.mesh, core_tile=0)
            self._inject_mean(MessageType.STREAM_REDUCE_COLLECT,
                              collection.collect_messages * self.n_cores,
                              max(collection.multicast_hops
                                  / max(collection.collect_messages, 1), 1.0))
            return
        cost = self.program.costs[stream.sid]
        consumers = [c for c in self.program.graph
                     if stream.sid in c.value_deps and c.sid != stream.sid]
        forwarded = False
        for consumer in consumers:
            if not self.plans[consumer.sid].offloaded:
                continue
            cst = self.geometry.stream_stats(consumer)
            if cst is None or cst.elements == 0:
                continue
            anchor = self.geometry.stream_stats(
                self.program.graph.stream(stream.base_stream))
            hops = (self.geometry.hops(anchor, cst)
                    if anchor is not None else 1.0)
            if hops > 0:
                self._inject_mean(MessageType.STREAM_FORWARD, results, hops,
                                  payload_override=8)
            forwarded = True
        if cost.core_consumes or not forwarded:
            self._inject_mean(MessageType.STREAM_DATA, results,
                              stats.mean_hops_core_bank, payload_override=8)

    def _traffic_residual(self) -> None:
        """Residual core accesses are private-resident by construction."""
        self.events.l1_accesses += self.program.residual_mem_uops \
            * self.up / 2.0

    def _dram_traffic(self, stats: StreamStats, dram_lines: float) -> None:
        if dram_lines <= 0:
            return
        mc_hops = float(np.mean([
            self.geometry.hmat[b, self.mesh.nearest_memory_controller(int(b))]
            for b in np.unique(stats.banks)[:64]
        ])) if len(stats.banks) else 1.0
        self._inject_mean(MessageType.DRAM_READ, dram_lines, mc_hops)
        self.events.dram_accesses += dram_lines

    # ------------------------------------------------------------------
    # 4. Protocol episodes (range-sync)
    # ------------------------------------------------------------------
    def _protocol_params(self, stream: Stream, stats: StreamStats
                         ) -> Optional[Tuple[ProtocolParams, int]]:
        """Episode parameters and credit chunks of one offloaded stream."""
        plan = self.plans[stream.sid]
        if not plan.placement.at_llc:
            return None
        se = self.config.se
        per_core = max(stats.elements * self.up / self.n_cores, 1.0)
        chunks = max(int(per_core // se.credit_chunk), 1)
        elements_per_line = (stats.elements / max(stats.line_fetches, 1)
                             if stream.kind is AddressPatternKind.AFFINE
                             else 1.0)
        rate = self.sel3.service_rate(
            stream,
            stream.function
            if plan.placement is Placement.OFFLOAD_COMPUTE else None,
            elements_per_line=elements_per_line,
            vector_lanes=self._lanes())
        sends_ranges = not (stream.kind is AddressPatternKind.AFFINE
                            and se.affine_ranges_at_core)
        params = ProtocolParams(
            chunk_iters=se.credit_chunk,
            range_interval=se.range_sync_interval,
            n_chunks=min(chunks, 32),
            service_per_iter=1.0 / max(rate.elements_per_cycle, 1e-6),
            writeback_per_chunk=8.0,
            fwd_latency=self.flow.mean_latency(MessageType.STREAM_CREDIT,
                                               stats.mean_hops_core_bank),
            back_latency=self.flow.mean_latency(MessageType.STREAM_RANGE,
                                                stats.mean_hops_core_bank),
            max_credit_chunks=self._credit_chunks(stream, stats,
                                                  elements_per_line),
            needs_commit=stream.writes_memory and not self.mode.sync_free,
            sends_ranges=sends_ranges and not self.mode.sync_free,
            sync_free=self.mode.sync_free,
            indirect_commit=(stream.kind is AddressPatternKind.INDIRECT
                             and self._is_atomic(stream)
                             and not self.mode.sync_free),
        )
        return params, chunks

    def _prepare_protocols(self) -> None:
        """Run every eligible stream's episode in one engine call.

        One episode per offloaded stream goes into the batch, so a batch
        holds a handful of episodes whatever the mesh size.
        ``protocol_for`` then serves results from the cache, keyed by
        stream id (a stream's credit chunks are fixed for the engine's
        life), with a lazy single-episode fallback for a caller that
        reaches a stream this pass skipped.
        """
        entries = []
        for stream in self.program.graph:
            if stream.sid in self._protocol_cache:
                continue
            stats = self.geometry.stream_stats(stream)
            if stats is None or stats.elements == 0:
                continue
            prepared = self._protocol_params(stream, stats)
            if prepared is not None:
                entries.append((stream, prepared))
        if not entries:
            return
        results = run_protocol_batch(
            [params for _, (params, _) in entries],
            tracer=self.tracer,
            labels=[f"{self.phase.kernel.name}/{stream.name}"
                    for stream, _ in entries])
        for (stream, (_, chunks)), result in zip(entries, results):
            self._protocol_cache[stream.sid] = (result, chunks)

    def protocol_for(self, stream: Stream,
                     stats: StreamStats) -> Optional[object]:
        """Run the range-sync protocol for one offloaded stream (per core)."""
        entry = self._protocol_cache.get(stream.sid)
        if entry is not None:
            return entry
        prepared = self._protocol_params(stream, stats)
        if prepared is None:
            return None
        params, chunks = prepared
        result = run_protocol_batch(
            [params], tracer=self.tracer,
            labels=[f"{self.phase.kernel.name}/{stream.name}"])[0]
        entry = self._protocol_cache[stream.sid] = (result, chunks)
        return entry

    def _credit_chunks(self, stream: Stream, stats: StreamStats,
                       elements_per_line: float) -> int:
        """Outstanding credit chunks: one chunk's elements are buffered in
        every bank the chunk spans, so the effective window is the per-bank
        buffer times the spread (capped; flow control must stay coarse)."""
        se = self.config.se
        per_bank = self.sel3.buffered_elements(stats.element_bytes)
        if stream.kind is AddressPatternKind.AFFINE:
            spread = max(se.credit_chunk / max(elements_per_line, 1.0), 1.0)
        else:
            spread = min(float(se.credit_chunk), float(self.n_cores))
        chunks = per_bank * spread / se.credit_chunk
        return int(min(max(chunks, 2), 32))

    def inject_protocol_traffic(self) -> Dict[MessageType, float]:
        """Scale each stream's protocol message counts to the full run."""
        totals: Dict[MessageType, float] = {}
        for stream in self.program.graph:
            stats = self.geometry.stream_stats(stream)
            if stats is None or stats.elements == 0:
                continue
            entry = self.protocol_for(stream, stats)
            if entry is None:
                continue
            result, chunks = entry
            # messages-per-simulated-chunk x actual chunks x cores.
            scale = (chunks * self.config.se.credit_chunk
                     / result.iterations) * self.n_cores
            for mtype, count in result.messages.items():
                if mtype is MessageType.STREAM_IND_REQ:
                    continue  # already counted element-exactly
                scaled = count * scale
                self._inject_mean(mtype, scaled, stats.mean_hops_core_bank)
                totals[mtype] = totals.get(mtype, 0.0) + scaled
        return totals

    # ------------------------------------------------------------------
    # 5. Locks
    # ------------------------------------------------------------------
    def analyze_locks(self) -> Optional[LockStats]:
        atomic_streams = [s for s in self.program.graph
                          if self._is_atomic(s)
                          and self.stats.get(s.name) is not None]
        if not atomic_streams:
            return None
        kind = (LockKind.MRSW if self.config.se.mrsw_lock
                else LockKind.EXCLUSIVE)
        window = atomic_window(self.n_cores, self.config.se.credit_chunk,
                               4)
        total = LockStats()
        for stream in atomic_streams:
            stats = self.stats[stream.name]
            if stats.modifies is None:
                continue
            # Contention is pure in (kind, window, trace geometry), all
            # mode-independent, so the analysis is memoized on the stats
            # (and is stored with the trace).  Fault injection below
            # copies, never mutates, so the memo stays pristine.
            memo = stats.lock_analysis
            if (memo is not None and memo.kind == kind.value
                    and memo.window == window):
                result = memo.result
            else:
                model = LockModel(kind, window)
                result = model.analyze(stats.lines, stats.modifies,
                                       same_stream=stats.cores)
                stats.lock_analysis = LockAnalysis(kind.value, window,
                                                   result)
            if self.fault_plan is not None and result.operations:
                injected = self.fault_plan.draw_events(
                    FaultSite.LOCK_CONFLICT, result.operations,
                    self.phase.kernel.name, stream.name)
                if injected:
                    result = result.with_injected_conflicts(injected)
                    self._lock_fault_stats.record(FaultSite.LOCK_CONFLICT,
                                                  injected)
                    self._lock_fault_stats.injected_lock_conflicts += \
                        injected
            total = total.merged_with(result)
        self.lock_stats = total
        return total

    # ------------------------------------------------------------------
    # 6. Timing
    # ------------------------------------------------------------------
    def compute_cycles(self, core_uops: float, simd_uops: float) -> Tuple[
            float, str]:
        """Combine all bounds into the phase's cycles (one invocation)."""
        lanes = self._lanes()
        per_core_uops = core_uops / self.n_cores
        work = CoreWork(uops=per_core_uops,
                        simd_uops=simd_uops / self.n_cores)

        decoupled = self._decoupled()
        stream_time = 0.0
        scm_cycles = 0.0  # aggregate SCM/PE compute time across all tiles

        for stream in self.program.graph:
            rec = self.program.recognized[stream.sid]
            stats = self.geometry.stream_stats(stream)
            if stats is None or stats.elements == 0:
                continue
            plan = self.plans[stream.sid]
            per_core_elems = stats.elements * self.up / self.n_cores
            rates = self._rate(stream)
            if rec.memory_free:
                if plan.placement.at_llc \
                        and self.program.costs[stream.sid].core_consumes \
                        and not decoupled:
                    consumed = rec.results_per_kernel * self.up / self.n_cores
                    work.add_stall(consumed,
                                   self._l3_round_trip(
                                       stats.mean_hops_core_bank),
                                   REMOTE_RESULT_EXPOSURE)
                continue

            if plan.placement is Placement.OFFLOAD \
                    and stats.chain_lengths is not None:
                # A floated pointer chase is walked by the SE_L3s (bank to
                # bank) with data streaming back to the core.
                self._add_remote_chase(work, stream, stats, decoupled)
                latency = self._l3_round_trip(stats.mean_hops_core_bank)
                work.add_stall(per_core_elems, latency, STREAM_EXPOSURE)
            elif plan.placement in (Placement.NONE, Placement.CORE,
                                    Placement.OFFLOAD):
                self._add_core_memory_stalls(work, stream, stats, rates,
                                             plan)
            elif plan.placement is Placement.OFFLOAD_COMPUTE:
                entry = self.protocol_for(stream, stats)
                if entry is not None:
                    result, _ = entry
                    throughput = result.throughput
                    # Decoupled nested instances overlap, but an indirect
                    # stream's issue port is shared between instances.
                    concurrency = (self.program.decouple.concurrency
                                   if decoupled and stream.kind
                                   is not AddressPatternKind.INDIRECT else 1)
                    stream_time = max(stream_time,
                                      per_core_elems / max(
                                          throughput * concurrency, 1e-9))
                if stream.function is not None:
                    rate = self.scm.throughput(stream.function)
                    instances = stats.elements * self.up / (
                        self._lanes() if stream.function.simd else 1)
                    scm_cycles += instances / max(
                        rate.instances_per_cycle, 1e-9)
                if stats.chain_lengths is not None:
                    self._add_remote_chase(work, stream, stats, decoupled)
                if self.program.costs[stream.sid].core_consumes \
                        and not decoupled:
                    latency = self._l3_round_trip(stats.mean_hops_core_bank)
                    consumed = (self._consumed_steps(stream) * self.up
                                / self.n_cores)
                    work.add_stall(consumed, latency,
                                   REMOTE_RESULT_EXPOSURE)
            elif plan.placement is Placement.ITER_OFFLOAD:
                latency = 2 * self.flow.mean_latency(
                    MessageType.STREAM_CONFIG, stats.mean_hops_core_bank) \
                    + self.config.l3_bank.latency
                if stream.function is not None:
                    latency += self.scm.instance_latency(stream.function)
                # Store/RMW chains are fire-and-forget (no value returns to
                # the core): the cost is occupancy, not exposed latency.
                returns_value = self.program.costs[stream.sid].core_consumes
                coalesce = (3.0 if stream.kind
                            is AddressPatternKind.AFFINE else 1.0)
                work.add_stall(per_core_elems / coalesce, latency,
                               1.0 if returns_value else 0.10)
                if stream.function is not None:
                    rate = self.scm.throughput(stream.function)
                    instances = stats.elements * self.up / (
                        self._lanes() if stream.function.simd else 1)
                    scm_cycles += instances / max(
                        rate.instances_per_cycle, 1e-9)

        recovery_cycles = self._recovery_overhead()
        # Machine-wide bounds.
        noc_bound = self._noc_bandwidth_bound()
        bank_service = self._bank_service_bound()
        # Compute time spreads over every tile's SCM/scalar PE.
        scm_bound = scm_cycles / max(self.n_cores, 1.0)
        dram_bound = self.events.dram_accesses * 64 / max(
            self.config.dram.total_bandwidth_gbps / self.config.freq_ghz,
            1e-9)
        lock_bound = self._lock_bound()

        core_time = self.pipeline.cycles(work)
        candidates = {
            "core": core_time,
            "noc-bandwidth": noc_bound,
            "stream-protocol": stream_time,
            "bank-service": bank_service,
            "scm": scm_bound,
            "dram": dram_bound,
            "locks": lock_bound,
        }
        bottleneck, slowest = max(candidates.items(), key=lambda kv: kv[1])
        cycles = slowest + 0.2 * sorted(candidates.values())[-2]
        barriers = self.phase.barrier_count / max(self.phase.invocations, 1)
        cycles += barriers * BARRIER_CYCLES + recovery_cycles
        self.last_bounds = dict(candidates)
        return max(cycles, 1.0), bottleneck

    def _add_core_memory_stalls(self, work: CoreWork, stream: Stream,
                                stats: StreamStats, rates: LevelRates,
                                plan: StreamPlan) -> None:
        line_events = min(stats.line_fetches,
                          stats.elements * (1.0 - rates.l1)) \
            if rates.l1 > 0 else stats.line_fetches
        per_core_fetches = line_events * self.up / self.n_cores
        l3_latency = self._l3_round_trip(stats.mean_hops_core_bank)
        dram_latency = l3_latency + self._dram_latency()
        if plan.placement is Placement.NONE:
            exposure = 1.0 - rates.prefetch_hidden
        elif plan.placement is Placement.CORE:
            exposure = STREAM_EXPOSURE
        else:  # OFFLOAD (floating): data pushed to the core proactively
            exposure = STREAM_EXPOSURE / 2
        work.add_stall(per_core_fetches * rates.l2,
                       self.config.l2.latency, exposure)
        work.add_stall(per_core_fetches * rates.l3, l3_latency, exposure)
        work.add_stall(per_core_fetches * rates.dram, dram_latency, exposure)
        if stats.chain_lengths is not None:
            # Serial pointer chase from the core: every step pays the miss.
            steps = stats.elements * self.up / self.n_cores
            overlap = self._chase_overlap(plan)
            step_latency = (rates.l2 * self.config.l2.latency
                            + rates.l3 * l3_latency
                            + rates.dram * dram_latency
                            + 8.0)  # load-to-use + compare + next-address
            work.serial_chain_count += steps / overlap
            work.serial_chain_latency = max(work.serial_chain_latency,
                                            step_latency)

    def _add_remote_chase(self, work: CoreWork, stream: Stream,
                          stats: StreamStats, decoupled: bool) -> None:
        """Offloaded pointer chase: bank-to-bank hops instead of core RTs."""
        steps = stats.elements * self.up / self.n_cores
        hop_latency = (self.mesh.average_hops()
                       * (self.config.noc.router_latency
                          + self.config.noc.link_latency)
                       + self.config.l3_bank.latency)
        # The per-node comparison executes before the next hop can issue;
        # the scalar PE's short latency matters here (Fig 17).
        fn = self._chase_compute_function(stream)
        if fn is not None:
            hop_latency += self.scm.instance_latency(fn)
        # SE_core keeps several nested chase instances offloaded at once
        # (12 stream slots); full decoupling multiplies the concurrency, and
        # Livia-style chained functions are launched asynchronously per
        # lookup (its programmer API guarantees independence).
        base_overlap = max(self.config.core.lq_entries / 16.0, 1.0)
        if decoupled or self.mode is ExecMode.SINGLE:
            overlap = base_overlap * self.program.decouple.concurrency
        else:
            overlap = base_overlap
        work.serial_chain_count += steps / overlap
        work.serial_chain_latency = max(work.serial_chain_latency,
                                        hop_latency)

    def _chase_compute_function(self, stream: Stream):
        """The function evaluated at each chase step (from the riding
        reduction), if any."""
        for consumer in self.program.graph:
            if consumer.base_stream == stream.sid \
                    and self.program.recognized[consumer.sid].memory_free \
                    and consumer.function is not None:
                return consumer.function
        return stream.function

    def _chase_overlap(self, plan: StreamPlan) -> float:
        """Independent chase chains in flight per core.

        The baseline overlaps lookups through the OOO window (~LQ/chain
        loads); SE_core sustains at least as much by running several nested
        chase streams concurrently."""
        return max(self.config.core.lq_entries / 16.0, 1.0)

    # Achievable fraction of aggregate link bandwidth under realistic
    # (non-uniform) traffic; mesh saturation studies put this near 0.5-0.6.
    NOC_EFFICIENCY = 0.55

    def _recovery_params(self, stream: Stream, stats: StreamStats
                         ) -> ProtocolParams:
        """Protocol parameters of one stream's end-and-restore episode."""
        return ProtocolParams(
            chunk_iters=self.config.se.credit_chunk,
            n_chunks=1,
            fwd_latency=self.flow.mean_latency(
                MessageType.STREAM_END, stats.mean_hops_core_bank),
            back_latency=self.flow.mean_latency(
                MessageType.STREAM_DONE, stats.mean_hops_core_bank),
            max_credit_chunks=self._credit_chunks(stream, stats, 1.0))

    def _draw_faults(self, stream: Stream, stats: StreamStats,
                     iters: float, params: ProtocolParams
                     ) -> Tuple[List[Tuple[FaultSite, int]],
                                Optional[np.ndarray]]:
        """One stream's recovery episodes: the ``(site, count)`` runs that
        fired and each episode's uncommitted depth, in site order (alias,
        then TLB, then SCC).

        Alias false positives fire per offloaded iteration, SE_L3 TLB
        aborts per page the range unit touches, SCC evictions per compute
        instance on an SCC.  Each episode lands at a drawn chunk index
        with a drawn uncommitted depth — the discarded window can never
        exceed the chunks actually in flight at that point.  Draws are
        keyed by (site, phase, stream), and nothing they read changes
        between the two timing passes, so both passes share them.
        """
        drawn = self._fault_draws.get(stream.sid)
        if drawn is not None:
            return drawn
        plan = self.fault_plan
        key = (self.phase.kernel.name, stream.name)
        n_chunks = max(int(iters // params.chunk_iters), 1)
        on_scc = (stream.function is not None
                  and not self.scm.runs_on_scalar_pe(stream.function))
        runs, depths = [], []
        for site, opportunities in ((FaultSite.ALIAS, iters),
                                    (FaultSite.TLB_MISS, stats.pages_touched),
                                    (FaultSite.SCC_EVICT,
                                     iters if on_scc else 0)):
            n = plan.draw_events(site, opportunities, *key)
            if n <= 0:
                continue
            chunk_at = plan.draw_chunk_indices(site, n, n_chunks, *key)
            depth = plan.draw_uncommitted_depths(
                site, n, params.max_credit_chunks, *key)
            # At chunk c at most c+1 chunks have ever been credited.
            depths.append(np.minimum(depth, chunk_at + 1))
            runs.append((site, n))
        drawn = self._fault_draws[stream.sid] = (
            runs, np.concatenate(depths) if depths else None)
        return drawn

    def _recovery_overhead(self) -> float:
        """Cost of precise-state restorations (Fig 7 b/c) for the fault
        episodes :meth:`_draw_faults` drew.

        Each episode costs the end/writeback/done round trip plus in-core
        re-execution (:func:`~repro.llc.rangesync.resolve_recovery_schedule`
        resolves a stream's episodes in one array pass); TLB aborts add a
        page walk and a context teardown, SCC evictions the
        context-restore refill.  Under sync-free there is no per-iteration
        precise point, but coarse-grain recovery is still possible (§V)
        at the same episode cost.  Stats are recomputed (not accumulated)
        because timing runs twice per phase.
        """
        if self.fault_plan is None:
            return 0.0
        fs = FaultStats()
        total_cycles = 0.0
        for stream in self.program.graph:
            splan = self.plans[stream.sid]
            stats = self.geometry.stream_stats(stream)
            if stats is None or not splan.placement.at_llc:
                continue
            iters = stats.elements * self.up
            if iters <= 0:
                continue
            fs.offloaded_iterations += iters
            params = self._recovery_params(stream, stats)
            runs, depths = self._draw_faults(stream, stats, iters, params)
            if not runs:
                fs.committed_iterations += iters
                continue
            site_extra = 0.0
            for site, n in runs:
                fs.record(site, n)
                if site is FaultSite.TLB_MISS:
                    site_extra += page_walk_cycles(n) \
                        + self.sel3.context_abort_cost(
                            stats.element_bytes) * n
                elif site is FaultSite.SCC_EVICT:
                    site_extra += self.scm.context_restore_cost() * n
            schedule = resolve_recovery_schedule(
                params, iters, depths,
                core_width=self.pipeline.effective_width,
                base_cycles=site_extra)
            if self.tracer is not None:
                emit_recovery_schedule(
                    schedule, self.tracer,
                    f"{self.phase.kernel.name}/{stream.name}",
                    [site.name for site, n in runs for _ in range(n)])
            fs.recovery_episodes += schedule.episodes
            fs.committed_iterations += schedule.committed_iterations
            fs.reexecuted_iterations += schedule.reexecuted_iterations
            fs.recovery_cycles += schedule.cycles
            self._inject_mean(MessageType.STREAM_END, schedule.episodes,
                              self.mesh.average_hops())
            self._inject_mean(MessageType.STREAM_DONE, schedule.episodes,
                              self.mesh.average_hops())
            total_cycles += schedule.cycles
        self._recovery_fault_stats = fs
        return total_cycles

    def _noc_bandwidth_bound(self) -> float:
        """Cycles to move this phase's bytes x hops through the mesh.

        This is the bound that makes the conventional baseline
        communication-limited — the paper's core premise. byte-hops count
        every link traversal once, so dividing by aggregate link bandwidth
        gives the contention-free lower bound; the efficiency factor covers
        load imbalance across links."""
        total = self.flow.ledger.total_byte_hops
        capacity = (self.mesh.num_links * self.config.noc.link_bytes
                    * self.NOC_EFFICIENCY)
        return total / max(capacity, 1e-9)

    def _bank_service_bound(self) -> float:
        """Aggregate SE_L3 issue time, spread over all banks.

        Affine streams cost one bank access per line; data-dependent
        patterns cost one per element."""
        total_accesses = 0.0
        for stream in self.program.graph:
            plan = self.plans[stream.sid]
            stats = self.geometry.stream_stats(stream)
            if stats is None:
                continue
            if self.program.recognized[stream.sid].memory_free:
                continue
            if plan.placement is Placement.ITER_OFFLOAD:
                # Fine-grain offload has no stream buffer at the bank: every
                # request re-touches its operands individually (one bank
                # transaction per request plus one per operand).
                lanes = (self._lanes() if stream.kind
                         is AddressPatternKind.AFFINE else 1)
                operands = 1 + len(stream.value_deps)
                total_accesses += stats.elements * operands / lanes
                continue
            if not plan.placement.at_llc:
                continue
            if stream.kind is AddressPatternKind.AFFINE:
                total_accesses += stats.line_fetches
            else:
                total_accesses += stats.elements
        return total_accesses * self.up * self.sel3.ISSUE_CYCLES / max(
            self.n_cores, 1)

    def _lock_bound(self) -> float:
        """Serialization of same-line atomics (§IV-C, Fig 16).

        Updates to one line apply one at a time wherever they execute; a
        power-law hub therefore imposes a serial chain whose per-update cost
        depends on the mechanism:

        * conventional atomics bounce the M-state line between cores — an
          amortized coherence transfer per update from a different core;
        * LLC-locked atomics under range-sync hold the line briefly when the
          buffered batch applies at commit;
        * sync-free commits shrink the window to the bank update itself.

        The bound is the hot line's chain plus the spread-out remainder.
        """
        if self.lock_stats is None or self.lock_stats.operations == 0:
            return 0.0
        offloaded_atomics = any(
            self.plans[s.sid].offloaded for s in self.program.graph
            if self._is_atomic(s))
        if not offloaded_atomics:
            hold = 20.0   # amortized cross-core M-state transfer
        elif self.mode.sync_free:
            hold = 4.0    # bank-local read-modify-write
        else:
            hold = 6.0    # buffered batch applied at commit
        hot_chain = self.lock_stats.max_line_serial * self.up * hold
        spread = (self.lock_stats.conflicts * self.up * hold
                  / max(self.n_cores, 1))
        return max(hot_chain, spread)

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def execute(self) -> PhaseOutcome:
        prof = self.profiler
        with prof.stage("phase.sample_caches"):
            self.sample_caches()
        with prof.stage("phase.uops"):
            core_uops, simd_uops, offloaded, offloadable = self.account_uops()
        # Seed the flow window with an issue-bound estimate before anything
        # queries latencies, then refine once with the resulting cycles.
        est = max(core_uops / (self.n_cores
                               * self.pipeline.effective_width), 1000.0)
        self.flow.set_window(est)
        with prof.stage("phase.traffic"):
            self.build_traffic()
        # Every stream's episode runs in one engine call per flow window;
        # injection/timing then read the protocol cache.
        with prof.stage("phase.protocol.engine"):
            self._prepare_protocols()
        with prof.stage("phase.protocol"):
            protocol_msgs = self.inject_protocol_traffic()
        with prof.stage("phase.locks"):
            self.analyze_locks()
        with prof.stage("phase.timing"):
            cycles, bottleneck = self.compute_cycles(core_uops, simd_uops)
            self.flow.set_window(max(cycles, 1.0))
            self._protocol_cache.clear()
        with prof.stage("phase.protocol.engine"):
            self._prepare_protocols()
        with prof.stage("phase.timing"):
            cycles, bottleneck = self.compute_cycles(core_uops, simd_uops)

        invocations = self.phase.invocations
        self.events.noc_byte_hops = self.flow.ledger.total_byte_hops \
            * invocations
        self.events.tlb_accesses += sum(s.pages_touched
                                        for s in self.stats.values())
        fault_stats = None
        if self.fault_plan is not None:
            fault_stats = self._recovery_fault_stats.merged_with(
                self._lock_fault_stats)
        return PhaseOutcome(
            cycles=cycles * invocations,
            bottleneck=bottleneck,
            core_uops=core_uops * invocations,
            offloaded_uops=offloaded * invocations,
            offloadable_uops=offloadable * invocations,
            events=self._scaled_events(invocations),
            lock_stats=self.lock_stats,
            protocol_messages=protocol_msgs,
            plans=self.plans,
            bounds=getattr(self, "last_bounds", {}),
            fault_stats=fault_stats,
        )

    def _scaled_events(self, invocations: int) -> EventCounts:
        e = self.events
        return EventCounts(
            core_uops=e.core_uops * invocations,
            simd_uops=e.simd_uops * invocations,
            scc_uops=e.scc_uops * invocations,
            scalar_pe_ops=e.scalar_pe_ops * invocations,
            se_elements=e.se_elements * invocations,
            l1_accesses=e.l1_accesses * invocations,
            l2_accesses=e.l2_accesses * invocations,
            l3_accesses=e.l3_accesses * invocations,
            dram_accesses=e.dram_accesses * invocations,
            noc_byte_hops=e.noc_byte_hops,
            tlb_accesses=e.tlb_accesses * invocations,
        )
