"""Top-level runner: one (workload, mode, config) simulation."""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.compiler import compile_kernel
from repro.config import SystemConfig
from repro.energy.model import EnergyModel, EventCounts
from repro.fault.plan import FaultPlan, FaultStats
from repro.isa.instructions import UopCounts
from repro.mem.address import AddressSpace
from repro.mem.locks import LockStats
from repro.noc.traffic import TrafficLedger
from repro.offload.modes import ExecMode
from repro.sim.machine import Machine
from repro.sim.phase import PhaseEngine
from repro.sim.profiler import Profiler
from repro.sim.replay import FunctionalTrace
from repro.sim.results import PhaseResult, SimResult
from repro.sim.tracestats import hops_matrix
from repro.trace.tracer import Tracer, tracer_from_env
from repro.workloads import Workload, make_workload


def run_workload(workload: Union[str, Workload, FunctionalTrace],
                 mode: ExecMode = ExecMode.NS,
                 config: Optional[SystemConfig] = None,
                 scale: float = 1.0 / 64.0,
                 seed: int = 42,
                 sample_cores: int = 4,
                 space: Optional[AddressSpace] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 tracer: Optional[Tracer] = None,
                 use_replay: bool = True,
                 heartbeat: Optional[Callable[[], None]] = None
                 ) -> SimResult:
    """Simulate one workload under one execution mode.

    Pass a prebuilt :class:`Workload` (with ``build()`` already called) to
    reuse its data and traces across modes — this is the pure *live* path
    (no recording, no replay).  A :class:`~repro.sim.replay.
    FunctionalTrace` replays a recorded functional execution directly:
    no workload build, no kernel compilation — bit-identical to live by
    construction (property-tested in ``tests/sim``).

    Workloads named by string replay the stored functional trace of
    their address layout (:mod:`repro.workloads.build_cache`): one store
    entry per (workload, scale, seed, ``config.layout``) holds the
    compiled programs, the packed stream traces, the derived stream
    geometry, stream pairs included, and the sampled cache walks of the
    runs made before it was stored.  A hit skips the build
    (``run.replay``) and reads its geometry from the entry; a miss
    builds and records one (``run.build``, ``run.record``) and stores it
    after the run has derived its geometry and completed every pair any
    mode asks for (``run.store``), so every later run of any mode,
    timing knob or SE knob on that layout replays.  A run that finishes
    a cache walk the entry lacks writes the entry again with it
    (``run.store``, once per walk key), so the next run of that mode in
    any process walks nothing.  A loaded trace decodes a stream's arrays
    only when the run first reads them, so a run whose walk and geometry
    come from the entry decodes nothing.  The trace this process last
    loaded is kept while its store entry is unchanged, or rewritten by
    this process's own write-back, so a loop over modes or knobs by name
    reads it once: a later run of the same key counts one store hit,
    reads no bytes and shares the first run's stream geometry and
    decoded streams.  Disable with ``use_replay=False``; a custom
    ``space`` also builds live.

    ``fault_plan`` injects seeded, discrete faults at the real protocol
    sites (:mod:`repro.fault`): alias false positives, SE_L3 TLB aborts
    and SCC evictions each end in a precise-state recovery episode (Fig 7
    b-c).  The run's realized recovery rate and episode accounting come
    back in ``SimResult.faults``.  Faults are
    semantically invariant: functional results and final memory state are
    bit-identical to the fault-free run — only cycles, traffic, and
    recovery statistics change, and identically so for identical seeds.
    (They are also replay-invariant: a fault plan never changes addresses
    or compute results, so faulted points replay the same trace.)

    ``tracer`` attaches a :class:`~repro.trace.Tracer` to every protocol
    episode (see :mod:`repro.trace`); without one, ``$REPRO_TRACE``
    implicitly enables a strict sanitizing tracer.  The run's metrics
    snapshot lands on ``SimResult.trace`` (like ``profile``, excluded
    from equality and serialization).

    ``heartbeat`` is an optional zero-arg liveness callback invoked at
    each phase boundary; sweep workers pass one so a hung phase is
    detectable by the dispatcher's watchdog.  It must be cheap and must
    never raise.
    """
    config = config or SystemConfig.ooo8()
    profiler = Profiler()
    if tracer is None:
        # The sanitizing tracer builds its invariant machinery up front;
        # charge it to run.setup so profiles stay near-complete.
        with profiler.stage("run.setup"):
            tracer = tracer_from_env()

    trace: Optional[FunctionalTrace] = None
    wl: Optional[Workload] = None
    # Only string-named runs persist; a FunctionalTrace passed directly
    # relies on its in-process memo (run_sweep saves it per group), so
    # an uncached sweep never writes to disk.
    cache = None
    if isinstance(workload, FunctionalTrace):
        trace = workload
    elif isinstance(workload, str) and use_replay and space is None:
        with profiler.stage("run.replay"):
            # Import inside the stage: the cache module's first load is
            # real warm-run time and must show in the profile.
            from repro.eval.result_cache import get_default_cache
            from repro.workloads.build_cache import load_or_record, \
                save_trace
            cache = get_default_cache()
        trace = load_or_record(workload, scale, seed, config, cache,
                               profiler)
    elif isinstance(workload, str):
        with profiler.stage("run.build"):
            wl = make_workload(workload, scale=scale, seed=seed)
            wl.build(space or AddressSpace(config))
    else:
        wl = workload
        if wl.space is None:
            with profiler.stage("run.build"):
                wl.build(space or AddressSpace(config))

    if trace is not None:
        with profiler.stage("run.trace_load"):
            if trace.layout != config.layout:
                raise ValueError(
                    f"{trace.workload}: functional trace was recorded "
                    f"under a different address layout (mesh or page "
                    f"size); replaying it would desynchronize addresses")
            run_name, run_scale, run_space = (trace.workload, trace.scale,
                                              trace.space)
            pairs = trace.phase_programs()
    else:
        run_name, run_scale, run_space = wl.name, wl.scale, wl.space
        pairs = [(phase, None) for phase in wl.phases()]

    with profiler.stage("run.setup"):
        machine = Machine.build(config, sample_cores=sample_cores,
                                data_scale=run_scale)
        energy_model = EnergyModel(config)
        hmat = hops_matrix(machine.mesh)

    total_cycles = 0.0
    total_traffic = TrafficLedger()
    total_events = EventCounts()
    baseline_uops = UopCounts.zero()
    core_uops_executed = 0.0
    offloaded = 0.0
    offloadable = 0.0
    lock_stats: Optional[LockStats] = None
    fault_stats: Optional[FaultStats] = None
    phase_results = []

    engines = []
    for index, (phase, program) in enumerate(pairs):
        geometry = None
        if program is None:
            with profiler.stage("run.compile"):
                program = compile_kernel(phase.kernel)
        else:
            with profiler.stage("phase.stats"):
                geometry = trace.geometry_for(index, phase, machine.mesh,
                                              hmat=hmat)
        flow = machine.fresh_flow()
        with profiler.stage("phase.setup"):
            engine = PhaseEngine(config, run_space, program, phase, mode,
                                 machine.mesh, flow, machine.shared_l3,
                                 machine.hierarchies,
                                 sample_cores=sample_cores,
                                 profiler=profiler, fault_plan=fault_plan,
                                 tracer=tracer, geometry=geometry)
        engines.append(engine)

    # The sampled cache walk reads nothing of the run but the trace, the
    # machine's cache shape and each phase's stream paths. A phase leaves
    # the caches warm for the next, so the key spans every phase and a
    # run either reuses all of an earlier run's counts (made in this
    # process or stored with the trace) or walks afresh.
    level_counts = None
    if trace is not None:
        level_counts = trace.level_counts(
            (machine.cache_shape,
             tuple(engine.cache_paths() for engine in engines)))
        for engine, counts in zip(engines, level_counts):
            engine.level_counts = counts

    for engine in engines:
        if heartbeat is not None:
            heartbeat()
        phase, program = engine.phase, engine.program
        outcome = engine.execute()
        if outcome.fault_stats is not None:
            fault_stats = (outcome.fault_stats if fault_stats is None
                           else fault_stats.merged_with(outcome.fault_stats))
        total_cycles += outcome.cycles
        total_traffic.merge_from(
            engine.flow.ledger.scaled(float(phase.invocations)))
        _merge_events(total_events, outcome.events)
        baseline_uops = baseline_uops.merged_with(
            program.baseline_uops().scaled(
                float(phase.invocations) / max(phase.data_scale, 1e-9)))
        core_uops_executed += outcome.core_uops
        offloaded += outcome.offloaded_uops
        offloadable += outcome.offloadable_uops
        if outcome.lock_stats is not None:
            lock_stats = (outcome.lock_stats if lock_stats is None
                          else lock_stats.merged_with(outcome.lock_stats))
        phase_results.append(PhaseResult(
            name=phase.kernel.name, cycles=outcome.cycles,
            bottleneck=outcome.bottleneck, core_uops=outcome.core_uops,
            offloaded_compute_instances=outcome.offloaded_uops))
    if level_counts == []:   # this run walked: store its counts
        level_counts.extend(engine.level_counts for engine in engines)

    if cache is not None:
        save_trace(trace, cache, profiler)

    with profiler.stage("run.finish"):
        total_events.noc_byte_hops = total_traffic.total_byte_hops
        energy = energy_model.integrate(total_events, total_cycles)

        trace_metrics = None
        if tracer is not None:
            tracer.finish()
            trace_metrics = tracer.snapshot()

    return SimResult(
        workload=run_name,
        mode=mode,
        core_type=config.core.core_type.value,
        cycles=total_cycles,
        traffic=total_traffic,
        energy=energy,
        baseline_uops=baseline_uops,
        core_uops_executed=core_uops_executed,
        offloadable_uops=offloadable,
        offloaded_uops=offloaded,
        phases=phase_results,
        lock_stats=lock_stats,
        profile=profiler.stages,
        faults=fault_stats,
        trace=trace_metrics,
    )


def _merge_events(total: EventCounts, add: EventCounts) -> None:
    total.core_uops += add.core_uops
    total.simd_uops += add.simd_uops
    total.scc_uops += add.scc_uops
    total.scalar_pe_ops += add.scalar_pe_ops
    total.se_elements += add.se_elements
    total.l1_accesses += add.l1_accesses
    total.l2_accesses += add.l2_accesses
    total.l3_accesses += add.l3_accesses
    total.dram_accesses += add.dram_accesses
    total.tlb_accesses += add.tlb_accesses
