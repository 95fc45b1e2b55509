"""Phase-engine internals: rates, bounds, uop accounting, protocol reuse."""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.config import SystemConfig
from repro.mem import AddressSpace
from repro.offload import ExecMode
from repro.sim.machine import Machine
from repro.sim.phase import PhaseEngine
from repro.workloads import make_workload

SCALE = 1.0 / 256.0


def engine_for(workload_name, mode, phase_idx=0, scale=SCALE):
    cfg = SystemConfig.ooo8()
    wl = make_workload(workload_name, scale=scale)
    wl.build(AddressSpace(cfg))
    machine = Machine.build(cfg, data_scale=wl.scale)
    phase = wl.phases()[phase_idx]
    program = compile_kernel(phase.kernel)
    flow = machine.fresh_flow()
    return PhaseEngine(cfg, wl.space, program, phase, mode, machine.mesh,
                       flow, machine.shared_l3, machine.hierarchies)


def test_rates_are_normalized_fractions():
    engine = engine_for("histogram", ExecMode.BASE)
    engine.sample_caches()
    for name, rates in engine.rates.items():
        assert 0 <= rates.l1 <= 1
        beyond = rates.l2 + rates.l3 + rates.dram
        assert beyond == pytest.approx(1.0, abs=1e-6) or beyond == 0.0


def test_bounds_are_nonnegative_and_labeled():
    engine = engine_for("bfs_push", ExecMode.NS)
    outcome = engine.execute()
    assert set(outcome.bounds) == {"core", "noc-bandwidth",
                                   "stream-protocol", "bank-service",
                                   "scm", "dram", "locks"}
    assert all(v >= 0 for v in outcome.bounds.values())
    assert outcome.cycles >= max(outcome.bounds.values())


def test_base_mode_has_no_offload_bounds():
    engine = engine_for("histogram", ExecMode.BASE)
    outcome = engine.execute()
    assert outcome.bounds["stream-protocol"] == 0
    assert outcome.bounds["bank-service"] == 0
    assert outcome.offloaded_uops == 0


def test_upscaling_extrapolates_to_paper_size():
    small = engine_for("histogram", ExecMode.BASE, scale=1 / 256)
    large = engine_for("histogram", ExecMode.BASE, scale=1 / 64)
    out_small = small.execute()
    out_large = large.execute()
    # Both extrapolate to the same paper-sized run: core uops match within
    # sampling noise.
    assert out_small.core_uops == pytest.approx(out_large.core_uops,
                                                rel=0.1)


def test_offloadable_independent_of_mode():
    ns = engine_for("scluster", ExecMode.NS).execute()
    base = engine_for("scluster", ExecMode.BASE).execute()
    assert ns.offloadable_uops == pytest.approx(base.offloadable_uops)
    assert base.offloaded_uops == 0
    assert 0 < ns.offloaded_uops <= ns.offloadable_uops


def test_protocol_cache_reused_within_engine():
    engine = engine_for("histogram", ExecMode.NS)
    engine.sample_caches()
    stream = next(s for s in engine.program.graph
                  if engine.plans[s.sid].placement.at_llc)
    stats = engine.geometry.stream_stats(stream)
    first = engine.protocol_for(stream, stats)
    second = engine.protocol_for(stream, stats)
    assert first is second


def test_lock_analysis_only_for_atomics():
    atomic = engine_for("bfs_push", ExecMode.NS)
    atomic.sample_caches()
    assert atomic.analyze_locks() is not None
    plain = engine_for("histogram", ExecMode.NS)
    plain.sample_caches()
    assert plain.analyze_locks() is None


def test_invocations_multiply_outcome():
    engine = engine_for("srad", ExecMode.BASE)
    outcome = engine.execute()
    invocations = engine.phase.invocations
    assert invocations == 8
    # Cycles reported for all invocations together.
    single = outcome.cycles / invocations
    assert single > 0


def test_noc_bandwidth_bound_tracks_ledger():
    engine = engine_for("pathfinder", ExecMode.BASE, scale=1 / 64)
    engine.sample_caches()
    engine.account_uops()
    engine.build_traffic()
    bound = engine._noc_bandwidth_bound()
    expected = engine.flow.ledger.total_byte_hops / (
        engine.mesh.num_links * engine.config.noc.link_bytes
        * engine.NOC_EFFICIENCY)
    assert bound == pytest.approx(expected)
