"""Per-mode stream placement decisions."""

import pytest

from repro.compiler import compile_kernel
from repro.config import SystemConfig
from repro.isa.pattern import AddressPatternKind, ComputeKind
from repro.mem import AddressSpace
from repro.offload import ExecMode
from repro.sim.placement import Placement, plan_streams
from repro.workloads import make_workload

SCALE = 1.0 / 256.0


def plans_for(workload_name, mode, phase_idx=0):
    cfg = SystemConfig.ooo8()
    wl = make_workload(workload_name, scale=SCALE)
    wl.build(AddressSpace(cfg))
    phase = wl.phases()[phase_idx]
    program = compile_kernel(phase.kernel)
    return program, plan_streams(program, phase, mode, cfg)


def placement_of(program, plans, name):
    stream = next(s for s in program.graph if s.name == name)
    return plans[stream.sid].placement


def test_base_mode_uses_no_streams():
    program, plans = plans_for("pathfinder", ExecMode.BASE)
    assert all(p.placement is Placement.NONE for p in plans.values())


def test_ns_core_keeps_streams_in_core():
    program, plans = plans_for("pathfinder", ExecMode.NS_CORE)
    assert all(p.placement is Placement.CORE for p in plans.values())


def test_ns_offloads_computation_for_mo_store():
    program, plans = plans_for("pathfinder", ExecMode.NS)
    assert placement_of(program, plans, "result_st") \
        is Placement.OFFLOAD_COMPUTE
    # Operand loads are promoted to forward remotely (Fig 2b).
    assert placement_of(program, plans, "resC_ld") \
        is Placement.OFFLOAD_COMPUTE


def test_inst_cannot_offload_reductions():
    program, plans = plans_for("pr_pull", ExecMode.INST)
    reduce_stream = next(s for s in program.graph
                         if s.compute is ComputeKind.REDUCE)
    assert not plans[reduce_stream.sid].offloaded
    # The dependent store is chained to the reduction: also not offloaded.
    assert placement_of(program, plans, "scores_p_st") is Placement.CORE


def test_inst_offloads_indirect_atomics_fine_grained():
    program, plans = plans_for("bfs_push", ExecMode.INST)
    assert placement_of(program, plans, "parent_ind_at") \
        is Placement.ITER_OFFLOAD


def test_single_cannot_offload_multi_operand_stores():
    program, plans = plans_for("pathfinder", ExecMode.SINGLE)
    assert placement_of(program, plans, "result_st") is Placement.CORE


def test_single_chains_pointer_chases():
    program, plans = plans_for("bin_tree", ExecMode.SINGLE)
    assert placement_of(program, plans, "tree_chase") \
        is Placement.OFFLOAD_COMPUTE


def test_single_indirect_atomics_fall_back_to_iteration_level():
    program, plans = plans_for("sssp", ExecMode.SINGLE)
    assert placement_of(program, plans, "dist_ind_at") \
        is Placement.ITER_OFFLOAD


def test_no_comp_floats_only_reads():
    program, plans = plans_for("scluster", ExecMode.NS_NO_COMP)
    assert placement_of(program, plans, "points_ind_ld") \
        is Placement.OFFLOAD
    for stream in program.graph:
        if stream.writes_memory:
            assert plans[stream.sid].placement is Placement.CORE


def test_ns_offloads_the_chase_with_its_reduction():
    program, plans = plans_for("bin_tree", ExecMode.NS)
    assert placement_of(program, plans, "tree_chase") \
        is Placement.OFFLOAD_COMPUTE
    red = next(s for s in program.graph
               if s.compute is ComputeKind.REDUCE)
    assert plans[red.sid].placement is Placement.OFFLOAD_COMPUTE


def test_every_plan_has_a_reason():
    for mode in ExecMode:
        program, plans = plans_for("histogram", mode)
        assert all(p.reason for p in plans.values())


@pytest.mark.parametrize("workload", ["pathfinder", "pr_pull", "histogram",
                                      "bin_tree"])
def test_plans_identical_with_precomputed_stats(workload):
    """plan_streams(geometry=...) reuses the stored distinct-line counts
    and load-overlap entries; every decision and reason must match the
    recompute-from-trace path."""
    from repro.noc import Mesh
    from repro.sim.tracestats import (PairGeometry, compute_phase_stats,
                                      hops_matrix)

    cfg = SystemConfig.ooo8()
    wl = make_workload(workload, scale=SCALE)
    wl.build(AddressSpace(cfg))
    phase = wl.phases()[0]
    program = compile_kernel(phase.kernel)
    mesh = Mesh(cfg.noc)
    stats = compute_phase_stats(phase.traces, wl.space, mesh,
                                hops_matrix(mesh), cfg.page_bytes)
    geometry = PairGeometry(program, phase, stats, mesh)
    for mode in ExecMode:
        without = plan_streams(program, phase, mode, cfg)
        with_stats = plan_streams(program, phase, mode, cfg,
                                  geometry=geometry)
        assert {sid: (p.placement, p.reason)
                for sid, p in with_stats.items()} \
            == {sid: (p.placement, p.reason)
                for sid, p in without.items()}
