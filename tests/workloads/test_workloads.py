"""All 14 workloads: functional correctness, trace/stream consistency."""

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.config import SystemConfig
from repro.mem import AddressSpace
from repro.workloads import WORKLOAD_NAMES, all_workload_names, \
    make_workload

SCALE = 1.0 / 256.0


@pytest.fixture(scope="module")
def built():
    """Build every workload once (they are deterministic per seed)."""
    out = {}
    for name in all_workload_names():
        wl = make_workload(name, scale=SCALE)
        wl.build(AddressSpace(SystemConfig.ooo8()))
        out[name] = wl
    return out


def test_all_fourteen_workloads_registered():
    assert len(all_workload_names()) == 14


def test_static_name_table_matches_the_registry():
    """The table the CLI lists and validates from without loading the
    kernels is the registry's Table VI list."""
    assert list(WORKLOAD_NAMES) == all_workload_names()


@pytest.mark.parametrize("name", all_workload_names())
def test_functional_results_verify(built, name):
    """Every workload's functional execution matches an independent
    reference implementation."""
    assert built[name].verify(), f"{name} produced wrong results"


@pytest.mark.parametrize("name", all_workload_names())
def test_every_memory_stream_has_a_trace(built, name):
    for phase in built[name].phases():
        program = compile_kernel(phase.kernel)
        stream_names = {s.name for s in program.graph}
        for stream in program.graph:
            if program.recognized[stream.sid].memory_free:
                continue
            trace = phase.traces.get(stream.name)
            assert trace is not None, \
                f"{name}: stream {stream.name} has no trace"
            assert trace.steps > 0
        for trace_name in phase.traces:
            assert trace_name in stream_names, \
                f"{name}: orphan trace {trace_name}"


@pytest.mark.parametrize("name", all_workload_names())
def test_traces_point_into_allocated_regions(built, name):
    wl = built[name]
    for phase in wl.phases():
        for trace in phase.traces.values():
            # Translation succeeds for every traced address.
            paddrs = wl.space.translate(trace.vaddrs)
            assert len(paddrs) == trace.steps


@pytest.mark.parametrize("name", ("bfs_push", "sssp"))
def test_atomic_modifies_flags_are_measured(built, name):
    wl = built[name]
    phase = wl.phases()[0]
    atomic = next(t for t in phase.traces.values()
                  if t.modifies is not None)
    rate = float(atomic.modifies.mean())
    # CAS/min mostly fail on these workloads — the Fig 16 precondition.
    assert 0.0 < rate < 0.6
    # bfs: exactly one successful CAS per reached non-source node.
    if name == "bfs_push":
        reached = int((wl.parent >= 0).sum()) - 1
        assert int(atomic.modifies.sum()) == reached


def test_pr_push_atomics_always_modify(built):
    phase = built["pr_push"].phases()[0]
    atomic = next(t for t in phase.traces.values()
                  if t.modifies is not None)
    assert bool(atomic.modifies.all())


@pytest.mark.parametrize("name", ("bin_tree", "hash_join"))
def test_chase_chain_lengths_sum_to_trace(built, name):
    phase = built[name].phases()[0]
    chase = next(t for t in phase.traces.values()
                 if t.chain_lengths is not None)
    assert int(chase.chain_lengths.sum()) == chase.steps


def test_slice_for_partitions_exactly():
    wl = make_workload("histogram", scale=SCALE)
    wl.build(AddressSpace(SystemConfig.ooo8()))
    trace = wl.phases()[0].traces["vals_ld"]
    covered = 0
    last_stop = 0
    for core in range(64):
        sl = trace.slice_for(core, 64)
        assert sl.start == last_stop, "slices must be contiguous"
        covered += sl.stop - sl.start
        last_stop = sl.stop
    assert covered == trace.steps


def test_slice_for_rejects_bad_core():
    wl = make_workload("histogram", scale=SCALE)
    wl.build(AddressSpace(SystemConfig.ooo8()))
    trace = wl.phases()[0].traces["vals_ld"]
    with pytest.raises(ValueError):
        trace.slice_for(64, 64)


def test_workload_scale_controls_size():
    small = make_workload("histogram", scale=1.0 / 512.0)
    large = make_workload("histogram", scale=1.0 / 64.0)
    small.build(AddressSpace(SystemConfig.ooo8()))
    large.build(AddressSpace(SystemConfig.ooo8()))
    assert large.total_iterations > 4 * small.total_iterations


def test_deterministic_per_seed():
    a = make_workload("bfs_push", scale=SCALE, seed=7)
    b = make_workload("bfs_push", scale=SCALE, seed=7)
    a.build(AddressSpace(SystemConfig.ooo8()))
    b.build(AddressSpace(SystemConfig.ooo8()))
    ta = a.phases()[0].traces["parent_ind_at"]
    tb = b.phases()[0].traces["parent_ind_at"]
    assert np.array_equal(ta.vaddrs, tb.vaddrs)
    assert np.array_equal(ta.modifies, tb.modifies)


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        make_workload("nonexistent")


def test_unknown_workload_suggests_closest():
    with pytest.raises(KeyError, match="did you mean 'histogram'"):
        make_workload("histgram")
    with pytest.raises(KeyError, match="did you mean 'bfs_push'"):
        make_workload("bfs_puhs")
    # Nothing close: fall back to listing the registry.
    with pytest.raises(KeyError, match="known:"):
        make_workload("zzzzzz")


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        make_workload("histogram", scale=0.0)
    with pytest.raises(ValueError):
        make_workload("histogram", scale=1.5)
