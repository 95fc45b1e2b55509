"""The address-layout projection of SystemConfig is the whole identity of
a stored functional trace.

One trace is stored per (workload, scale, seed, ``config.layout``) and
replayed under every config sharing that layout, so a config field
outside the projection that could move an address, or change the stream
geometry stored with the trace, would silently corrupt SE-knob sweeps.
The audit varies every SystemConfig leaf field outside the projection
and requires the trace key, the recorded content (virtual addresses and
page table) and the derived geometry to stay identical; every projection
field must change the key.  A knob sweep then shows the payoff: one
stored trace per kernel, results identical to an uncached sweep.
"""

import dataclasses
import enum
import pickle

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import SweepPoint, run_sweep
from repro.noc.topology import Mesh
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads.build_cache import load_or_record, trace_key

SCALE = 1.0 / 256.0
BASE = SystemConfig.ooo8()
#: Leaf-field paths of the projection (AddressLayout's fields).
PROJECTION = {("noc", "mesh_width"), ("noc", "mesh_height"),
              ("page_bytes",), ("huge_page_bytes",), ("use_huge_pages",)}


def _leaf_paths(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        path = prefix + (f.name,)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, path)
        else:
            yield path


def _bumped(value):
    """A different valid value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value * 2
    if isinstance(value, float):
        return value * 1.5
    raise TypeError(f"no bump rule for {value!r}")


def _varied(config, path):
    """``config`` with the leaf at ``path`` bumped."""
    head = path[0]
    if len(path) == 1:
        return dataclasses.replace(
            config, **{head: _bumped(getattr(config, head))})
    return dataclasses.replace(
        config, **{head: _varied(getattr(config, head), path[1:])})


OUTSIDE = [p for p in _leaf_paths(BASE) if p not in PROJECTION]
VARIANTS = ([(".".join(p), _varied(BASE, p)) for p in OUTSIDE]
            + [("preset.io4", SystemConfig.io4()),
               ("preset.ooo4", SystemConfig.ooo4())])


def test_projection_is_the_layout():
    """The projection names exactly AddressLayout's fields, and every
    one of them is a real SystemConfig leaf."""
    assert {f.name for f in dataclasses.fields(BASE.layout)} == \
        {p[-1] for p in PROJECTION}
    assert PROJECTION <= set(_leaf_paths(BASE))
    assert len(OUTSIDE) > 40  # core, caches, DRAM, NoC links, SE, ...


def _recorded(config):
    """A fresh (never stored) trace with its geometry derived against
    ``config``'s mesh, as a run under ``config`` would derive it."""
    trace = load_or_record("histogram", SCALE, 42, config, None)
    mesh = Mesh(config.noc)
    for i, (phase, _) in enumerate(trace.phase_programs()):
        trace.geometry_for(i, phase, mesh)
    assert trace.pack_stats()
    return trace


@pytest.fixture(scope="module")
def base_trace():
    return _recorded(BASE)


def _assert_same_trace(a, b):
    assert len(a.phases) == len(b.phases)
    for pa, pb in zip(a.phases, b.phases):
        assert pa.names == pb.names and pa.vaddr_slices == pb.vaddr_slices
        assert np.array_equal(pa.vaddrs, pb.vaddrs)
    assert a.space._frame_of_page == b.space._frame_of_page
    assert a.layout == b.layout
    # The stored geometry (lock memos aside: they are tagged with the
    # lock kind and window they were computed for, and are recomputed
    # on a mismatch).
    for sa, sb in zip(a.stats, b.stats):
        for name in ("names", "line_slices", "line_fetches", "migrations",
                     "migration_hops", "mean_hops_core_bank",
                     "pages_touched", "distinct_lines", "alloc_regions"):
            assert getattr(sa, name) == getattr(sb, name), name
        assert np.array_equal(sa.lines, sb.lines)


@pytest.mark.parametrize("label,config", VARIANTS,
                         ids=[label for label, _ in VARIANTS])
def test_field_outside_projection_shares_the_trace(label, config,
                                                   base_trace):
    assert config != BASE
    assert config.layout == BASE.layout
    assert trace_key("histogram", SCALE, 42, config) == \
        trace_key("histogram", SCALE, 42, BASE)
    _assert_same_trace(_recorded(config), base_trace)


@pytest.mark.parametrize("path", sorted(PROJECTION),
                         ids=[".".join(p) for p in sorted(PROJECTION)])
def test_projection_field_changes_key_and_is_refused(path, base_trace):
    config = _varied(BASE, path)
    assert config.layout != BASE.layout
    assert trace_key("histogram", SCALE, 42, config) != \
        trace_key("histogram", SCALE, 42, BASE)
    with pytest.raises(ValueError, match="different address layout"):
        run_workload(base_trace, config=config, scale=SCALE)


def test_se_knob_variant_replays_the_shared_trace(base_trace):
    """A trace recorded on the default config replays under an SE-knob
    variant exactly like that variant's own live run."""
    knob = BASE.with_se(scm_issue_latency=1, scalar_pe=False)
    replayed = run_workload(base_trace, config=knob, scale=SCALE)
    live = run_workload("histogram", config=knob, scale=SCALE,
                        use_replay=False)
    assert replayed.to_dict() == live.to_dict()


def test_trace_carries_no_system_config(base_trace):
    """Only the layout travels with a trace, never the recording config."""
    assert not hasattr(base_trace.space, "config")
    assert b"SystemConfig" not in pickle.dumps(base_trace)


def test_knob_sweep_stores_one_trace_per_kernel(tmp_path):
    """3 kernels x {default, scm_issue_latency=1, scc_rob_entries=8,
    scalar_pe=False}: a cached sweep into a fresh store equals the
    uncached sweep point for point and stores one trace per kernel."""
    knobs = [BASE, BASE.with_se(scm_issue_latency=1),
             BASE.with_se(scc_rob_entries=8), BASE.with_se(scalar_pe=False)]
    kernels = ("histogram", "bfs_push", "srad")
    points = [SweepPoint(w, m, c, scale=SCALE) for w in kernels
              for c in knobs for m in (ExecMode.BASE, ExecMode.NS)]
    cache = ResultCache(tmp_path)
    cached = run_sweep(points, jobs=1, cache=cache)
    uncached = run_sweep(points, jobs=1, cache=None)
    assert cached.ok and uncached.ok
    for point in points:
        assert cached[point].to_dict() == uncached[point].to_dict()
    kinds = cache.disk_stats(by_kind=True)["kinds"]
    assert {k: v["entries"] for k, v in kinds.items()} == {
        "result": len(points), "replay": len(kernels)}
    for w in kernels:
        assert cache._path(trace_key(w, SCALE, 42, BASE)).exists()
