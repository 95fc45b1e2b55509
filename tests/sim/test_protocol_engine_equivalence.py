"""The protocol engine vs the event-driven oracle at workload level.

The unit suite (``tests/llc/test_rangesync_batch.py``) proves the engine
matches the oracle episode by episode; this suite proves whole runs do
too, end to end: with ``repro.sim.phase.run_protocol_batch``
patched to the oracle loop (``tests/oracles/rangesync.py``), the full
``SimResult`` — cycles, traffic ledger, energy, message inventories —
and the traced metrics snapshot (including the sanitizer's check count)
are identical across all 14 workloads, every offload mode, and
randomized mesh sizes from 2x2 to 32x32.

Runs under ``REPRO_TRACE=1`` (set by ``tests/conftest.py``), so every
comparison here also passes through the strict online sanitizer twice.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.offload.modes import ExecMode
from repro.sim import phase
from repro.sim.run import run_workload
from repro.workloads import all_workload_names
from tests.oracles.rangesync import run_protocol_batch_reference

SCALE = 1.0 / 256.0

OFFLOAD_MODES = [ExecMode.NS, ExecMode.NS_DECOUPLE, ExecMode.INST,
                 ExecMode.SINGLE]


def run_on_oracle(workload, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase, "run_protocol_batch", run_protocol_batch_reference)
        return run_workload(workload, **kwargs)


def run_pair(workload, **kwargs):
    """The same run on the oracle, then on the engine."""
    return run_on_oracle(workload, **kwargs), run_workload(workload, **kwargs)


def assert_runs_identical(ref, got):
    assert got.to_dict() == ref.to_dict()
    assert got.traffic.messages == ref.traffic.messages
    # The traced metrics snapshot is compare=False on SimResult, so
    # check it explicitly: message totals, event counts, histogram
    # accumulations, and the sanitizer's check count must all match —
    # the engine emits the same events in the same order.
    assert (got.trace is None) == (ref.trace is None)
    if ref.trace is not None:
        assert got.trace.to_dict() == ref.trace.to_dict()
        assert ref.trace.violations == 0


def test_patched_runs_reach_the_oracle(monkeypatch):
    from tests.oracles import rangesync
    episodes = []
    real = rangesync.run_protocol_reference

    def counted(params, tracer=None, label="stream"):
        episodes.append(params)
        return real(params, tracer=tracer, label=label)

    monkeypatch.setattr(rangesync, "run_protocol_reference", counted)
    run_on_oracle("bfs_push", scale=SCALE)
    assert episodes


@pytest.mark.parametrize("workload", all_workload_names())
def test_engines_agree_on_every_workload(workload):
    ref, got = run_pair(workload, scale=SCALE)
    assert_runs_identical(ref, got)


@pytest.mark.parametrize("mode", OFFLOAD_MODES,
                         ids=lambda m: m.value)
def test_engines_agree_across_offload_modes(mode):
    for workload in ("bfs_push", "hotspot"):
        ref, got = run_pair(workload, mode=mode, scale=SCALE)
        assert_runs_identical(ref, got)


@settings(max_examples=6, deadline=None)
@given(width=st.integers(2, 32), height=st.integers(2, 32))
def test_engines_agree_on_randomized_meshes(width, height):
    config = SystemConfig().with_noc(mesh_width=width, mesh_height=height)
    ref, got = run_pair("bfs_push", scale=SCALE, config=config)
    assert_runs_identical(ref, got)
    assert ref.to_dict()["cycles"] > 0


@pytest.mark.parametrize("width", [16, 32])
def test_engines_agree_on_paper_meshes(width):
    config = SystemConfig.paper_mesh(width)
    ref, got = run_pair("sssp", scale=SCALE, config=config)
    assert_runs_identical(ref, got)
