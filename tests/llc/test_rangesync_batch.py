"""The protocol engine == the event-driven oracle, bit for bit.

The engine is only allowed to exist because it is indistinguishable from
the event-driven episode in ``tests/oracles/rangesync.py``: same
cycles/iterations/throughput, same message inventories (same key order,
same value types), and — when traced — the same event stream in the same
order, so the strict sanitizer performs the same checks and the metrics
histograms accumulate in the same float order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.llc import ProtocolParams, run_protocol, run_protocol_batch
from repro.llc.rangesync_batch import run_batch
from repro.trace.tracer import Tracer
from tests.oracles.rangesync import (
    run_protocol_batch_reference,
    run_protocol_reference,
)

PARAMS = st.fixed_dictionaries({
    "chunk_iters": st.sampled_from([8, 64, 128]),
    "range_interval": st.sampled_from([2, 8, 16]),
    "n_chunks": st.integers(1, 24),
    "service_per_iter": st.floats(0.05, 4.0),
    "writeback_per_chunk": st.floats(0.0, 32.0),
    "fwd_latency": st.floats(1.0, 120.0),
    "back_latency": st.floats(1.0, 120.0),
    "max_credit_chunks": st.integers(1, 32),
    "needs_commit": st.booleans(),
    "sends_ranges": st.booleans(),
    "sync_free": st.booleans(),
    "indirect_commit": st.booleans(),
})


def assert_results_identical(ref, got):
    assert got.cycles == ref.cycles
    assert type(got.cycles) is type(ref.cycles)
    assert got.iterations == ref.iterations
    assert got.throughput == ref.throughput
    assert got.messages == ref.messages
    assert list(got.messages) == list(ref.messages)
    for key in ref.messages:
        assert type(got.messages[key]) is type(ref.messages[key]), key


@settings(max_examples=120, deadline=None)
@given(PARAMS)
def test_flat_path_matches_reference(raw):
    params = ProtocolParams(**raw)
    ref = run_protocol_reference(params)
    got = run_batch([params])[0]
    assert_results_identical(ref, got)


@settings(max_examples=25, deadline=None)
@given(st.lists(PARAMS, min_size=2, max_size=8))
def test_mixed_batch_soa_order_and_identity(raws):
    """A heterogeneous batch through the flat path, in batch order."""
    batch = [ProtocolParams(**raw) for raw in raws]
    refs = [run_protocol_reference(p) for p in batch]
    gots = run_batch(batch)
    assert len(gots) == len(refs)
    for got, ref in zip(gots, refs):
        assert_results_identical(ref, got)


@settings(max_examples=60, deadline=None)
@given(PARAMS)
def test_traced_replay_bit_identical(raw):
    """Event-for-event equality: kinds, times, order, args, metrics."""
    params = ProtocolParams(**raw)
    ref_tracer = Tracer(strict=True, keep_events=True)
    got_tracer = Tracer(strict=True, keep_events=True)
    ref = run_protocol_reference(params, tracer=ref_tracer, label="s")
    got = run_batch([params], tracer=got_tracer, labels=["s"])[0]
    assert_results_identical(ref, got)
    ref_tracer.finish()
    got_tracer.finish()
    assert got_tracer.events == ref_tracer.events
    assert got_tracer.snapshot() == ref_tracer.snapshot()
    assert got_tracer.metrics.counters["sanitizer.checks"] \
        == ref_tracer.metrics.counters["sanitizer.checks"]


@settings(max_examples=15, deadline=None)
@given(st.lists(PARAMS, min_size=2, max_size=5))
def test_traced_batch_matches_sequential_reference(raws):
    """A traced batch == the reference run sequentially on one tracer."""
    batch = [ProtocolParams(**raw) for raw in raws]
    labels = [f"s{i}" for i in range(len(batch))]
    ref_tracer = Tracer(strict=True, keep_events=True)
    got_tracer = Tracer(strict=True, keep_events=True)
    refs = [run_protocol_reference(p, tracer=ref_tracer, label=label)
            for p, label in zip(batch, labels)]
    gots = run_batch(batch, tracer=got_tracer, labels=labels)
    for ref, got in zip(refs, gots):
        assert_results_identical(ref, got)
    ref_tracer.finish()
    got_tracer.finish()
    assert got_tracer.events == ref_tracer.events
    assert got_tracer.snapshot() == ref_tracer.snapshot()


# ----------------------------------------------------------------------
# Public entry points: the engine per call vs the oracle
# ----------------------------------------------------------------------
def test_run_protocol_dispatches_per_engine():
    params = ProtocolParams()
    assert_results_identical(run_protocol_reference(params),
                             run_protocol(params))


def test_run_protocol_batch_reference_engine_loops():
    batch = [ProtocolParams(n_chunks=n) for n in (1, 3, 5)]
    refs = run_protocol_batch_reference(batch)
    gots = run_protocol_batch(batch)
    assert len(gots) == len(refs)
    for ref, got in zip(refs, gots):
        assert_results_identical(ref, got)


def test_run_protocol_batch_rejects_label_mismatch():
    with pytest.raises(ValueError, match="labels"):
        run_protocol_batch([ProtocolParams()], labels=["a", "b"])
