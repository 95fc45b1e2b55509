"""Range-based synchronization protocol (§IV-B, Fig 7)."""

import pytest

from repro.llc import ProtocolParams, run_protocol, run_recovery
from repro.noc.message import MessageType


def params(**overrides):
    defaults = dict(chunk_iters=64, range_interval=8, n_chunks=16,
                    service_per_iter=0.25, writeback_per_chunk=8.0,
                    fwd_latency=30.0, back_latency=30.0,
                    max_credit_chunks=8, needs_commit=True,
                    sends_ranges=True, sync_free=False,
                    indirect_commit=False)
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def test_all_chunks_complete():
    result = run_protocol(params())
    assert result.iterations == 16 * 64
    assert result.message_count(MessageType.STREAM_CREDIT) == 16
    assert result.message_count(MessageType.STREAM_DONE) == 16


def test_range_message_count_matches_interval():
    result = run_protocol(params())
    # chunk_iters / range_interval ranges per chunk (§IV-B, R = 8).
    assert result.message_count(MessageType.STREAM_RANGE) == 16 * (64 // 8)


def test_commit_messages_only_for_writers():
    writer = run_protocol(params(needs_commit=True))
    reader = run_protocol(params(needs_commit=False))
    assert writer.message_count(MessageType.STREAM_COMMIT) == 16
    assert reader.message_count(MessageType.STREAM_COMMIT) == 0
    assert reader.throughput >= writer.throughput


def test_core_generated_affine_ranges_remove_range_traffic():
    with_ranges = run_protocol(params(sends_ranges=True))
    without = run_protocol(params(sends_ranges=False))
    assert without.message_count(MessageType.STREAM_RANGE) == 0
    assert with_ranges.message_count(MessageType.STREAM_RANGE) > 0


def test_sync_free_eliminates_ranges_and_commits():
    result = run_protocol(params(sync_free=True))
    assert result.message_count(MessageType.STREAM_RANGE) == 0
    assert result.message_count(MessageType.STREAM_COMMIT) == 0
    # Progress reports are batched/piggybacked: a fraction per chunk.
    assert 0 < result.message_count(MessageType.STREAM_DONE) < 16
    assert result.throughput >= run_protocol(params()).throughput


def test_indirect_commit_costs_an_extra_round_trip():
    plain = run_protocol(params())
    indirect = run_protocol(params(indirect_commit=True))
    assert indirect.cycles > plain.cycles
    assert indirect.message_count(MessageType.STREAM_IND_REQ) > 0


def test_throughput_improves_with_credit_window():
    starved = run_protocol(params(max_credit_chunks=1, n_chunks=32))
    pipelined = run_protocol(params(max_credit_chunks=16, n_chunks=32))
    assert pipelined.throughput > 1.5 * starved.throughput


def test_throughput_approaches_service_rate_when_credits_ample():
    p = params(max_credit_chunks=32, n_chunks=64, service_per_iter=0.5,
               sync_free=True)
    result = run_protocol(p)
    assert result.throughput == pytest.approx(2.0, rel=0.25)


def test_faster_service_never_hurts():
    slow = run_protocol(params(service_per_iter=1.0))
    fast = run_protocol(params(service_per_iter=0.1))
    assert fast.cycles <= slow.cycles


def test_parameter_validation():
    with pytest.raises(ValueError):
        params(chunk_iters=0)
    with pytest.raises(ValueError):
        params(max_credit_chunks=0)
    with pytest.raises(ValueError):
        params(range_interval=0)


def test_recovery_episode():
    """Fig 7(b/c): end + writeback + done restores precise state."""
    p = params()
    recovery = run_recovery(p, uncommitted_chunks=p.max_credit_chunks)
    assert recovery.messages[MessageType.STREAM_END] == 1
    assert recovery.messages[MessageType.STREAM_DONE] == 1
    assert recovery.cycles == pytest.approx(
        p.fwd_latency + p.writeback_per_chunk + p.back_latency)
    assert recovery.discarded_iterations == \
        p.max_credit_chunks * p.chunk_iters


def test_recovery_with_explicit_uncommitted_count():
    recovery = run_recovery(params(), uncommitted_chunks=2)
    assert recovery.discarded_iterations == 2 * 64


def test_determinism():
    a = run_protocol(params())
    b = run_protocol(params())
    assert a.cycles == b.cycles
    assert a.messages == b.messages
