"""Property tests for recovery-schedule resolution (§IV-B, Fig 7 b/c).

``resolve_recovery_schedule`` resolves a stream's whole schedule in one
array pass.  The per-episode loop it replaced lives on here as the
oracle, and the two must agree bit for bit — compared with ``==``, not
``approx`` — on every schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault import FaultPlan, FaultSite
from repro.llc.rangesync import (ProtocolParams, emit_recovery_schedule,
                                 resolve_recovery_schedule, run_recovery)
from repro.noc.message import MessageType
from repro.trace import Tracer
from repro.trace.events import TRACK_RECOVERY, EventKind


def _params(chunk_iters=64, fwd=30.0, back=30.0, writeback=8.0,
            max_chunks=64):
    return ProtocolParams(chunk_iters=chunk_iters, n_chunks=1,
                          fwd_latency=fwd, back_latency=back,
                          writeback_per_chunk=writeback,
                          max_credit_chunks=max_chunks)


def per_episode_schedule(params, total, depths, core_width=1.0,
                         base_cycles=0.0):
    """The oracle: one :func:`run_recovery` call per episode."""
    remaining = float(total)
    cycles = base_cycles
    for depth in depths:
        recovery = run_recovery(params, uncommitted_chunks=int(depth))
        discarded = min(float(recovery.discarded_iterations), remaining)
        remaining -= discarded
        cycles += recovery.cycles + discarded * 2.0 / core_width
    return remaining, total - remaining, cycles


def assert_matches_oracle(params, total, depths, core_width, base_cycles):
    got = resolve_recovery_schedule(params, total, depths,
                                    core_width=core_width,
                                    base_cycles=base_cycles)
    assert (got.committed_iterations, got.reexecuted_iterations,
            got.cycles) == per_episode_schedule(params, total, depths,
                                                core_width, base_cycles)
    assert got.episodes == len(depths)
    for value in (got.committed_iterations, got.reexecuted_iterations,
                  got.cycles):
        assert type(value) is float
    return got


latency = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(total=st.floats(min_value=0.0, max_value=1e9),
       chunk_iters=st.integers(min_value=1, max_value=4096),
       depths=st.lists(st.integers(min_value=0, max_value=64),
                       max_size=200),
       fwd=latency, back=latency,
       core_width=st.floats(min_value=0.5, max_value=16.0),
       base_cycles=st.floats(min_value=0.0, max_value=1e7))
def test_vectorized_schedule_equals_per_episode_loop(
        total, chunk_iters, depths, fwd, back, core_width, base_cycles):
    assert_matches_oracle(_params(chunk_iters, fwd, back), total, depths,
                          core_width, base_cycles)


@settings(max_examples=200, deadline=None)
@given(windows=st.integers(min_value=1, max_value=40),
       fraction=st.floats(min_value=0.0, max_value=1.0),
       chunk_iters=st.integers(min_value=1, max_value=512),
       depths=st.lists(st.integers(min_value=1, max_value=32),
                       min_size=1, max_size=300))
def test_exhausting_schedules_equal_per_episode_loop(
        windows, fraction, chunk_iters, depths):
    """Totals smaller than the schedule's windows: the cap engages
    mid-schedule (often on a non-integer remainder) and every later
    episode discards nothing."""
    total = (windows + fraction) * chunk_iters
    got = assert_matches_oracle(_params(chunk_iters), total, depths,
                                3.2, 17.5)
    if sum(depths) * chunk_iters >= total:
        assert got.committed_iterations == 0.0
        assert got.reexecuted_iterations == total


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       total=st.floats(min_value=1.0, max_value=1e9),
       counts=st.tuples(*[st.integers(min_value=0, max_value=400)] * 3),
       max_chunks=st.integers(min_value=1, max_value=32))
def test_multi_site_schedule_equals_per_episode_loop(seed, total, counts,
                                                     max_chunks):
    """Several sites' draws, capped and concatenated as the engine
    concatenates them (alias, then TLB, then SCC)."""
    plan = FaultPlan.uniform(1.0, seed=seed)
    params = _params(chunk_iters=64, max_chunks=max_chunks)
    n_chunks = max(int(total // params.chunk_iters), 1)
    parts = []
    for site, n in zip((FaultSite.ALIAS, FaultSite.TLB_MISS,
                        FaultSite.SCC_EVICT), counts):
        if n == 0:
            continue
        chunk_at = plan.draw_chunk_indices(site, n, n_chunks, "p", "s")
        drawn = plan.draw_uncommitted_depths(site, n, max_chunks, "p", "s")
        parts.append(np.minimum(drawn, chunk_at + 1))
    depths = np.concatenate(parts) if parts else np.empty(0, np.int64)
    assert_matches_oracle(params, total, depths.tolist(), 6.4, 250.0)


@settings(max_examples=200, deadline=None)
@given(total=st.floats(min_value=0.0, max_value=1e9),
       chunk_iters=st.integers(min_value=1, max_value=4096),
       depths=st.lists(st.integers(min_value=0, max_value=64),
                       max_size=50))
def test_committed_plus_reexecuted_partitions_iteration_space(
        total, chunk_iters, depths):
    acct = resolve_recovery_schedule(_params(chunk_iters), total, depths)
    assert acct.committed_iterations >= 0.0
    assert acct.reexecuted_iterations >= 0.0
    assert acct.committed_iterations + acct.reexecuted_iterations == \
        pytest.approx(total)
    # a discard can never exceed what is still uncommitted
    assert acct.reexecuted_iterations <= total


@settings(max_examples=100, deadline=None)
@given(total=st.floats(min_value=1.0, max_value=1e6),
       chunk_iters=st.integers(min_value=1, max_value=512))
def test_empty_schedule_commits_everything(total, chunk_iters):
    acct = resolve_recovery_schedule(_params(chunk_iters), total, [],
                                     base_cycles=5.0)
    assert acct.committed_iterations == total
    assert acct.reexecuted_iterations == 0.0
    assert acct.cycles == 5.0 and acct.episodes == 0


def test_deep_episode_saturates_at_remaining():
    params = _params(chunk_iters=64, max_chunks=128)
    acct = resolve_recovery_schedule(params, 100.0, [100])  # 6400 > 100
    assert acct.reexecuted_iterations == 100.0
    assert acct.committed_iterations == 0.0
    # further episodes find nothing left to discard: each adds only its
    # round trip, no re-execution
    acct = resolve_recovery_schedule(params, 100.0, [100, 5, 5])
    assert acct.reexecuted_iterations == 100.0
    assert acct.cycles == 3 * (30.0 + 8.0 + 30.0) + 100.0 * 2.0


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        resolve_recovery_schedule(_params(8), -1.0, [])
    with pytest.raises(ValueError):
        resolve_recovery_schedule(_params(0), 10.0, [])
    with pytest.raises(ValueError):
        resolve_recovery_schedule(_params(8), 10.0, [-1])
    # no episode can end more chunks than the credit window holds
    with pytest.raises(ValueError, match="max_credit_chunks"):
        resolve_recovery_schedule(_params(8, max_chunks=4), 10.0, [2, 5])


@settings(max_examples=50, deadline=None)
@given(depth=st.integers(min_value=0, max_value=8),
       chunk_iters=st.integers(min_value=1, max_value=256))
def test_run_recovery_episode_cost_positive(depth, chunk_iters):
    params = ProtocolParams(chunk_iters=chunk_iters, n_chunks=4,
                            fwd_latency=10.0, back_latency=10.0,
                            max_credit_chunks=8)
    episode = run_recovery(params, uncommitted_chunks=depth)
    assert episode.cycles > 0.0  # end/writeback/done round trip
    assert episode.discarded_iterations == depth * chunk_iters


def _event_tuples(tracer):
    return [(e.kind, e.time, e.track, e.stream, e.chunk, e.message,
             e.mcount, [(k, v, type(v)) for k, v in e.args.items()])
            for e in tracer.events]


def per_episode_trace(params, total, depths, sites, core_width):
    """The oracle's traced form: the track the per-episode loop emitted."""
    tracer = Tracer(strict=True, keep_events=True)
    track = tracer.begin_stream("p/s", track_kind=TRACK_RECOVERY,
                                offloaded_iterations=total)
    remaining = total
    cycles = 0.0
    for episode, (site, depth) in enumerate(zip(sites, depths)):
        time = float(episode)
        recovery = run_recovery(params, uncommitted_chunks=depth)
        tracer.emit(EventKind.FAULT_FIRE, time, track, "p/s",
                    site=site, depth=depth)
        tracer.emit(EventKind.RECOVERY_BEGIN, time, track, "p/s",
                    message=MessageType.STREAM_END, mcount=1.0,
                    uncommitted_chunks=depth)
        tracer.emit(EventKind.RECOVERY_END, time + recovery.cycles, track,
                    "p/s", message=MessageType.STREAM_DONE, mcount=1.0,
                    cycles=recovery.cycles,
                    discarded_iterations=recovery.discarded_iterations)
        discarded = min(float(recovery.discarded_iterations), remaining)
        remaining -= discarded
        cycles += recovery.cycles + discarded * 2.0 / core_width
    tracer.end_stream(track, float(len(depths)), "p/s",
                      offloaded_iterations=total,
                      committed_iterations=remaining,
                      reexecuted_iterations=total - remaining,
                      recovery_cycles=cycles)
    tracer.finish()
    return tracer


def _event_tuples(tracer):
    return [(e.kind, e.time, e.track, e.stream, e.chunk, e.message,
             e.mcount, [(k, v, type(v)) for k, v in e.args.items()])
            for e in tracer.events]


@settings(max_examples=60, deadline=None)
@given(depths=st.lists(st.integers(min_value=1, max_value=16),
                       min_size=1, max_size=60),
       chunk_iters=st.integers(min_value=1, max_value=256),
       total=st.floats(min_value=1.0, max_value=1e5))
def test_schedule_events_equal_per_episode_emission(depths, chunk_iters,
                                                    total):
    """The traced track carries the per-episode loop's values and types,
    and passes the strict sanitizer."""
    params = _params(chunk_iters, fwd=33.25, back=41.5)
    sites = ["ALIAS" if i % 3 else "TLB_MISS" for i in range(len(depths))]
    tracer = Tracer(strict=True, keep_events=True)
    schedule = resolve_recovery_schedule(params, total, depths,
                                         core_width=3.2)
    emit_recovery_schedule(schedule, tracer, "p/s", sites)
    tracer.finish()
    assert _event_tuples(tracer) == _event_tuples(
        per_episode_trace(params, total, depths, sites, 3.2))
