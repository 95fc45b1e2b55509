"""End-to-end trace acceptance: every workload, faults, result parity.

The strict tracer makes the acceptance criteria *online* checks: the
sanitizer raises if any traced episode's per-``MessageType`` counts
diverge from its ``ProtocolResult.messages`` inventory, or any §IV-B
invariant breaks — so a clean run of these tests IS the cross-check.
"""

import pytest

from repro.fault.plan import FaultPlan
from repro.sim.run import run_workload
from repro.trace import Tracer
from repro.workloads import all_workload_names

SCALE = 1.0 / 256.0


@pytest.mark.parametrize("workload", all_workload_names())
def test_traced_run_matches_protocol_inventory(workload):
    """Per-episode message accounting equals the protocol's inventory.

    The equality is enforced at every STREAM_END by the strict
    sanitizer (invariant "message-inventory"); here we assert the run
    actually traced protocol episodes and stayed violation-free.
    """
    tracer = Tracer(strict=True, keep_events=False)
    result = run_workload(workload, scale=SCALE, tracer=tracer)
    assert tracer.ok
    metrics = result.trace
    assert metrics is not None and metrics.violations == 0
    assert metrics.n_tracks > 0, "no protocol episode was traced"
    assert metrics.counter("events.stream_end") == metrics.counter(
        "events.stream_begin")
    assert metrics.message_counts(), "no messages accounted on events"
    assert metrics.counter("sanitizer.checks") > 0


def test_injected_faults_all_produce_recovered_traces():
    plan = FaultPlan(seed=7, alias_rate=2e-2, tlb_miss_rate=5e-2,
                     scc_evict_rate=1e-2)
    tracer = Tracer(strict=True, keep_events=False)
    result = run_workload("bfs_push", scale=SCALE, fault_plan=plan,
                          tracer=tracer)
    assert result.faults is not None
    assert result.faults.recovery_episodes > 0, "plan injected nothing"
    # Strict sanitizer enforced fault-recovered + iteration-partition on
    # every recovery track; corroborate via the metrics registry.
    metrics = result.trace
    fault_count = sum(v for k, v in metrics.counters.items()
                      if k.startswith("faults."))
    assert fault_count > 0
    assert metrics.counter("events.recovery_end") == metrics.counter(
        "events.recovery_begin") == fault_count
    assert metrics.histograms["recovery.cycles"]["count"] == fault_count


@pytest.mark.parametrize("workload", all_workload_names())
def test_faulted_traced_run_matches_untraced(workload, monkeypatch):
    """Tracing a faulted run emits every episode's events but must not
    move its arithmetic: both resolve the same recovery schedules."""
    plan = FaultPlan.uniform(100.0, seed=1)
    tracer = Tracer(strict=True, keep_events=False)
    traced = run_workload(workload, scale=SCALE, fault_plan=plan,
                          tracer=tracer)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    untraced = run_workload(workload, scale=SCALE, fault_plan=plan)
    assert untraced.trace is None and tracer.ok
    assert traced.to_dict() == untraced.to_dict()
    episodes = traced.faults.recovery_episodes
    # timing runs twice per phase, and each pass traces its schedules
    assert traced.trace.counter("events.fault_fire") == 2 * episodes


def test_trace_rides_outside_equality_and_serialization(monkeypatch):
    traced = run_workload("histogram", scale=SCALE,
                          tracer=Tracer(strict=True))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    untraced = run_workload("histogram", scale=SCALE)
    assert traced.trace is not None and untraced.trace is None
    # Tracing must not perturb the simulated outcome, and the metrics
    # snapshot stays out of serialization (hence out of cache keys).
    assert traced.to_dict() == untraced.to_dict()
    assert "trace" not in traced.to_dict()


def test_tracing_off_leaves_no_footprint(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    result = run_workload("histogram", scale=SCALE)
    assert result.trace is None
