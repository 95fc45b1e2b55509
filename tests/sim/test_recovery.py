"""Precise-state recovery injection (Fig 7 b/c) at the top level.

Recoveries come from a :class:`~repro.fault.FaultPlan`: ``uniform(rate)``
fires alias false positives, SE_L3 TLB aborts and SCC evictions at
``rate`` per million opportunities, each ending in a recovery episode.
"""

from repro.fault import FaultPlan
from repro.offload import ExecMode
from repro.sim import run_workload

SCALE = 1.0 / 256.0


def _faulted(workload, mode, rate):
    return run_workload(workload, mode, scale=SCALE,
                        fault_plan=FaultPlan.uniform(rate, seed=0))


def test_zero_rate_is_the_default_and_free():
    clean = run_workload("histogram", ExecMode.NS, scale=SCALE)
    explicit = _faulted("histogram", ExecMode.NS, 0.0)
    assert clean.cycles == explicit.cycles
    assert clean.to_dict() == explicit.to_dict()


def test_recoveries_cost_cycles_monotonically():
    rates = (0.0, 10.0, 100.0, 1000.0)
    cycles = [_faulted("histogram", ExecMode.NS, r).cycles for r in rates]
    assert all(a <= b for a, b in zip(cycles, cycles[1:]))
    assert cycles[-1] > 1.2 * cycles[0]


def test_recoveries_add_end_messages():
    from repro.noc.message import MessageType
    noisy = _faulted("histogram", ExecMode.NS, 500.0)
    clean = run_workload("histogram", ExecMode.NS, scale=SCALE)
    assert noisy.faults.recovery_episodes > 0
    assert noisy.traffic.messages[MessageType.STREAM_END] \
        > clean.traffic.messages[MessageType.STREAM_END]


def test_baseline_immune_to_recovery_rate():
    """Without offloaded streams there is nothing to restore."""
    clean = run_workload("histogram", ExecMode.BASE, scale=SCALE)
    noisy = _faulted("histogram", ExecMode.BASE, 1000.0)
    assert clean.cycles == noisy.cycles
    assert noisy.faults.recovery_episodes == 0


def test_rare_recoveries_do_not_erase_the_win():
    """The paper's premise: aliasing/context switches are rare, so the
    conservative range-sync recovery path stays off the critical path."""
    base = run_workload("bfs_push", ExecMode.BASE, scale=SCALE)
    ns = _faulted("bfs_push", ExecMode.NS, 1.0)   # one per million
    assert ns.speedup_over(base) > 1.5
