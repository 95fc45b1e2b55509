"""FaultPlan: seeded determinism, keying, and draw bounds."""

import numpy as np
import pytest

from repro.fault import RECOVERY_SITES, FaultPlan, FaultSite, FaultStats


def test_rates_must_be_non_negative():
    with pytest.raises(ValueError):
        FaultPlan(alias_rate=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(tlb_miss_rate=-0.5)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"),
                                  float("-inf")])
def test_rates_must_be_finite(rate):
    for field in ("alias_rate", "tlb_miss_rate", "lock_conflict_rate",
                  "scc_evict_rate"):
        with pytest.raises(ValueError, match=field):
            FaultPlan(**{field: rate})
    with pytest.raises(ValueError, match="finite"):
        FaultPlan.uniform(rate)


def test_uniform_and_null():
    assert FaultPlan().is_null()
    plan = FaultPlan.uniform(50.0, seed=7)
    assert not plan.is_null()
    for site in FaultSite:
        assert plan.rate(site) == 50.0
    assert set(RECOVERY_SITES) == {FaultSite.TLB_MISS, FaultSite.ALIAS,
                                   FaultSite.SCC_EVICT}


def test_draws_are_deterministic_in_seed_and_key():
    a = FaultPlan.uniform(1000.0, seed=3)
    b = FaultPlan.uniform(1000.0, seed=3)
    c = FaultPlan.uniform(1000.0, seed=4)
    args = (FaultSite.ALIAS, 100_000, "bfs", "frontier")
    assert a.draw_events(*args) == b.draw_events(*args)
    assert a.draw_events(*args) != c.draw_events(*args) or \
        a.rng(FaultSite.ALIAS, "x").integers(0, 1 << 30) != \
        c.rng(FaultSite.ALIAS, "x").integers(0, 1 << 30)


def test_draws_keyed_by_context_not_call_order():
    plan = FaultPlan.uniform(1000.0, seed=0)
    first = plan.draw_events(FaultSite.ALIAS, 50_000, "phase", "s1")
    # interleave unrelated draws; the keyed draw must not move
    plan.draw_events(FaultSite.TLB_MISS, 10_000, "phase", "s2")
    plan.draw_events(FaultSite.ALIAS, 99, "other", "s3")
    again = plan.draw_events(FaultSite.ALIAS, 50_000, "phase", "s1")
    assert first == again


def test_event_count_bounded_by_opportunities():
    plan = FaultPlan.uniform(5e9, seed=1)  # pathological rate >> 1e6
    n = plan.draw_events(FaultSite.LOCK_CONFLICT, 1234, "k")
    assert n == 1234  # p capped at 1.0
    assert plan.draw_events(FaultSite.ALIAS, 0, "k") == 0
    assert FaultPlan().draw_events(FaultSite.ALIAS, 10**6, "k") == 0


def test_chunk_indices_and_depths_shapes():
    plan = FaultPlan.uniform(100.0, seed=2)
    chunks = plan.draw_chunk_indices(FaultSite.ALIAS, 17, 40, "k")
    assert chunks.shape == (17,)
    assert np.all((chunks >= 0) & (chunks < 40))
    assert np.all(np.diff(chunks) >= 0)  # sorted: faults fire in order
    depths = plan.draw_uncommitted_depths(FaultSite.ALIAS, 17, 6, "k")
    assert depths.shape == (17,)
    assert np.all((depths >= 1) & (depths <= 6))
    assert plan.draw_chunk_indices(FaultSite.ALIAS, 0, 40, "k").size == 0


def test_mean_event_rate_tracks_requested_rate():
    plan = FaultPlan.uniform(1000.0, seed=11)
    n = plan.draw_events(FaultSite.ALIAS, 1_000_000, "k")
    assert 800 <= n <= 1200  # binomial(1e6, 1e-3): far beyond 6 sigma


def test_stats_record_merge_and_derived_rate():
    a = FaultStats()
    a.record(FaultSite.ALIAS, 3)
    a.record(FaultSite.ALIAS, 2)
    a.record(FaultSite.TLB_MISS, 0)  # zero counts are not recorded
    a.recovery_episodes = 5
    a.offloaded_iterations = 1e6
    b = FaultStats(injected={"alias": 1, "scc_evict": 4},
                   recovery_episodes=2, offloaded_iterations=1e6,
                   committed_iterations=10.0, reexecuted_iterations=5.0,
                   recovery_cycles=100.0, injected_lock_conflicts=7)
    merged = a.merged_with(b)
    assert merged.injected == {"alias": 6, "scc_evict": 4}
    assert merged.total_injected == 10
    assert merged.recovery_episodes == 7
    assert merged.derived_recovery_rate == pytest.approx(7 / 2.0)
    assert merged.injected_lock_conflicts == 7
    d = merged.to_dict()
    assert d["derived_recovery_rate"] == pytest.approx(7 / 2.0)
    assert FaultStats().derived_recovery_rate == 0.0
