"""Fig 1(b) ideal-systems model."""

import pickle

import pytest

import repro.sim.ideal as ideal_mod
from repro.config import SystemConfig
from repro.sim import ideal_traffic
from repro.workloads import WORKLOAD_NAMES, make_workload
from repro.workloads.build_cache import load_or_record
from tests.oracles.ideal import perfect_cache_reference

SCALE = 1.0 / 256.0


@pytest.fixture(scope="module")
def results():
    return {name: ideal_traffic(name, scale=SCALE)
            for name in ("pathfinder", "histogram", "scluster",
                         "bfs_push", "bin_tree")}


def test_all_quantities_positive(results):
    for name, r in results.items():
        assert r["no_priv"] > 0
        assert r["perf_priv"] >= 0
        assert r["near_llc"] >= 0


def test_perfect_cache_never_exceeds_no_cache(results):
    for name, r in results.items():
        assert r["perf_priv"] <= r["no_priv"] * (1 + 1e-9), name


def test_streaming_workload_gets_no_cache_benefit(results):
    """histogram touches each value once: a perfect cache cannot help."""
    r = results["histogram"]
    assert r["perf_priv"] == pytest.approx(r["no_priv"], rel=0.02)


def test_reuse_workload_benefits_from_perfect_cache(results):
    """pathfinder re-reads the previous result row three times."""
    r = results["pathfinder"]
    assert r["perf_priv"] < 0.8 * r["no_priv"]


def test_near_llc_wins_big_on_gather_compute(results):
    """scluster's 64 B points reduce to 4 B scalars near the data."""
    r = results["scluster"]
    assert r["near_llc"] < 0.3 * r["no_priv"]


def test_near_llc_wins_on_pointer_chasing(results):
    r = results["bin_tree"]
    assert r["near_llc"] < 0.5 * r["no_priv"]


def test_deterministic(results):
    again = ideal_traffic("histogram", scale=SCALE)
    assert again == results["histogram"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_stored_trace_measures_like_the_live_workload(name):
    """A trace as the store serves it — pickled, with packed geometry
    and no in-process memo — gives exactly the live workload's numbers."""
    config = SystemConfig.ooo8()
    trace = load_or_record(name, SCALE, 42, config, cache=None)
    ideal_traffic(trace, config=config)  # derives the geometry
    assert trace.pack_stats()
    stored = pickle.loads(pickle.dumps(trace))
    live = make_workload(name, scale=SCALE)
    assert ideal_traffic(stored, config=config) \
        == ideal_traffic(live, config=config)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_perfect_cache_matches_the_per_element_oracle(name, monkeypatch):
    """The array-built perfect private cache gives exactly the floats of
    the per-element merge-and-sort loop, on every kernel."""
    config = SystemConfig.ooo8()
    trace = load_or_record(name, SCALE, 42, config, cache=None)
    fast = ideal_traffic(trace, config=config)
    monkeypatch.setattr(ideal_mod, "_perfect_cache_hop_bytes",
                        perfect_cache_reference)
    assert ideal_traffic(trace, config=config) == fast


def test_trace_from_another_layout_is_refused():
    trace = load_or_record("histogram", SCALE, 42, SystemConfig.ooo8(),
                           cache=None)
    with pytest.raises(ValueError, match="address layout"):
        ideal_traffic(trace, config=SystemConfig.paper_mesh(4))
