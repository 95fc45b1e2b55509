"""Counters, distributions, stat groups, and the geomean helper."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.eval import geomean
from tests.oracles.engine.stats import Counter, Distribution, StatGroup


def test_counter_accumulates():
    c = Counter("hits")
    c.add()
    c.add(2.5)
    assert c.value == 3.5
    c.reset()
    assert c.value == 0.0


def test_distribution_summary_statistics():
    d = Distribution("lat")
    for sample in (2.0, 4.0, 6.0):
        d.record(sample)
    assert d.count == 3
    assert d.total == 12.0
    assert d.mean == pytest.approx(4.0)
    assert d.minimum == 2.0
    assert d.maximum == 6.0
    assert d.variance == pytest.approx(8.0 / 3.0)


def test_distribution_empty_is_safe():
    d = Distribution("x")
    assert d.mean == 0.0
    assert d.variance == 0.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_distribution_matches_numpy_semantics(samples):
    d = Distribution("x")
    for s in samples:
        d.record(s)
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    assert d.mean == pytest.approx(mean, rel=1e-6, abs=1e-6)
    assert d.variance == pytest.approx(var, rel=1e-5, abs=1e-4)
    assert d.minimum == min(samples)
    assert d.maximum == max(samples)


def test_stat_group_dotted_lookup():
    g = StatGroup("root")
    g.group("l1").counter("hits").add(5)
    g.counter("total").add(1)
    assert g.get("l1.hits") == 5
    assert g.get("total") == 1
    with pytest.raises(KeyError):
        g.get("l2.hits")
    with pytest.raises(KeyError):
        g.get("missing")


def test_stat_group_counter_is_memoized():
    g = StatGroup("g")
    g.counter("x").add(1)
    g.counter("x").add(1)
    assert g.get("x") == 2


def test_stat_group_walk_and_as_dict():
    g = StatGroup("root")
    g.counter("a").add(1)
    g.group("sub").counter("b").add(2)
    flat = g.as_dict()
    assert flat["root.a"] == 1
    assert flat["root.sub.b"] == 2


def test_stat_group_merge():
    a = StatGroup("m")
    b = StatGroup("m")
    a.counter("x").add(1)
    b.counter("x").add(2)
    b.group("c").counter("y").add(5)
    a.merge_from(b)
    assert a.get("x") == 3
    assert a.get("c.y") == 5


def test_geomean_basic():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)


def test_geomean_rejects_bad_input():
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([-1.0])


@given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1,
                max_size=50))
def test_geomean_bounded_by_min_and_max(values):
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@given(st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=1,
                max_size=20),
       st.floats(min_value=0.1, max_value=10))
def test_geomean_scales_linearly(values, factor):
    scaled = [v * factor for v in values]
    assert geomean(scaled) == pytest.approx(geomean(values) * factor,
                                            rel=1e-6)
