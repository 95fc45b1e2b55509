"""Every golden-corpus point recomputes to exactly its pinned record.

The points run under the strict sanitizing tracer in a result store of
their own; each record is compared with ``==``, and a failure names
every point that moved with the first field that differs.  The test
never writes ``corpus.json``: a change that moves results on purpose
regenerates it with ``make golden`` and explains each diff in
CHANGES.md (DESIGN.md §5j).
"""

import pytest

from repro.workloads import WORKLOAD_NAMES
from tests.golden import corpus

PINNED = corpus.load()


@pytest.fixture(scope="module", autouse=True)
def golden_store():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_TRACE", "1")
        with corpus.isolated_store():
            yield


def assert_pinned(points):
    """Recompute ``points``; fail naming each one that moved."""
    got = {point.key: corpus.measure(point) for point in points}
    pinned = {key: PINNED["points"][key] for key in got
              if key in PINNED["points"]}
    moved = corpus.describe_diff(pinned, got)
    assert not moved, (f"{len(moved)} golden point(s) moved:\n"
                       + "\n".join(moved))
    return got


def test_corpus_pins_every_point_and_nothing_else():
    assert PINNED["settings"] == corpus.SETTINGS
    assert sorted(PINNED["points"]) == sorted(p.key for p in corpus.POINTS)
    assert len(corpus.CLEAN_POINTS) == 224
    assert len(corpus.FAULT_POINTS) == 4


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_clean_points_match_corpus(workload):
    assert_pinned([p for p in corpus.CLEAN_POINTS
                   if p.workload == workload])


@pytest.mark.parametrize("point", corpus.FAULT_POINTS,
                         ids=lambda p: p.site.value)
def test_fault_point_matches_corpus_and_its_site_fires(point):
    got = assert_pinned([point])[point.key]
    # A plan whose site never fires would pin a fault-free run.
    for record in (got, PINNED["points"][point.key]):
        assert record["result"]["faults"]["injected"][point.site.value] > 0


def test_first_difference_names_the_field():
    pinned = {"result": {"cycles": 1.0, "phases": [{"cycles": 2.0}]}}
    moved = {"result": {"cycles": 1.0, "phases": [{"cycles": 2.5}]}}
    assert corpus.first_difference(pinned, pinned) is None
    assert corpus.first_difference(pinned, moved) \
        == ("/result/phases[0]/cycles", 2.0, 2.5)
    assert corpus.describe_diff({"a": pinned}, {"a": moved, "b": {}}) == [
        "a: /result/phases[0]/cycles: 2.0 -> 2.5", "b: added"]
