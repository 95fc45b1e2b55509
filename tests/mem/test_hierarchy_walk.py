"""Batched hierarchy walk vs the per-element oracle.

Property tests: on any trace, :meth:`HierarchyModel.walk_elements` must
serve every element from exactly the level the per-element
``access_element`` oracle (``tests/oracles/hierarchy.py``) serves it from, and leave the
L1/L2/L3 models in identical states — including BRRIP draw consumption
in the L2 and dirty-L1 victims chained into the L2 stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.mem.hierarchy import HierarchyModel, SharedL3Model
from tests.oracles.hierarchy import access_element

SCALES = [1e-9, 1.0 / 4096.0]  # floor-sized and small private caches

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=127),  # line
              st.booleans(),                            # write
              st.booleans(),                            # skip_l1
              st.integers(min_value=1, max_value=5)),   # run length
    min_size=0, max_size=60)


def _expand(trace):
    lines, writes, skips = [], [], []
    for line, write, skip, runlen in trace:
        lines.extend([line] * runlen)
        writes.extend([write] * runlen)
        skips.extend([skip] * runlen)
    return (np.array(lines, dtype=np.int64),
            np.array(writes, dtype=bool),
            np.array(skips, dtype=bool))


def _build(scale):
    cfg = SystemConfig.ooo8().scaled_private_caches(scale)
    return HierarchyModel(cfg, SharedL3Model(cfg), core_id=0)


def _assert_same_state(fast, ref, context):
    for level in ("l1", "l2"):
        f = getattr(fast, level).result
        r = getattr(ref, level).result
        for field in ("accesses", "hits", "misses", "evictions",
                      "dirty_evictions"):
            assert getattr(f, field) == getattr(r, field), \
                (context, level, field)
    assert fast.shared_l3.hits == ref.shared_l3.hits, context
    assert fast.shared_l3.misses == ref.shared_l3.misses, context
    assert fast.shared_l3.writebacks == ref.shared_l3.writebacks, context


@pytest.mark.parametrize("use_skip", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_walk_matches_element_loop(use_skip, data):
    scale = data.draw(st.sampled_from(SCALES))
    fast = _build(scale)
    ref = _build(scale)
    for chunk in range(data.draw(st.integers(1, 3))):
        lines, writes, skips = _expand(data.draw(traces))
        if not use_skip:
            skips = None
        levels = fast.walk_elements(lines, writes, skips)
        skip_list = skips if skips is not None else np.zeros(len(lines),
                                                            dtype=bool)
        expect = [access_element(ref, int(l), bool(w), bool(s))
                  for l, w, s in zip(lines, writes, skip_list)]
        got = [HierarchyModel.LEVELS[v] for v in levels.tolist()]
        assert got == expect, (use_skip, scale, chunk)
        _assert_same_state(fast, ref, (use_skip, scale, chunk))


def test_walk_matches_element_loop_long_trace():
    """Long mixed trace: streaming runs, churn, writes, skip_l1 stretches."""
    rng = np.random.default_rng(11)
    n = 20_000
    parts, total = [], 0
    while total < n:
        if rng.random() < 0.6:
            start = int(rng.integers(0, 4096))
            parts.append((start + np.arange(48) // 8) % 4096)
            total += 48
        else:
            parts.append(rng.integers(0, 4096, size=12))
            total += 12
    lines = np.concatenate(parts)[:n].astype(np.int64)
    writes = rng.random(n) < 0.35
    skips = rng.random(n) < 0.25

    fast = _build(1.0 / 1024.0)
    ref = _build(1.0 / 1024.0)
    levels = fast.walk_elements(lines, writes, skips)
    expect = [access_element(ref, int(l), bool(w), bool(s))
              for l, w, s in zip(lines, writes, skips)]
    assert [HierarchyModel.LEVELS[v] for v in levels.tolist()] == expect
    _assert_same_state(fast, ref, "long")


def test_walk_empty_trace():
    hier = _build(1.0 / 1024.0)
    levels = hier.walk_elements(np.array([], dtype=np.int64),
                                np.array([], dtype=bool))
    assert len(levels) == 0
    assert hier.l1.result.accesses == 0
