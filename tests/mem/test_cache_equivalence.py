"""Vectorized CacheModel vs the scalar oracle.

Property tests: on any trace, both CacheModel engines (the per-access
scalar fallback and the batched wavefront) must report exactly the same
hits, misses, evictions, dirty evictions, and per-access hit mask as
``ScalarCacheModel`` (``tests/oracles/cache_ref.py``), for both LRU and
BRRIP. The geometries include the sampled simulation's own: an LRU L1
of 2 sets x 8 ways and a BRRIP L2 of 4 sets x 16 ways.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import CacheModel, DrawStream, ReplacementPolicy
from tests.oracles.cache_ref import ScalarCacheModel

GEOMETRIES = [(4, 2), (2, 8), (16, 4), (4, 16)]
POLICIES = [ReplacementPolicy.LRU, ReplacementPolicy.BRRIP]
ENGINES = ["scalar", "wavefront"]

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255),
              st.booleans(),
              st.integers(min_value=1, max_value=6)),  # run length
    min_size=0, max_size=60)


def _expand(trace):
    """(addr, write, runlen) triples -> element-granularity arrays."""
    addrs, writes = [], []
    for addr, write, runlen in trace:
        addrs.extend([addr] * runlen)
        writes.extend([write] * runlen)
    return (np.array(addrs, dtype=np.int64),
            np.array(writes, dtype=bool))


def _cfg(sets, assoc):
    return CacheConfig(sets * assoc * 64, assoc, 2)


def _assert_same(call_a, call_b, context):
    for f in ("accesses", "hits", "misses", "evictions",
              "dirty_evictions"):
        assert getattr(call_a, f) == getattr(call_b, f), (context, f)
    assert np.array_equal(call_a.hit_mask, call_b.hit_mask), context


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bulk_access_matches_reference(engine, policy, data):
    sets, assoc = data.draw(st.sampled_from(GEOMETRIES))
    fast = CacheModel(_cfg(sets, assoc), policy, seed=9)
    fast.force_engine = engine
    ref = ScalarCacheModel(_cfg(sets, assoc), policy, seed=9)
    for chunk in range(data.draw(st.integers(1, 3))):
        addrs, writes = _expand(data.draw(traces))
        _assert_same(fast.access(addrs, writes),
                     ref.access(addrs, writes),
                     (engine, policy, sets, assoc, chunk))
    assert fast.result.hits == ref.result.hits
    assert fast.occupied_lines == ref.occupied_lines


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", POLICIES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_mixed_single_and_bulk_matches_reference(engine, policy, data):
    """access_one (sampling path) interleaved with bulk traces."""
    sets, assoc = data.draw(st.sampled_from(GEOMETRIES))
    fast = CacheModel(_cfg(sets, assoc), policy, seed=3)
    fast.force_engine = engine
    ref = ScalarCacheModel(_cfg(sets, assoc), policy, seed=3)
    for step in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            addrs, writes = _expand(data.draw(traces))
            _assert_same(fast.access(addrs, writes),
                         ref.access(addrs, writes),
                         (engine, policy, step))
        else:
            addr = data.draw(st.integers(0, 255))
            write = data.draw(st.booleans())
            assert fast.access_one(addr, write) == \
                ref.access_one(addr, write)
    for f in ("accesses", "hits", "misses", "evictions",
              "dirty_evictions"):
        assert getattr(fast.result, f) == getattr(ref.result, f)


@pytest.mark.parametrize("policy", POLICIES)
def test_engines_agree_on_long_trace(policy):
    """A trace long and wide enough to exercise the wavefront for real."""
    rng = np.random.default_rng(17)
    sets, assoc = 64, 4
    addrs = np.concatenate([
        np.repeat(np.arange(512), 4),            # streaming runs
        rng.integers(0, 1024, size=2048),        # random churn
    ]).astype(np.int64)
    writes = rng.random(len(addrs)) < 0.3
    calls = {}
    for engine in ENGINES:
        model = CacheModel(_cfg(sets, assoc), policy, seed=23)
        model.force_engine = engine
        calls[engine] = model.access(addrs, writes)
    _assert_same(calls["scalar"], calls["wavefront"], policy)


def test_bulk_draw_per_miss_matches_access_one_across_a_refill():
    """A bulk BRRIP call with ``draw_per_miss`` and more misses than one
    draw block equals the same accesses made one at a time: hit mask,
    counters, dirty victims and the next draw of the stream."""
    rng = np.random.default_rng(29)
    cfg = _cfg(4, 16)
    fast = CacheModel(cfg, ReplacementPolicy.BRRIP, seed=7)
    ref = ScalarCacheModel(cfg, ReplacementPolicy.BRRIP, seed=7)
    n = DrawStream._BLOCK + 6000
    lead = rng.integers(0, 1 << 12, size=300)   # leaves a part-used block
    lines = np.repeat(rng.integers(0, 1 << 12, size=n),
                      rng.integers(1, 3, size=n))
    writes = rng.random(len(lines)) < 0.3
    for step, (trace, w) in enumerate(((lead, None), (lines, writes))):
        call = fast.access(trace, w, record_victims=True,
                           draw_per_miss=True)
        flags = np.zeros(len(trace), dtype=bool) if w is None else w
        expect_hits, expect_victims = [], []
        for pos, (line, write) in enumerate(zip(trace.tolist(),
                                                flags.tolist())):
            hit, evicted = ref.access_one(line, write)
            expect_hits.append(hit)
            if evicted is not None:
                expect_victims.append((pos, evicted))
        assert call.hit_mask.tolist() == expect_hits, step
        assert list(zip(*(v.tolist() for v in call.victims))) == \
            expect_victims, step
    assert call.misses > DrawStream._BLOCK
    for f in ("accesses", "hits", "misses", "evictions",
              "dirty_evictions"):
        assert getattr(fast.result, f) == getattr(ref.result, f), f
    assert fast._draws.take_one() == ref._draws.take_one()
