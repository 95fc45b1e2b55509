"""CacheModel trace-simulation throughput (the sweep hot path).

Benchmarks the vectorized :class:`~repro.mem.cache.CacheModel` on an
element-granularity trace shaped like the simulator's own: 60% sequential
streams that touch each 64B line 8 times in a row (8-byte elements), 40%
random churn, 30% writes.  Records lines/sec in ``extra_info`` and
asserts the ≥5x speedup over the scalar oracle
(``tests/oracles/cache_ref.py``), each timed as its best of three
interleaved runs, with exact stat equivalence.
"""

import time

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.mem.cache import CacheModel, ReplacementPolicy
from tests.oracles.cache_ref import ScalarCacheModel

TRACE_LEN = 400_000
CACHE = CacheConfig(size_bytes=256 * 1024, assoc=16, latency=4)
SPEEDUP_FLOOR = 5.0
TIMING_ROUNDS = 3


def _make_trace(seed=3, n=TRACE_LEN, run_frac=0.6, runlen=32, repeats=8):
    """Mixed streaming/random element-granularity line trace."""
    rng = np.random.default_rng(seed)
    nlines = CACHE.sets * CACHE.assoc * 3
    parts, total = [], 0
    while total < n:
        if rng.random() < run_frac:
            start = int(rng.integers(0, nlines))
            parts.append((start + np.arange(runlen) // repeats) % nlines)
            total += runlen
        else:
            parts.append(rng.integers(0, nlines, size=8))
            total += 8
    addrs = np.concatenate(parts)[:n].astype(np.int64)
    writes = rng.random(n) < 0.3
    return addrs, writes


@pytest.mark.parametrize("policy", [ReplacementPolicy.LRU,
                                    ReplacementPolicy.BRRIP])
def test_cache_model_throughput(benchmark, policy):
    addrs, writes = _make_trace()

    def run():
        model = CacheModel(CACHE, policy, seed=5)
        model.access(addrs, writes)
        return model.result

    result = benchmark(run)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        lines_per_sec = TRACE_LEN / benchmark.stats.stats.mean
        benchmark.extra_info["lines_per_sec"] = round(lines_per_sec)
        benchmark.extra_info["policy"] = policy.name
        print(f"\n{policy.name}: {lines_per_sec / 1e6:.2f} M lines/s "
              f"({result.hits} hits / {result.misses} misses)")


@pytest.mark.parametrize("policy", [ReplacementPolicy.LRU,
                                    ReplacementPolicy.BRRIP])
def test_vectorized_speedup_and_equivalence(policy):
    """≥5x over the scalar reference, with identical statistics.

    Each engine's time is its best of ``TIMING_ROUNDS`` interleaved runs,
    each on a fresh model, so one slow moment on a shared host cannot
    decide the ratio.
    """
    addrs, writes = _make_trace()
    t_ref = t_fast = float("inf")
    for _ in range(TIMING_ROUNDS):
        ref = ScalarCacheModel(CACHE, policy, seed=5)
        t0 = time.perf_counter()
        ref.access(addrs, writes)
        t_ref = min(t_ref, time.perf_counter() - t0)

        fast = CacheModel(CACHE, policy, seed=5)
        t0 = time.perf_counter()
        fast.access(addrs, writes)
        t_fast = min(t_fast, time.perf_counter() - t0)

        for f in ("accesses", "hits", "misses", "evictions",
                  "dirty_evictions"):
            assert getattr(fast.result, f) == getattr(ref.result, f), f
    speedup = t_ref / t_fast
    print(f"\n{policy.name}: scalar {TRACE_LEN / t_ref / 1e6:.2f} M/s, "
          f"vectorized {TRACE_LEN / t_fast / 1e6:.2f} M/s "
          f"({speedup:.1f}x, best of {TIMING_ROUNDS})")
    assert speedup >= SPEEDUP_FLOOR, \
        f"vectorized cache model only {speedup:.1f}x over scalar reference"
