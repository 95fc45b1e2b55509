"""Batched hierarchy walk and vectorized lock analysis throughput.

The two remaining `sample_caches`/`analyze_locks` hot paths after the
batched-walk PR. Each benchmark records lines (or ops) per second into
``$REPRO_BENCH_LOG`` and asserts a healthy speedup over the scalar
oracle (``tests/oracles``) with exact equivalence on the same trace —
the perf claim and the correctness claim in one place.
"""

import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.mem.hierarchy import HierarchyModel, SharedL3Model
from repro.mem.locks import LockKind, LockModel
from tests.oracles.hierarchy import access_element
from tests.oracles.locks import analyze_reference

TRACE_LEN = 200_000
# The L2 stream keeps the scalar engine (BRRIP draw order must match
# access_one exactly), so the walk win saturates near 3x on mixed traces;
# floors set with CI headroom below the measured 2.9-3.0x / 2.0-2.4x.
WALK_SPEEDUP_FLOOR = 2.0
# The per-window reference amortizes its Python cost well at window=256,
# so the honest vectorization win on this microtrace is ~2x (it grows as
# windows shrink); floor set with CI headroom.
LOCK_SPEEDUP_FLOOR = 1.5


def _walk_trace(seed=9, n=TRACE_LEN):
    """Mixed streaming/irregular line trace with writes and skip_l1 runs."""
    rng = np.random.default_rng(seed)
    nlines = 200_000
    parts, total = [], 0
    while total < n:
        if rng.random() < 0.6:
            start = int(rng.integers(0, nlines))
            parts.append((start + np.arange(64) // 8) % nlines)
            total += 64
        else:
            parts.append(rng.integers(0, nlines, size=16))
            total += 16
    lines = np.concatenate(parts)[:n].astype(np.int64)
    writes = rng.random(n) < 0.3
    skip = rng.random(n) < 0.2
    return lines, writes, skip


def test_hierarchy_walk_throughput(benchmark, bench_log):
    lines, writes, skip = _walk_trace()
    config = SystemConfig.ooo8()

    def run():
        hier = HierarchyModel(config, SharedL3Model(config), core_id=0)
        return hier.walk_elements(lines, writes, skip)

    benchmark(run)
    if benchmark.stats is not None:
        lines_per_sec = TRACE_LEN / benchmark.stats.stats.mean
        benchmark.extra_info["lines_per_sec"] = round(lines_per_sec)
        bench_log("benchmark", name="hierarchy_walk_throughput",
                  lines_per_sec=round(lines_per_sec))
        print(f"\nwalk: {lines_per_sec / 1e6:.2f} M lines/s")


def test_walk_speedup_over_scalar():
    """Batched walk beats the element loop with identical levels/state."""
    lines, writes, skip = _walk_trace(n=60_000)
    config = SystemConfig.ooo8()

    ref_hier = HierarchyModel(config, SharedL3Model(config), core_id=0)
    t0 = time.perf_counter()
    ref = [access_element(ref_hier, int(l), bool(w), bool(s))
           for l, w, s in zip(lines, writes, skip)]
    t_ref = time.perf_counter() - t0

    fast_hier = HierarchyModel(config, SharedL3Model(config), core_id=0)
    t0 = time.perf_counter()
    levels = fast_hier.walk_elements(lines, writes, skip)
    t_fast = time.perf_counter() - t0

    assert [HierarchyModel.LEVELS[v] for v in levels.tolist()] == ref
    speedup = t_ref / t_fast
    print(f"\nwalk speedup: {speedup:.1f}x "
          f"({t_ref * 1e3:.0f} ms -> {t_fast * 1e3:.0f} ms)")
    assert speedup >= WALK_SPEEDUP_FLOOR


@pytest.mark.parametrize("kind", [LockKind.EXCLUSIVE, LockKind.MRSW])
def test_lock_analysis_throughput(benchmark, kind, bench_log):
    rng = np.random.default_rng(4)
    n = TRACE_LEN
    lines = rng.integers(0, n // 16, size=n).astype(np.int64)
    modifies = rng.random(n) < 0.25
    streams = rng.integers(0, 64, size=n)
    model = LockModel(kind, window=256)

    benchmark(lambda: model.analyze(lines, modifies, streams))
    if benchmark.stats is not None:
        ops_per_sec = n / benchmark.stats.stats.mean
        benchmark.extra_info["ops_per_sec"] = round(ops_per_sec)
        benchmark.extra_info["kind"] = kind.name
        bench_log("benchmark", name="lock_analysis_throughput",
                  lock_kind=kind.name, ops_per_sec=round(ops_per_sec))
        print(f"\n{kind.name}: {ops_per_sec / 1e6:.2f} M ops/s")


@pytest.mark.parametrize("kind", [LockKind.EXCLUSIVE, LockKind.MRSW])
def test_lock_speedup_over_reference(kind):
    rng = np.random.default_rng(4)
    n = 300_000
    lines = rng.integers(0, n // 16, size=n).astype(np.int64)
    modifies = rng.random(n) < 0.25
    streams = rng.integers(0, 64, size=n)
    model = LockModel(kind, window=256)

    t0 = time.perf_counter()
    ref = analyze_reference(model, lines, modifies, streams)
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = model.analyze(lines, modifies, streams)
    t_fast = time.perf_counter() - t0

    assert (fast.operations, fast.contended, fast.conflicts,
            fast.max_line_serial) == (ref.operations, ref.contended,
                                      ref.conflicts, ref.max_line_serial)
    speedup = t_ref / t_fast
    print(f"\n{kind.name} lock speedup: {speedup:.1f}x")
    assert speedup >= LOCK_SPEEDUP_FLOOR
