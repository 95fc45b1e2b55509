"""Exclusive vs MRSW line-lock contention analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.locks import (
    LockKind,
    LockModel,
    LockStats,
    contention_eliminated,
)
from tests.oracles.locks import analyze_reference


def analyze(kind, lines, modifies, streams=None, window=8):
    return LockModel(kind, window).analyze(
        np.array(lines), np.array(modifies, dtype=bool),
        np.array(streams) if streams is not None else None)


def test_disjoint_lines_never_contend():
    stats = analyze(LockKind.EXCLUSIVE, [1, 2, 3, 4],
                    [True] * 4, streams=[0, 1, 2, 3])
    assert stats.contended == 0
    assert stats.conflicts == 0


def test_exclusive_same_line_contends():
    stats = analyze(LockKind.EXCLUSIVE, [7, 7, 7], [False, False, False],
                    streams=[0, 1, 2])
    assert stats.contended == 2


def test_mrsw_readers_share():
    stats = analyze(LockKind.MRSW, [7, 7, 7], [False, False, False],
                    streams=[0, 1, 2])
    assert stats.contended == 0
    assert stats.conflicts == 0


def test_mrsw_writer_blocks():
    stats = analyze(LockKind.MRSW, [7, 7, 7], [True, False, False],
                    streams=[0, 1, 2])
    assert stats.contended > 0


def test_same_stream_atomics_never_conflict():
    stats = analyze(LockKind.EXCLUSIVE, [7] * 5, [True] * 5,
                    streams=[3] * 5)
    assert stats.contended == 0


def test_window_separates_far_apart_ops():
    lines = [7] + [1, 2, 3, 4, 5, 6, 8] + [7]   # the two 7s in
    modifies = [False] * 9                       # different windows
    stats = analyze(LockKind.EXCLUSIVE, lines, modifies,
                    streams=list(range(9)), window=8)
    assert stats.contended == 0


def test_max_line_serial_tracks_hot_line():
    lines = [9] * 10 + [1, 2, 3]
    stats = analyze(LockKind.EXCLUSIVE, lines, [True] * 13,
                    streams=list(range(13)))
    assert stats.max_line_serial == pytest.approx(10.0)


def test_mrsw_serial_chain_counts_only_modifying():
    lines = [9] * 10
    modifies = [True] * 2 + [False] * 8
    excl = analyze(LockKind.EXCLUSIVE, lines, modifies,
                   streams=list(range(10)))
    mrsw = analyze(LockKind.MRSW, lines, modifies, streams=list(range(10)))
    assert mrsw.max_line_serial == pytest.approx(2.0)
    assert excl.max_line_serial > mrsw.max_line_serial


def test_contention_eliminated_metric():
    excl = LockStats(operations=100, contended=50, conflicts=50)
    mrsw = LockStats(operations=100, contended=2, conflicts=2)
    assert contention_eliminated(excl, mrsw) == pytest.approx(0.96)
    assert contention_eliminated(LockStats(), LockStats()) == 0.0


def test_merged_with():
    a = LockStats(10, 2, 1, 5.0)
    b = LockStats(20, 3, 2, 7.0)
    merged = a.merged_with(b)
    assert merged.operations == 30
    assert merged.contended == 5
    assert merged.max_line_serial == 7.0


def test_bad_inputs():
    with pytest.raises(ValueError):
        LockModel(LockKind.MRSW, 0)
    with pytest.raises(ValueError):
        LockModel(LockKind.MRSW, 8).analyze(np.array([1, 2]),
                                            np.array([True]))


KINDS = [LockKind.EXCLUSIVE, LockKind.MRSW]


def _assert_stats_equal(fast, ref, context):
    assert (fast.operations, fast.contended, fast.conflicts,
            fast.max_line_serial) == (ref.operations, ref.contended,
                                      ref.conflicts,
                                      ref.max_line_serial), context


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10), st.booleans(),
                          st.integers(0, 3)),
                min_size=1, max_size=200),
       st.integers(1, 12))
def test_vectorized_matches_reference(kind, ops, window):
    """analyze (segment ops) == the per-window oracle loop."""
    lines = np.array([o[0] for o in ops])
    modifies = np.array([o[1] for o in ops], dtype=bool)
    streams = np.array([o[2] for o in ops])
    model = LockModel(kind, window)
    _assert_stats_equal(model.analyze(lines, modifies, streams),
                        analyze_reference(model, lines, modifies, streams),
                        (kind, window, ops))


@pytest.mark.parametrize("kind", KINDS)
def test_vectorized_matches_reference_randomized(kind):
    """Larger random traces, many window sizes, default streams."""
    rng = np.random.default_rng(5)
    for trial in range(15):
        n = int(rng.integers(1, 4000))
        window = int(rng.integers(1, 300))
        lines = rng.integers(0, max(2, n // 8), size=n).astype(np.int64)
        modifies = rng.random(n) < rng.random()
        streams = (rng.integers(0, int(rng.integers(1, 80)), size=n)
                   if trial % 3 else None)
        model = LockModel(kind, window)
        _assert_stats_equal(
            model.analyze(lines, modifies, streams),
            analyze_reference(model, lines, modifies, streams),
            (kind, trial, n, window))


@pytest.mark.parametrize("kind", KINDS)
def test_vectorized_matches_reference_huge_line_ids(kind):
    """Line ids too large for the packed per-window key take the lexsort
    fallback; results must still match the reference exactly."""
    rng = np.random.default_rng(7)
    n = 2000
    lines = rng.integers(0, 2**61, size=n).astype(np.int64)
    lines[::7] = lines[0]  # force some sharing
    modifies = rng.random(n) < 0.3
    streams = rng.integers(0, 16, size=n)
    model = LockModel(kind, window=64)
    _assert_stats_equal(model.analyze(lines, modifies, streams),
                        analyze_reference(model, lines, modifies, streams),
                        kind)


def test_bfs_push_mrsw_eliminates_most_contention():
    """Fig 16's headline: MRSW removes ~97% of bfs_push's exclusive-lock
    contention (the failed-CAS atomics are non-modifying). Reduced scale
    lands in the mid-90s, approaching 97% as scale grows."""
    from repro.eval import EvalConfig
    from repro.eval.experiments import fig16_lock_types
    row = fig16_lock_types(EvalConfig(scale=1.0 / 256.0),
                           workloads=("bfs_push",))["bfs_push"]
    assert 0.90 <= row["contention_eliminated"] <= 1.0
    assert row["mrsw_conflict_rate"] < 0.10
    assert row["ns_mrsw_speedup"] > 1.0


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 10), st.booleans(),
                          st.integers(0, 3)),
                min_size=1, max_size=200))
def test_mrsw_never_worse_than_exclusive(ops):
    lines = [o[0] for o in ops]
    modifies = [o[1] for o in ops]
    streams = [o[2] for o in ops]
    excl = analyze(LockKind.EXCLUSIVE, lines, modifies, streams)
    mrsw = analyze(LockKind.MRSW, lines, modifies, streams)
    assert mrsw.contended <= excl.contended
    assert mrsw.max_line_serial <= excl.max_line_serial + 1e-9
    assert excl.operations == mrsw.operations == len(ops)
