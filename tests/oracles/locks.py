"""Dict-of-lists oracle for :meth:`repro.mem.locks.LockModel.analyze`."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.mem.locks import LockKind, LockModel, LockStats


def analyze_reference(model: LockModel, lines: np.ndarray,
                      modifies: np.ndarray,
                      same_stream: np.ndarray = None) -> LockStats:
    """``model.analyze`` one window at a time; the vectorized path must
    produce identical :class:`LockStats`."""
    lines = np.asarray(lines, dtype=np.int64)
    modifies = np.asarray(modifies, dtype=bool)
    if len(lines) != len(modifies):
        raise ValueError("lines/modifies length mismatch")
    if same_stream is None:
        same_stream = np.zeros(len(lines), dtype=np.int64)
    else:
        same_stream = np.asarray(same_stream, dtype=np.int64)
    stats = LockStats(operations=len(lines))
    for start in range(0, len(lines), model.window):
        end = min(start + model.window, len(lines))
        _analyze_window(model.kind, lines[start:end], modifies[start:end],
                        same_stream[start:end], stats)
    model._line_serial_chains(lines, modifies, stats)
    return stats


def _analyze_window(kind: LockKind, lines: np.ndarray, modifies: np.ndarray,
                    streams: np.ndarray, stats: LockStats) -> None:
    # Group window ops by line; ops on distinct lines never interact.
    by_line: Dict[int, list] = {}
    for line, mod, stream in zip(lines.tolist(), modifies.tolist(),
                                 streams.tolist()):
        by_line.setdefault(line, []).append((mod, stream))
    for ops in by_line.values():
        if len(ops) < 2:
            continue
        distinct_streams = {s for _, s in ops}
        if len(distinct_streams) < 2:
            continue  # same-stream atomics are ordered, never conflict
        if kind is LockKind.EXCLUSIVE:
            # Every op after the first finds the line locked.
            stats.contended += len(ops) - 1
            stats.conflicts += len(ops) - 1
            continue
        # MRSW: non-modifying ops share the lock; each modifying op
        # blocks everyone else in the window once.
        modifying = sum(1 for mod, _ in ops if mod)
        if modifying == 0:
            continue  # all readers, fully concurrent
        blocked = min(modifying, len(ops) - 1)
        stats.contended += blocked
        stats.conflicts += max(modifying - 1, 0) + (
            1 if modifying < len(ops) else 0)
