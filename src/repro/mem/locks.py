"""Line locks for indirect atomics: exclusive vs MRSW (§IV-C, Fig 16).

To guarantee atomicity of offloaded atomics, the target cache line is locked
in the L3 and concurrent accesses are blocked. The paper observes that many
atomics do not change the value (failed compare-exchange in bfs, non-improving
min in sssp) and can be served concurrently by a hardware multi-reader
single-writer (MRSW) lock, which "eliminates on average 97% of the contention
... and reduces the conflict rate to 0.6%".

The model takes the *actual* atomic trace of a workload — target line per
operation plus a per-operation "modified the value" flag produced by the
functional execution — and computes contention within in-flight windows (the
set of atomics concurrently outstanding across the machine).

Atomics from the same stream are ordered by the SE_L3 and never self-conflict
(§IV-C), which callers express by passing per-stream (per-core) windows.
"""

from __future__ import annotations

from collections import Counter as PyCounter
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class LockKind(Enum):
    """Exclusive line lock vs multi-reader/single-writer (§IV-C)."""

    EXCLUSIVE = "exclusive"
    MRSW = "mrsw"


@dataclass
class LockStats:
    """Contention outcome for one atomic trace.

    ``max_line_serial`` is the longest per-line chain of serializing
    operations over the whole trace — the critical path a single hot line
    (a power-law graph hub) imposes regardless of how many banks exist.
    """

    operations: int = 0
    contended: int = 0        # ops that found the line locked (blocked)
    conflicts: int = 0        # ops that had to serialize (block others too)
    # Longest per-line serializing chain, in units of full lock holds:
    # value-modifying operations count 1, fail-fast checks (a failed CAS
    # releases the exclusive lock after the compare) count a small
    # fraction.
    max_line_serial: float = 0.0

    @property
    def contention_rate(self) -> float:
        return self.contended / self.operations if self.operations else 0.0

    @property
    def conflict_rate(self) -> float:
        return self.conflicts / self.operations if self.operations else 0.0

    def merged_with(self, other: "LockStats") -> "LockStats":
        return LockStats(self.operations + other.operations,
                         self.contended + other.contended,
                         self.conflicts + other.conflicts,
                         max(self.max_line_serial, other.max_line_serial))

    def with_injected_conflicts(self, n: int) -> "LockStats":
        """A copy with ``n`` injected lock-acquire conflicts.

        Each injected conflict blocks its acquirer (contended), forces a
        serialization (conflicts), and extends the hot line's serial chain
        by one full hold — the deterministic degradation the fault layer
        charges for adversarial MRSW contention.  Contended/conflict counts
        never exceed the operation count.
        """
        if n <= 0:
            return self
        return LockStats(
            operations=self.operations,
            contended=min(self.contended + n, self.operations),
            conflicts=min(self.conflicts + n, self.operations),
            max_line_serial=self.max_line_serial + n,
        )


@dataclass
class LockAnalysis:
    """A memoized :meth:`LockModel.analyze` outcome.

    Lock contention is pure in (lock kind, window, lines, modifies,
    stream ids) — all derived from the trace and the SystemConfig — so
    one stream's analysis can ride along on its
    :class:`~repro.sim.tracestats.StreamStats` and in the stream
    geometry stored with the functional trace.  ``kind``/``window`` tag
    the parameters the result was computed under; consumers must
    recompute on any mismatch.
    """

    kind: str
    window: int
    result: LockStats


class LockModel:
    """Window-based contention analysis over an atomic trace."""

    def __init__(self, kind: LockKind, window: int) -> None:
        """``window``: number of atomics concurrently in flight machine-wide.

        A natural choice is #cores x per-core atomic MLP; the top-level
        simulator derives it from credits in flight.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        self.kind = kind
        self.window = window

    def analyze(self, lines: np.ndarray, modifies: np.ndarray,
                same_stream: np.ndarray = None) -> LockStats:
        """Compute contention for a trace of atomic operations.

        Args:
            lines: target cache line of each atomic (machine order).
            modifies: whether each atomic changed the stored value.
            same_stream: stream id per op; ops sharing a stream never
                conflict with each other (ordered by their SE_L3).
        """
        # numpy loads here, not with the module: a stored SimResult names
        # LockStats, and a cached lookup needs no numpy (DESIGN.md §5i).
        import numpy as np
        lines = np.asarray(lines, dtype=np.int64)
        modifies = np.asarray(modifies, dtype=bool)
        if len(lines) != len(modifies):
            raise ValueError("lines/modifies length mismatch")
        if same_stream is None:
            same_stream = np.zeros(len(lines), dtype=np.int64)
        else:
            same_stream = np.asarray(same_stream, dtype=np.int64)
        stats = LockStats(operations=len(lines))
        if len(lines):
            self._analyze_windows(lines, modifies, same_stream, stats)
        self._line_serial_chains(lines, modifies, stats)
        return stats

    def _analyze_windows(self, lines: np.ndarray, modifies: np.ndarray,
                         streams: np.ndarray, stats: LockStats) -> None:
        """All windows at once with argsort/reduceat segment operations.

        Each op belongs to window ``i // window``; within a window, ops on
        the same line form a group and each group's same-stream runs form
        contiguous sub-segments — so per-group op counts, distinct stream
        counts and modifying-op counts all fall out of boundary flags and
        ``np.add.reduceat``.

        Windows are already contiguous blocks of the trace, so instead of
        lexsorting the full trace by (window, line, stream) we sort a
        combined ``line * n_streams + stream`` key *within* each window
        row — an axis-1 argsort over ``window``-wide rows, ~5x cheaper
        than the equivalent whole-trace lexsort. The lexsort path is kept
        for line ids too large to pack into the combined key.
        """
        import numpy as np
        n = len(lines)
        smax = int(streams.max()) + 1
        if (int(lines.min()) >= 0 and int(streams.min()) >= 0
                and int(lines.max()) < (2**62) // smax):
            key = lines * smax + streams
            pad = (-n) % self.window
            if pad:
                sentinel = np.iinfo(np.int64).max
                key = np.concatenate(
                    (key, np.full(pad, sentinel, dtype=np.int64)))
                m_pad = np.concatenate((modifies, np.zeros(pad, dtype=bool)))
            else:
                m_pad = modifies
            rows = key.reshape(-1, self.window)
            order = np.argsort(rows, axis=1, kind="stable")
            k_s = np.take_along_axis(rows, order, axis=1).ravel()
            m_s = np.take_along_axis(
                m_pad.reshape(-1, self.window), order, axis=1).ravel()
            l_s = k_s // smax
            total = len(k_s)

            # A group boundary is a line change; a run boundary is any key
            # change (same line, new stream). Window starts begin both.
            new_group = np.empty(total, dtype=bool)
            new_group[0] = True
            np.not_equal(l_s[1:], l_s[:-1], out=new_group[1:])
            new_run = np.empty(total, dtype=bool)
            new_run[0] = True
            np.not_equal(k_s[1:], k_s[:-1], out=new_run[1:])
            new_group[::self.window] = True
            new_run[::self.window] = True
            # Padding sorts last in the final window and forms a single
            # sentinel group with one run -> never eligible below.
            n = total
        else:
            win = np.arange(n, dtype=np.int64) // self.window
            order = np.lexsort((streams, lines, win))
            l_s = lines[order]
            s_s = streams[order]
            m_s = modifies[order]
            w_s = win[order]

            new_group = np.empty(n, dtype=bool)
            new_group[0] = True
            np.logical_or(w_s[1:] != w_s[:-1], l_s[1:] != l_s[:-1],
                          out=new_group[1:])
            new_run = new_group.copy()
            new_run[1:] |= s_s[1:] != s_s[:-1]

        group_starts = np.flatnonzero(new_group)
        counts = np.diff(np.append(group_starts, n))
        distinct = np.add.reduceat(new_run.astype(np.int64), group_starts)
        modifying = np.add.reduceat(m_s.astype(np.int64), group_starts)

        elig = (counts >= 2) & (distinct >= 2)
        if self.kind is LockKind.EXCLUSIVE:
            # Every op after the first finds the line locked.
            blocked = int((counts[elig] - 1).sum())
            stats.contended += blocked
            stats.conflicts += blocked
            return
        # MRSW: non-modifying ops share the lock; each modifying op
        # blocks everyone else in the window once.
        elig &= modifying >= 1
        cnt = counts[elig]
        mod = modifying[elig]
        stats.contended += int(np.minimum(mod, cnt - 1).sum())
        stats.conflicts += int((np.maximum(mod - 1, 0)
                                + (mod < cnt)).sum())

    def _line_serial_chains(self, lines: np.ndarray, modifies: np.ndarray,
                            stats: LockStats) -> None:
        """Whole-trace per-line serialization: a hot line's updates must
        apply one after another no matter the window. Under MRSW only
        value-modifying operations serialize; exclusive locks serialize
        every operation on a contended line."""
        import numpy as np
        if len(lines) == 0:
            return
        # Failed operations release the exclusive lock after a quick
        # compare (fail-fast); they pipeline at the bank at a small
        # fraction of a full hold. MRSW serves them fully concurrently.
        weights = np.where(modifies, 1.0, 0.0 if self.kind is LockKind.MRSW
                           else 0.06)
        if not weights.any():
            return
        lo = int(lines.min())
        hi = int(lines.max())
        if lo >= 0 and hi < 8 * len(lines) + 1024:
            # Dense line ids: one bincount pass. Per-line accumulation
            # happens in trace order, the same order the stable-argsort
            # path sums in, so the float result is bit-identical.
            sums = np.bincount(lines, weights=weights)
            stats.max_line_serial = float(sums.max())
            return
        order = np.argsort(lines, kind="stable")
        sorted_lines = lines[order]
        sorted_w = weights[order]
        boundaries = np.concatenate(
            ([0], np.nonzero(sorted_lines[1:] != sorted_lines[:-1])[0] + 1,
             [len(sorted_lines)]))
        sums = np.add.reduceat(sorted_w, boundaries[:-1])
        stats.max_line_serial = float(sums.max())


def contention_eliminated(exclusive: LockStats, mrsw: LockStats) -> float:
    """Fraction of exclusive-lock contention that MRSW removes (paper: ~97%)."""
    if exclusive.contended == 0:
        return 0.0
    return 1.0 - mrsw.contended / exclusive.contended
