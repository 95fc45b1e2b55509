"""Per-op statistics: fastest-of-rounds latencies at a reference speed.

The host runs in phases and short bursts (see README.md).  Two things
keep the figures steady:

* every op is timed once per round, rounds go round-robin over the
  whole op set, and an op's latency is its fastest time over the
  rounds, so a burst that hits one op in one round drops out;
* a calibration slice (``HostClock``, which runs no repro code) is
  timed before every op, and each round's times are scaled by
  ``REF_HOST_MS / HostClock.round_ms()``.  Phases that last longer than
  an op slow the slices and the ops alike, so the scaled times read as
  if the host had run at its reference speed throughout.

Throughput and percentiles are taken over the scaled fastest times.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Iterable, List, Sequence

#: Fewest timed rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3


def more_rounds(done: int, started: float, seconds: float) -> bool:
    """Whether to time another round: at least MIN_ROUNDS, and until
    ``seconds`` of timed rounds have passed."""
    return done < MIN_ROUNDS or time.monotonic() - started < seconds


def fastest(rounds: Iterable[Sequence[float]]) -> List[float]:
    """Each op's fastest time over the rounds (rounds x ops in, ops out)."""
    return [min(times) for times in zip(*rounds)]


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100), linearly interpolated between ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(op_seconds: Sequence[float]) -> Dict[str, float]:
    """Throughput and latency percentiles over per-op fastest times."""
    return {"ops_per_s": len(op_seconds) / sum(op_seconds),
            "op_p50_ms": statistics.median(op_seconds) * 1e3,
            "op_p90_ms": percentile(op_seconds, 90.0) * 1e3}


#: Iterations of the pure-Python half of a calibration slice.
SLICE_N = 15_000
#: Items of the numpy half's buffer: 8 MB of int64, larger than the
#: 2 MiB per-core L2 of the reference host (a 2-vCPU Xeon VM), so
#: gathers over it feel contention for the shared L3 and memory.
BUFFER_ITEMS = 1 << 20
GATHER_N = 50_000
#: Host time, in ms, that scaled times are expressed at: a round's
#: ``HostClock.round_ms()`` in a fast phase of the reference host.
REF_HOST_MS = 1.25


class HostClock:
    """Calibration slices timed between ops; they run no repro code.

    A slice is a pure-Python loop (interpreter speed) plus a numpy
    gather over a buffer bigger than L2 (cache and memory contention).
    The two halves together follow the host's phases better than either
    alone.  The buffer stays resident for the life of the process, so
    its size is known exactly (``resident_mb``).
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._buffer = rng.integers(0, 1 << 30, BUFFER_ITEMS)
        self._index = rng.integers(0, BUFFER_ITEMS, GATHER_N)
        self._py: List[float] = []
        self._mem: List[float] = []

    @property
    def resident_mb(self) -> float:
        return (self._buffer.nbytes + self._index.nbytes) / 2 ** 20

    def tick(self) -> None:
        """Time one slice."""
        start = time.perf_counter()
        acc = 0
        for i in range(SLICE_N):
            acc += i * i % 7
        mid = time.perf_counter()
        self._buffer.take(self._index).sum()
        end = time.perf_counter()
        self._py.append((mid - start) * 1e3)
        self._mem.append((end - mid) * 1e3)

    def round_ms(self) -> float:
        """Host time of the slices since the last call: the 10th
        percentile of each half, which skips slices a burst hit but
        follows a phase."""
        host = percentile(self._py, 10.0) + percentile(self._mem, 10.0)
        self._py, self._mem = [], []
        return host

    def measure(self, slices: int) -> float:
        for _ in range(slices):
            self.tick()
        return self.round_ms()


def scaled(rounds: Sequence[Dict]) -> List[List[float]]:
    """Each round's op seconds at the reference host speed."""
    return [[t * REF_HOST_MS / r["host_ms"] for t in r["times"]]
            for r in rounds]
