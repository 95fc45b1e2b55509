"""The golden corpus: simulated results pinned point by point.

``corpus.json`` (next to this module) holds, for every point below, what
a traced run of that point produces:

* ``result`` — ``SimResult.to_dict()``;
* ``messages`` / ``byte_hops_by_type`` — the traffic ledger's per-type
  message counts and byte-hops, keyed by message type;
* ``trace`` — the strict sanitizing tracer's ``TraceMetrics.to_dict()``:
  counters (``sanitizer.checks`` included), histograms, event and track
  counts, violations.

The points are the 14 Table VI kernels under all 8 modes on the 8x8
OOO8 mesh and on the 16x16 paper mesh, plus one NS point per fault site
at a rate at which that site fires.  ``tests/golden/test_corpus.py``
recomputes every point in an isolated result store and compares with
``==``; it never writes the file.  Only ``make golden`` (this module's
``main``) rewrites it, after printing the per-point diff, so a change
that moves a result shows exactly which points and fields moved.

Regenerate::

    make golden
    REPRO_TRACE=1 PYTHONPATH=src python -m tests.golden.corpus
"""

from __future__ import annotations

import contextlib
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.fault.plan import FaultPlan, FaultSite
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads import WORKLOAD_NAMES

CORPUS_PATH = Path(__file__).with_name("corpus.json")

SCALE = 1.0 / 256.0
SEED = 42
SAMPLE_CORES = 4
FAULT_SEED = 1
MESHES = (8, 16)

#: One NS point per fault site, each at a rate at which its own site
#: fires (tlb_miss stays silent on every kernel below ~10000/M).
FAULT_SITES = (
    ("histogram", FaultSite.ALIAS, 1000.0),
    ("histogram", FaultSite.SCC_EVICT, 1000.0),
    ("bfs_push", FaultSite.LOCK_CONFLICT, 1000.0),
    ("pathfinder", FaultSite.TLB_MISS, 10000.0),
)


@dataclass(frozen=True)
class GoldenPoint:
    """One pinned simulation: workload, mode, mesh and fault site."""

    workload: str
    mode: ExecMode
    mesh: int
    site: Optional[FaultSite] = None
    rate: float = 0.0

    @property
    def key(self) -> str:
        key = f"{self.workload}/{self.mode.value}@{self.mesh}x{self.mesh}"
        if self.site is not None:
            key += f"/{self.site.value}={self.rate:g}perM"
        return key

    def config(self) -> SystemConfig:
        return (SystemConfig.ooo8() if self.mesh == 8
                else SystemConfig.paper_mesh(self.mesh))

    def fault_plan(self) -> Optional[FaultPlan]:
        if self.site is None:
            return None
        return FaultPlan(seed=FAULT_SEED,
                         **{f"{self.site.value}_rate": self.rate})


CLEAN_POINTS = tuple(GoldenPoint(workload, mode, mesh)
                     for workload in WORKLOAD_NAMES
                     for mesh in MESHES
                     for mode in ExecMode)
FAULT_POINTS = tuple(GoldenPoint(workload, ExecMode.NS, 8, site, rate)
                     for workload, site, rate in FAULT_SITES)
POINTS = CLEAN_POINTS + FAULT_POINTS

SETTINGS = {"scale": SCALE, "seed": SEED, "sample_cores": SAMPLE_CORES,
            "fault_seed": FAULT_SEED}


@contextlib.contextmanager
def isolated_store() -> Iterator[None]:
    """Point the process-wide result store at a fresh temporary
    directory, so no entry from an earlier run can answer a point."""
    previous = result_cache._default_cache
    with tempfile.TemporaryDirectory(prefix="golden-store-") as root:
        result_cache.set_default_cache(root)
        try:
            yield
        finally:
            result_cache._default_cache = previous


def measure(point: GoldenPoint) -> Dict[str, Any]:
    """Run one point traced and return its record, JSON-normalized."""
    result = run_workload(point.workload, point.mode,
                          config=point.config(), scale=SCALE, seed=SEED,
                          sample_cores=SAMPLE_CORES,
                          fault_plan=point.fault_plan())
    if result.trace is None:
        raise RuntimeError("golden points run traced: set REPRO_TRACE=1")
    record = {
        "result": result.to_dict(),
        "messages": {mtype.value: count for mtype, count
                     in result.traffic.messages.items()},
        "byte_hops_by_type": {mtype.value: value for mtype, value
                              in result.traffic.byte_hops_by_type.items()},
        "trace": result.trace.to_dict(),
    }
    # The round trip is what the file stores: floats survive it exactly
    # and a non-finite value fails here instead of writing ``NaN``.
    return json.loads(json.dumps(record, allow_nan=False))


def measure_all(points: Sequence[GoldenPoint] = POINTS
                ) -> Dict[str, Dict[str, Any]]:
    """Every point's record, in one isolated store."""
    with isolated_store():
        return {point.key: measure(point) for point in points}


def load() -> Dict[str, Any]:
    with open(CORPUS_PATH) as fh:
        return json.load(fh)


def dumps(points: Dict[str, Dict[str, Any]]) -> str:
    corpus = {"settings": SETTINGS, "points": points}
    return json.dumps(corpus, indent=1, sort_keys=True,
                      allow_nan=False) + "\n"


#: Stands in for a key one side lacks.
ABSENT = "<absent>"


def first_difference(expected: Any, got: Any, path: str = ""
                     ) -> Optional[Tuple[str, Any, Any]]:
    """The first field (keys in sorted order) where ``got`` differs from
    ``expected``, as ``(path, expected value, got value)``; None when
    the two are equal."""
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            found = first_difference(expected.get(key, ABSENT),
                                     got.get(key, ABSENT), f"{path}/{key}")
            if found is not None:
                return found
        return None
    if isinstance(expected, list) and isinstance(got, list) \
            and len(expected) == len(got):
        for index, (want, have) in enumerate(zip(expected, got)):
            found = first_difference(want, have, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    return None if expected == got else (path or "/", expected, got)


def describe_diff(expected: Dict[str, Dict[str, Any]],
                  got: Dict[str, Dict[str, Any]]) -> List[str]:
    """One line per point that differs: added, removed, or the first
    differing field with its old and new value."""
    lines = []
    for key in sorted(set(expected) | set(got)):
        if key not in got:
            lines.append(f"{key}: removed")
        elif key not in expected:
            lines.append(f"{key}: added")
        else:
            found = first_difference(expected[key], got[key])
            if found is not None:
                path, old, new = found
                lines.append(f"{key}: {path}: {old!r} -> {new!r}")
    return lines


def main() -> int:
    """Regenerate the corpus, print the per-point diff, then write it."""
    old = load()["points"] if CORPUS_PATH.exists() else {}
    new = measure_all()
    lines = describe_diff(old, new)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(new)} point(s) differ from {CORPUS_PATH}")
    text = dumps(new)
    if not CORPUS_PATH.exists() or CORPUS_PATH.read_text() != text:
        CORPUS_PATH.write_text(text)
        print(f"wrote {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
