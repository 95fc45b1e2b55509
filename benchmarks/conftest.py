"""Shared benchmark configuration.

``REPRO_SCALE`` (env var) overrides the input shrink factor — 1/64 of the
paper's sizes by default. Sensitivity sweeps (Figs 13/14/16/17) run many
simulations, so they use representative workload subsets and a smaller
scale; the headline benches (Figs 9-12) run all 14 workloads.

``REPRO_BENCH_LOG`` (env var) names an append-only JSON-lines file (e.g.
``BENCH_PR2.json``); when set, perf benchmarks record machine-readable
results there via the ``bench_log`` fixture, building the perf
trajectory across PRs.
"""

import os
import sys
from pathlib import Path

import pytest

# The perf benches time the runtime models against the scalar oracles
# in tests/oracles, which import as ``tests.oracles``.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.eval import EvalConfig
from repro.eval.benchlog import append_record

DEFAULT_SCALE = 1.0 / 64.0
SWEEP_SCALE = 1.0 / 128.0


def _scale(default: float) -> float:
    value = os.environ.get("REPRO_SCALE")
    return float(value) if value else default


@pytest.fixture
def bench_log():
    """Append one record to ``$REPRO_BENCH_LOG`` (no-op when unset).

    Usage: ``bench_log("benchmark", name=..., lines_per_sec=..., ...)``.
    """
    def _log(kind: str, **fields):
        fields.setdefault("scale", _scale(DEFAULT_SCALE))
        return append_record(kind, **fields)
    return _log


@pytest.fixture(scope="session")
def eval_config() -> EvalConfig:
    """Full 14-workload configuration for the headline results."""
    return EvalConfig(scale=_scale(DEFAULT_SCALE))


@pytest.fixture(scope="session")
def sweep_config() -> EvalConfig:
    """Reduced configuration for parameter sweeps."""
    return EvalConfig(scale=_scale(SWEEP_SCALE))
