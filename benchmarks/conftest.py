"""Shared benchmark configuration.

``REPRO_SCALE`` (env var) overrides the input shrink factor — 1/64 of the
paper's sizes by default. Sensitivity sweeps (Figs 13/14/16/17) run many
simulations, so they use representative workload subsets and a smaller
scale; the headline benches (Figs 9-12) run all 14 workloads.
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

DEFAULT_SCALE = 1.0 / 64.0
SWEEP_SCALE = 1.0 / 128.0


def _scale(default: float) -> float:
    value = os.environ.get("REPRO_SCALE")
    return float(value) if value else default


@pytest.fixture(scope="session")
def eval_config() -> EvalConfig:
    """Full 14-workload configuration for the headline results."""
    return EvalConfig(scale=_scale(DEFAULT_SCALE))


@pytest.fixture(scope="session")
def sweep_config() -> EvalConfig:
    """Reduced configuration for parameter sweeps."""
    return EvalConfig(scale=_scale(SWEEP_SCALE))
