"""Near-Stream Computing (HPCA 2022) — full-system reproduction.

The public API in one import::

    from repro import run_workload, ExecMode, SystemConfig
    result = run_workload("bfs_push", ExecMode.NS)

See README.md for the architecture tour and DESIGN.md for the model's
fidelity contract.  Names resolve on first use (PEP 562), so importing
``repro`` or any of its subpackages loads no simulator code by itself.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SystemConfig": "repro.config.system",
    "ExecMode": "repro.offload.modes",
    "SimResult": "repro.sim.results",
    "run_workload": "repro.sim.run",
    "ideal_traffic": "repro.sim.ideal",
    "make_workload": "repro.workloads.base",
    "all_workload_names": "repro.workloads.base",
})
__all__ = __all__ + ["__version__"]
