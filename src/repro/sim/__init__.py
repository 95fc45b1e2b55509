"""Top-level simulator: machine construction and workload runs.

``run_workload(name, mode, config)`` is the main entry point::

    from repro.sim import run_workload
    from repro.offload import ExecMode
    result = run_workload("bfs_push", ExecMode.NS)
    print(result.cycles, result.traffic.breakdown())

The run pipeline per phase: compile the kernel -> decide stream placement
for the mode -> drive cache/TLB models with the real traces (sampled cores)
-> generate the exact message inventory into the NoC flow model -> run the
range-sync protocol episodes -> combine compute/memory/NoC/SE bounds into
cycles -> integrate energy.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SimResult": "repro.sim.results",
    "Placement": "repro.sim.placement",
    "StreamPlan": "repro.sim.placement",
    "plan_streams": "repro.sim.placement",
    "FunctionalTrace": "repro.sim.replay",
    "record_trace": "repro.sim.replay",
    "run_workload": "repro.sim.run",
    "ideal_traffic": "repro.sim.ideal",
})
