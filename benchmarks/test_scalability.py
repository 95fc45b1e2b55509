"""Extension: how the near-stream advantage scales with core count.

The paper's conclusion argues near-stream computing "can enable continued
performance scaling ... in future large-scale systems". This bench tests
that on 16-, 64- and 256-core meshes under weak scaling (the paper
evaluates 64 only). The measured finding: the relative advantage holds
steady across mesh sizes — both the baseline's fetches and NS's residual
messages cross the same growing network — while the absolute traffic and
energy savings grow with the machine.
"""

import pytest

from repro.config import SystemConfig
from repro.eval import format_table, geomean
from repro.offload import ExecMode
from repro.sim import run_workload

SUBSET = ("histogram", "bfs_push")


def test_ns_advantage_grows_with_the_mesh(sweep_config, benchmark):
    """Weak scaling: inputs grow with the machine so per-core work stays
    constant; what changes is the network diameter and bisection pressure
    the baseline must cross."""
    def sweep():
        out = {}
        for cores in (16, 64, 256):
            config = SystemConfig.ooo8(cores=cores)
            scale = min(sweep_config.scale * cores / 64.0, 1.0)
            speedups = []
            for name in SUBSET:
                base = run_workload(name, ExecMode.BASE, config=config,
                                    scale=scale)
                ns = run_workload(name, ExecMode.NS, config=config,
                                  scale=scale)
                speedups.append(ns.speedup_over(base))
            out[cores] = geomean(speedups)
        return out

    result = benchmark(sweep)
    rows = [[f"{cores} cores", speedup]
            for cores, speedup in result.items()]
    print("\n" + format_table(["mesh", "NS speedup (geomean)"], rows,
                              "Extension: NS advantage vs machine size "
                              "(weak scaling)"))
    # Finding: the advantage is scale-ROBUST rather than growing — NS's
    # own messages (operand forwards, indirect requests) cross the same
    # growing mesh as the baseline's fetches, so the ratio holds steady
    # while absolute traffic savings grow with the machine.
    assert all(v > 1.5 for v in result.values()), \
        "NS must win substantially at every machine size"
    assert result[256] > 0.8 * result[16], \
        "the near-data advantage must survive mesh growth"


def test_traffic_reduction_is_scale_robust(sweep_config, benchmark):
    def sweep():
        out = {}
        for cores in (16, 256):
            config = SystemConfig.ooo8(cores=cores)
            base = run_workload("bfs_push", ExecMode.BASE, config=config,
                                scale=sweep_config.scale)
            ns = run_workload("bfs_push", ExecMode.NS, config=config,
                              scale=sweep_config.scale)
            out[cores] = ns.traffic_reduction_vs(base)
        return out

    result = benchmark(sweep)
    print(f"\nbfs_push traffic reduction: "
          + "  ".join(f"{c} cores: {v:.0%}" for c, v in result.items()))
    assert all(v > 0.4 for v in result.values())
