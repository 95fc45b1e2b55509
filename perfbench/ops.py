"""The op sets of the four workloads, made from the seed.

Every op is a plain JSON-ready dict, so the harness can hand op sets to
child interpreters.  The seed is the simulation seed of every op and the
seed of every fault plan; the op *set* itself is fixed, so two seeds time
the same commands on different inputs.
"""

from __future__ import annotations

from typing import Dict, List

WORKLOADS = ("cli", "sim_warm", "faults", "sweep_cold")

#: The 14 kernels of the paper, in the registry's order.
KERNELS = ("pathfinder", "srad", "hotspot", "hotspot3D", "histogram",
           "scluster", "svm", "bfs_push", "pr_push", "sssp", "bfs_pull",
           "pr_pull", "bin_tree", "hash_join")
MODES = ("base", "inst", "single", "ns_core", "ns_no_comp", "ns",
         "ns_no_sync", "ns_decouple")

CLI_SCALE = 1.0 / 64.0
#: Kernels the cli figure and report commands cover: one reduction, one
#: SIMD stencil, one atomic graph kernel and one pointer chaser.
FIG_KERNELS = ("histogram", "srad", "bfs_push", "hash_join")
SIM_SCALE = 1.0 / 64.0
FAULT_SCALE = 1.0 / 256.0
SWEEP_SCALE = 1.0 / 256.0
#: The ``repro faults`` ladder without its 10000/M rung, which alone
#: would take longer than the whole rest of the op set.
FAULT_RATES = (10.0, 100.0, 1000.0)

SMOKE_SCALE = 1.0 / 256.0
#: The simulation scale of each workload, for the environment record.
SCALES = {"cli": CLI_SCALE, "sim_warm": SIM_SCALE, "faults": FAULT_SCALE,
          "sweep_cold": SWEEP_SCALE}


def _sim(workload: str, mode: str, mesh: int, scale: float, seed: int,
         rate: float = 0.0) -> Dict:
    op = {"id": f"{workload}/{mode}@{mesh}x{mesh}", "workload": workload,
          "mode": mode, "mesh": mesh, "scale": scale, "seed": seed}
    if rate:
        op["id"] += f"/{rate:g}perM"
        op["fault_rate"] = rate
    return op


def sim_warm_ops(seed: int, smoke: bool = False) -> List[Dict]:
    """All 8 modes on the 8x8 mesh, three modes on the paper's 32x32."""
    if smoke:
        return [_sim(w, m, 8, SMOKE_SCALE, seed)
                for w in ("histogram", "bfs_push") for m in ("base", "ns")] \
            + [_sim("histogram", "ns", 32, SMOKE_SCALE, seed)]
    return [_sim(w, m, 8, SIM_SCALE, seed) for w in KERNELS for m in MODES] \
        + [_sim(w, m, 32, SIM_SCALE, seed) for w in KERNELS
           for m in ("base", "ns", "ns_decouple")]


def faults_ops(seed: int, smoke: bool = False) -> List[Dict]:
    """NS under uniform fault plans at the ladder's rates."""
    if smoke:
        return [_sim("histogram", "ns", 8, SMOKE_SCALE, seed, rate)
                for rate in (10.0, 1000.0)]
    return [_sim(w, "ns", 8, FAULT_SCALE, seed, rate)
            for rate in FAULT_RATES for w in KERNELS]


def fill_ops(ops: List[Dict]) -> List[Dict]:
    """One fault-free op per distinct (workload, mesh, scale): running it
    stores the functional trace and stats bundle every op replays."""
    seen = {}
    for op in ops:
        key = (op["workload"], op["mesh"], op["scale"])
        if key not in seen:
            seen[key] = {k: op[k] for k in ("workload", "mesh", "scale",
                                            "seed")}
            seen[key].update(id=f"fill/{op['workload']}@{op['mesh']}",
                             mode="base")
    return list(seen.values())


def sweep_cold_ops(seed: int, smoke: bool = False) -> List[Dict]:
    """One functional group per op: the SE knobs Figs 13, 14 and 17 flip.

    Each op is one ``run_sweep`` call over every point of one (workload,
    config) pair, so each op builds, records and stores once.
    """
    def group(workload, knob, modes):
        label = ",".join(f"{k}={v}" for k, v in knob.items()) or "default"
        return {"id": f"{workload}[{label}]", "workload": workload,
                "knob": knob, "modes": list(modes),
                "scale": SMOKE_SCALE if smoke else SWEEP_SCALE,
                "seed": seed}

    if smoke:
        return [group("histogram", {}, ("base", "ns")),
                group("histogram", {"scm_issue_latency": 1}, ("ns",))]
    ops = []
    for w in KERNELS:
        ops.append(group(w, {}, MODES))
        for latency in (1, 8, 16):
            ops.append(group(w, {"scm_issue_latency": latency},
                             ("base", "ns", "ns_decouple")))
        for rob in (8, 16, 32):
            ops.append(group(w, {"scc_rob_entries": rob},
                             ("base", "ns_decouple")))
        ops.append(group(w, {"scalar_pe": False}, ("ns_decouple",)))
    return ops


def cli_ops(seed: int, smoke: bool = False) -> List[Dict]:
    """``python -m repro`` commands: cached lookups, simulations that
    replay or build in memory, and commands that simulate nothing.

    Scale is the CLI's default (1/64), as a user would type it.  The
    figure and report commands cover FIG_KERNELS only, so a set-up that
    fills the store stays short enough to repeat; figs 15 and 16 always
    run their own fixed kernel sets.
    """
    def cmd(*argv, sim=True):
        op = {"id": " ".join(argv), "argv": list(argv)}
        if sim:
            op["argv"] += ["--seed", str(seed)]
            if smoke:
                op["argv"] += ["--scale", repr(SMOKE_SCALE)]
        return op

    if smoke:
        return [cmd("list", sim=False), cmd("table", "5", sim=False),
                cmd("run", "histogram", "--cache"),
                cmd("profile", "histogram")]
    figs = ("--workloads", *FIG_KERNELS)
    return [
        cmd("list", sim=False),
        cmd("table", "5", sim=False),
        cmd("cache", "stats", sim=False),
        cmd("run", "bfs_push", "--cache"),
        cmd("run", "srad", "--mode", "base", "--cache"),
        cmd("run", "hash_join", "--mode", "ns_decouple", "--cache"),
        cmd("compare", "histogram", "--cache"),
        cmd("compare", "bfs_push", "--cache"),
        cmd("fig", "9", "--cache", *figs),
        cmd("fig", "11", "--cache", *figs),
        cmd("fig", "12", "--cache", *figs),
        cmd("fig", "15", "--cache"),
        cmd("fig", "16", "--cache"),
        cmd("fig", "17", "--cache", *figs),
        cmd("report", "--cache", *figs),
        cmd("run", "pathfinder"),
        cmd("run", "sssp", "--mode", "base"),
        cmd("profile", "bfs_pull"),
        cmd("profile", "hotspot", "--mode", "base"),
        cmd("profile", "svm", "--mode", "ns_decouple"),
    ]


def op_set(workload: str, seed: int, smoke: bool = False) -> List[Dict]:
    """The op set of one benchmark workload."""
    makers = {"cli": cli_ops, "sim_warm": sim_warm_ops,
              "faults": faults_ops, "sweep_cold": sweep_cold_ops}
    return makers[workload](seed, smoke)
