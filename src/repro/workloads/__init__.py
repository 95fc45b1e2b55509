"""The 14 evaluated workloads (Table VI).

Rodinia (regular/affine): pathfinder, srad, hotspot, hotspot3D.
Data mining: histogram, scluster (streamcluster), svm.
GAP graph suite (irregular): bfs_push, pr_push, sssp, bfs_pull, pr_pull.
Pointer chasing: bin_tree, hash_join.

Each workload generates real input data (including Kronecker graphs per the
paper's A/B/C = 0.57/0.19/0.19 parameters), executes functionally in numpy
(results are verified against independent references in the tests), and
emits the exact per-stream address traces the simulator's cache/NoC models
consume. ``scale`` shrinks the paper's input sizes (default 1/64) so runs
complete in seconds; the benchmark harness reports the scale used.

The kernel modules register themselves on the registry's first use
(:func:`~repro.workloads.base.make_workload` and friends), not when this
package or one of its submodules is imported, so the name table below
and the stored-trace helpers load no kernel code.
"""

from repro._lazy import lazy_exports

#: The evaluated workloads in Table VI order: what
#: ``all_workload_names()`` returns once the kernels have registered,
#: readable without loading them (or numpy).
WORKLOAD_NAMES = ("pathfinder", "srad", "hotspot", "hotspot3D", "histogram",
                  "scluster", "svm", "bfs_push", "pr_push", "sssp",
                  "bfs_pull", "pr_pull", "bin_tree", "hash_join")

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Workload": "repro.workloads.base",
    "Phase": "repro.workloads.base",
    "StreamTraceData": "repro.workloads.base",
    "DEFAULT_SCALE": "repro.workloads.base",
    "make_workload": "repro.workloads.base",
    "register_workload": "repro.workloads.base",
    "all_workload_names": "repro.workloads.base",
    "workload_requirements": "repro.workloads.base",
})
__all__ = __all__ + ["WORKLOAD_NAMES"]
