"""Fig 1(b)'s abstract systems: the near-data opportunity study.

Three idealized machines, measured in pure data traffic (bytes x NoC hops):

* **No-Priv$** — no private caches: every access moves its bytes between
  the owning core and the line's LLC bank.
* **Perf-Priv$** — a perfect private cache per core: fully associative,
  byte-granularity, LRU, 256 kB, zero-cost update-based coherence. Only
  misses move bytes.
* **Perf-Near-LLC** — computation offloaded to the banks: operands move
  between banks at element granularity, only core-consumed results cross
  to the core, writes happen in place.

The paper finds private caches remove only ~27% of traffic while near-LLC
removes ~64%; the Fig 1b bench checks those shapes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from repro.config.system import SystemConfig
from repro.isa.pattern import AddressPatternKind
from repro.mem.address import AddressSpace
from repro.noc.topology import Mesh
from repro.sim.replay import FunctionalTrace, record_trace
from repro.sim.tracestats import forward_hops, hops_matrix
from repro.workloads.base import make_workload

PERFECT_CACHE_BYTES = 256 * 1024


class _ByteLru:
    """Byte-granularity fully-associative LRU (element-keyed)."""

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # addr -> size
        self._bytes = 0

    def access(self, addr: int, size: int) -> bool:
        """Touch one element; True on hit."""
        if addr in self._entries:
            self._entries.move_to_end(addr)
            return True
        self._entries[addr] = size
        self._bytes += size
        while self._bytes > self.capacity and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted
        return False


def ideal_traffic(workload, config: Optional[SystemConfig] = None,
                  scale: float = 1.0 / 64.0, seed: int = 42,
                  sample_cores: int = 4) -> Dict[str, float]:
    """Bytes x hops of the three Fig 1(b) abstract systems.

    ``workload`` is a name, a :class:`~repro.workloads.base.Workload`
    (built here if it is not yet), or a recorded
    :class:`~repro.sim.replay.FunctionalTrace`, whose compiled programs
    and packed stream geometry are reused; ``scale`` and ``seed`` apply
    to a name only.  Every input is measured as a trace, so the three
    give the same numbers.  A trace recorded under another address
    layout than ``config``'s is refused, as ``run_workload`` refuses it.
    """
    config = config or SystemConfig.ooo8()
    if isinstance(workload, FunctionalTrace):
        recorded = workload
    else:
        if isinstance(workload, str):
            workload = make_workload(workload, scale=scale, seed=seed)
        if workload.space is None:
            workload.build(AddressSpace(config))
        recorded = record_trace(workload)
    if recorded.layout != config.layout:
        raise ValueError(
            f"{recorded.workload}: functional trace was recorded under a "
            f"different address layout (mesh or page size) than the "
            f"config; its traffic would be measured on the wrong mesh")
    mesh = Mesh(config.noc)
    hmat = hops_matrix(mesh)
    n_cores = config.num_cores

    no_priv = 0.0
    perf_priv = 0.0
    near_llc = 0.0
    sample_ids = np.linspace(0, n_cores - 1,
                             min(sample_cores, n_cores), dtype=int).tolist()

    # The perfect cache shrinks with the inputs, like the machine caches.
    cache_bytes = max(int(PERFECT_CACHE_BYTES * recorded.scale), 4096)

    for index, (phase, program) in enumerate(recorded.phase_programs()):
        stats = recorded.stats_for(index, phase, mesh, hmat)
        inv = phase.invocations
        total_iters = max(phase.kernel.total_iterations, 1.0)

        hop_bytes_of = {}
        for name, st in stats.items():
            if st.elements == 0:
                continue
            hop_bytes = st.element_bytes * hmat[st.cores, st.banks]
            hop_bytes_of[name] = hop_bytes
            no_priv += float(hop_bytes.sum()) * inv

        # Perfect private cache: one byte-LRU per sampled core shared by
        # all streams, fed in iteration order (cross-stream reuse counts).
        sampled_miss = 0.0
        sampled_all = 0.0
        for core in sample_ids:
            lru = _ByteLru(cache_bytes)
            merged = []
            for name, st in stats.items():
                if st.elements == 0:
                    continue
                trace = phase.traces[name]
                sl = trace.slice_for(core, n_cores)
                vaddrs = trace.vaddrs[sl]
                if len(vaddrs) == 0:
                    continue
                stride = total_iters / len(vaddrs)
                seg = hop_bytes_of[name][sl]
                merged.extend(
                    (k * stride, int(a), st.element_bytes, float(h))
                    for k, (a, h) in enumerate(zip(vaddrs.tolist(),
                                                   seg.tolist())))
            merged.sort(key=lambda t: t[0])
            for _, addr, size, hops_bytes in merged:
                sampled_all += hops_bytes
                if not lru.access(addr, size):
                    sampled_miss += hops_bytes
        phase_no_priv = sum(float(h.sum()) for h in hop_bytes_of.values())
        if sampled_all > 0:
            perf_priv += (sampled_miss / sampled_all) * phase_no_priv * inv
        near_llc += _near_llc_traffic(program, stats, hmat, phase) * inv

    return {"no_priv": no_priv, "perf_priv": perf_priv,
            "near_llc": near_llc}


def _near_llc_traffic(program, stats, hmat, phase) -> float:
    """Minimal data movement with everything computed at the banks."""
    total = 0.0
    by_name = {s.name: s for s in program.graph}
    for stream in program.graph:
        rec = program.recognized[stream.sid]
        if rec.memory_free:
            continue
        st = stats.get(stream.name)
        if st is None or st.elements == 0:
            continue
        # Operand forwarding to per-element consumers.
        for consumer in program.graph:
            if stream.sid in consumer.value_deps \
                    and consumer.sid != stream.sid:
                crec = program.recognized[consumer.sid]
                cname = (program.graph.stream(consumer.base_stream).name
                         if crec.memory_free else consumer.name)
                cst = stats.get(cname)
                if cst is None or cst.elements == 0:
                    continue
                hops = forward_hops(st, cst, hmat)
                total += st.elements * st.element_bytes * hops
        # Indirect requests carry addresses+values bank to bank.
        if stream.kind is AddressPatternKind.INDIRECT \
                and stream.base_stream is not None:
            base = program.graph.stream(stream.base_stream)
            bst = stats.get(base.name)
            if bst is not None and bst.elements:
                n = min(st.elements, bst.elements)
                hops = float(hmat[bst.banks[:n], st.banks[:n]].mean())
                # The request carries the base stream's value (pure data).
                total += st.elements * bst.element_bytes * hops
        # Pointer chases carry the traversal state between banks.
        if stream.kind is AddressPatternKind.POINTER_CHASE \
                and st.elements > 1:
            step_hops = float(hmat[st.banks[:-1], st.banks[1:]].mean())
            total += st.elements * 8 * step_hops
        # Core-consumed results.
        cost = program.costs[stream.sid]
        if cost.core_consumes:
            out = (stream.function.output_bytes if stream.function
                   else st.element_bytes)
            total += st.elements * out * st.mean_hops_core_bank
    return total
