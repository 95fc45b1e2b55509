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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config.system import SystemConfig
from repro.isa.pattern import AddressPatternKind
from repro.mem.address import AddressSpace
from repro.noc.topology import Mesh
from repro.sim.replay import FunctionalTrace, record_trace
from repro.sim.tracestats import hops_matrix
from repro.workloads.base import make_workload

PERFECT_CACHE_BYTES = 256 * 1024


def _byte_lru_misses(addrs: List[int], sizes: List[int],
                     capacity: int) -> List[bool]:
    """Feed elements in order through a byte-granularity, fully
    associative LRU of ``capacity`` bytes (element-keyed); True per miss.
    """
    entries: "OrderedDict[int, int]" = OrderedDict()  # addr -> size
    touch = entries.move_to_end
    evict = entries.popitem
    used = 0
    misses = []
    for addr, size in zip(addrs, sizes):
        if addr in entries:
            touch(addr)
            misses.append(False)
            continue
        entries[addr] = size
        used += size
        while used > capacity and entries:
            used -= evict(last=False)[1]
        misses.append(True)
    return misses


def _sum_in_order(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right, as a
    Python loop adds them (``np.sum`` adds pairwise and can round
    differently)."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def _perfect_cache_hop_bytes(phase, stats, hop_bytes_of, sample_ids,
                             n_cores: int, cache_bytes: int
                             ) -> Tuple[float, float]:
    """(all, missed) bytes x hops of the sampled cores' accesses through
    a perfect private cache: one byte-LRU per sampled core shared by all
    its streams, fed in iteration order (cross-stream reuse counts).

    A core's streams interleave by iteration position, element ``k`` of
    an ``n``-element slice sitting at ``k * (total_iters / n)``; ties
    keep stream order, then element order (a stable sort).
    """
    total_iters = max(phase.kernel.total_iterations, 1.0)
    sampled_all = 0.0
    sampled_miss = 0.0
    for core in sample_ids:
        positions, addrs, sizes, hop_bytes = [], [], [], []
        for name, st in stats.items():
            if st.elements == 0:
                continue
            trace = phase.traces[name]
            sl = trace.slice_for(core, n_cores)
            vaddrs = trace.vaddrs[sl]
            n = len(vaddrs)
            if n == 0:
                continue
            positions.append(np.arange(n, dtype=np.float64)
                             * (total_iters / n))
            addrs.append(vaddrs)
            sizes.append(np.full(n, st.element_bytes, dtype=np.int64))
            hop_bytes.append(hop_bytes_of[name][sl])
        if not positions:
            continue
        order = np.argsort(np.concatenate(positions), kind="stable")
        missed = np.array(_byte_lru_misses(
            np.concatenate(addrs)[order].tolist(),
            np.concatenate(sizes)[order].tolist(), cache_bytes), dtype=bool)
        weights = np.concatenate(hop_bytes)[order].astype(np.float64)
        sampled_all = _sum_in_order(sampled_all, weights)
        sampled_miss = _sum_in_order(sampled_miss, weights[missed])
    return sampled_all, sampled_miss


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
        geometry = recorded.geometry_for(index, phase, mesh, hmat)
        stats = geometry.stats
        inv = phase.invocations

        hop_bytes_of = {}
        for name, st in stats.items():
            if st.elements == 0:
                continue
            hop_bytes = st.element_bytes * hmat[st.cores, st.banks]
            hop_bytes_of[name] = hop_bytes
            no_priv += float(hop_bytes.sum()) * inv

        sampled_all, sampled_miss = _perfect_cache_hop_bytes(
            phase, stats, hop_bytes_of, sample_ids, n_cores, cache_bytes)
        phase_no_priv = sum(float(h.sum()) for h in hop_bytes_of.values())
        if sampled_all > 0:
            perf_priv += (sampled_miss / sampled_all) * phase_no_priv * inv
        near_llc += _near_llc_traffic(program, geometry) * inv

    return {"no_priv": no_priv, "perf_priv": perf_priv,
            "near_llc": near_llc}


def _near_llc_traffic(program, geometry) -> float:
    """Minimal data movement with everything computed at the banks."""
    stats, hmat = geometry.stats, geometry.hmat
    total = 0.0
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
                hops = geometry.hops(st, cst)
                total += st.elements * st.element_bytes * hops
        # Indirect requests carry addresses+values bank to bank.
        if stream.kind is AddressPatternKind.INDIRECT \
                and stream.base_stream is not None:
            base = program.graph.stream(stream.base_stream)
            bst = stats.get(base.name)
            if bst is not None and bst.elements:
                hops = geometry.hops(bst, st)
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
