"""Per-element oracle for the perfect private cache of Fig 1(b)
(``repro.sim.ideal._perfect_cache_hop_bytes``)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple


class ByteLru:
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


def perfect_cache_reference(phase, stats, hop_bytes_of, sample_ids,
                            n_cores: int, cache_bytes: int
                            ) -> Tuple[float, float]:
    """(all, missed) bytes x hops one element at a time: a merged,
    key-sorted list of per-element tuples per sampled core fed through
    :class:`ByteLru`; the array path must give identical floats."""
    total_iters = max(phase.kernel.total_iterations, 1.0)
    sampled_miss = 0.0
    sampled_all = 0.0
    for core in sample_ids:
        lru = ByteLru(cache_bytes)
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
    return sampled_all, sampled_miss
