"""Memory system: paging, NUCA mapping, caches, TLBs, coherence, locks, DRAM.

This package is the substrate under both the baseline machine and the
near-stream machine:

* :mod:`~repro.mem.address` — virtual address space with named regions,
  4 KB / 2 MB paging, and the static-NUCA 64 B line interleaving that decides
  which L3 bank owns each line (and therefore where streams migrate).
* :mod:`~repro.mem.cache` — exact set-associative cache simulation (LRU and
  bimodal-RRIP) driven by real address traces.
* :mod:`~repro.mem.tlb` — TLB hit/miss model (page-granularity trace sim).
* :mod:`~repro.mem.hierarchy` — private L1/L2 + shared-L3 footprint model and
  the prefetcher models (Bingo-like spatial at L1, stride at L2).
* :mod:`~repro.mem.coherence` — MESI-style directory approximation: counts
  invalidation/forward transactions caused by remote stream writes.
* :mod:`~repro.mem.locks` — the exclusive vs multi-reader/single-writer
  (MRSW) line lock models for indirect atomics (§IV-C, Fig 16).
* :mod:`~repro.mem.dram` — DDR4 bandwidth/latency model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AddressSpace": "repro.mem.address",
    "Region": "repro.mem.address",
    "CacheModel": "repro.mem.cache",
    "ReplacementPolicy": "repro.mem.cache",
    "TlbModel": "repro.mem.tlb",
    "HierarchyModel": "repro.mem.hierarchy",
    "CoherenceModel": "repro.mem.coherence",
    "LockModel": "repro.mem.locks",
    "LockKind": "repro.mem.locks",
    "LockStats": "repro.mem.locks",
    "DramModel": "repro.mem.dram",
})
