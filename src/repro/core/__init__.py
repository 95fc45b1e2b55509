"""Core-side microarchitecture models.

* :mod:`~repro.core.pipeline` — analytic core timing: issue-width bound,
  memory-latency bound (with MLP from the LSQ/ROB), and serial-dependence
  bound, combined per kernel run. Models IO4/OOO4/OOO8.
* :mod:`~repro.core.se_core` — the core stream engine: FIFO-based prefetch
  depth, the prefetch element buffer (PEB) for memory disambiguation, affine
  range generation, and the offload decision hook.
* :mod:`~repro.core.scm` — the stream computing manager and its lightweight
  SCC thread contexts: throughput of near-stream function execution under
  ROB and issue constraints (Figs 13/14 sensitivity).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CoreWork": "repro.core.pipeline",
    "MemStall": "repro.core.pipeline",
    "PipelineModel": "repro.core.pipeline",
    "PrefetchElementBuffer": "repro.core.se_core",
    "SECore": "repro.core.se_core",
    "ScmModel": "repro.core.scm",
})
