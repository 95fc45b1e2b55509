"""Offloading: execution modes, capability matrices, and offload policy.

* :mod:`~repro.offload.modes` — the evaluated execution modes (§VI) and the
  capability model behind Tables I–III: which technique supports which
  (address pattern x compute type) combination, and at what granularity.
* :mod:`~repro.offload.policy` — SE_core's offload decision (§IV-B): streams
  are offloaded when their footprint exceeds the private cache or their
  observed miss/reuse/alias profile favors it, with the indirect-reduction
  length threshold of §IV-C.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AddrPattern": "repro.offload.modes",
    "ExecMode": "repro.offload.modes",
    "Support": "repro.offload.modes",
    "Technique": "repro.offload.modes",
    "supports": "repro.offload.modes",
    "technique_pattern_count": "repro.offload.modes",
    "workload_coverage": "repro.offload.modes",
    "OffloadDecision": "repro.offload.policy",
    "OffloadPolicy": "repro.offload.policy",
    "StreamProfile": "repro.offload.policy",
})
