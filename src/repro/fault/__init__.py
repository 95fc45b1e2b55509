"""Deterministic fault injection for the recovery and storage machinery.

See :mod:`repro.fault.plan` for the protocol-site injection framework,
:mod:`repro.fault.curve` for the recovery-cost sweep the ``repro faults``
CLI drives, and :mod:`repro.fault.chaos` for the seeded storage-fault
injector (ENOSPC / torn writes / byte flips / EACCES / stalls) the cache
store and the chaos property suite run under.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ChaosInjector": "repro.fault.chaos",
    "ChaosPlan": "repro.fault.chaos",
    "injector_from_env": "repro.fault.chaos",
    "DEFAULT_RATES": "repro.fault.curve",
    "fault_rate_curve": "repro.fault.curve",
    "parse_sites": "repro.fault.curve",
    "plan_for": "repro.fault.curve",
    "RECOVERY_SITES": "repro.fault.plan",
    "FaultPlan": "repro.fault.plan",
    "FaultSite": "repro.fault.plan",
    "FaultStats": "repro.fault.plan",
})
