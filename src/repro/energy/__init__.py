"""Energy and area models (McPAT/CACTI substitute at 22 nm)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AreaModel": "repro.energy.model",
    "EnergyLedger": "repro.energy.model",
    "EnergyModel": "repro.energy.model",
})
