"""System and microarchitecture configuration (paper Table V).

:class:`~repro.config.system.SystemConfig` is the single source of truth for
machine parameters. Presets mirror the paper's three core types::

    from repro.config import SystemConfig
    cfg = SystemConfig.ooo8()          # the paper's default evaluation core
    cfg = SystemConfig.io4(cores=16)   # smaller in-order machine

Every field defaults to the value in Table V of the paper.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AddressLayout": "repro.config.system",
    "CacheConfig": "repro.config.system",
    "CoreConfig": "repro.config.system",
    "CoreType": "repro.config.system",
    "DramConfig": "repro.config.system",
    "NocConfig": "repro.config.system",
    "PrefetcherConfig": "repro.config.system",
    "SEConfig": "repro.config.system",
    "SystemConfig": "repro.config.system",
})
