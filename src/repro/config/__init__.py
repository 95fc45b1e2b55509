"""System and microarchitecture configuration (paper Table V).

:class:`~repro.config.system.SystemConfig` is the single source of truth for
machine parameters. Presets mirror the paper's three core types::

    from repro.config import SystemConfig
    cfg = SystemConfig.ooo8()          # the paper's default evaluation core
    cfg = SystemConfig.io4(cores=16)   # smaller in-order machine

Every field defaults to the value in Table V of the paper.
"""

from repro.config.system import (
    AddressLayout,
    CacheConfig,
    CoreConfig,
    CoreType,
    DramConfig,
    NocConfig,
    PrefetcherConfig,
    SEConfig,
    SystemConfig,
)

__all__ = [
    "AddressLayout",
    "CacheConfig",
    "CoreConfig",
    "CoreType",
    "DramConfig",
    "NocConfig",
    "PrefetcherConfig",
    "SEConfig",
    "SystemConfig",
]
