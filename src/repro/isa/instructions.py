"""Stream instructions and micro-op categories.

:class:`StreamOp` enumerates the ISA extension's instructions (§III-A);
:class:`UopKind` is the category scheme used for micro-op accounting — the
basis of Fig 1(a) and Fig 11's "computing micro ops associated with streams".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict


class StreamOp(Enum):
    """Instructions added to the base ISA."""

    S_CFG_BEGIN = "s_cfg_begin"    # trigger config read from cache
    S_CFG_INPUT = "s_cfg_input"    # feed one runtime parameter
    S_CFG_END = "s_cfg_end"        # complete configuration
    S_LOAD = "s_load"              # FIFO -> register
    S_STORE = "s_store"            # register -> FIFO
    S_ATOMIC = "s_atomic"          # atomic via stream address, returns value
    S_STEP = "s_step"              # advance stream iteration
    S_END = "s_end"                # terminate a data-dependent-length stream


class UopKind(Enum):
    """Micro-op categories for the Fig 1(a)/Fig 11 breakdowns.

    The first five are the stream-associable categories the paper stacks in
    its bars; the rest is residual core work.
    """

    STREAM_LOAD = "load"           # loads replaced by streams (incl. addr gen)
    STREAM_STORE = "store"         # stores replaced by streams
    STREAM_ATOMIC = "atomic"       # atomics replaced by streams
    STREAM_UPDATE = "update"       # RMW update pairs merged into streams
    STREAM_REDUCE = "reduce"       # reduction compute folded into streams
    STREAM_COMPUTE = "compute"     # other compute assigned to streams
    CORE_COMPUTE = "core_compute"  # compute that stays in the core
    CORE_MEMORY = "core_memory"    # loads/stores that stay in the core
    CONTROL = "control"            # branches, loop bookkeeping
    STREAM_OVERHEAD = "stream_overhead"  # s_cfg/s_step/s_load/... instructions

    # Members compare by identity, so identity hashing is consistent with
    # equality and runs in C; Enum's own hashes the name in Python, and
    # every UopCounts operation hashes each member.
    __hash__ = object.__hash__


STREAM_ASSOCIATED = frozenset({
    UopKind.STREAM_LOAD,
    UopKind.STREAM_STORE,
    UopKind.STREAM_ATOMIC,
    UopKind.STREAM_UPDATE,
    UopKind.STREAM_REDUCE,
    UopKind.STREAM_COMPUTE,
})


@dataclass
class UopCounts:
    """Micro-op totals per category, with convenience arithmetic."""

    counts: Dict[UopKind, float]

    @staticmethod
    def zero() -> "UopCounts":
        return UopCounts({kind: 0.0 for kind in UopKind})

    def add(self, kind: UopKind, amount: float) -> None:
        if amount < 0:
            raise ValueError("uop counts are non-negative")
        self.counts[kind] = self.counts.get(kind, 0.0) + amount

    def total(self) -> float:
        return sum(self.counts.values())

    def stream_associated(self) -> float:
        return sum(v for k, v in self.counts.items() if k in STREAM_ASSOCIATED)

    def stream_fraction(self) -> float:
        total = self.total()
        return self.stream_associated() / total if total else 0.0

    def get(self, kind: UopKind) -> float:
        return self.counts.get(kind, 0.0)

    def merged_with(self, other: "UopCounts") -> "UopCounts":
        merged = UopCounts.zero()
        for kind in UopKind:
            merged.counts[kind] = self.get(kind) + other.get(kind)
        return merged

    def scaled(self, factor: float) -> "UopCounts":
        return UopCounts({k: v * factor for k, v in self.counts.items()})
