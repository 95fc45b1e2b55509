"""Traffic accounting: bytes x hops per message class.

This is the paper's NoC traffic metric (Fig 1b, Fig 12). The ledger also
tracks message counts and raw bytes for diagnostics, and can merge ledgers
from per-core accounting into a machine total.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.noc.message import MessageClass, MessageType, message_class

#: Every member, in definition order, iterated without ``EnumType``'s
#: per-step Python iterator.
_CLASSES = tuple(MessageClass)
_TYPES = tuple(MessageType)


class TrafficLedger:
    """Accumulates NoC traffic by message class and type."""

    def __init__(self) -> None:
        self.byte_hops: Dict[MessageClass, float] = dict.fromkeys(_CLASSES,
                                                                  0.0)
        self.messages: Dict[MessageType, float] = dict.fromkeys(_TYPES, 0.0)
        self.bytes_sent: Dict[MessageType, float] = dict.fromkeys(_TYPES,
                                                                  0.0)
        self.byte_hops_by_type: Dict[MessageType, float] = dict.fromkeys(
            _TYPES, 0.0)

    def record(self, mtype: MessageType, total_bytes: float, hops: float,
               count: float = 1.0) -> None:
        """Record ``count`` messages of ``total_bytes`` each over ``hops``."""
        if total_bytes < 0 or hops < 0 or count < 0:
            raise ValueError("traffic quantities must be non-negative")
        self.byte_hops[message_class(mtype)] += total_bytes * hops * count
        self.byte_hops_by_type[mtype] += total_bytes * hops * count
        self.messages[mtype] += count
        self.bytes_sent[mtype] += total_bytes * count

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_byte_hops(self) -> float:
        return sum(self.byte_hops.values())

    def class_byte_hops(self, cls: MessageClass) -> float:
        return self.byte_hops[cls]

    @property
    def total_messages(self) -> float:
        return sum(self.messages.values())

    def breakdown(self) -> Dict[str, float]:
        """Byte-hops keyed by class name — the Fig 12 stacked-bar series."""
        return {cls.value: self.byte_hops[cls] for cls in _CLASSES}

    def merge_from(self, other: "TrafficLedger") -> None:
        for cls in _CLASSES:
            self.byte_hops[cls] += other.byte_hops[cls]
        for mtype in _TYPES:
            self.messages[mtype] += other.messages[mtype]
            self.bytes_sent[mtype] += other.bytes_sent[mtype]
            self.byte_hops_by_type[mtype] += other.byte_hops_by_type[mtype]

    def scaled(self, factor: float) -> "TrafficLedger":
        """Return a copy with every quantity multiplied by ``factor``."""
        out = TrafficLedger()
        for cls in _CLASSES:
            out.byte_hops[cls] = self.byte_hops[cls] * factor
        for mtype in _TYPES:
            out.messages[mtype] = self.messages[mtype] * factor
            out.bytes_sent[mtype] = self.bytes_sent[mtype] * factor
            out.byte_hops_by_type[mtype] = self.byte_hops_by_type[mtype] * factor
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{c.value}={v:.3g}" for c, v in self.byte_hops.items())
        return f"TrafficLedger({parts})"
