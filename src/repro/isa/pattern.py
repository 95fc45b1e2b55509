"""Address patterns and compute types — the taxonomy axes (§II-A).

Address patterns generate the sequence of element addresses a stream touches.
``AffinePattern`` supports up to three dimensions (Table IV: 3x stride/len);
``IndirectPattern`` chains off a base stream's values; ``PointerChasePattern``
follows a link field. All generation is vectorized where the addresses are
not data-dependent; indirect and pointer-chasing generation take the actual
data because their addresses *are* the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


class AddressPatternKind(Enum):
    """The three address-pattern families of the taxonomy (§II-A)."""

    AFFINE = "affine"
    INDIRECT = "indirect"
    POINTER_CHASE = "pointer_chase"


class ComputeKind(Enum):
    """Relationship between near-memory and in-core work (§II-A)."""

    LOAD = "load"        # compute near a load, respond with (smaller) result
    STORE = "store"      # compute the stored value near the store
    RMW = "rmw"          # read-modify-write / atomic update in place
    REDUCE = "reduce"    # accumulate; only the final value returns

    @property
    def writes_memory(self) -> bool:
        return self in (ComputeKind.STORE, ComputeKind.RMW)


@dataclass(frozen=True)
class AffinePattern:
    """Up to 3-D affine pattern: addr(i,j,k) = base + i*s0 + j*s1 + k*s2.

    ``lengths[0]`` is the innermost (fastest varying) dimension. Iteration
    order is lexicographic with the innermost index varying fastest, matching
    the canonical loop nest.
    """

    base: int
    strides: Tuple[int, ...]
    lengths: Tuple[int, ...]
    element_bytes: int

    MAX_DIMS = 3

    def __post_init__(self) -> None:
        if not 1 <= len(self.strides) <= self.MAX_DIMS:
            raise ValueError(f"affine pattern supports 1..{self.MAX_DIMS} dims")
        if len(self.strides) != len(self.lengths):
            raise ValueError("strides/lengths dimension mismatch")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if self.element_bytes <= 0:
            raise ValueError("element size must be positive")

    @property
    def kind(self) -> AddressPatternKind:
        return AddressPatternKind.AFFINE

    @property
    def trip_count(self) -> int:
        count = 1
        for length in self.lengths:
            count *= length
        return count

    def addresses(self, start: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Element addresses for iterations [start, start+count)."""
        total = self.trip_count
        if count is None:
            count = total - start
        if start < 0 or start + count > total:
            raise ValueError("iteration window out of range")
        # numpy loads here, not with the module: the execution-mode
        # enums import this taxonomy, and ``repro list`` needs no numpy.
        import numpy as np
        iters = np.arange(start, start + count, dtype=np.int64)
        addr = np.full(count, self.base, dtype=np.int64)
        remaining = iters
        for stride, length in zip(self.strides, self.lengths):
            addr += (remaining % length) * stride
            remaining = remaining // length
        return addr

    def footprint_bytes(self) -> int:
        """Conservative memory footprint (span of touched addresses)."""
        lo, hi = self.address_range()
        return hi - lo

    def address_range(self) -> Tuple[int, int]:
        """Exact touched [min, max) — computable at configure time.

        This is what lets SE_core generate affine ranges locally (Fig 15).
        """
        lo = self.base
        hi = self.base
        for stride, length in zip(self.strides, self.lengths):
            extent = stride * (length - 1)
            if extent >= 0:
                hi += extent
            else:
                lo += extent
        return lo, hi + self.element_bytes

    @property
    def is_sequential(self) -> bool:
        return self.strides[0] == self.element_bytes


@dataclass(frozen=True)
class IndirectPattern:
    """addr(i) = base + scale * value_of(base_stream, i) + offset.

    The base stream (usually an affine load of an index array) supplies the
    data-dependent part. The bank of each access is data-dependent, which is
    why indirect streams may not take arbitrary stream operands (§II-B).
    """

    base: int
    scale: int
    offset: int
    element_bytes: int

    def __post_init__(self) -> None:
        if self.element_bytes <= 0:
            raise ValueError("element size must be positive")

    @property
    def kind(self) -> AddressPatternKind:
        return AddressPatternKind.INDIRECT

    def addresses(self, index_values: np.ndarray) -> np.ndarray:
        import numpy as np
        values = np.asarray(index_values, dtype=np.int64)
        return self.base + values * self.scale + self.offset


@dataclass(frozen=True)
class PointerChasePattern:
    """P = *(P + next_offset): traverse a linked structure.

    ``addresses`` takes the realized chain of node addresses because the
    sequence is fully data-dependent; workloads produce it from their actual
    linked data.
    """

    start: int
    next_offset: int
    element_bytes: int

    def __post_init__(self) -> None:
        if self.element_bytes <= 0:
            raise ValueError("element size must be positive")

    @property
    def kind(self) -> AddressPatternKind:
        return AddressPatternKind.POINTER_CHASE

    def addresses(self, chain: np.ndarray) -> np.ndarray:
        import numpy as np
        return np.asarray(chain, dtype=np.int64)
