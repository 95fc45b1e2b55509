"""Virtual address space, paging, and static-NUCA bank mapping.

Workloads allocate named :class:`Region` objects (arrays, node pools, hash
tables). The address space assigns each region a virtual base, maps pages to
physical frames (contiguously within a region when huge pages are on — the
paper's assumption that per-data-structure physical ranges are contiguous,
§IV-A), and maps physical lines to L3 banks by 64 B interleaving.

All address math is vectorized: methods accept and return numpy arrays so a
whole stream's trace maps to banks in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.config import SystemConfig

LINE_BYTES = 64
LINE_SHIFT = 6


@dataclass(frozen=True)
class Region:
    """A named, contiguous virtual allocation."""

    name: str
    vbase: int
    size_bytes: int
    element_bytes: int

    @property
    def vend(self) -> int:
        return self.vbase + self.size_bytes

    @property
    def num_elements(self) -> int:
        return self.size_bytes // self.element_bytes

    def element_vaddr(self, index: np.ndarray) -> np.ndarray:
        """Virtual addresses of the given element indices."""
        return self.vbase + np.asarray(index, dtype=np.int64) * self.element_bytes

    def contains(self, vaddr: int) -> bool:
        return self.vbase <= vaddr < self.vend


class AddressSpace:
    """Allocator plus virtual->physical->bank mapping.

    Physical allocation policy: with huge pages (default), each region's
    pages are physically contiguous, so a region's physical footprint is one
    range — exactly the property range-based synchronization relies on. With
    4 KB pages, frames are assigned in a deterministic shuffled order to model
    fragmentation.

    Only the config's :class:`~repro.config.AddressLayout` is kept, so a
    space (and a functional trace carrying it) never holds timing knobs.
    """

    _REGION_ALIGN = 1 << 21  # regions start on 2MB boundaries

    def __init__(self, config: SystemConfig, seed: int = 7) -> None:
        layout = self.layout = config.layout
        self.page_bytes = (layout.huge_page_bytes if layout.use_huge_pages
                           else layout.page_bytes)
        self.num_banks = layout.mesh_width * layout.mesh_height
        self._next_vbase = self._REGION_ALIGN  # leave page 0 unmapped
        self._regions: Dict[str, Region] = {}
        self._frame_of_page: Dict[int, int] = {}
        self._next_frame = 0
        self._rng = np.random.default_rng(seed)
        # Sorted page->frame arrays derived from _frame_of_page; rebuilt
        # lazily after allocations so translate() is one searchsorted.
        self._table_pages = np.zeros(0, dtype=np.int64)
        self._table_frames = np.zeros(0, dtype=np.int64)
        self._table_dirty = True

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, name: str, num_elements: int,
                 element_bytes: int) -> Region:
        """Allocate a region of ``num_elements`` x ``element_bytes``."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if num_elements <= 0 or element_bytes <= 0:
            raise ValueError("region must have positive size")
        size = num_elements * element_bytes
        region = Region(name, self._next_vbase, size, element_bytes)
        self._regions[name] = region
        aligned = (size + self._REGION_ALIGN - 1) // self._REGION_ALIGN
        self._next_vbase += aligned * self._REGION_ALIGN
        self._map_pages(region)
        return region

    def _map_pages(self, region: Region) -> None:
        first = region.vbase // self.page_bytes
        last = (region.vend - 1) // self.page_bytes
        pages = list(range(first, last + 1))
        if self.layout.use_huge_pages:
            frames = list(range(self._next_frame, self._next_frame + len(pages)))
        else:
            # Fragmented: deterministic pseudo-random frame order.
            frames = list(self._next_frame
                          + self._rng.permutation(len(pages)).astype(int))
        self._next_frame += len(pages)
        for page, frame in zip(pages, frames):
            self._frame_of_page[page] = frame
        self._table_dirty = True

    def region(self, name: str) -> Region:
        return self._regions[name]

    @property
    def regions(self) -> List[Region]:
        return list(self._regions.values())

    def region_of_vaddr(self, vaddr: int) -> Optional[Region]:
        for region in self._regions.values():
            if region.contains(vaddr):
                return region
        return None

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _page_table(self) -> "tuple[np.ndarray, np.ndarray]":
        """The sorted (pages, frames) lookup table, rebuilt if stale.

        ``getattr`` defaults keep objects unpickled from before the table
        existed working: they rebuild on first use.
        """
        if getattr(self, "_table_dirty", True):
            pages = np.fromiter(self._frame_of_page.keys(),
                                dtype=np.int64, count=len(self._frame_of_page))
            frames = np.fromiter(self._frame_of_page.values(),
                                 dtype=np.int64, count=len(self._frame_of_page))
            order = np.argsort(pages, kind="stable")
            self._table_pages = pages[order]
            self._table_frames = frames[order]
            self._table_dirty = False
        return self._table_pages, self._table_frames

    def translate(self, vaddr: np.ndarray) -> np.ndarray:
        """Virtual -> physical addresses (vectorized).

        One ``np.searchsorted`` against the sorted page table; the dict
        walk it replaced is the oracle ``translate_reference``
        (``tests/oracles/address.py``), property-tested equivalent in
        ``tests/mem/test_address.py``.
        """
        vaddr = np.asarray(vaddr, dtype=np.int64)
        pages = vaddr // self.page_bytes
        offsets = vaddr % self.page_bytes
        table_pages, table_frames = self._page_table()
        idx = np.searchsorted(table_pages, pages)
        if table_pages.size == 0:
            bad = np.ones(pages.shape, dtype=bool)
        else:
            clipped = np.minimum(idx, table_pages.size - 1)
            bad = table_pages[clipped] != pages
        if bad.any():
            # Same message as the dict-walk oracle, which hits the smallest
            # unmapped page first (np.unique sorts ascending).
            raise ValueError(
                f"access to unmapped page {int(pages[bad].min())}")
        return table_frames[idx] * self.page_bytes + offsets

    def physical_range(self, region: Region) -> "tuple[int, int]":
        """Conservative physical [min, max) covering the region's frames."""
        first = region.vbase // self.page_bytes
        last = (region.vend - 1) // self.page_bytes
        frames = [self._frame_of_page[p] for p in range(first, last + 1)]
        lo = min(frames) * self.page_bytes
        hi = (max(frames) + 1) * self.page_bytes
        return lo, hi

    # ------------------------------------------------------------------
    # NUCA mapping
    # ------------------------------------------------------------------
    def line_of(self, paddr: np.ndarray) -> np.ndarray:
        return np.asarray(paddr, dtype=np.int64) >> LINE_SHIFT

    def bank_of_paddr(self, paddr: np.ndarray) -> np.ndarray:
        """L3 bank owning each physical address (64 B static interleave)."""
        return (np.asarray(paddr, dtype=np.int64) >> LINE_SHIFT) % self.num_banks

    def bank_of_vaddr(self, vaddr: np.ndarray) -> np.ndarray:
        return self.bank_of_paddr(self.translate(vaddr))

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------
    def footprint_lines(self, region: Region) -> int:
        """Number of distinct cache lines the region occupies."""
        first = region.vbase >> LINE_SHIFT
        last = (region.vend - 1) >> LINE_SHIFT
        return last - first + 1

    def total_footprint_bytes(self) -> int:
        return sum(r.size_bytes for r in self._regions.values())
