"""Dict-walk oracle for :meth:`repro.mem.address.AddressSpace.translate`."""

from __future__ import annotations

import numpy as np

from repro.mem.address import AddressSpace


def translate_reference(space: AddressSpace, vaddr: np.ndarray) -> np.ndarray:
    """Virtual -> physical addresses through ``space``'s page dict, one
    distinct page at a time."""
    vaddr = np.asarray(vaddr, dtype=np.int64)
    pages = vaddr // space.page_bytes
    offsets = vaddr % space.page_bytes
    unique, inverse = np.unique(pages, return_inverse=True)
    try:
        frames = np.array([space._frame_of_page[int(p)] for p in unique],
                          dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"access to unmapped page {exc.args[0]}") from exc
    return frames[inverse] * space.page_bytes + offsets
