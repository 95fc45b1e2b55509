"""Oracles for :mod:`repro.mem.hierarchy`: the per-element walk behind
:meth:`~repro.mem.hierarchy.HierarchyModel.walk_elements` and the
per-access loop behind :meth:`~repro.mem.hierarchy.SharedL3Model.access`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.hierarchy import HierarchyModel, SharedL3Model


def shared_l3_access(model: SharedL3Model, lines: np.ndarray,
                     is_write: Optional[np.ndarray] = None) -> np.ndarray:
    """``model.access`` as one membership test, read, write and
    ``move_to_end`` per hit on the model's own state; returns the
    per-access hit mask."""
    lines = np.asarray(lines, dtype=np.int64)
    if is_write is None:
        is_write = np.zeros(len(lines), dtype=bool)
    hit_mask = np.zeros(len(lines), dtype=bool)
    resident = model._resident
    for pos, (line, write) in enumerate(zip(lines.tolist(),
                                            is_write.tolist())):
        if line in resident:
            model.hits += 1
            hit_mask[pos] = True
            resident[line] = resident[line] or write
            resident.move_to_end(line)
        else:
            model.misses += 1
            resident[line] = bool(write)
            if len(resident) > model.capacity_lines:
                _, dirty = resident.popitem(last=False)
                if dirty:
                    model.writebacks += 1
    return hit_mask


def access_element(model: HierarchyModel, line: int, write: bool,
                   skip_l1: bool = False) -> str:
    """One access through ``model``'s private hierarchy in program order.

    Returns the level that served it: "l1", "l2", "l3" or "dram".
    Dirty L1 victims are written back into the L2 (writeback-allocate),
    so recently written data stays visible to later loads.
    """
    if not skip_l1:
        hit, evicted = model.l1.access_one(line, write)
        if evicted is not None:
            model.l2.access_one(evicted, write=True)
        if hit:
            return "l1"
    hit, _ = model.l2.access_one(line, write)
    if hit:
        return "l2"
    l3_hit = model.shared_l3.access(np.array([line], dtype=np.int64),
                                    np.array([write]))
    return "l3" if bool(l3_hit[0]) else "dram"
