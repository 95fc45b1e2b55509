"""Per-element oracle for :meth:`repro.mem.hierarchy.HierarchyModel.
walk_elements`."""

from __future__ import annotations

import numpy as np

from repro.mem.hierarchy import HierarchyModel


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
