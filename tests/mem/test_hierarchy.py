"""Private hierarchy + shared L3: level routing, warm/cold behavior."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.mem import AddressSpace, HierarchyModel
from repro.mem.address import LINE_SHIFT
from repro.mem.hierarchy import PrefetchModel, SharedL3Model
from tests.oracles.hierarchy import access_element

LEVEL = {name: code for code, name in enumerate(HierarchyModel.LEVELS)}


def build(scale=1.0 / 64.0):
    cfg = SystemConfig.ooo8().scaled_private_caches(scale)
    shared = SharedL3Model(cfg)
    return cfg, AddressSpace(SystemConfig.ooo8()), \
        HierarchyModel(cfg, shared, core_id=0)


def _lines(space, name, n):
    r = space.allocate(name, n, 8)
    return space.translate(r.element_vaddr(np.arange(n))) >> LINE_SHIFT


def test_sequential_trace_mostly_hits_l1():
    cfg, space, hier = build()
    lines = _lines(space, "a", 10000)
    levels = hier.walk_elements(lines, np.zeros(len(lines), dtype=bool))
    # 8 elements per 64 B line: 7/8 of accesses hit in L1.
    assert np.mean(levels == LEVEL["l1"]) > 0.8


def test_bypass_goes_straight_to_l3():
    """Offloaded streams' accesses go to the shared L3 alone."""
    cfg, space, hier = build()
    lines = _lines(space, "a", 1000)
    hits = hier.shared_l3.access(lines)
    assert hier.l1.result.accesses == 0 and hier.l2.result.accesses == 0
    assert hier.shared_l3.hits + hier.shared_l3.misses == 1000
    assert hier.shared_l3.hits == int(hits.sum())


def test_skip_l1_fills_l2_only():
    cfg, space, hier = build()
    lines = _lines(space, "a", 64)
    writes = np.zeros(len(lines), dtype=bool)
    skip = np.ones(len(lines), dtype=bool)
    hier.walk_elements(lines, writes, skip)
    levels = hier.walk_elements(lines, writes, skip)
    assert hier.l1.result.accesses == 0
    assert not (levels == LEVEL["l1"]).any()
    assert (levels == LEVEL["l2"]).any()


def test_shared_l3_warms_across_cores():
    cfg = SystemConfig.ooo8().scaled_private_caches(1.0 / 64.0)
    shared = SharedL3Model(cfg)
    space = AddressSpace(SystemConfig.ooo8())
    a = HierarchyModel(cfg, shared, core_id=0)
    b = HierarchyModel(cfg, shared, core_id=1)
    lines = _lines(space, "x", 4096)
    writes = np.zeros(len(lines), dtype=bool)
    first = a.walk_elements(lines, writes)
    second = b.walk_elements(lines, writes)
    cold = int((first == LEVEL["dram"]).sum())
    assert cold > 0                                    # cold
    assert not (second == LEVEL["dram"]).any()         # warmed by core 0
    assert int((second == LEVEL["l3"]).sum()) == cold


def test_shared_l3_capacity_eviction_and_writeback():
    cfg = SystemConfig.ooo8().scaled_private_caches(1e-9)  # floor-sized L3
    shared = SharedL3Model(cfg)
    lines = np.arange(shared.capacity_lines * 2)
    writes = np.ones(len(lines), dtype=bool)
    shared.access(lines, writes)
    assert shared.misses == len(lines)
    assert shared.writebacks > 0


def test_shared_l3_evicts_least_recently_used():
    shared = SharedL3Model(SystemConfig.ooo8())
    shared.capacity_lines = 2
    a, b, c = 10, 20, 30
    hits = shared.access(np.array([a, b, a, c]))
    assert hits.tolist() == [False, False, True, False]
    # The hit on a made b the least recently used line, so c evicted b.
    assert shared.contains(a) and shared.contains(c)
    assert not shared.contains(b)


def test_access_element_matches_run_trace_levels():
    cfg, space, hier = build()
    r = space.allocate("a", 2048, 8)
    vaddrs = r.element_vaddr(np.arange(0, 2048, 8))  # one per line
    lines = space.translate(vaddrs) >> 6
    levels = [access_element(hier, int(l), False) for l in lines.tolist()]
    assert all(level in ("l1", "l2", "l3", "dram") for level in levels)
    # Re-touch: everything recently accessed within L1+L2 capacity hits
    # private levels or L3 at worst.
    levels2 = [access_element(hier, int(l), False) for l in lines.tolist()]
    assert levels2.count("dram") == 0


def test_l1_dirty_victims_install_into_l2():
    cfg, space, hier = build()
    # Write lines exceeding L1 but fitting L2, then read them back.
    n_lines = hier.l1.sets * hier.l1.assoc * 2
    for line in range(n_lines):
        access_element(hier, line, write=True)
    hits_l2 = sum(access_element(hier, line, write=False) == "l2"
                  for line in range(n_lines // 2))
    assert hits_l2 > 0, "dirty L1 victims must be visible in L2"


def test_prefetch_model_coverage():
    pf = PrefetchModel(SystemConfig.ooo8().prefetcher)
    assert pf.hidden_fraction(1.0) > pf.hidden_fraction(0.0)
    assert 0 <= pf.hidden_fraction(0.5) <= 1
    assert pf.extra_traffic_factor() > 1.0
