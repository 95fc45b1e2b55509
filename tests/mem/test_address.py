"""Address space: allocation, translation, NUCA mapping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.mem import AddressSpace
from tests.oracles.address import translate_reference


def make_space(huge=True):
    cfg = SystemConfig.ooo8()
    if not huge:
        from dataclasses import replace
        cfg = replace(cfg, use_huge_pages=False)
    return AddressSpace(cfg)


def test_allocate_assigns_disjoint_regions():
    space = make_space()
    a = space.allocate("a", 1000, 8)
    b = space.allocate("b", 1000, 4)
    assert a.vend <= b.vbase
    assert a.num_elements == 1000
    assert b.size_bytes == 4000


def test_allocate_rejects_duplicates_and_bad_sizes():
    space = make_space()
    space.allocate("x", 10, 8)
    with pytest.raises(ValueError):
        space.allocate("x", 10, 8)
    with pytest.raises(ValueError):
        space.allocate("bad", 0, 8)
    with pytest.raises(ValueError):
        space.allocate("bad2", 10, 0)


def test_element_vaddr_vectorized():
    space = make_space()
    r = space.allocate("arr", 100, 8)
    addrs = r.element_vaddr(np.array([0, 1, 99]))
    assert addrs[0] == r.vbase
    assert addrs[1] == r.vbase + 8
    assert addrs[2] == r.vbase + 99 * 8


def test_translate_is_deterministic_and_page_consistent():
    space = make_space()
    r = space.allocate("arr", 10000, 8)
    vaddrs = r.element_vaddr(np.arange(10000))
    p1 = space.translate(vaddrs)
    p2 = space.translate(vaddrs)
    assert np.array_equal(p1, p2)
    # Offsets within a page are preserved.
    page = space.page_bytes
    assert np.array_equal(vaddrs % page, p1 % page)


def test_translate_unmapped_page_raises():
    space = make_space()
    with pytest.raises(ValueError):
        space.translate(np.array([0]))  # page zero is never mapped


def test_huge_pages_keep_regions_physically_contiguous():
    space = make_space(huge=True)
    r = space.allocate("big", 1 << 20, 8)  # 8 MB: several huge pages
    vaddrs = r.element_vaddr(np.arange(0, 1 << 20, 4096))
    paddrs = space.translate(vaddrs)
    diffs = np.diff(np.sort(paddrs))
    # Contiguous physical layout: uniform spacing, no jumps.
    assert diffs.max() == diffs.min()


def test_small_pages_fragment_physical_layout():
    space = make_space(huge=False)
    r = space.allocate("big", 1 << 20, 8)
    step = space.page_bytes // 8
    vaddrs = r.element_vaddr(np.arange(0, 1 << 20, step))
    paddrs = space.translate(vaddrs)
    page_order = paddrs // space.page_bytes
    assert not np.all(np.diff(page_order) > 0), \
        "4KB frames should be shuffled"


def test_physical_range_covers_region():
    space = make_space()
    r = space.allocate("arr", 100000, 8)
    lo, hi = space.physical_range(r)
    paddrs = space.translate(r.element_vaddr(np.arange(0, 100000, 997)))
    assert lo <= paddrs.min()
    assert paddrs.max() < hi


def test_bank_mapping_interleaves_lines():
    space = make_space()
    r = space.allocate("arr", 64 * 16 * 4, 8)  # many lines
    line_starts = r.element_vaddr(np.arange(0, 64 * 16 * 4, 8))
    banks = space.bank_of_vaddr(line_starts)
    # Consecutive lines land in consecutive banks (64 B interleave).
    assert np.array_equal(np.diff(banks[:63]), np.ones(62))
    assert banks.min() >= 0 and banks.max() < 64


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=5000),
       st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
def test_footprint_lines_matches_span(num_elements, element_bytes):
    space = make_space()
    r = space.allocate("arr", num_elements, element_bytes)
    expected = (r.vend - 1) // 64 - r.vbase // 64 + 1
    assert space.footprint_lines(r) == expected


@settings(max_examples=50)
@given(st.booleans(),
       st.lists(st.tuples(st.integers(min_value=1, max_value=3000),
                          st.sampled_from([1, 4, 8, 64])),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=1, max_value=997))
def test_translate_matches_reference(huge, allocs, start, stride):
    """The vectorized searchsorted path == the dict-walk reference,
    including after incremental allocations (page-table rebuilds)."""
    space = make_space(huge=huge)
    for i, (n, width) in enumerate(allocs):
        r = space.allocate(f"arr{i}", n, width)
        # Probe this region right away: the sorted table must absorb
        # every later allocation (lazy rebuild), not just the first.
        idx = np.arange(start % n, n, stride, dtype=np.int64)
        vaddrs = r.element_vaddr(idx if idx.size else np.array([0]))
        assert np.array_equal(space.translate(vaddrs),
                              translate_reference(space, vaddrs))


def test_translate_unmapped_error_matches_reference():
    """Both paths agree on the failure message (smallest bad page)."""
    space = make_space()
    r = space.allocate("arr", 100, 8)
    vaddrs = np.array([5, r.vbase, 3 * space.page_bytes])
    with pytest.raises(ValueError) as fast:
        space.translate(vaddrs)
    with pytest.raises(ValueError) as ref:
        translate_reference(space, vaddrs)
    assert str(fast.value) == str(ref.value)
    assert "unmapped page 0" in str(fast.value)


def test_translate_empty_input():
    space = make_space()
    space.allocate("arr", 100, 8)
    empty = np.zeros(0, dtype=np.int64)
    assert space.translate(empty).size == 0
    assert np.array_equal(space.translate(empty),
                          translate_reference(space, empty))


def test_translate_on_pristine_space_raises():
    """No allocations yet: the sorted table is empty, every access bad."""
    space = make_space()
    with pytest.raises(ValueError, match="unmapped page"):
        space.translate(np.array([123456]))


def test_region_of_vaddr_lookup():
    space = make_space()
    a = space.allocate("a", 100, 8)
    b = space.allocate("b", 100, 8)
    assert space.region_of_vaddr(a.vbase + 8).name == "a"
    assert space.region_of_vaddr(b.vend - 1).name == "b"
    assert space.region_of_vaddr(b.vend + (1 << 22)) is None
