"""Unit tests for EPT page tables, dirty logging, and composition."""

import pytest

from repro.hw.ept import EptViolation, PageTable, Perm, compose
from repro.hw.mem import PAGE_SHIFT


def test_map_translate_roundtrip():
    ept = PageTable()
    ept.map(0x10, 0x99, Perm.RWX)
    assert ept.translate(0x10, Perm.R) == 0x99
    assert ept.translate(0x10, Perm.W) == 0x99


def test_translate_unmapped_raises():
    ept = PageTable()
    with pytest.raises(EptViolation, match="not mapped"):
        ept.translate(0x10)


def test_permission_enforcement():
    ept = PageTable()
    ept.map(0x10, 0x99, Perm.R)
    assert ept.translate(0x10, Perm.R) == 0x99
    with pytest.raises(EptViolation, match="permission"):
        ept.translate(0x10, Perm.W)


def test_map_none_perm_rejected():
    ept = PageTable()
    with pytest.raises(ValueError):
        ept.map(0x10, 0x99, Perm.NONE)


def test_translate_addr_preserves_offset():
    ept = PageTable()
    ept.map(0x10, 0x99)
    addr = (0x10 << PAGE_SHIFT) | 0x123
    assert ept.translate_addr(addr) == (0x99 << PAGE_SHIFT) | 0x123


def test_unmap():
    ept = PageTable()
    ept.map(0x10, 0x99)
    assert 0x10 in ept
    assert ept.unmap(0x10)
    assert 0x10 not in ept
    assert not ept.unmap(0x10)
    assert len(ept) == 0


def test_remap_overwrites_without_count_growth():
    ept = PageTable()
    ept.map(0x10, 0x99)
    ept.map(0x10, 0xAA)
    assert len(ept) == 1
    assert ept.translate(0x10) == 0xAA


def test_sparse_pfns_multilevel_walk():
    ept = PageTable()
    # PFNs that differ in every radix level.
    pfns = [0, 1, 1 << 9, 1 << 18, 1 << 27, (1 << 27) | (5 << 9) | 3]
    for i, pfn in enumerate(pfns):
        ept.map(pfn, 1000 + i)
    for i, pfn in enumerate(pfns):
        assert ept.translate(pfn) == 1000 + i
    assert len(ept) == len(pfns)


def test_entries_iteration_sorted():
    ept = PageTable()
    for pfn in [5, 3, 1 << 20, 7]:
        ept.map(pfn, pfn + 1)
    listed = [pfn for pfn, _ in ept.entries()]
    assert listed == sorted(listed)
    assert set(listed) == {5, 3, 1 << 20, 7}


def test_compose_basic():
    inner = PageTable()  # L2 -> L1
    outer = PageTable()  # L1 -> host
    inner.map(0x10, 0x20, Perm.RW)
    outer.map(0x20, 0x30, Perm.RWX)
    shadow = compose(outer, inner)
    assert shadow.translate(0x10, Perm.W) == 0x30


def test_compose_intersects_permissions():
    inner = PageTable()
    outer = PageTable()
    inner.map(0x10, 0x20, Perm.RW)
    outer.map(0x20, 0x30, Perm.R)
    shadow = compose(outer, inner)
    assert shadow.translate(0x10, Perm.R) == 0x30
    with pytest.raises(EptViolation):
        shadow.translate(0x10, Perm.W)


def test_compose_skips_missing_outer():
    inner = PageTable()
    outer = PageTable()
    inner.map(0x10, 0x20)
    inner.map(0x11, 0x21)
    outer.map(0x21, 0x31)
    shadow = compose(outer, inner)
    assert 0x10 not in shadow
    assert shadow.translate(0x11) == 0x31


def test_compose_three_levels_associative():
    """Shadow construction for L3: compose(compose(l1, l2), l3) must equal
    translating through each table in turn (recursive virtual-passthrough,
    Figure 6)."""
    t3 = PageTable()  # L3 -> L2
    t2 = PageTable()  # L2 -> L1
    t1 = PageTable()  # L1 -> host
    t3.map(7, 70, Perm.RW)
    t2.map(70, 700, Perm.RW)
    t1.map(700, 7000, Perm.RW)
    shadow = compose(compose(t1, t2), t3)
    assert shadow.translate(7, Perm.W) == 7000
    step = t1.translate(t2.translate(t3.translate(7, Perm.W), Perm.W), Perm.W)
    assert step == 7000
