"""Storage-shape regression: the page tables a stack builds hold the
driver DMA pool as a handful of extents, not one entry per page.

The pool is eight runs of consecutive pages (RX and TX, four queues
each) and every nesting level maps it with a constant offset, so each
table the build produces must keep it in at most eight extents while
``len()`` still counts every mapped page.
"""

import pytest

from repro.hv.passthrough import dma_pool_pfns, dma_pool_runs
from repro.hv.stack import StackConfig, build_stack

POOL_PAGES = 16384
POOL_RUNS = 8


def test_pool_runs_cover_the_pool():
    runs = dma_pool_runs()
    assert len(runs) == POOL_RUNS
    assert [p for pfn, count in runs for p in range(pfn, pfn + count)] == (
        dma_pool_pfns()
    )
    assert sum(count for _pfn, count in runs) == POOL_PAGES


def _tables(stack, io):
    tables = {"leaf ept": stack.leaf_vm.ept}
    if io == "passthrough":
        tables["iommu domain"] = stack.machine.iommu.domain_of(stack.net.vf)
    else:
        tables["vp shadow"] = stack.vp_assignment.shadow
    return tables


@pytest.mark.parametrize("io", ["passthrough", "vp"])
@pytest.mark.parametrize("levels", [2, 3])
def test_pool_tables_are_stored_as_extents(levels, io):
    stack = build_stack(StackConfig(levels=levels, io_model=io))
    for name, table in _tables(stack, io).items():
        extents = list(table.extents())
        assert len(table) == POOL_PAGES, name
        assert sum(count for _pfn, count, _t, _p in extents) == POOL_PAGES, name
        assert len(extents) <= POOL_RUNS, (name, len(extents))


def test_resolve_many_splits_runs_at_extent_boundaries():
    """A leaf run crossing a split extent resolves piecewise, page for
    page equal to the single-page chain walk, and a gap raises."""
    from repro.core.vpassthrough import populate_chain_epts
    from repro.hv.passthrough import (
        resolve_many_through_chain,
        resolve_through_chain,
    )

    stack = build_stack(StackConfig(levels=2, io_model="virtio"))
    populate_chain_epts(stack.leaf_vm, [(0x100, 8)])
    # Point one page at its run's first target: the leaf extent splits.
    stack.leaf_vm.ept.map(0x103, stack.leaf_vm.ept.lookup(0x100).target_pfn)
    runs = resolve_many_through_chain(stack.leaf_vm, [(0x100, 8)])
    assert len(runs) == 3
    assert [p for pfn, count, _h in runs for p in range(pfn, pfn + count)] == (
        list(range(0x100, 0x108))
    )
    for pfn, count, host in runs:
        for i in range(count):
            assert host + i == resolve_through_chain(stack.leaf_vm, pfn + i)
    with pytest.raises(KeyError, match="not mapped"):
        resolve_many_through_chain(stack.leaf_vm, [(0x100, 9)])
