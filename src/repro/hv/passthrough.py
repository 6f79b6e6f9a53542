"""Device assignment: the passthrough model (Figure 2b).

Assigning a device to a (nested) VM means: unbind it from the current
driver, map its BAR windows into the VM without trapping, build the IOMMU
DMA mappings from device-visible IOVAs (the VM's guest-physical addresses)
to host-physical addresses — composed across every nesting level — and
point the device's interrupts at the VM's vCPU through VT-d posted
interrupts.

This is also the machinery virtual-passthrough reuses unchanged in the
guest hypervisors ("what the guest hypervisor does with virtual-passthrough
is exactly the same as what it does with the regular passthrough model",
§3.1); the virtual-device variant lives in :mod:`repro.core.vpassthrough`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Tuple

from repro.hw.ept import PageTable, Perm
from repro.hw.iommu import Irte, IrteMode
from repro.hw.mem import PAGE_SHIFT
from repro.hw.pci import PciDevice

__all__ = [
    "assign_physical_device",
    "MigrationNotSupported",
    "dma_pool_pfns",
    "dma_pool_runs",
    "resolve_through_chain",
    "resolve_many_through_chain",
]

#: Pages each driver pre-maps for DMA (RX + TX pools).
from repro.hv.virtio_backend import QUEUE_POOL_STRIDE, RX_POOL_BASE, TX_POOL_BASE


class MigrationNotSupported(RuntimeError):
    """Raised when migrating a VM that uses physical device passthrough —
    the key limitation DVH removes (§1, §3.6)."""


@lru_cache(maxsize=16)
def _dma_pool_pfns_cached(
    buffers: int, buf_size: int, queues: int
) -> Tuple[int, ...]:
    pfns = set()
    for base in (RX_POOL_BASE, TX_POOL_BASE):
        for q in range(queues):
            qbase = base + q * QUEUE_POOL_STRIDE
            for i in range(buffers):
                addr = qbase + i * buf_size
                start = addr >> PAGE_SHIFT
                end = (addr + buf_size - 1) >> PAGE_SHIFT
                pfns.update(range(start, end + 1))
    return tuple(sorted(pfns))


def dma_pool_pfns(
    buffers: int = 128, buf_size: int = 65536, queues: int = 4
) -> List[int]:
    """Guest page frames of the standard driver DMA pools (covering every
    multiqueue pool stride).

    The pool layout is a pure function of its parameters, so the
    computed frame set is cached; callers get a fresh list they are free
    to mutate.
    """
    return list(_dma_pool_pfns_cached(buffers, buf_size, queues))


@lru_cache(maxsize=16)
def dma_pool_runs(
    buffers: int = 128, buf_size: int = 65536, queues: int = 4
) -> Tuple[Tuple[int, int], ...]:
    """The frames of :func:`dma_pool_pfns` as ``(first pfn, page count)``
    runs of consecutive pages (one per queue pool), cached likewise."""
    runs: List[List[int]] = []
    for pfn in _dma_pool_pfns_cached(buffers, buf_size, queues):
        if runs and runs[-1][0] + runs[-1][1] == pfn:
            runs[-1][1] += 1
        else:
            runs.append([pfn, 1])
    return tuple((pfn, count) for pfn, count in runs)


def resolve_through_chain(leaf_vm, pfn: int) -> int:
    """Translate a leaf-VM page frame to a host page frame by walking the
    EPTs of every nesting level (the shadow-table composition of §3.5)."""
    vm = leaf_vm
    current = pfn
    while vm is not None:
        pte = vm.ept.lookup(current)
        if pte is None:
            raise KeyError(
                f"{vm.name}: pfn {current:#x} not mapped in its EPT"
            )
        current = pte.target_pfn
        vm = vm.manager.vm if vm.manager is not None else None
    return current


def resolve_many_through_chain(
    leaf_vm, runs: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int, int]]:
    """Batch :func:`resolve_through_chain` over ``(pfn, count)`` runs of
    leaf pages: one pass per nesting level, each run split wherever the
    level's EPT extents split it.  Returns ``(leaf pfn, count, host
    pfn)`` runs, ready for :meth:`~repro.hw.ept.PageTable.map_many`."""
    current = [(pfn, count, pfn) for pfn, count in runs]
    vm = leaf_vm
    while vm is not None:
        resolved = []
        for leaf, count, pfn in current:
            expect = pfn
            for start, n, target, _perm in vm.ept.extents(pfn, count):
                if start != expect:
                    break
                resolved.append((leaf + (start - pfn), n, target))
                expect = start + n
            if expect != pfn + count:
                raise KeyError(f"{vm.name}: pfn {expect:#x} not mapped in its EPT")
        current = resolved
        vm = vm.manager.vm if vm.manager is not None else None
    return current


def assign_physical_device(
    machine,
    device: PciDevice,
    leaf_vm,
    runs: Iterable[Tuple[int, int]],
) -> PageTable:
    """Assign a physical device (e.g. an SR-IOV VF) to ``leaf_vm``.

    Builds the physical IOMMU domain with composed mappings for the
    ``(pfn, count)`` runs of leaf pages and maps the device BARs through
    without trapping.  Marks the VM (and every VM on its chain) as having
    a hardware dependency, which blocks migration.  Returns the IOMMU
    domain table.
    """
    costs = machine.costs
    device.assigned_to = leaf_vm
    # BARs visible (and non-trapping) inside the leaf.
    for bar in device.bars:
        if bar.base is not None:
            leaf_vm.map_mmio_no_trap(bar.base, bar.size)
    domain = machine.iommu.attach(device)
    levels = leaf_vm.level
    runs = list(runs)
    domain.map_many(resolve_many_through_chain(leaf_vm, runs), Perm.RW)
    machine.metrics.charge(
        "setup",
        costs.shadow_iommu_map_page * levels * sum(count for _pfn, count in runs),
    )
    # VT-d posted interrupts straight to the leaf's first vCPU.
    if leaf_vm.vcpus:
        machine.iommu.set_irte(
            device,
            0,
            Irte(
                mode=IrteMode.POSTED,
                vector=0x40,
                pi_descriptor=leaf_vm.vcpus[0].pi_desc,
            ),
        )
    # Physical passthrough couples the VM to the hardware: flag the whole
    # chain as unmigratable.
    vm = leaf_vm
    while vm is not None:
        vm.hardware_coupled = True
        vm = vm.manager.vm if vm.manager is not None else None
    return domain
