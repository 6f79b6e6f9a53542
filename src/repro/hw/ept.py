"""Extended page tables (EPT) and address-translation machinery.

A page table maps guest-physical page frames (4 KiB pages) to
parent-physical page frames with permissions.  The same structure backs:

* the EPT the host hypervisor builds for each of its VMs,
* the *shadow* EPT L0 builds for nested VMs (composition of per-level
  tables, Section 2),
* IOMMU DMA translation tables and the shadow IOMMU tables that make
  (virtual-) passthrough work (Sections 3.1, 3.5).

Mappings are stored as sorted *extents*: runs of consecutive pfns that
map to consecutive target pfns with one permission.  The driver DMA
pools every stack maps are a handful of long runs, so a table holding
16,384 pages typically holds eight extents.  Per-page state is kept
only where pages diverge from their extent: the dirty and accessed bits
live in small per-table sets.  The table models *what* translates, not
how long a walk takes; callers charge walk latency as flat costs (for
example ``vp_nested_ept_walk``).

Write-protection supports dirty logging for live migration.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.hw.mem import PAGE_SHIFT

__all__ = ["Perm", "EptViolation", "PageTable", "compose"]


class Perm(enum.IntFlag):
    """Page permissions."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    RW = R | W
    RWX = R | W | X


class EptViolation(Exception):
    """Raised on a translation miss or permission failure."""

    def __init__(self, pfn: int, access: Perm, reason: str) -> None:
        super().__init__(f"EPT violation at pfn {pfn:#x} ({access!r}): {reason}")
        self.pfn = pfn
        self.access = access
        self.reason = reason


class Pte:
    """A snapshot of one page's entry, as :meth:`PageTable.lookup` and
    :meth:`PageTable.entries` report it; changing it does not change the
    table."""

    __slots__ = ("target_pfn", "perm", "saved_perm", "dirty", "accessed")

    def __init__(
        self,
        target_pfn: int,
        perm: "Perm",
        saved_perm: Optional["Perm"] = None,
        dirty: bool = False,
        accessed: bool = False,
    ) -> None:
        self.target_pfn = target_pfn
        self.perm = perm
        #: Original permission before write-protection for dirty logging.
        self.saved_perm = saved_perm
        self.dirty = dirty
        self.accessed = accessed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pte(target_pfn={self.target_pfn:#x}, perm={self.perm!r}, "
            f"dirty={self.dirty})"
        )


#: One extent: ``(count, target_pfn, perm, saved_perm)``; its first pfn
#: sits at the same index of the parallel ``_starts`` list.
_Extent = Tuple[int, int, Perm, Optional[Perm]]


class PageTable:
    """A page table stored as sorted, non-overlapping extents.

    ``_starts[i]`` is the first pfn of extent ``_exts[i]``; lookups
    bisect over ``_starts``.  Adjacent extents that continue each other
    (contiguous targets, equal permissions) are merged, so mapping a run
    page by page or all at once ends in the same storage.
    """

    def __init__(self, name: str = "ept") -> None:
        self.name = name
        self._starts: List[int] = []
        self._exts: List[_Extent] = []
        self._count = 0
        #: Per-page overlays: pages whose dirty / accessed bit is set.
        self._dirty: Set[int] = set()
        self._accessed: Set[int] = set()

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def _find(self, pfn: int) -> int:
        """Index of the extent holding ``pfn``, or -1."""
        i = bisect_right(self._starts, pfn) - 1
        if i >= 0 and pfn < self._starts[i] + self._exts[i][0]:
            return i
        return -1

    def _split(self, pfn: int) -> None:
        """Make ``pfn`` the first page of an extent if it falls inside one."""
        i = self._find(pfn)
        if i < 0 or self._starts[i] == pfn:
            return
        count, target, perm, saved = self._exts[i]
        head = pfn - self._starts[i]
        self._exts[i] = (head, target, perm, saved)
        self._starts.insert(i + 1, pfn)
        self._exts.insert(i + 1, (count - head, target + head, perm, saved))

    def _isolate(self, pfn: int) -> int:
        """Split mapped page ``pfn`` into an extent of its own; returns
        that extent's index."""
        self._split(pfn)
        self._split(pfn + 1)
        return self._find(pfn)

    def _merge(self, i: int) -> None:
        """Merge extent ``i`` with the neighbours it continues."""
        starts, exts = self._starts, self._exts
        for j in (i, i - 1):  # (i, i+1) first, so index i-1 stays valid
            if 0 <= j and j + 1 < len(starts):
                c0, t0, p0, s0 = exts[j]
                c1, t1, p1, s1 = exts[j + 1]
                if (
                    starts[j] + c0 == starts[j + 1]
                    and t0 + c0 == t1
                    and p0 == p1
                    and s0 == s1
                ):
                    exts[j] = (c0 + c1, t0, p0, s0)
                    del starts[j + 1], exts[j + 1]

    @staticmethod
    def _drop(flags: Set[int], pfn: int, count: int) -> None:
        """Remove ``[pfn, pfn + count)`` from a per-page overlay set."""
        if not flags:
            return
        if count < len(flags):
            flags.difference_update(range(pfn, pfn + count))
        else:
            end = pfn + count
            flags.difference_update([p for p in flags if pfn <= p < end])

    def _forget(self, pfn: int, count: int) -> None:
        """Drop the per-page overlay bits of ``[pfn, pfn + count)``."""
        self._drop(self._dirty, pfn, count)
        self._drop(self._accessed, pfn, count)

    def _map_range(self, pfn: int, count: int, target_pfn: int, perm: Perm) -> None:
        """Map ``pfn + i -> target_pfn + i`` for ``i < count`` with fresh
        entries, replacing whatever mapped those pages before."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        if count <= 0:
            return
        end = pfn + count
        self._split(pfn)
        self._split(end)
        starts, exts = self._starts, self._exts
        lo = bisect_left(starts, pfn)
        hi = bisect_left(starts, end)
        self._count += count - sum(e[0] for e in exts[lo:hi])
        starts[lo:hi] = [pfn]
        exts[lo:hi] = [(count, target_pfn, perm, None)]
        self._forget(pfn, count)
        self._merge(lo)

    def _fill(self, pfn: int, count: int, target_pfn: int, perm: Perm) -> int:
        """:meth:`_map_range` restricted to the pages of the range that
        have no entry yet; returns how many it mapped."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        gaps = []
        cur = pfn
        for start, n, _target, _perm in self.extents(pfn, count):
            if start > cur:
                gaps.append((cur, start - cur))
            cur = start + n
        if cur < pfn + count:
            gaps.append((cur, pfn + count - cur))
        for gap, n in gaps:
            self._map_range(gap, n, target_pfn + (gap - pfn), perm)
        return sum(n for _gap, n in gaps)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def map(self, pfn: int, target_pfn: int, perm: Perm = Perm.RWX) -> None:
        """Map guest pfn -> target pfn with permissions."""
        self._map_range(pfn, 1, target_pfn, perm)

    def map_if_absent(self, pfn: int, target_pfn: int, perm: Perm = Perm.RWX) -> bool:
        """Map only if ``pfn`` has no entry yet; returns whether it mapped."""
        return self._fill(pfn, 1, target_pfn, perm) == 1

    def map_many(
        self, runs: Iterable[Tuple[int, int, int]], perm: Perm = Perm.RWX
    ) -> None:
        """Map ``(pfn, count, target_pfn)`` runs: each maps ``count``
        consecutive pages onto consecutive targets."""
        for pfn, count, target_pfn in runs:
            self._map_range(pfn, count, target_pfn, perm)

    def map_many_pairs(
        self, pfns: List[int], targets: List[int], perm: Perm = Perm.RWX
    ) -> None:
        """:meth:`map` over parallel ``pfns`` / ``targets`` lists."""
        if len(pfns) != len(targets):
            raise ValueError("pfns and targets must have the same length")
        self.map_many([(p, 1, t) for p, t in zip(pfns, targets)], perm)

    def map_many_if_absent(
        self, runs: Iterable[Tuple[int, int]], delta: int, perm: Perm = Perm.RWX
    ) -> int:
        """Map ``pfn -> pfn + delta`` for every page of the ``(pfn,
        count)`` runs that has no entry yet (existing entries are kept);
        returns how many were added."""
        return sum(self._fill(pfn, count, pfn + delta, perm) for pfn, count in runs)

    def lookup_many(self, pfns: Iterable[int]) -> "List[Optional[Pte]]":
        """:meth:`lookup` over many pfns."""
        return [self.lookup(pfn) for pfn in pfns]

    def unmap(self, pfn: int) -> bool:
        """Remove a mapping; returns whether it existed."""
        if self._find(pfn) < 0:
            return False
        i = self._isolate(pfn)
        del self._starts[i], self._exts[i]
        self._count -= 1
        self._forget(pfn, 1)
        return True

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def lookup(self, pfn: int) -> Optional[Pte]:
        """A snapshot of ``pfn``'s entry, or None.  No permission check."""
        i = self._find(pfn)
        if i < 0:
            return None
        _count, target, perm, saved = self._exts[i]
        return Pte(
            target + (pfn - self._starts[i]),
            perm,
            saved,
            pfn in self._dirty,
            pfn in self._accessed,
        )

    def translate(self, pfn: int, access: Perm = Perm.R) -> int:
        """Translate with permission enforcement; raises EptViolation."""
        i = self._find(pfn)
        if i < 0:
            raise EptViolation(pfn, access, "not mapped")
        _count, target, perm, _saved = self._exts[i]
        if access & ~perm:
            raise EptViolation(pfn, access, f"permission {perm!r}")
        self._accessed.add(pfn)
        if access & Perm.W:
            self._dirty.add(pfn)
        return target + (pfn - self._starts[i])

    def translate_addr(self, addr: int, access: Perm = Perm.R) -> int:
        """Translate a byte address (page offset preserved)."""
        target_pfn = self.translate(addr >> PAGE_SHIFT, access)
        return (target_pfn << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))

    # ------------------------------------------------------------------
    # Dirty logging via write protection
    # ------------------------------------------------------------------
    def write_protect_all(self) -> int:
        """Remove W from every mapping (start of a dirty-logging round).
        Returns the number of pages protected."""
        n = 0
        for i, (count, target, perm, _saved) in enumerate(self._exts):
            if perm & Perm.W:
                self._exts[i] = (count, target, perm & ~Perm.W, perm)
                self._drop(self._dirty, self._starts[i], count)
                n += count
        return n

    def unprotect(self, pfn: int) -> None:
        """Restore W on one page (after logging the dirty page)."""
        i = self._find(pfn)
        if i < 0 or self._exts[i][3] is None:
            return
        i = self._isolate(pfn)
        count, target, _perm, saved = self._exts[i]
        self._exts[i] = (count, target, saved, None)
        self._dirty.add(pfn)
        self._merge(i)

    def dirty_pages(self) -> Iterator[int]:
        """PFNs whose dirty bit is set, in pfn order."""
        yield from sorted(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def extents(
        self, pfn: int = 0, count: Optional[int] = None
    ) -> Iterator[Tuple[int, int, int, Perm]]:
        """Yield ``(pfn, count, target_pfn, perm)`` for every extent in
        pfn order, clipped to ``[pfn, pfn + count)`` when a range is
        given (the whole table from ``pfn`` on when ``count`` is None)."""
        starts, exts = self._starts, self._exts
        end = None if count is None else pfn + count
        for i in range(max(bisect_right(starts, pfn) - 1, 0), len(starts)):
            start = starts[i]
            if end is not None and start >= end:
                break
            n, target, perm, _saved = exts[i]
            lo = max(start, pfn)
            hi = start + n if end is None else min(start + n, end)
            if lo < hi:
                yield lo, hi - lo, target + (lo - start), perm

    def entries(self) -> Iterator[Tuple[int, Pte]]:
        """Yield (pfn, pte snapshot) for every mapped page, in pfn order."""
        for start, count, _target, _perm in self.extents():
            for pfn in range(start, start + count):
                yield pfn, self.lookup(pfn)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, pfn: int) -> bool:
        return self._find(pfn) >= 0


def compose(outer: PageTable, inner: PageTable, name: str = "shadow") -> PageTable:
    """Build a shadow table equivalent to translating through ``inner``
    then ``outer`` (inner: Ln->Lk addresses, outer: Lk->host).

    This is exactly the shadow-page-table construction the paper relies on
    for recursive virtual-passthrough (Section 3.5, Figure 6): the L1
    virtual IOMMU holds the combined mappings from Ln VM physical addresses
    to L1 VM physical addresses.

    Permissions intersect.  Inner mappings whose target is not present in
    ``outer`` are skipped (they fault on demand at use time).  Each inner
    extent is intersected with the outer extents its targets fall in.
    """
    shadow = PageTable(name=name)
    for pfn, count, target, perm in inner.extents():
        for opfn, ocount, otarget, operm in outer.extents(target, count):
            joint = perm & operm
            if joint != Perm.NONE:
                shadow.map_many([(pfn + (opfn - target), ocount, otarget)], joint)
    return shadow
