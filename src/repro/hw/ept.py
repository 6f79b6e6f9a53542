"""Extended page tables (EPT) and address-translation machinery.

A real 4-level radix page table over 4 KiB pages, mapping guest-physical
page frames to parent-physical page frames with permissions.  The same
structure backs:

* the EPT the host hypervisor builds for each of its VMs,
* the *shadow* EPT L0 builds for nested VMs (composition of per-level
  tables, Section 2),
* IOMMU DMA translation tables and the shadow IOMMU tables that make
  (virtual-) passthrough work (Sections 3.1, 3.5).

Write-protection supports dirty logging for live migration.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hw.mem import PAGE_SHIFT

__all__ = ["Perm", "EptViolation", "PageTable", "compose"]

#: Bits of page-frame number consumed per radix level (9 bits, x86-style).
LEVEL_BITS = 9
LEVELS = 4

# Precomputed shifts/mask for the (hot) unrolled 4-level walk.  The walk
# implementations below are hand-unrolled for LEVELS == 4; the constants
# stay the single source of truth for the geometry.
_S3 = LEVEL_BITS * 3
_S2 = LEVEL_BITS * 2
_S1 = LEVEL_BITS
_MASK = (1 << LEVEL_BITS) - 1
assert LEVELS == 4, "walks below are unrolled for a 4-level table"


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
    """A leaf page-table entry."""

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


class PageTable:
    """A 4-level radix page table keyed by page frame number.

    The radix nodes are real nested dicts, so a translation performs an
    actual multi-level walk — the walk depth is observable (and charged
    by callers that model walk latency).
    """

    def __init__(self, name: str = "ept") -> None:
        self.name = name
        self._root: Dict[int, dict] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _leaf_node(self, pfn: int) -> Dict[int, Pte]:
        """The leaf radix node for ``pfn``, creating missing interior
        nodes (unrolled 4-level descent)."""
        node = self._root
        nxt = node.get((pfn >> _S3) & _MASK)
        if nxt is None:
            nxt = node[(pfn >> _S3) & _MASK] = {}
        node = nxt
        nxt = node.get((pfn >> _S2) & _MASK)
        if nxt is None:
            nxt = node[(pfn >> _S2) & _MASK] = {}
        node = nxt
        nxt = node.get((pfn >> _S1) & _MASK)
        if nxt is None:
            nxt = node[(pfn >> _S1) & _MASK] = {}
        return nxt

    def map(self, pfn: int, target_pfn: int, perm: Perm = Perm.RWX) -> None:
        """Map guest pfn -> target pfn with permissions."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        node = self._leaf_node(pfn)
        leaf = pfn & _MASK
        if leaf not in node:
            self._count += 1
        node[leaf] = Pte(target_pfn, perm)

    def map_if_absent(self, pfn: int, target_pfn: int, perm: Perm = Perm.RWX) -> bool:
        """Map only if ``pfn`` has no entry yet; returns whether it
        mapped.  One walk instead of the ``in`` + :meth:`map` pair."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        node = self._leaf_node(pfn)
        leaf = pfn & _MASK
        if leaf in node:
            return False
        node[leaf] = Pte(target_pfn, perm)
        self._count += 1
        return True

    def map_many(self, items, perm: Perm = Perm.RWX) -> None:
        """Map ``(pfn, target_pfn)`` pairs, amortizing the radix walk
        across consecutive pfns that share a leaf node (a big win for
        the sorted, mostly contiguous DMA-pool ranges)."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        prev_hi = -1
        node: Dict[int, Pte] = {}
        added = 0
        for pfn, target_pfn in items:
            hi = pfn >> _S1
            if hi != prev_hi:
                node = self._leaf_node(pfn)
                prev_hi = hi
            leaf = pfn & _MASK
            if leaf not in node:
                added += 1
            node[leaf] = Pte(target_pfn, perm)
        self._count += added

    def map_many_pairs(
        self, pfns: List[int], targets: List[int], perm: Perm = Perm.RWX
    ) -> None:
        """:meth:`map_many` over parallel ``pfns`` / ``targets`` lists:
        leaf-node runs are found by scanning the pfn list alone and each
        run lands in one bulk dict update — the fast path for building
        shadow tables over the (sorted) DMA pool."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        if len(pfns) != len(targets):
            raise ValueError("pfns and targets must have the same length")
        i, n = 0, len(pfns)
        while i < n:
            pfn0 = pfns[i]
            hi = pfn0 >> _S1
            j = i + 1
            while j < n and (pfns[j] >> _S1) == hi:
                j += 1
            node = self._leaf_node(pfn0)
            before = len(node)
            node.update(
                {
                    p & _MASK: Pte(t, perm)
                    for p, t in zip(pfns[i:j], targets[i:j])
                }
            )
            self._count += len(node) - before
            i = j

    def map_many_if_absent(self, pfns, delta: int, perm: Perm = Perm.RWX) -> int:
        """Map ``pfn -> pfn + delta`` for every pfn without an entry yet
        (existing entries are kept); returns how many were added.  Same
        leaf-node run batching as :meth:`map_many`, with a bulk path for
        the common fresh-node case."""
        if perm == Perm.NONE:
            raise ValueError("cannot map with empty permissions")
        pfns = pfns if isinstance(pfns, list) else list(pfns)
        added = 0
        i, n = 0, len(pfns)
        while i < n:
            pfn0 = pfns[i]
            hi = pfn0 >> _S1
            j = i + 1
            while j < n and (pfns[j] >> _S1) == hi:
                j += 1
            node = self._leaf_node(pfn0)
            if node:
                for pfn in pfns[i:j]:
                    leaf = pfn & _MASK
                    if leaf not in node:
                        node[leaf] = Pte(pfn + delta, perm)
                        added += 1
            else:
                node.update({p & _MASK: Pte(p + delta, perm) for p in pfns[i:j]})
                added += len(node)
            i = j
        self._count += added
        return added

    def lookup_many(self, pfns) -> "List[Optional[Pte]]":
        """Batch :meth:`lookup` with one walk per run of pfns sharing a
        leaf node and a bulk gather per run."""
        pfns = pfns if isinstance(pfns, list) else list(pfns)
        out: List[Optional[Pte]] = []
        extend = out.extend
        root = self._root
        i, n = 0, len(pfns)
        while i < n:
            pfn0 = pfns[i]
            hi = pfn0 >> _S1
            j = i + 1
            while j < n and (pfns[j] >> _S1) == hi:
                j += 1
            node = root.get((pfn0 >> _S3) & _MASK)
            if node is not None:
                node = node.get((pfn0 >> _S2) & _MASK)
                if node is not None:
                    node = node.get(hi & _MASK)
            if node is None:
                extend([None] * (j - i))
            else:
                get = node.get
                extend([get(p & _MASK) for p in pfns[i:j]])
            i = j
        return out

    def unmap(self, pfn: int) -> bool:
        """Remove a mapping; returns whether it existed."""
        node = self._root.get((pfn >> _S3) & _MASK)
        if node is None:
            return False
        node = node.get((pfn >> _S2) & _MASK)
        if node is None:
            return False
        node = node.get((pfn >> _S1) & _MASK)
        if node is None:
            return False
        leaf = pfn & _MASK
        if leaf in node:
            del node[leaf]
            self._count -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def lookup(self, pfn: int) -> Optional[Pte]:
        """Walk the table; returns the PTE or None.  No permission check."""
        node = self._root.get((pfn >> _S3) & _MASK)
        if node is None:
            return None
        node = node.get((pfn >> _S2) & _MASK)
        if node is None:
            return None
        node = node.get((pfn >> _S1) & _MASK)
        if node is None:
            return None
        return node.get(pfn & _MASK)

    def translate(self, pfn: int, access: Perm = Perm.R) -> int:
        """Translate with permission enforcement; raises EptViolation."""
        pte = self.lookup(pfn)
        if pte is None:
            raise EptViolation(pfn, access, "not mapped")
        if access & ~pte.perm:
            raise EptViolation(pfn, access, f"permission {pte.perm!r}")
        pte.accessed = True
        if access & Perm.W:
            pte.dirty = True
        return pte.target_pfn

    def translate_addr(self, addr: int, access: Perm = Perm.R) -> int:
        """Translate a byte address (page offset preserved)."""
        target_pfn = self.translate(addr >> PAGE_SHIFT, access)
        return (target_pfn << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))

    # ------------------------------------------------------------------
    # Dirty logging via write protection
    # ------------------------------------------------------------------
    def write_protect_all(self) -> int:
        """Remove W from every mapping (start of a dirty-logging round).
        Returns the number of entries protected."""
        n = 0
        for pfn, pte in self.entries():
            if pte.perm & Perm.W:
                pte.saved_perm = pte.perm
                pte.perm = pte.perm & ~Perm.W
                pte.dirty = False
                n += 1
        return n

    def unprotect(self, pfn: int) -> None:
        """Restore W on one page (after logging the dirty page)."""
        pte = self.lookup(pfn)
        if pte is not None and pte.saved_perm is not None:
            pte.perm = pte.saved_perm
            pte.saved_perm = None
            pte.dirty = True

    def dirty_pages(self) -> Iterator[int]:
        """PFNs whose PTE dirty bit is set."""
        for pfn, pte in self.entries():
            if pte.dirty:
                yield pfn

    def clear_dirty(self) -> None:
        for _pfn, pte in self.entries():
            pte.dirty = False

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, Pte]]:
        """Yield (pfn, pte) for every mapping."""

        def walk(node: Dict[int, dict], depth: int, prefix: int):
            for idx in sorted(node):
                child = node[idx]
                pfn_part = (prefix << LEVEL_BITS) | idx
                if depth == LEVELS - 1:
                    yield pfn_part, child
                else:
                    yield from walk(child, depth + 1, pfn_part)

        yield from walk(self._root, 0, 0)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, pfn: int) -> bool:
        return self.lookup(pfn) is not None


def compose(outer: PageTable, inner: PageTable, name: str = "shadow") -> PageTable:
    """Build a shadow table equivalent to translating through ``inner``
    then ``outer`` (inner: Ln->Lk addresses, outer: Lk->host).

    This is exactly the shadow-page-table construction the paper relies on
    for recursive virtual-passthrough (Section 3.5, Figure 6): the L1
    virtual IOMMU holds the combined mappings from Ln VM physical addresses
    to L1 VM physical addresses.

    Permissions intersect.  Inner mappings whose target is not present in
    ``outer`` are skipped (they fault on demand at use time).
    """
    shadow = PageTable(name=name)
    for pfn, pte in inner.entries():
        outer_pte = outer.lookup(pte.target_pfn)
        if outer_pte is None:
            continue
        perm = pte.perm & outer_pte.perm
        if perm == Perm.NONE:
            continue
        shadow.map(pfn, outer_pte.target_pfn, perm)
    return shadow
