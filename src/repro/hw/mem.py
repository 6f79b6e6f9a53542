"""Guest/host physical memory spaces with page-granular dirty tracking.

Memory contents are modelled sparsely: a :class:`MemorySpace` stores Python
objects at addresses.  What matters for the reproduction is not byte-level
data but (a) which *pages* are touched — the input to live-migration dirty
logging (paper Section 3.6) — and (b) the address-translation paths
(EPT / IOMMU) data must cross.

Touched and dirtied pages are kept as :class:`PageRuns` — sorted, merged
``[start, end)`` page runs — not as per-page sets: guest writes and DMA
cover contiguous pages and re-dirty the same working set round after
round, so a write is one bisect (and usually an early return) instead of
one hash per page it covers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Set as AbstractSet
from heapq import merge
from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple

__all__ = [
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "DirtyLog",
    "MemorySpace",
    "PageRuns",
    "page_of",
    "pages_in_range",
]

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT


def page_of(addr: int) -> int:
    """Page frame number containing ``addr``."""
    return addr >> PAGE_SHIFT


def pages_in_range(addr: int, size: int) -> range:
    """Page frame numbers covering ``[addr, addr + size)``."""
    if size <= 0:
        return range(0)
    return range(addr >> PAGE_SHIFT, ((addr + size - 1) >> PAGE_SHIFT) + 1)


class PageRuns(AbstractSet):
    """A set of page frame numbers stored as sorted, disjoint, merged
    ``[start, end)`` runs.

    Reads like a read-only ``set`` of ints (``in``, ``len``, sorted
    iteration, ``==`` against any set); changes only through
    :meth:`add_range`, ``|=`` and ``-=``.  ``|`` and ``-`` (and the
    in-place forms) work on runs, never page by page, whichever side the
    other operand is on.
    Adjacent runs are always merged, so two equal sets have equal runs.
    """

    __slots__ = ("_starts", "_ends", "_count")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._count = 0

    @classmethod
    def from_pages(cls, pages: Iterable[int]) -> "PageRuns":
        """``pages`` as runs (a :class:`PageRuns` is returned as is)."""
        if isinstance(pages, PageRuns):
            return pages
        return cls._from_runs((page, page + 1) for page in sorted(set(pages)))

    _from_iterable = from_pages

    @classmethod
    def _from_runs(cls, runs: Iterable[Tuple[int, int]]) -> "PageRuns":
        """Build from runs sorted by start (they may overlap or abut)."""
        out = cls()
        starts, ends = out._starts, out._ends
        for start, end in runs:
            if ends and start <= ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            elif start < end:
                starts.append(start)
                ends.append(end)
        out._count = sum(ends) - sum(starts)
        return out

    def add_range(self, start: int, end: int) -> None:
        """Add pages ``[start, end)``."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, start) - 1
        if i >= 0 and end <= ends[i]:
            return  # already covered: the re-dirty fast path
        # Runs are disjoint and never abut, so only run ``i`` can reach
        # ``start``; every run starting at or before ``end`` merges in.
        lo = i if i >= 0 and ends[i] >= start else i + 1
        hi = bisect_right(starts, end, lo)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
            self._count -= sum(ends[lo:hi]) - sum(starts[lo:hi])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]
        self._count += end - start

    def runs(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` runs, in order."""
        return list(zip(self._starts, self._ends))

    def __contains__(self, page: object) -> bool:
        i = bisect_right(self._starts, page) - 1
        return i >= 0 and page < self._ends[i]

    def __iter__(self) -> Iterator[int]:
        for start, end in zip(self._starts, self._ends):
            yield from range(start, end)

    def __len__(self) -> int:
        return self._count

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PageRuns):
            return self._starts == other._starts and self._ends == other._ends
        return super().__eq__(other)

    def __or__(self, other: Iterable[int]) -> "PageRuns":
        other = PageRuns.from_pages(other)
        return PageRuns._from_runs(
            merge(zip(self._starts, self._ends), zip(other._starts, other._ends))
        )

    __ror__ = __or__

    def __sub__(self, other: Iterable[int]) -> "PageRuns":
        other = PageRuns.from_pages(other)
        ostarts, oends = other._starts, other._ends
        kept: List[Tuple[int, int]] = []
        j = 0
        for start, end in zip(self._starts, self._ends):
            while j < len(ostarts) and oends[j] <= start:
                j += 1
            k = j
            while start < end and k < len(ostarts) and ostarts[k] < end:
                if ostarts[k] > start:
                    kept.append((start, ostarts[k]))
                start = max(start, oends[k])
                k += 1
            if start < end:
                kept.append((start, end))
        return PageRuns._from_runs(kept)

    def __rsub__(self, other: Iterable[int]) -> "PageRuns":
        return PageRuns.from_pages(other) - self

    def __ior__(self, other: Iterable[int]) -> "PageRuns":
        for start, end in PageRuns.from_pages(other).runs():
            self.add_range(start, end)
        return self

    def __isub__(self, other: Iterable[int]) -> "PageRuns":
        out = self - other
        self._starts, self._ends, self._count = out._starts, out._ends, out._count
        return self

    def __repr__(self) -> str:
        return f"PageRuns({self.runs()!r})"


class MemorySpace:
    """A (guest- or host-) physical address space.

    ``size_bytes`` bounds the valid address range.  Writes optionally feed
    any number of attached dirty logs — the hypervisor's migration code
    attaches/detaches logs around pre-copy rounds.
    """

    def __init__(self, size_bytes: int, name: str = "mem") -> None:
        if size_bytes <= 0:
            raise ValueError("memory size must be positive")
        self.size_bytes = size_bytes
        self.name = name
        self._cells: Dict[int, Any] = {}
        self._dirty_logs: Set["DirtyLog"] = set()
        #: Pages ever written (used to size migration's first pre-copy pass).
        self.touched_pages = PageRuns()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check(self, addr: int, size: int = 1) -> None:
        if addr < 0 or addr + size > self.size_bytes:
            raise IndexError(
                f"{self.name}: access [{addr:#x}, +{size}) outside "
                f"{self.size_bytes:#x}-byte space"
            )

    def read(self, addr: int) -> Any:
        self._check(addr)
        return self._cells.get(addr)

    def write(self, addr: int, value: Any) -> None:
        self._check(addr)
        self._cells[addr] = value
        self._mark_dirty(addr, 1)

    def write_range(self, addr: int, size: int) -> None:
        """Mark a bulk write (e.g. a DMA of ``size`` bytes) without storing
        per-byte contents."""
        self._check(addr, size)
        self._mark_dirty(addr, size)

    def _mark_dirty(self, addr: int, size: int) -> None:
        pages = pages_in_range(addr, size)
        start, end = pages.start, pages.stop
        self.touched_pages.add_range(start, end)
        for log in self._dirty_logs:
            log.pages.add_range(start, end)

    # ------------------------------------------------------------------
    # Dirty logging
    # ------------------------------------------------------------------
    def attach_dirty_log(self, log: "DirtyLog") -> None:
        self._dirty_logs.add(log)

    def detach_dirty_log(self, log: "DirtyLog") -> None:
        self._dirty_logs.discard(log)

    @property
    def total_pages(self) -> int:
        return (self.size_bytes + PAGE_SIZE - 1) >> PAGE_SHIFT


class DirtyLog:
    """Dirtied page frame numbers (as :class:`PageRuns`), drainable in
    rounds."""

    def __init__(self, name: str = "dirty") -> None:
        self.name = name
        self.pages = PageRuns()

    def mark_range(self, addr: int, size: int) -> None:
        """Log the pages covering ``[addr, addr + size)`` (none when
        ``size <= 0``, as :func:`pages_in_range`)."""
        pages = pages_in_range(addr, size)
        self.pages.add_range(pages.start, pages.stop)

    def drain(self) -> PageRuns:
        """Return and clear the currently logged dirty pages."""
        out = self.pages
        self.pages = PageRuns()
        return out

    def __len__(self) -> int:
        return len(self.pages)
