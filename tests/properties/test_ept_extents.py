"""Differential property test: the extent-based page table against a
plain per-page ``dict`` reference model.

Random sequences of operations run on both; after every step they must
agree on translations (including which accesses raise
:class:`EptViolation`), ``len()``, ``entries()``, ``dirty_pages()`` and
the values the operations return.  PFNs are drawn from a small window so
runs overlap, nest, abut and split extents often.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.ept import EptViolation, PageTable, Perm

SPAN = 32
pfns = st.integers(min_value=0, max_value=SPAN - 1)
targets = st.integers(min_value=0, max_value=2 * SPAN)
counts = st.integers(min_value=1, max_value=12)
#: Few distinct offsets, so separately mapped runs often continue each
#: other and extents merge (or must not, when their state differs).
deltas = st.sampled_from([-4, 0, 4, 16])
perms = st.sampled_from([Perm.R, Perm.RW, Perm.RWX, Perm.R | Perm.X])
accesses = st.sampled_from([Perm.R, Perm.W])

ops = st.one_of(
    st.tuples(st.just("map"), pfns, targets, perms),
    st.tuples(st.just("map_if_absent"), pfns, targets, perms),
    st.tuples(
        st.just("map_many"),
        st.lists(st.tuples(pfns, counts, targets), min_size=1, max_size=4),
        perms,
    ),
    st.tuples(
        st.just("map_many_if_absent"),
        st.lists(st.tuples(pfns, counts), min_size=1, max_size=4),
        deltas,
        perms,
    ),
    st.tuples(st.just("unmap"), pfns),
    st.tuples(st.just("translate"), pfns, accesses),
    st.tuples(st.just("translate"), pfns, st.just(Perm.W)),
    st.tuples(st.just("write_protect_all")),
    st.tuples(st.just("unprotect"), pfns),
    st.tuples(st.just("clear_dirty")),
)


class Model:
    """Per-page reference: pfn -> [target, perm, saved_perm, dirty, accessed]."""

    def __init__(self) -> None:
        self.pages = {}

    def map(self, pfn, target, perm):
        self.pages[pfn] = [target, perm, None, False, False]

    def map_if_absent(self, pfn, target, perm):
        if pfn in self.pages:
            return False
        self.map(pfn, target, perm)
        return True

    def map_many(self, runs, perm):
        for pfn, count, target in runs:
            for i in range(count):
                self.map(pfn + i, target + i, perm)

    def map_many_if_absent(self, runs, delta, perm):
        return sum(
            self.map_if_absent(pfn + i, pfn + i + delta, perm)
            for pfn, count in runs
            for i in range(count)
        )

    def unmap(self, pfn):
        return self.pages.pop(pfn, None) is not None

    def translate(self, pfn, access):
        entry = self.pages.get(pfn)
        if entry is None:
            raise EptViolation(pfn, access, "not mapped")
        if access & ~entry[1]:
            raise EptViolation(pfn, access, f"permission {entry[1]!r}")
        entry[4] = True
        if access & Perm.W:
            entry[3] = True
        return entry[0]

    def write_protect_all(self):
        n = 0
        for entry in self.pages.values():
            if entry[1] & Perm.W:
                entry[2] = entry[1]
                entry[1] = entry[1] & ~Perm.W
                entry[3] = False
                n += 1
        return n

    def unprotect(self, pfn):
        entry = self.pages.get(pfn)
        if entry is not None and entry[2] is not None:
            entry[1], entry[2], entry[3] = entry[2], None, True

    def clear_dirty(self):
        for entry in self.pages.values():
            entry[3] = False

    def dirty_pages(self):
        return [pfn for pfn in sorted(self.pages) if self.pages[pfn][3]]


def outcome(fn, *args):
    """A call's return value, or the violation it raised."""
    try:
        return ("ok", fn(*args))
    except EptViolation as exc:
        return ("violation", exc.pfn, exc.access, exc.reason)


def assert_agree(table, model):
    assert len(table) == len(model.pages)
    listed = [
        (pfn, [pte.target_pfn, pte.perm, pte.saved_perm, pte.dirty, pte.accessed])
        for pfn, pte in table.entries()
    ]
    assert listed == sorted(model.pages.items())
    assert list(table.dirty_pages()) == model.dirty_pages()
    # The storage itself: sorted, disjoint extents covering len() pages.
    extents = list(table.extents())
    assert sum(count for _pfn, count, _t, _p in extents) == len(table)
    for (a, n, _t, _p), (b, _m, _u, _q) in zip(extents, extents[1:]):
        assert a + n <= b


@settings(max_examples=500, deadline=None)
@given(st.lists(ops, max_size=60))
def test_extent_table_matches_per_page_model(sequence):
    table, model = PageTable(), Model()
    for op, *args in sequence:
        got = outcome(getattr(table, op), *args)
        want = outcome(getattr(model, op), *args)
        assert got == want, (op, args)
        assert_agree(table, model)
    # Every page in the window translates the same way at the end.
    for pfn in range(SPAN):
        for access in (Perm.R, Perm.W):
            assert outcome(table.translate, pfn, access) == outcome(
                model.translate, pfn, access
            )
    assert_agree(table, model)


@given(st.lists(st.tuples(pfns, counts, targets), min_size=1, max_size=6), perms)
def test_page_by_page_and_run_mapping_store_alike(runs, perm):
    """Merging makes storage canonical: mapping runs whole or one page at
    a time ends in the same extents."""
    whole, paged = PageTable(), PageTable()
    whole.map_many(runs, perm)
    for pfn, count, target in runs:
        for i in range(count):
            paged.map(pfn + i, target + i, perm)
    assert list(whole.extents()) == list(paged.extents())
    assert len(whole) == len(paged)
