"""Property tests for EPT page tables and shadow composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.ept import EptViolation, PageTable, Perm, compose

pfns = st.integers(min_value=0, max_value=(1 << 36) - 1)
perms = st.sampled_from([Perm.R, Perm.RW, Perm.RWX, Perm.R | Perm.X])


@given(st.dictionaries(pfns, pfns, max_size=50))
def test_map_translate_roundtrip(mapping):
    table = PageTable()
    for k, v in mapping.items():
        table.map(k, v, Perm.RWX)
    for k, v in mapping.items():
        assert table.translate(k) == v
    assert len(table) == len(mapping)


@given(st.dictionaries(pfns, pfns, min_size=1, max_size=30), st.data())
def test_unmap_removes_exactly_one(mapping, data):
    table = PageTable()
    for k, v in mapping.items():
        table.map(k, v)
    victim = data.draw(st.sampled_from(sorted(mapping)))
    assert table.unmap(victim)
    assert victim not in table
    for k in mapping:
        if k != victim:
            assert table.translate(k) == mapping[k]


@given(
    st.dictionaries(pfns, st.tuples(pfns, perms), max_size=30),
    st.dictionaries(pfns, st.tuples(pfns, perms), max_size=30),
)
def test_compose_equals_sequential_translation(inner_map, outer_map):
    """compose(outer, inner) must agree with translating through inner
    then outer, including permission intersection — the §3.5 shadow-table
    correctness property."""
    inner, outer = PageTable(), PageTable()
    for k, (v, p) in inner_map.items():
        inner.map(k, v, p)
    for k, (v, p) in outer_map.items():
        outer.map(k, v, p)
    shadow = compose(outer, inner)
    for k, (v, p_in) in inner_map.items():
        entry = outer_map.get(v)
        if entry is None:
            assert k not in shadow
            continue
        target, p_out = entry
        joint = p_in & p_out
        if joint == Perm.NONE:
            assert k not in shadow
            continue
        assert shadow.translate(k, Perm.NONE | joint) == target
        # And a permission outside the intersection must fault.
        for bit in (Perm.R, Perm.W, Perm.X):
            if bit & ~joint:
                try:
                    shadow.translate(k, bit)
                    assert False, "expected violation"
                except EptViolation:
                    pass


@given(st.lists(pfns, min_size=1, max_size=40, unique=True))
def test_entries_iteration_complete_and_sorted(keys):
    table = PageTable()
    for k in keys:
        table.map(k, k ^ 0xABC)
    listed = [pfn for pfn, _ in table.entries()]
    assert listed == sorted(keys)
