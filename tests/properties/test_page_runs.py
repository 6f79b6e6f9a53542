"""Differential property test: :class:`PageRuns` against a plain ``set``
reference model.

Random sequences of ``add_range`` (overlapping, adjacent, nested, empty
and single-page ranges), membership, union, difference, intersection and
``DirtyLog`` marking/draining run on both; after every step they must
agree on ``len()``, sorted iteration and ``==`` in both directions, and
the runs must stay sorted, disjoint and merged.  Pages are drawn from a
small window so runs touch and overlap often.

The shape test pins what makes the run representation pay off: the
study's migration dirtier re-touches one contiguous window, so every
drained CPU log and the leaf VM's touched pages are a single run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.mem import PAGE_SIZE, DirtyLog, MemorySpace, PageRuns, pages_in_range

SPAN = 40
pages = st.integers(min_value=0, max_value=SPAN - 1)
lengths = st.integers(min_value=0, max_value=10)
ranges = st.lists(st.tuples(pages, lengths), max_size=4)

ops = st.one_of(
    st.tuples(st.just("add"), pages, lengths),
    st.tuples(st.just("contains"), st.integers(min_value=-1, max_value=SPAN + 10)),
    st.tuples(st.just("union"), ranges),
    st.tuples(st.just("difference"), ranges),
    st.tuples(st.just("intersection"), ranges),
    st.tuples(st.just("ior"), ranges),
    st.tuples(st.just("isub"), ranges),
    st.tuples(
        st.just("mark"),
        st.integers(min_value=0, max_value=SPAN * PAGE_SIZE),
        st.integers(min_value=-1, max_value=3 * PAGE_SIZE),
    ),
    st.tuples(st.just("drain")),
)


def build(spans):
    runs, model = PageRuns(), set()
    for start, length in spans:
        runs.add_range(start, start + length)
        model.update(range(start, start + length))
    return runs, model


def check(runs, model):
    assert len(runs) == len(model)
    assert list(runs) == sorted(model)
    assert runs == model and model == runs
    assert not runs != model
    assert runs == PageRuns.from_pages(model)
    spans = runs.runs()
    assert all(start < end for start, end in spans)
    # Sorted, disjoint and never abutting: equal sets have equal runs.
    assert all(a_end < b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
    assert sum(end - start for start, end in spans) == len(model)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=40))
def test_page_runs_match_a_set(steps):
    log = DirtyLog()
    model = set()
    for op in steps:
        runs = log.pages
        kind = op[0]
        if kind == "add":
            _, start, length = op
            runs.add_range(start, start + length)
            model.update(range(start, start + length))
        elif kind == "contains":
            assert (op[1] in runs) == (op[1] in model)
        elif kind in ("union", "difference", "intersection"):
            other, other_model = build(op[1])
            if kind == "union":
                expected = model | other_model
                results = (runs | other, runs | other_model, other_model | runs)
            elif kind == "difference":
                expected = model - other_model
                results = (runs - other, runs - other_model)
                check(other_model - runs, other_model - model)
            else:
                expected = model & other_model
                results = (runs & other, runs & other_model, other_model & runs)
            for result in results:
                assert isinstance(result, PageRuns)
                check(result, expected)
            check(runs, model)  # operands are left alone
            check(other, other_model)
        elif kind == "ior":
            other, other_model = build(op[1])
            runs |= other
            model |= other_model
            assert runs is log.pages
        elif kind == "isub":
            other, other_model = build(op[1])
            runs -= other_model
            model -= other_model
            assert runs is log.pages
        elif kind == "mark":
            _, addr, size = op
            log.mark_range(addr, size)
            model.update(pages_in_range(addr, size))
        else:
            drained = log.drain()
            check(drained, model)
            model = set()
            assert len(log) == 0
        check(log.pages, model)
        assert len(log) == len(model)


def test_study_migration_logs_are_single_runs(monkeypatch):
    from repro.study.harness import study_cell

    cpu_log_runs = []
    memories = []
    drain = DirtyLog.drain
    attach = MemorySpace.attach_dirty_log

    def recording_drain(log):
        out = drain(log)
        if log.name.endswith("-cpu"):
            cpu_log_runs.append(len(out.runs()))
        return out

    def recording_attach(memory, log):
        memories.append(memory)
        attach(memory, log)

    monkeypatch.setattr(DirtyLog, "drain", recording_drain)
    monkeypatch.setattr(MemorySpace, "attach_dirty_log", recording_attach)
    study_cell(("migration", "dvh", 0))
    assert len(cpu_log_runs) > 2
    assert max(cpu_log_runs) <= 1
    (leaf_memory,) = set(memories)
    assert len(leaf_memory.touched_pages) > 0
    assert len(leaf_memory.touched_pages.runs()) <= 1
