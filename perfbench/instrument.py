"""Benchmark-side instrumentation: wrappers patched around the program's
public functions, never code inside ``src/``.

:class:`Probe` runs on every pass.  It only *finds* the objects a cell
built (stacks, page tables, fabrics, drained dirty logs, migration
results) through a handful of low-frequency hooks, and reads the cell's
deterministic counters from them through public APIs when the cell ends.

:class:`Tracer` runs on the traced pass only.  It wraps the layer
boundaries listed in :data:`TARGETS`, records a span around every call
(and around every *resume* of a generator, since a generator's work
happens on resume, not on call), and accumulates per-function call
counts, self time (span minus child spans) and inclusive time.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import weakref
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class Patches:
    """Replacements applied to the program's modules and classes, undone
    in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def function(self, module: str, name: str, make: Callable) -> None:
        """Replace a module-level function everywhere it is bound: in its
        own module and in every ``repro`` module that imported it by
        name (``from repro.hv.passthrough import dma_pool_pfns``)."""
        current = getattr(importlib.import_module(module), name)
        new = make(current)
        holders = [
            (mod, attr)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("repro")
            for attr, value in list(vars(mod).items())
            if value is current
        ]
        for mod, attr in holders:
            setattr(mod, attr, new)

        def undo() -> None:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for attr, value in list(vars(mod).items()):
                        if value is new:
                            setattr(mod, attr, current)

        self._undo.append(undo)

    def method(self, owner: type, name: str, make: Callable) -> None:
        current = owner.__dict__[name]
        setattr(owner, name, make(current))
        self._undo.append(lambda: setattr(owner, name, current))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(target: str):
    """``"pkg.mod:Class"`` -> the class; ``"pkg.mod"`` -> the module."""
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


# ----------------------------------------------------------------------
# Probe: deterministic counters, every pass
# ----------------------------------------------------------------------
class Probe:
    """Finds what a cell built and reads its counters when it ends."""

    def __init__(self) -> None:
        self.patches = Patches()
        self.capture = False
        self.stacks: list = []
        self.tables: "weakref.WeakSet" = weakref.WeakSet()
        self.fabrics: list = []
        self.drained: List[int] = []
        self.migrations: list = []

    def install(self) -> "Probe":
        from repro.cluster.fabric import Fabric
        from repro.core.migration import LiveMigration
        from repro.hw.ept import PageTable
        from repro.hw.mem import DirtyLog

        probe = self

        def build_stack(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                stack = orig(*args, **kwargs)
                if probe.capture:
                    probe.stacks.append(stack)
                return stack
            return wrapper

        def table_init(orig):
            def __init__(table, *args, **kwargs):
                orig(table, *args, **kwargs)
                probe.tables.add(table)
            return __init__

        def fabric_init(orig):
            def __init__(fabric, *args, **kwargs):
                orig(fabric, *args, **kwargs)
                probe.fabrics.append(fabric)
            return __init__

        def drain(orig):
            def wrapper(log):
                pages = orig(log)
                probe.drained.append(len(pages))
                return pages
            return wrapper

        def migration_run(orig):
            @functools.wraps(orig)
            def run(mig, *args, **kwargs):
                result = yield from orig(mig, *args, **kwargs)
                probe.migrations.append(result)
                return result
            return run

        self.patches.function("repro.hv.stack", "build_stack", build_stack)
        self.patches.method(PageTable, "__init__", table_init)
        self.patches.method(Fabric, "__init__", fabric_init)
        self.patches.method(DirtyLog, "drain", drain)
        self.patches.method(LiveMigration, "run", migration_run)
        return self

    def uninstall(self) -> None:
        self.patches.undo()

    def begin(self, capture_stacks: bool) -> None:
        self.capture = capture_stacks

    def end(self, roots: list) -> Dict[str, int]:
        """The cell's counters, read from the stacks it built and from
        ``roots`` (Datacenters), which this empties so the cell's state
        is freed here, outside the next cell's timing."""
        # A full collection first drops objects that died in reference
        # cycles, so "live" does not depend on when the collector ran.
        gc.collect()
        counters = self._read(roots)
        self.stacks, self.fabrics, self.drained, self.migrations = [], [], [], []
        self.capture = False
        roots.clear()
        gc.collect()
        return counters

    def _read(self, roots: list) -> Dict[str, int]:
        sims: Dict[int, object] = {}
        metrics: Dict[int, object] = {}
        boots = 0
        for stack in self.stacks:
            sims[id(stack.sim)] = stack.sim
            metrics[id(stack.metrics)] = stack.metrics
        for dc in roots:
            sims[id(dc.sim)] = dc.sim
            for host in dc.hosts:
                boots += host.boots
                if host.machine is not None:
                    metrics[id(host.machine.metrics)] = host.machine.metrics
        c: Counter = Counter()
        for sim in sims.values():
            st = sim.stats()
            c["events"] += st["events_executed"]
            c["ready_hits"] += st["ready_hits"]
            c["heap_hits"] += st["heap_hits"]
            c["inline_hits"] += st["inline_hits"]
            c["ff_epochs_observed"] += st["ff_epochs_observed"]
            c["ff_epochs_skipped"] += st["ff_epochs_skipped"]
            c["ff_window_blocked"] += st["ff_window_blocked"]
            c["ff_macro_events"] += st["ff_macro_events"]
        for m in metrics.values():
            c["exits"] += m.total_exits()
            for level in (1, 2, 3):
                c[f"exits.l{level}"] += m.exits_from_level(level)
            c["forwards"] += m.guest_hv_interventions()
            granted, forwarded = m.ooh_split()
            c["ooh_granted"] += granted
            c["ooh_forwarded"] += forwarded
        c["ptes"] = sum(len(table) for table in list(self.tables))
        c["dirty_drains"] = len(self.drained)
        c["dirty_pages"] = sum(self.drained)
        c["fabric_bytes"] = sum(f.metrics.cross_host_bytes() for f in self.fabrics)
        c["migrations"] = len(self.migrations)
        c["migration_rounds"] = sum(r.rounds for r in self.migrations)
        c["migration_bytes"] = sum(r.bytes_transferred for r in self.migrations)
        c["host_boots"] = boots
        return dict(c)


# ----------------------------------------------------------------------
# Tracer: per-layer spans, traced pass only
# ----------------------------------------------------------------------
#: (layer, "module:Class" or "module", function names).  Layer names are
#: the program's module names.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim.engine", "repro.sim.engine:Simulator", ("run",)),
    ("hv.dispatch", "repro.hv.kvm:KvmHypervisor", ("dispatch_exit",)),
    ("hv.guest", "repro.hv.kvm:KvmHypervisor", ("handle_guest_exit",)),
    ("hv.stack", "repro.hv.stack", ("build_stack",)),
    ("hw.ept", "repro.hw.ept:PageTable", (
        "map", "map_if_absent", "map_many", "map_many_pairs",
        "map_many_if_absent", "lookup_many",
    )),
    ("hv.passthrough", "repro.hv.passthrough", (
        "assign_physical_device", "dma_pool_pfns", "resolve_through_chain",
        "resolve_many_through_chain",
    )),
    ("core.vpassthrough", "repro.core.vpassthrough", (
        "assign_virtual_device", "populate_chain_epts",
    )),
    ("hw.mem", "repro.hw.mem:MemorySpace", ("write_range",)),
    ("core.migration", "repro.core.migration:LiveMigration", ("run",)),
    ("workloads", "repro.workloads.apps", ("run_app",)),
    ("workloads", "repro.workloads.microbench", ("run_microbenchmark",)),
    ("cluster.host", "repro.cluster.host:ClusterHost", ("boot",)),
    ("cluster.orchestrator", "repro.cluster.orchestrator:Orchestrator", (
        "migrate", "migrate_async",
    )),
    ("dc.controlplane", "repro.dc.controlplane:ControlPlane", (
        "start", "_admission", "_traffic", "_rebalance", "_upgrade",
        "_telemetry", "_slo_gate",
    )),
)

#: The layers, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _t, _n in TARGETS))


class Tracer:
    """Span accounting over :data:`TARGETS`.

    ``recs[key] = [calls, self_s, inclusive_s]`` with ``key`` =
    ``"layer:function"``.  Self time is a span's duration minus the
    duration of the spans nested in it.  Inclusive time is added only
    for the outermost span of a layer, so a layer's inclusive times do
    not double count its nested calls (``map_many`` calling ``map``).
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.recs: Dict[str, List[float]] = {}
        self._stack: List[List[float]] = []

    def install(self) -> "Tracer":
        depths: Dict[str, List[int]] = {}
        for layer, target, names in TARGETS:
            owner = _resolve(target)
            depth = depths.setdefault(layer, [0])
            for name in names:
                rec = self.recs.setdefault(f"{layer}:{name}", [0, 0.0, 0.0])

                def make(orig, rec=rec, depth=depth):
                    if inspect.isgeneratorfunction(orig):
                        return _wrap_generator(orig, rec, depth, self._stack)
                    return _wrap_function(orig, rec, depth, self._stack)

                if isinstance(owner, type):
                    self.patches.method(owner, name, make)
                else:
                    self.patches.function(owner.__name__, name, make)
        return self

    def uninstall(self) -> None:
        self.patches.undo()

    def snapshot(self) -> Dict[str, Tuple[float, float, float]]:
        return {key: tuple(rec) for key, rec in self.recs.items()}

    def since(self, snap) -> Dict[str, List[float]]:
        """Per-key [calls, self_s, inclusive_s] accumulated since ``snap``."""
        return {
            key: [rec[i] - snap[key][i] for i in range(3)]
            for key, rec in self.recs.items()
        }


def _wrap_function(fn, rec, depth, stack):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec[0] += 1
        depth[0] += 1
        frame = [perf_counter(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - frame[0]
            stack.pop()
            rec[1] += d - frame[1]
            depth[0] -= 1
            if not depth[0]:
                rec[2] += d
            if stack:
                stack[-1][1] += d

    return wrapper


def _wrap_generator(fn, rec, depth, stack):
    """Drive the wrapped generator by hand so each resume is one span;
    values, exceptions and ``close()`` pass through unchanged."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec[0] += 1
        gen = fn(*args, **kwargs)
        value = None
        error = None
        while True:
            depth[0] += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    exc, error = error, None
                    out = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                d = perf_counter() - frame[0]
                stack.pop()
                rec[1] += d - frame[1]
                depth[0] -= 1
                if not depth[0]:
                    rec[2] += d
                if stack:
                    stack[-1][1] += d
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                error, value = exc, None

    return wrapper
