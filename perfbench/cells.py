"""The benchmark's workloads: their cells, output checks and model readings.

A *cell* is one call into the program's public entry points (one
Table-3 micro-op on one configuration, one app on one configuration, one
migration scenario, one fleet).  Every cell returns a plain, JSON-ready
*output* (the simulated results) and a list of *roots*: the objects that
hold the cell's simulated state, which :mod:`probe` reads counters from
when the cell ends.

Three workloads:

``paper_eval``
    The Table 3 grid (4 micro-ops x 5 configurations) and the Figure 9
    rows for netperf_rr, memcached and hackbench (3 apps x 7
    configurations, at the figure's own scale): the paper's evaluation
    path, dominated by exit forwarding on deep stacks.
``migrate_dirty``
    Four single-machine pre-copy migrations with an active dirtier (one
    per study variant), the four 2-host cluster migrations, then the §4
    migration experiment: the only workload that dirties guest memory
    and drains dirty logs every round.
``dc_fleet``
    The built-in 200-host fleet (admission, rebalancing, rolling
    upgrade): dominated by page-table construction, with almost no exit
    dispatch.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("paper_eval", "migrate_dirty", "dc_fleet")

#: Micro-op iterations per Table-3 cell (``repro table3``'s default).
TABLE3_ITERATIONS = 30
TABLE3_BENCHES = ("Hypercall", "DevNotify", "ProgramTimer", "SendIPI")
FIG9_APPS = ("netperf_rr", "memcached", "hackbench")
STUDY_VARIANTS = ("baseline", "dvh", "ooh", "dvh+ooh")
OOH_VARIANTS = ("ooh", "dvh+ooh")
CLUSTER_HOSTS = 2

#: Fleet seeds every ``dc_fleet`` pass runs.  The fleet's host cost
#: depends strongly on its seed (seed 0: 4.4 s and 315 MB, seed 1:
#: 2.8 s and 212 MB on a 2-CPU x86 host), so the workload runs a fixed
#: panel and ``--seed`` only picks the order; see NOTES.md.
FLEET_PANEL = (0, 1)
#: A panel no change should be tuned on: check a claimed gain here too.
HELD_OUT_FLEET_PANEL = (2, 3)
#: The fleet seed whose digest is pinned in BENCH_cluster.json.
PINNED_FLEET_SEED = 0


@dataclass
class Cell:
    """One unit of measured work."""

    id: str
    run: Callable[[], Tuple[object, list]]
    #: Whether stacks built inside the cell are kept alive until the
    #: cell's counters are read.  Off for the fleet, whose Datacenter
    #: holds its live hosts itself and whose upgrade waves tear stacks
    #: down mid-cell (keeping those would inflate peak memory).
    capture_stacks: bool = True


@dataclass
class Plan:
    """A workload made ready to run: its timed cells, plus the untimed
    cells needed for the model readings it does not measure itself."""

    cells: List[Cell]
    extra: List[Cell] = field(default_factory=list)
    spec_load_s: float = 0.0


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------
def _table3_cells(seed: int) -> List[Cell]:
    from repro.bench.configs import TABLE3_CONFIGS
    from repro.bench.parallel import table3_cell

    for _name, factory in TABLE3_CONFIGS:
        factory().validate()
    cells = []
    for bench in TABLE3_BENCHES:
        for i in range(len(TABLE3_CONFIGS)):
            task = (bench, i, TABLE3_ITERATIONS, seed)
            cells.append(
                Cell(f"table3/{bench}/{i}", lambda t=task: (table3_cell(t), []))
            )
    return cells


def _fig9_scale() -> float:
    """Figure 9's uniform transaction scale (as ``run_figure9`` picks it)."""
    from repro.bench.configs import FIG9_CONFIGS
    from repro.bench.runner import DEFAULT_SCALES

    return min(DEFAULT_SCALES.get(f().levels, 0.3) for _n, f in FIG9_CONFIGS)


def _fig9_cells(seed: int, names: Optional[Tuple[str, ...]] = None) -> List[Cell]:
    from repro.bench.configs import FIG9_CONFIGS
    from repro.bench.parallel import app_cell

    scale = _fig9_scale()
    cells = []
    for app in FIG9_APPS:
        for i, (name, factory) in enumerate(FIG9_CONFIGS):
            if names is not None and name not in names:
                continue
            factory().validate()
            task = ("9", i, app, scale, seed)
            cells.append(
                Cell(f"fig9/{app}/{name}", lambda t=task: (_app_output(app_cell(t)), []))
            )
    return cells


def _app_output(result) -> dict:
    return {
        "value": result.value,
        "unit": result.unit,
        "higher_is_better": result.higher_is_better,
        "elapsed_s": result.elapsed_s,
        "txns": result.txns,
    }


def _migrate_cells(seed: int) -> List[Cell]:
    from repro.bench.runner import run_migration_experiment
    from repro.study.harness import study_cell, variant_config

    for variant in STUDY_VARIANTS:
        variant_config(variant).validate()
    cells = []
    for variant in STUDY_VARIANTS:
        task = ("migration", variant, seed)
        cells.append(Cell(f"migration/{variant}", lambda t=task: (study_cell(t), [])))
    for variant in STUDY_VARIANTS:
        task = ("cluster", variant, CLUSTER_HOSTS, seed)
        cells.append(Cell(f"cluster/{variant}", lambda t=task: (study_cell(t), [])))

    def experiment():
        return [asdict(row) for row in run_migration_experiment(seed=seed)], []

    cells.append(Cell("experiment", experiment))
    return cells


def _fleet_cells(seed: int, spec, panel: Tuple[int, ...]) -> List[Cell]:
    from repro.dc import run_dc

    k = seed % len(panel)
    order = panel[k:] + panel[:k]

    def fleet(fleet_seed: int):
        dc = run_dc(spec, seed=fleet_seed)
        control = dc.control
        output = {
            "fleet_seed": fleet_seed,
            "digest": dc.digest(),
            "sim_cycles": dc.sim.now,
            "tenants": [t.name for _when, t in control.arrivals],
            "admitted": list(control.admitted),
            "rejected": {
                name: _rejection_reason(dc.events, name) for name in control.rejected
            },
        }
        return output, [dc]

    return [
        Cell(f"fleet/{s}", lambda s=s: fleet(s), capture_stacks=False) for s in order
    ]


def _rejection_reason(events: List[str], tenant: str) -> str:
    marker = f" admit {tenant} rejected ("
    for line in events:
        if marker in line:
            return line.split(marker, 1)[1].rstrip(")")
    return ""


def setup(workload: str, seed: int, fleet_panel: Tuple[int, ...] = FLEET_PANEL) -> Plan:
    """Import the program and build one workload's configurations and
    spec: the work ``setup_s`` measures."""
    if workload == "paper_eval":
        cells = _table3_cells(seed) + _fig9_cells(seed)
        return Plan(cells, _migrate_cells(seed))
    if workload == "migrate_dirty":
        extra = _table3_cells(seed) + _fig9_cells(seed, ("native", "L3 + DVH"))
        return Plan(_migrate_cells(seed), extra)
    if workload == "dc_fleet":
        from time import perf_counter

        from repro.dc import load_spec

        t0 = perf_counter()
        spec = load_spec("fleet")
        load_s = perf_counter() - t0
        extra = (
            _table3_cells(seed)
            + _fig9_cells(seed, ("native", "L3 + DVH"))
            + _migrate_cells(seed)
        )
        return Plan(_fleet_cells(seed, spec, fleet_panel), extra, load_s)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Model readings (simulated, not host time)
# ----------------------------------------------------------------------
def table3_err_pct(outputs: Dict[str, object]) -> float:
    """Mean |sim/paper - 1| over the 20 Table-3 cells, in percent."""
    from repro.bench.configs import TABLE3_CONFIGS
    from repro.bench.tables import PAPER_TABLE3

    errs = []
    for bench in TABLE3_BENCHES:
        for i, (name, _f) in enumerate(TABLE3_CONFIGS):
            sim = outputs[f"table3/{bench}/{i}"]
            errs.append(abs(sim / PAPER_TABLE3[bench][name] - 1.0))
    return 100.0 * sum(errs) / len(errs)


def _overhead(outputs: Dict[str, object], app: str, config: str) -> float:
    """Overhead vs native, as ``AppResult.overhead_vs`` computes it."""
    from repro.workloads.engines import AppResult

    def result(name: str) -> AppResult:
        return AppResult(name=app, **outputs[f"fig9/{app}/{name}"])

    return result(config).overhead_vs(result("native"))


def l3_dvh_overhead(outputs: Dict[str, object]) -> float:
    """Geometric mean over the three apps of the L3 + DVH overhead."""
    logs = [math.log(_overhead(outputs, app, "L3 + DVH")) for app in FIG9_APPS]
    return math.exp(sum(logs) / len(logs))


def downtime_ms(outputs: Dict[str, object]) -> float:
    """Largest simulated downtime among the supported migrations."""
    downtimes = []
    for variant in STUDY_VARIANTS:
        downtimes.append(outputs[f"migration/{variant}"]["downtime_s"])
        row = outputs[f"cluster/{variant}"]
        if row["outcome"] == "ok":
            downtimes.append(row["downtime_s"])
    downtimes += [r["downtime_s"] for r in outputs["experiment"] if r["supported"]]
    return 1e3 * max(downtimes)


def model_readings(outputs: Dict[str, object]) -> Dict[str, float]:
    return {
        "table3_err_pct": table3_err_pct(outputs),
        "l3_dvh_overhead": l3_dvh_overhead(outputs),
        "downtime_ms": downtime_ms(outputs),
    }


# ----------------------------------------------------------------------
# Output checks: the paper's shape claims, not pinned values
# ----------------------------------------------------------------------
#: Smallest cost ratio between consecutive virtio nesting levels.  The
#: paper's own Table 3 has DevNotify at 9.7x from VM to nested VM, so a
#: 10x floor would reject the paper itself.
LEVEL_RATIO_FLOOR = 8.0
#: "Within a small factor": L3 + DVH against nested VM + DVH.
DVH_DEPTH_FACTOR = 2.0
#: Hackbench's relative spread across I/O models that still counts as
#: "no gap".
IO_GAP_TOLERANCE = 0.02


def _check_paper(outputs, fail) -> None:
    from repro.bench.configs import FIG9_CONFIGS, TABLE3_CONFIGS

    col = {name: i for i, (name, _f) in enumerate(TABLE3_CONFIGS)}

    def t3(bench, name):
        return f"table3/{bench}/{col[name]}"

    for bench in TABLE3_BENCHES:
        for lower, upper in (("VM", "nested VM"), ("nested VM", "L3 VM")):
            a, b = outputs[t3(bench, lower)], outputs[t3(bench, upper)]
            if not b > LEVEL_RATIO_FLOOR * a:
                fail([t3(bench, lower), t3(bench, upper)],
                     f"{bench}: {upper} is {b / a:.1f}x {lower}, "
                     f"want > {LEVEL_RATIO_FLOOR:g}x")
    for bench in ("DevNotify", "ProgramTimer", "SendIPI"):
        a = outputs[t3(bench, "nested VM + DVH")]
        b = outputs[t3(bench, "L3 VM + DVH")]
        if not b < DVH_DEPTH_FACTOR * a:
            fail([t3(bench, "nested VM + DVH"), t3(bench, "L3 VM + DVH")],
                 f"{bench}: L3 VM + DVH is {b / a:.2f}x nested VM + DVH")
    for plain, dvh in (("nested VM", "nested VM + DVH"), ("L3 VM", "L3 VM + DVH")):
        a, b = outputs[t3("Hypercall", plain)], outputs[t3("Hypercall", dvh)]
        if b < a:
            fail([t3("Hypercall", plain), t3("Hypercall", dvh)],
                 f"Hypercall: {dvh} ({b:.0f}) beats {plain} ({a:.0f})")
    l3 = [name for name, _f in FIG9_CONFIGS if name.startswith("L3")]
    for app in FIG9_APPS:
        over = {name: _overhead(outputs, app, name) for name in l3}
        best = min(over, key=over.get)
        if over["L3 + DVH"] > over[best]:
            fail([f"fig9/{app}/{name}" for name in l3],
                 f"{app}: {best} ({over[best]:.3f}) beats L3 + DVH "
                 f"({over['L3 + DVH']:.3f})")
    for group in (("VM", "VM + passthrough"), ("L3", "L3 + passthrough", "L3 + DVH-VP")):
        vals = [outputs[f"fig9/hackbench/{name}"]["value"] for name in group]
        if max(vals) > (1 + IO_GAP_TOLERANCE) * min(vals):
            fail([f"fig9/hackbench/{name}" for name in group],
                 f"hackbench: I/O models differ across {group}: {vals}")


def _check_migrate(outputs, fail) -> None:
    for row in outputs["experiment"]:
        passthrough = "passthrough" in row["scenario"]
        if row["supported"] == passthrough or (row["supported"] and row["total_s"] <= 0):
            fail(["experiment"],
                 f"migration '{row['scenario']}': supported={row['supported']}")
    for variant in STUDY_VARIANTS:
        row = outputs[f"cluster/{variant}"]
        if row["outcome"] != "ok":
            fail([f"cluster/{variant}"], f"cluster {variant}: outcome {row['outcome']}")
        for kind in ("migration", "cluster"):
            row = outputs[f"{kind}/{variant}"]
            granted = row["pages_granted"]
            if (granted > 0) != (variant in OOH_VARIANTS):
                fail([f"{kind}/{variant}"],
                     f"{kind} {variant}: {granted} OoH-granted pages")


def _pinned_fleet_digest() -> str:
    with open("BENCH_cluster.json") as fh:
        return json.load(fh)["dc_fleet"]["digest"]


def _check_fleet(outputs, fail) -> None:
    for cell_id, out in outputs.items():
        if not cell_id.startswith("fleet/"):
            continue
        admitted = set(out["admitted"])
        for name in out["tenants"]:
            if name not in admitted and not out["rejected"].get(name):
                fail([cell_id], f"tenant {name} neither admitted nor rejected with a reason")
        if out["fleet_seed"] == PINNED_FLEET_SEED and out["digest"] != _pinned_fleet_digest():
            fail([cell_id], f"fleet seed {PINNED_FLEET_SEED} digest {out['digest'][:12]} "
                            "differs from BENCH_cluster.json")


#: Check groups: the cell-id prefixes each check reads, and the check.
_CHECKS = (
    (("table3/", "fig9/"), _check_paper),
    (("migration/", "cluster/", "experiment"), _check_migrate),
    (("fleet/",), _check_fleet),
)


def check_outputs(
    outputs: Dict[str, object], cell_ids: List[str]
) -> Dict[str, List[str]]:
    """Run the checks over one pass's outputs.  ``cell_ids`` are the
    cells the pass attempted; a cell that raised has no output.  Returns
    cell id -> messages of the checks it failed.  A check whose inputs
    are incomplete (a cell raised) fails every cell it covers, since
    none of them could be verified."""
    failed: Dict[str, List[str]] = {}

    def fail(ids, message):
        for cell_id in ids:
            failed.setdefault(cell_id, []).append(message)

    for prefixes, check in _CHECKS:
        ids = [c for c in cell_ids if c.startswith(prefixes)]
        if not ids:
            continue
        if check is _check_paper and "fig9/hackbench/L3" not in ids:
            continue  # the untimed model-reading subset: nothing to check
        missing = [c for c in ids if c not in outputs]
        if missing:
            fail(ids, f"unchecked: {', '.join(missing)} raised")
            continue
        check({c: outputs[c] for c in ids}, fail)
    return failed
