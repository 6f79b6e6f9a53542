"""The repository benchmark: host cost and model accuracy, end to end and
per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_eval --seed 0 --seconds 25 --trace 0

Workloads: ``paper_eval``, ``migrate_dirty``, ``dc_fleet`` (see
``cells.py`` and ``NOTES.md``).  Everything runs serially in this
process; only the set-up probes start child interpreters.

``--trace 0`` repeats whole passes over the workload's cells for about
``--seconds`` and prints the end-to-end metrics: host time of a pass
(the sum of each cell's median), cell-time percentiles, peak RSS,
set-up time (median of fresh interpreters) and the simulated model
readings.  Host times are scaled to a reference machine speed sampled
while they run (see ``clock.py``).  ``--trace 1`` runs one untraced and
one traced pass and prints the per-layer split.  Either way the
simulated outputs are checked, and every cell's outputs and
deterministic counters must repeat exactly across passes.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from clock import SpeedSampler

SRC = os.path.join(os.getcwd(), "src")
#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5
#: Speed-sampling period inside a set-up probe, which lasts only a few
#: tenths of a second.
SETUP_PERIOD_S = 0.01


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    against anything else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no src/repro under {os.getcwd()}; run from the repository root")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _plain(obj):
    """Outputs as JSON would carry them (tuples become lists)."""
    return json.loads(json.dumps(obj))


def quartiles(values) -> list:
    """[p25, p50, p75], interpolating between neighbouring samples."""
    values = list(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# ----------------------------------------------------------------------
class Pass:
    """One serial pass over a list of cells."""

    def __init__(self) -> None:
        self.times = {}
        #: cell id -> (host seconds, first sample, end of samples)
        self.spans = {}
        self.outputs = {}
        self.counters = {}
        self.layers = {}
        self.errors = {}
        self.cell_ids = []

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def run_pass(cells, probe, tracer=None, sampler=None) -> Pass:
    result = Pass()
    for cell in cells:
        result.cell_ids.append(cell.id)
        probe.begin(cell.capture_stacks)
        snap = tracer.snapshot() if tracer is not None else None
        roots = []
        first = sampler.mark() if sampler is not None else 0
        t0 = perf_counter()
        try:
            output, roots = cell.run()
        except Exception:  # a failing cell is counted, the pass goes on
            result.errors[cell.id] = traceback.format_exc()
        elapsed = perf_counter() - t0
        end = sampler.mark() if sampler is not None else 0
        if tracer is not None:
            result.layers[cell.id] = tracer.since(snap)
        if cell.id not in result.errors:
            result.outputs[cell.id] = _plain(output)
            output = None
        counters = probe.end(roots)
        if cell.id not in result.errors:
            result.counters[cell.id] = counters
            result.times[cell.id] = elapsed
            result.spans[cell.id] = (elapsed, first, end)
    return result


def compare(reference: Pass, other: Pass, label: str) -> set:
    """Cells whose outputs or counters differ between two passes: a
    determinism bug, reported loudly."""
    bad = set()
    for cell_id in other.outputs:
        if cell_id not in reference.outputs:
            continue
        if other.outputs[cell_id] != reference.outputs[cell_id]:
            bad.add(cell_id)
            print(f"DETERMINISM MISMATCH ({label}) {cell_id}: outputs differ", file=sys.stderr)
        mine, ref = other.counters[cell_id], reference.counters[cell_id]
        diff = {k: (ref.get(k), mine.get(k)) for k in set(mine) | set(ref) if mine.get(k) != ref.get(k)}
        if diff:
            bad.add(cell_id)
            print(f"DETERMINISM MISMATCH ({label}) {cell_id}: counters {diff}", file=sys.stderr)
    return bad


def failed_cells(p: Pass, cells_mod) -> set:
    failed = set(p.errors)
    for cell_id, trace in p.errors.items():
        print(f"CELL RAISED {cell_id}:\n{trace}", file=sys.stderr)
    for cell_id, messages in cells_mod.check_outputs(p.outputs, p.cell_ids).items():
        failed.add(cell_id)
        for message in messages:
            print(f"CHECK FAILED {cell_id}: {message}", file=sys.stderr)
    return failed


def measure_setup(workload: str, seed: int, fleet_panel: str):
    """Time fresh interpreters from launch to the point where the first
    cell could start (imports, configs, spec), each scaled by the speed
    the child sampled."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", workload, "--seed", str(seed), "--fleet-panel", fleet_panel]
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        word, *factors = line.split() or [""]
        if word != "ready" or len(factors) != 2 or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
        sampling_s, speed = map(float, factors)
        samples.append((elapsed - sampling_s) * speed)
    return samples


def report(p: Pass, label: str) -> None:
    print(f"{label}: {len(p.times)} cells, {p.wall_s:.3f} s host")
    print(f"  outputs digest  {_digest([p.outputs.get(c) for c in p.cell_ids])}")
    print(f"  counters digest {_digest([p.counters.get(c) for c in p.cell_ids])}")


# ----------------------------------------------------------------------
def end_to_end(args, cells_mod, plan, probe) -> dict:
    setup = measure_setup(args.workload, args.seed, args.fleet_panel)
    passes = []
    sampler = SpeedSampler().install()
    try:
        start = perf_counter()
        # Start another pass while at most half of it would run past the
        # measuring time, so a run lasts about --seconds.
        while not passes or (perf_counter() - start) * (1 + 0.5 / len(passes)) < args.seconds:
            passes.append(run_pass(plan.cells, probe, sampler=sampler))
    finally:
        sampler.uninstall()
    raw_walls = [p.wall_s for p in passes]
    # From here on a cell's time is its host time at the reference speed.
    for p in passes:
        p.times = {c: sampler.scaled(*span) for c, span in p.spans.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = run_pass(plan.extra, probe)

    failed = len(failed_cells(extra, cells_mod))
    for i, p in enumerate(passes):
        failed_here = failed_cells(p, cells_mod)
        if i:
            failed_here |= compare(passes[0], p, f"pass {i + 1} vs pass 1")
        failed += len(failed_here)
    attempted = sum(len(p.cell_ids) for p in passes) + len(extra.cell_ids)

    report(passes[0], f"{args.workload} pass 1")
    print(f"passes: {len(passes)}  walls: {', '.join(f'{p.wall_s:.3f}' for p in passes)} "
          f"(raw {', '.join(f'{w:.3f}' for w in raw_walls)})")
    print(f"speed samples: {len(sampler.costs)}, median "
          f"{1e3 * statistics.median(sampler.costs):.3f} ms")
    per_cell = {
        c: statistics.median(p.times[c] for p in passes if c in p.times)
        for c in passes[0].times
    }
    samples = [t for p in passes for t in p.times.values()]
    p50 = p75 = None  # every cell raised: reported as missing
    if samples:
        _p25, p50, p75 = quartiles(samples)
        print(f"cell samples: {len(samples)} ({len(per_cell)} cells x {len(passes)} passes), "
              f"{sum(t > p75 for t in samples)} beyond p75")
    readings = {}
    try:
        readings = cells_mod.model_readings({**extra.outputs, **passes[0].outputs})
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"MODEL READINGS UNAVAILABLE: {exc!r}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_cell.values()) if per_cell else None, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cell_s.p50": (p50, "s"),
        "cell_s.p75": (p75, "s"),
        "table3_err_pct": (readings.get("table3_err_pct"), "%"),
        "l3_dvh_overhead": (readings.get("l3_dvh_overhead"), "x_native"),
        "downtime_ms": (readings.get("downtime_ms"), "sim_ms"),
    }
    print(f"setup samples (s): {', '.join(f'{t:.3f}' for t in setup)}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def per_layer(args, cells_mod, plan, probe) -> dict:
    from instrument import LAYERS, Tracer

    base = run_pass(plan.cells, probe)
    tracer = Tracer().install()
    try:
        traced = run_pass(plan.cells, probe, tracer)
    finally:
        tracer.uninstall()
    failed = failed_cells(base, cells_mod) | failed_cells(traced, cells_mod)
    failed |= compare(base, traced, "traced vs untraced")
    report(base, f"{args.workload} untraced")
    report(traced, f"{args.workload} traced")

    keys = {}
    for stats in traced.layers.values():
        for key, (calls, self_s, incl) in stats.items():
            acc = keys.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += incl
    counters = {}
    for c in traced.counters.values():
        for name, n in c.items():
            counters[name] = counters.get(name, 0) + n

    def calls(*names):
        return sum(keys[n][0] for n in names)

    def incl(*names):
        return sum(keys[n][2] for n in names)

    layer_self = {layer: sum(v[1] for k, v in keys.items() if k.split(":")[0] == layer)
                  for layer in LAYERS}
    wall = traced.wall_s
    unattributed = wall - sum(layer_self.values())

    # Wrapper counts against the program's own counters.  Exits only on
    # cells where fast-forward skipped nothing (skipped epochs apply
    # their exits without running them), and not on fleets, whose
    # torn-down hosts take their Metrics with them; boots on fleets
    # (boot() calls include no-op calls on booted hosts).
    reconciled = 0
    for cell_id, stats in traced.layers.items():
        c = traced.counters.get(cell_id)
        if c is None:
            continue
        if cell_id.startswith("fleet/"):
            wrapped, program = stats["cluster.host:boot"][0], c["host_boots"]
            ok, what = wrapped >= program, "ClusterHost.boot calls vs boots"
        elif not c["ff_epochs_skipped"]:
            wrapped, program = stats["hv.dispatch:dispatch_exit"][0], c["exits"]
            ok, what = wrapped == program, "dispatch_exit calls vs Metrics.total_exits()"
            reconciled += ok
        else:
            continue
        if not ok:
            failed.add(cell_id)
            print(f"RECONCILE FAILED {cell_id}: {wrapped} vs {program} {what}", file=sys.stderr)

    events = counters.get("events", 0)
    ff_seen = counters.get("ff_epochs_observed", 0) + counters.get("ff_epochs_skipped", 0)
    m = {
        "sim.engine.events": (events, "count"),
        "sim.engine.inline_hits": (counters.get("inline_hits", 0), "count"),
        "sim.engine.heap_hits": (counters.get("heap_hits", 0), "count"),
        "sim.engine.self_s": (layer_self["sim.engine"], "s"),
        "sim.engine.us_per_event": (1e6 * layer_self["sim.engine"] / events if events else 0.0, "us"),
        "sim.fastforward.epochs_observed": (counters.get("ff_epochs_observed", 0), "count"),
        "sim.fastforward.epochs_skipped": (counters.get("ff_epochs_skipped", 0), "count"),
        "sim.fastforward.skip_ratio": (counters.get("ff_epochs_skipped", 0) / ff_seen if ff_seen else 0.0, "ratio"),
        "sim.fastforward.window_blocked": (counters.get("ff_window_blocked", 0), "count"),
        "hv.stack.builds": (calls("hv.stack:build_stack"), "count"),
        "hv.stack.build_s": (incl("hv.stack:build_stack"), "s"),
        "hv.stack.self_s": (layer_self["hv.stack"], "s"),
        "hv.dispatch.exits": (calls("hv.dispatch:dispatch_exit"), "count"),
        "hv.dispatch.exits.l1": (counters.get("exits.l1", 0), "count"),
        "hv.dispatch.exits.l2": (counters.get("exits.l2", 0), "count"),
        "hv.dispatch.exits.l3": (counters.get("exits.l3", 0), "count"),
        "hv.dispatch.forwards": (counters.get("forwards", 0), "count"),
        "hv.dispatch.self_s": (layer_self["hv.dispatch"], "s"),
        "hv.guest.self_s": (layer_self["hv.guest"], "s"),
        "hw.ept.map_calls": (sum(v[0] for k, v in keys.items() if k.startswith("hw.ept:")), "count"),
        "hw.ept.map_s": (sum(v[2] for k, v in keys.items() if k.startswith("hw.ept:")), "s"),
        "hw.ept.ptes": (counters.get("ptes", 0), "count"),
        "hw.ept.self_s": (layer_self["hw.ept"], "s"),
        "hv.passthrough.assign_s": (incl("hv.passthrough:assign_physical_device"), "s"),
        "hv.passthrough.self_s": (layer_self["hv.passthrough"], "s"),
        "core.vpassthrough.assign_s": (incl("core.vpassthrough:assign_virtual_device"), "s"),
        "core.vpassthrough.self_s": (layer_self["core.vpassthrough"], "s"),
        "hw.mem.write_calls": (calls("hw.mem:write_range"), "count"),
        "hw.mem.write_s": (incl("hw.mem:write_range"), "s"),
        "hw.mem.dirty_pages": (counters.get("dirty_pages", 0), "count"),
        "hw.mem.self_s": (layer_self["hw.mem"], "s"),
        "core.migration.run_s": (incl("core.migration:run"), "s"),
        "core.migration.rounds": (counters.get("migration_rounds", 0), "count"),
        "core.migration.bytes": (counters.get("migration_bytes", 0), "B"),
        "core.migration.self_s": (layer_self["core.migration"], "s"),
        "ooh.granted": (counters.get("ooh_granted", 0), "count"),
        "ooh.forwarded": (counters.get("ooh_forwarded", 0), "count"),
        "workloads.run_s": (incl("workloads:run_app", "workloads:run_microbenchmark"), "s"),
        "workloads.txns": (sum(o["txns"] for o in traced.outputs.values()
                               if isinstance(o, dict) and "txns" in o), "count"),
        "workloads.self_s": (layer_self["workloads"], "s"),
        "cluster.host.boot_calls": (calls("cluster.host:boot"), "count"),
        "cluster.host.boot_s": (incl("cluster.host:boot"), "s"),
        "cluster.host.self_s": (layer_self["cluster.host"], "s"),
        "cluster.orchestrator.migrations": (calls("cluster.orchestrator:migrate", "cluster.orchestrator:migrate_async"), "count"),
        "cluster.orchestrator.self_s": (layer_self["cluster.orchestrator"], "s"),
        "cluster.fabric.bytes": (counters.get("fabric_bytes", 0), "B"),
        "dc.spec.load_s": (plan.spec_load_s, "s"),
        "dc.controlplane.self_s": (layer_self["dc.controlplane"], "s"),
        "unattributed.self_s": (unattributed, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.base_wall_s": (base.wall_s, "s"),
        "trace.overhead": (wall / base.wall_s if base.wall_s else 0.0, "x_untraced"),
        "trace.reconciled_cells": (reconciled, "count"),
    }
    print(f"traced wall {wall:.3f} s = {sum(layer_self.values()):.3f} s in layers "
          f"+ {unattributed:.3f} s unattributed")
    for layer in LAYERS:
        share = layer_self[layer] / wall if wall else 0.0
        print(f"  {layer:22s} self {layer_self[layer]:8.3f} s  {100 * share:5.1f}%")
    attempted = len(base.cell_ids) + len(traced.cell_ids)
    return {"correct": not failed, "attempted": attempted,
            "failed": len(failed), "metrics": m}


def main(argv=None) -> int:
    setup_sampler = None
    if "--probe-setup" in (argv or sys.argv):
        setup_sampler = SpeedSampler(SETUP_PERIOD_S).install()
    _load_program()
    import cells as cells_mod

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fleet-panel", default=",".join(map(str, cells_mod.FLEET_PANEL)),
        help="dc_fleet's fleet seeds (default: %(default)s; the held-out "
        f"panel is {','.join(map(str, cells_mod.HELD_OUT_FLEET_PANEL))})")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload not in cells_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {cells_mod.WORKLOADS}")
    panel = tuple(int(s) for s in args.fleet_panel.split(","))
    plan = cells_mod.setup(args.workload, args.seed, panel)
    if setup_sampler is not None:
        setup_sampler.uninstall()
        n = setup_sampler.mark()
        print(f"ready {sum(setup_sampler.costs)!r} {setup_sampler.speed(0, n)!r}", flush=True)
        return 0

    from instrument import Probe

    probe = Probe().install()
    try:
        if args.trace:
            result = per_layer(args, cells_mod, plan, probe)
        else:
            result = end_to_end(args, cells_mod, plan, probe)
    finally:
        probe.uninstall()
    metrics = {}
    for name, entry in result["metrics"].items():
        if entry is None or entry[0] is None:
            result["correct"] = False
            print(f"METRIC MISSING {name}", file=sys.stderr)
            continue
        metrics[name] = {"value": entry[0], "unit": entry[1]}
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
