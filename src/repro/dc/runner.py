"""Entry points: run a datacenter spec, sweep seeds in parallel.

The built-in specs double as living documentation of the spec format
(and as parser exercise — they go through the same YAML-subset path a
file on disk would).  ``examples/dc_small.yaml`` and
``examples/dc_fleet.yaml`` mirror them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.parallel import map_cells
from repro.dc.controlplane import ControlPlane
from repro.dc.fleet import Datacenter
from repro.dc.spec import DCSpec

__all__ = ["BUILTIN_SPECS", "load_spec", "run_dc", "dc_cell", "run_sweep"]


#: A 6-host, 2-rack fleet that exercises every control-plane feature in
#: a few hundred simulated microseconds — the CI smoke scenario.
SMALL_SPEC = """\
version: 1
name: small
topology:
  racks: 2
  hosts_per_rack: 3
  spines: 2
  oversubscription: 2.0
hosts:
  guest_hv: kvm
  stack_levels: 2
  workers: 2
tenants:
  count: 8
  start_ms: 0.5
  interval_ms: 0.8
  mix: {virtio: 2, vp: 1, passthrough: 1}
  memory_gb: [1, 2]
  load: [800, 2000]
  dirty_pages: [32, 64]
traffic:
  flows: 2
  chunk_kb: 64
  gap_ms: 0.3
control:
  policy: bin-pack
  rebalance:
    enabled: true
    start_ms: 3.0
    interval_ms: 2.0
    threshold: 1.6
  upgrade:
    enabled: true
    start_ms: 8.0
    wave_size: 3
    reboot_ms: 2.0
    downtime_limit_ms: 500.0
horizon_ms: 30.0
"""

#: A 200-host spine-leaf fleet (8 racks x 25 hosts, 4 spines, 4:1
#: oversubscription) running a full rolling upgrade under tenant
#: traffic — the benchmark scenario.  With quiescent hosts only the
#: handful of occupied hosts ever boot a stack.
FLEET_SPEC = """\
version: 1
name: fleet
topology:
  racks: 8
  hosts_per_rack: 25
  spines: 4
  oversubscription: 4.0
hosts:
  guest_hv: kvm
  stack_levels: 2
  workers: 2
tenants:
  count: 40
  start_ms: 0.2
  interval_ms: 0.1
  mix: {virtio: 3, vp: 2, passthrough: 1}
  memory_gb: [1, 2]
  load: [800, 2400]
  dirty_pages: [32]
traffic:
  flows: 8
  chunk_kb: 64
  gap_ms: 0.5
control:
  policy: bin-pack
  rebalance:
    enabled: true
    start_ms: 2.0
    interval_ms: 2.0
    threshold: 1.5
  upgrade:
    enabled: true
    start_ms: 6.0
    wave_size: 25
    reboot_ms: 1.0
    downtime_limit_ms: 500.0
horizon_ms: 40.0
"""

#: The tail-latency headline study: a bin-packed fleet develops a hot
#: host (noisy neighbours), the SLO gate live-migrates p99 breachers
#: off it (watch the brownout spike first), and a mid-run fabric
#: degradation window inflates everyone — exposing the §3.6 asymmetry
#: as *pinned* SLO reports: breaching passthrough tenants that the
#: gate has no placement lever for.  DVH (vp) tenants sit between
#: virtio and passthrough in the per-tenant percentile table, the
#: result the source paper's throughput aggregates could not show.
SLO_SPEC = """\
version: 1
name: slo
topology:
  racks: 2
  hosts_per_rack: 3
  spines: 2
  oversubscription: 2.0
hosts:
  guest_hv: kvm
  stack_levels: 2
  workers: 2
tenants:
  count: 12
  start_ms: 0.2
  interval_ms: 0.1
  mix: {virtio: 5, vp: 3, passthrough: 2}
  memory_gb: [1, 2]
  load: [1500, 2400]
  dirty_pages: [32]
traffic:
  flows: 2
  chunk_kb: 64
  gap_ms: 0.4
control:
  policy: bin-pack      # deliberately creates the hot host
  rebalance:
    enabled: false      # the SLO gate is the only mover
  upgrade:
    enabled: false
slo:
  enabled: true
  sample_ms: 0.1
  objective_p99_ms: 0.07
  objectives: {vp: 0.04, passthrough: 0.015}
  gate_start_ms: 2.0
  gate_interval_ms: 1.0
  min_samples: 8
faults:
  - kind: fabric_degrade
    start_ms: 12.0
    end_ms: 16.0
    param: 0.5
horizon_ms: 20.0
"""

BUILTIN_SPECS: Dict[str, str] = {
    "small": SMALL_SPEC,
    "fleet": FLEET_SPEC,
    "slo": SLO_SPEC,
}


def load_spec(source: str) -> DCSpec:
    """Resolve a spec source: a built-in name ("small", "fleet") or a
    path to a JSON / YAML-subset file."""
    if source in BUILTIN_SPECS:
        return DCSpec.from_text(BUILTIN_SPECS[source])
    if not os.path.exists(source):
        raise FileNotFoundError(
            f"no spec file {source!r} (built-ins: {sorted(BUILTIN_SPECS)})"
        )
    return DCSpec.load(source)


def run_dc(spec: DCSpec, seed: int = 0, quiescent: bool = True) -> Datacenter:
    """Build the fleet, start the control plane, run to completion."""
    dc = Datacenter(spec, seed=seed, quiescent=quiescent)
    ControlPlane(dc).start()
    dc.sim.run()
    return dc


# ----------------------------------------------------------------------
# Seed sweeps (module-level worker so it pickles under spawn)
# ----------------------------------------------------------------------
def dc_cell(task: Tuple[str, int, bool]) -> Dict:
    """One sweep cell: (spec source, seed, quiescent) -> observables.
    Pure — workers rebuild the spec from its source, so cells pickle."""
    source, seed, quiescent = task
    dc = run_dc(load_spec(source), seed=seed, quiescent=quiescent)
    control = dc.control
    return {
        "seed": seed,
        "digest": dc.digest(),
        "events": len(dc.events),
        "admitted": len(control.admitted),
        "rejected": len(control.rejected),
        "pinned_per_wave": [len(w.pinned) for w in control.waves],
        "upgraded_total": sum(len(w.upgraded) for w in control.waves),
        "rebalance_moves": control.rebalance_moves,
    }


def run_sweep(
    source: str,
    seeds: Sequence[int],
    jobs: Optional[int] = 1,
    quiescent: bool = True,
) -> List[Dict]:
    """Run one spec across seeds, optionally in parallel processes —
    byte-identical to the serial path (see repro.bench.parallel)."""
    tasks = [(source, seed, quiescent) for seed in seeds]
    return map_cells(dc_cell, tasks, jobs=jobs)
