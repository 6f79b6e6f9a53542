"""The datacenter fleet: hosts in racks on a spine-leaf fabric.

A :class:`Datacenter` is the ``repro.dc`` analogue of
:class:`~repro.cluster.Cluster` — it quacks the same for the
:class:`~repro.cluster.orchestrator.Orchestrator` (``sim`` / ``fabric``
/ ``hosts`` / ``policy`` / ``host`` / ``host_of`` / ``log``) — but is
built from a declarative :class:`~repro.dc.spec.DCSpec` and sized for
hundreds of hosts:

* hosts are named ``r{rack}h{idx}`` and attached to a
  :class:`~repro.dc.fabric.SpineLeafFabric` per the spec's topology;
* with ``quiescent=True`` (the default) hosts are **lazy**: a host
  contributes zero engine events and no built stack until a tenant,
  migration, or explicit touch needs it.  Accounting is byte-identical
  either way — booting parks backend processes on events, never draws
  the shared RNG, and never writes the event trace — so a 500-host
  fleet costs what its *active* hosts cost.

The :meth:`digest` deliberately covers the control-plane observables
(event trace, cross-host byte matrix, wave reports) and **not** the
final ``sim.now``: the only timing difference lazy boot may introduce
is the sub-microsecond backend-startup drain of a host that eager mode
booted earlier, after the last logged action.  Everything an operator
can observe — every log line's timestamp, every byte on the fabric —
is identical, and the determinism tests pin exactly that.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.cluster.host import ClusterHost, Tenant
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.placement import make_policy
from repro.dc.fabric import SpineLeafFabric
from repro.dc.spec import DCSpec
from repro.faults.injector import FaultInjector
from repro.sim import Simulator, default_costs

__all__ = ["Datacenter"]


class Datacenter:
    """N racks of hosts, one spine-leaf fabric, one clock, one trace."""

    def __init__(
        self,
        spec: DCSpec,
        seed: int = 0,
        quiescent: bool = True,
        costs=None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.quiescent = quiescent
        self.sim = Simulator(seed=seed)
        self.costs = costs if costs is not None else default_costs()
        topo = spec.topology
        self.fabric = SpineLeafFabric(
            self.sim,
            self.costs,
            racks=topo.racks,
            hosts_per_rack=topo.hosts_per_rack,
            spines=topo.spines,
            oversubscription=topo.oversubscription,
        )
        self.policy = make_policy(spec.control.policy)
        #: The deterministic event trace (admissions, migrations, waves,
        #: reboots), stamped with the shared simulated clock.
        self.events: List[str] = []
        self.hosts: List[ClusterHost] = []
        idx = 0
        for rack in range(topo.racks):
            for slot in range(topo.hosts_per_rack):
                host = ClusterHost(
                    f"r{rack}h{slot}",
                    self.sim,
                    self.costs,
                    guest_hv=spec.hosts.guest_hv,
                    stack_levels=spec.hosts.stack_levels,
                    workers=spec.hosts.workers,
                    seed=seed + idx,
                    lazy=quiescent,
                    load_capacity=spec.hosts.load_capacity,
                )
                host.port = self.fabric.attach(host.name, rack=rack)
                self.hosts.append(host)
                idx += 1
        self.orchestrator = Orchestrator(self)
        #: The attached ControlPlane (set by ControlPlane.__init__).
        self.control = None
        self.audit = None
        self.faults = None
        plan = spec.fault_plan(self.sim.freq_hz)
        if plan is not None and not plan.is_empty:
            self.faults = FaultInjector(self.fabric, plan, seed=seed).attach()
        # Logged at now=0, before anything (including eager boots) runs,
        # so the trace head is identical with and without quiescence.
        self.log(
            f"dc up spec={spec.name} v{spec.version} racks={topo.racks} "
            f"hosts={len(self.hosts)} spines={topo.spines} "
            f"oversub={topo.oversubscription:g} policy={spec.control.policy} "
            f"seed={seed}"
        )

    # ------------------------------------------------------------------
    # Clock helpers
    # ------------------------------------------------------------------
    def ms(self, milliseconds: float) -> int:
        """Wall milliseconds -> simulated cycles."""
        return int(milliseconds * 1e-3 * self.sim.freq_hz)

    @property
    def horizon(self) -> int:
        return self.ms(self.spec.horizon_ms)

    # ------------------------------------------------------------------
    # Lookup (Cluster duck-type)
    # ------------------------------------------------------------------
    def host(self, name: str) -> ClusterHost:
        for h in self.hosts:
            if h.name == name:
                return h
        raise KeyError(f"no host named {name!r}")

    def host_of(self, tenant_name: str) -> ClusterHost:
        for h in self.hosts:
            if tenant_name in h.tenants:
                return h
        raise KeyError(f"no tenant named {tenant_name!r}")

    def tenants(self) -> Dict[str, Tenant]:
        out: Dict[str, Tenant] = {}
        for h in self.hosts:
            out.update(h.tenants)
        return out

    # ------------------------------------------------------------------
    # Trace / reporting
    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        self.events.append(f"{self.sim.now:>14} {message}")

    def trace(self) -> str:
        """The full event trace — byte-identical for identical
        (spec, seed), with or without quiescent hosts."""
        return "\n".join(self.events)

    def digest(self) -> str:
        """sha256 over the control-plane observables: the event trace,
        the cross-host byte matrix, the wave reports, the per-tenant
        latency histograms, and the SLO-gate decisions.  Covering the
        histogram tables here is what the byte-identity tests pin:
        fast-forward on/off, serial vs ``--jobs``, quiescent or eager —
        same digest."""
        waves = []
        slo = []
        if self.control is not None:
            waves = [w.as_dict() for w in self.control.waves]
            slo = [r.as_dict() for r in getattr(self.control, "slo_reports", [])]
        metrics = self.fabric.metrics

        def table(name: str) -> Dict[str, object]:
            return {
                str(k): v
                for k, v in sorted(
                    metrics.snapshot()[name].items(), key=lambda kv: str(kv[0])
                )
            }

        blob = json.dumps(
            {
                "trace": self.events,
                "fabric": table("cross_host"),
                "latency": table("latency"),
                "latency_sum": table("latency_sum"),
                "waves": waves,
                "slo": slo,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def summary(self) -> Dict:
        """A JSON-friendly fleet snapshot for the CLI and benchmarks.
        Per-host detail is listed only for occupied hosts — a 500-host
        fleet summary stays readable."""
        occupied = {
            h.name: {
                "rack": self.fabric.rack_of[h.name],
                "tenants": sorted(h.tenants),
                "mem_committed_gb": h.mem_committed >> 30,
                "cycle_load": h.cycle_load,
            }
            for h in self.hosts
            if h.tenants
        }
        by_outcome: Dict[str, int] = {}
        for r in self.orchestrator.records:
            by_outcome[r.outcome] = by_outcome.get(r.outcome, 0) + 1
        out = {
            "spec": self.spec.name,
            "version": self.spec.version,
            "seed": self.seed,
            "quiescent": self.quiescent,
            "policy": self.policy.name,
            "sim_cycles": self.sim.now,
            "hosts_total": len(self.hosts),
            "hosts_booted": sum(1 for h in self.hosts if h.booted),
            "boots": sum(h.boots for h in self.hosts),
            "hosts_occupied": occupied,
            "fabric": self.fabric.stats(),
            "migrations": by_outcome,
            "events": len(self.events),
            "digest": self.digest(),
        }
        if self.control is not None:
            out["control"] = self.control.report()
            if self.spec.slo.enabled:
                out["tenant_percentiles"] = self.control.tenant_percentiles()
        return out
