"""NecoFuzz-style trap-chain fuzzing.

Each episode builds a fresh stack at a fuzzer-chosen depth (native, L1,
L2, L3) and I/O model, attaches a seed-derived :class:`FaultPlan`, and
drives randomized privileged-op interleavings through it (the op soup of
:mod:`repro.faults.workload`).  After the simulation drains, per-episode
invariants are checked:

* **Exit conservation** — every hardware exit is either handled by L0 or
  forwarded to exactly one guest hypervisor (preemption-timer ticks are
  L0-internal bookkeeping) — checked machine-wide *and* per exit chain
  (the dispatch core's chain ids, tallied by
  :class:`repro.faults.chains.ChainTracker`);
* **No stranded vCPU** — every worker finished; with safety timers armed
  around every blocking wait, a stranded worker means a lost wakeup;
* **No lost wakeup** — no halted physical CPU has a vCPU with pending
  interrupts parked on it;
* **Cycle conservation** — charged cycles are non-negative and bounded
  by wall-cycles times the CPU count;
* **Replay determinism** — re-running an episode from its seed gives a
  byte-identical outcome digest (checked every ``replay_every``-th
  episode).

Everything derives from the campaign seed: same seed, same campaign.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.checks import lifecycle_violations
from repro.core.features import DvhFeatures
from repro.faults.chains import ChainTracker
from repro.faults.injector import FaultInjector, degrade_config
from repro.faults.plan import FaultClass, FaultPlan
from repro.faults.workload import run_fault_workload

__all__ = [
    "EpisodeResult",
    "CampaignResult",
    "TrapChainFuzzer",
    "build_faulted_stack",
    "check_invariants",
    "state_digest",
]

#: Fault classes a fuzz episode draws from (migration-wire classes are
#: exercised by the migration tests/benchmarks, not the op soup).
FUZZ_CLASSES: Tuple[str, ...] = (
    FaultClass.NIC_DROP,
    FaultClass.NIC_CORRUPT,
    FaultClass.VIRTIO_MALFORMED,
    FaultClass.VIRTIO_KICK_DROP,
    FaultClass.IRQ_DROP,
    FaultClass.IRQ_SPURIOUS,
    FaultClass.IOMMU_FAULT,
    FaultClass.DVH_CAP_FAULT,
    FaultClass.OOH_GRANT_REVOKE,
)


def build_faulted_stack(config, plan: FaultPlan, seed: int = 0):
    """Degrade the config per the plan's capability faults, build the
    stack, and attach an injector.  Returns ``(stack, injector)``."""
    from repro.hv.stack import build_stack

    config, dropped = degrade_config(config, plan)
    stack = build_stack(config)
    # Per-chain exit accounting for check_invariants; lives outside
    # Metrics so episode digests are unchanged by its presence.
    stack.machine.chain_tracker = ChainTracker()
    faulted_drops = [m for m in dropped if m in plan.faulted_mechanisms()]
    if faulted_drops:
        for _ in faulted_drops:
            stack.metrics.record_fault(FaultClass.DVH_CAP_FAULT)
        stack.metrics.record_recovery("dvh_fallback")
    injector = FaultInjector(stack.machine, plan, seed=seed).attach(stack)
    return stack, injector


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def check_invariants(stack, injector: Optional[FaultInjector] = None) -> List[str]:
    """Check post-run invariants; returns a list of violation strings
    (empty = all green)."""
    violations: List[str] = []
    metrics = stack.metrics
    machine = stack.machine

    # Exit conservation across levels.  Preemption-timer ticks are
    # L0-internal bookkeeping (recorded, never handled/forwarded), and a
    # vCPU parked inside L0's HLT emulation at drain time has its exit
    # recorded but completes the handled side only on wake — so the only
    # legal slack is up to one in-flight ``hlt`` per halted pCPU.
    total = metrics.total_exits()
    handled = sum(metrics.l0_handled.values())
    forwarded = sum(metrics.forwards.values())
    preempt = metrics.exits_for_reason("preemption_timer")
    slack = total - handled - forwarded - preempt
    halted = sum(1 for cpu in machine.cpus if cpu.halted)
    if not 0 <= slack <= halted:
        violations.append(
            f"exit conservation: {total} exits != {handled} L0-handled + "
            f"{forwarded} forwarded + {preempt} preemption ticks "
            f"(slack {slack} outside [0, {halted} halted pCPUs])"
        )
    else:
        # The slack must be entirely in-flight HLTs, nothing else.
        hlt_slack = (
            metrics.exits_for_reason("hlt")
            - metrics.l0_handled.get("hlt", 0)
            - sum(n for (_l, r, _o), n in metrics.forwards.items() if r == "hlt")
        )
        if slack != hlt_slack:
            violations.append(
                f"exit conservation: non-hlt imbalance "
                f"(total slack {slack}, hlt slack {hlt_slack})"
            )

    # Per-chain exit conservation: the same balance must hold within
    # every individual exit chain, not just machine-wide — an exit
    # mis-attributed between chains cancels in the aggregate but not here.
    tracker = machine.chain_tracker
    if tracker is not None:
        violations.extend(tracker.violations())
        total_chain_slack = sum(
            tracker.chain_slack(cid) for cid in tracker.exits
        )
        if total_chain_slack != slack:
            violations.append(
                f"chain conservation: per-chain slack {total_chain_slack} "
                f"!= machine-wide slack {slack}"
            )

    # No lost wakeup: a halted pCPU must not be parking a vCPU with
    # pending interrupts.
    for vm in stack.vms:
        for vcpu in vm.vcpus:
            pcpu = getattr(vcpu, "pcpu", None)
            if pcpu is not None and pcpu.halted and vcpu.lapic.irr:
                violations.append(
                    f"lost wakeup: pcpu{pcpu.idx} halted while "
                    f"{vcpu.name if hasattr(vcpu, 'name') else vcpu} has "
                    f"pending irr {sorted(vcpu.lapic.irr)}"
                )

    # Resource lifecycle (see repro.audit): nothing may leak a
    # migration-held resource — no dirty log left attached to any VM's
    # memory, no backend left paused or still dirty-logging.  Campaigns
    # fail on the leaked-state bug class even when no invariant above
    # notices the corruption.
    violations.extend(lifecycle_violations(stack))

    # Cycle conservation: charges non-negative, and the total bounded by
    # wall-cycles across all CPUs.  Boot-time work ("setup": IOMMU
    # page-pinning at device assignment) is charged while the stack is
    # *built* — before the clock ever runs — so it lies outside the
    # wall-cycle budget; a short run over a big passthrough domain would
    # otherwise flag a false violation.
    for category, cycles in metrics.cycles.items():
        if cycles < 0:
            violations.append(f"negative cycle charge: {category}={cycles}")
    wall_budget = machine.sim.now * len(machine.cpus)
    charged = sum(metrics.cycles.values()) - metrics.cycles.get("setup", 0)
    if machine.sim.now > 0 and charged > wall_budget:
        violations.append(
            f"cycle conservation: {charged} charged > "
            f"{wall_budget} wall-cycle budget"
        )

    return violations


def state_digest(stack, injector: Optional[FaultInjector] = None) -> str:
    """A stable digest of the run's observable outcome: final clock,
    every counter, and what was injected.  Two runs are *the same run*
    iff their digests match."""
    snapshot = stack.metrics.snapshot()
    payload = {
        "now": stack.sim.now,
        "metrics": {
            table: {str(k): v for k, v in sorted(counters.items(), key=lambda kv: str(kv[0]))}
            for table, counters in snapshot.items()
        },
        "injected": dict(sorted(injector.summary().items())) if injector else {},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# Episodes and campaigns
# ----------------------------------------------------------------------
@dataclass
class EpisodeResult:
    index: int
    seed: int
    config_desc: str
    plan_desc: str
    ops: Dict[str, int]
    injected: Dict[str, int]
    recoveries: Dict[str, int]
    violations: List[str]
    digest: str
    replay_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    seed: int
    episodes: List[EpisodeResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.episodes)

    @property
    def failures(self) -> List[EpisodeResult]:
        return [e for e in self.episodes if not e.ok]

    def injected_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for e in self.episodes:
            for kind, n in e.injected.items():
                totals[kind] = totals.get(kind, 0) + n
        return totals

    def recovery_totals(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for e in self.episodes:
            for kind, n in e.recoveries.items():
                totals[kind] = totals.get(kind, 0) + n
        return totals


class TrapChainFuzzer:
    """Drives fuzz campaigns.  Deterministic per ``seed``."""

    def __init__(
        self,
        seed: int = 0,
        episodes: int = 50,
        levels: Sequence[int] = (0, 1, 2, 3),
        classes: Sequence[str] = FUZZ_CLASSES,
        ops_per_worker: int = 20,
        workers: int = 2,
        intensity: float = 0.08,
        replay_every: int = 10,
        audit: bool = False,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.levels = tuple(levels)
        self.classes = tuple(classes)
        self.ops_per_worker = ops_per_worker
        self.workers = workers
        self.intensity = intensity
        self.replay_every = replay_every
        #: Attach a fresh repro.audit.Auditor to every episode's stack
        #: and fold its finish-time violations into the episode's.  The
        #: auditor only observes, so episode digests (and the replay
        #: check) are identical with auditing on or off.
        self.audit = audit

    # ------------------------------------------------------------------
    def episode_seed(self, index: int) -> int:
        return self.seed * 1_000_003 + index

    def _episode_config(self, rng: random.Random):
        """Pick a stack shape for one episode (pure function of rng).
        The draws live in :mod:`repro.scenarios.generator` — one
        generator feeds the fuzzer, the audit matrix and the sweeps —
        and their rng-consumption order is frozen there, so campaign
        seeds keep reproducing the same episodes."""
        from repro.scenarios.generator import draw_stack_shape

        return draw_stack_shape(rng, self.levels, self.workers)

    def _run_once(self, index: int):
        """One full episode execution; returns everything the digest and
        the result need.  Called twice for replay checks."""
        eseed = self.episode_seed(index)
        rng = random.Random(eseed)
        config = self._episode_config(rng)
        plan = FaultPlan.random(
            rng.randrange(1 << 30),
            classes=self.classes,
            intensity=self.intensity,
        )
        stack, injector = build_faulted_stack(config, plan, seed=eseed)
        auditor = None
        if self.audit:
            from repro.audit import Auditor

            auditor = Auditor().attach_stack(stack)
        violations: List[str] = []
        ops: Dict[str, int] = {}
        try:
            ops = run_fault_workload(
                stack,
                ops_per_worker=self.ops_per_worker,
                seed=eseed,
                workers=self.workers,
            )
        except RuntimeError as exc:
            violations.append(f"stranded: {exc}")
        except Exception as exc:  # invariant: hardened stacks never crash
            violations.append(f"crash: {type(exc).__name__}: {exc}")
        violations.extend(check_invariants(stack, injector))
        if auditor is not None:
            violations.extend(str(v) for v in auditor.finish().violations)
        digest = state_digest(stack, injector)
        return stack, injector, config, plan, ops, violations, digest

    def run_episode(self, index: int) -> EpisodeResult:
        stack, injector, config, plan, ops, violations, digest = self._run_once(
            index
        )
        replay_checked = False
        if self.replay_every and index % self.replay_every == 0:
            *_rest, replay_digest = self._run_once(index)
            replay_checked = True
            if replay_digest != digest:
                violations.append(
                    f"replay divergence: {digest[:16]} != {replay_digest[:16]}"
                )
        return EpisodeResult(
            index=index,
            seed=self.episode_seed(index),
            config_desc=(
                f"L{config.levels}/{config.io_model}"
                + ("+dvh" if config.dvh.any_enabled else "")
            ),
            plan_desc=plan.describe(),
            ops=ops,
            injected=dict(injector.summary()),
            recoveries=dict(stack.metrics.recoveries),
            violations=violations,
            digest=digest,
            replay_checked=replay_checked,
        )

    def run(
        self, progress: Optional[Callable[[EpisodeResult], None]] = None
    ) -> CampaignResult:
        campaign = CampaignResult(seed=self.seed)
        for index in range(self.episodes):
            result = self.run_episode(index)
            campaign.episodes.append(result)
            if progress is not None:
                progress(result)
        return campaign
