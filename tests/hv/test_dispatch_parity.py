"""Dispatch parity: exit counts per configuration are frozen.

The registry-based dispatch core (``repro.hv.dispatch``) replaced the
hand-routed ``KvmHypervisor`` trap path.  Routing decisions and exit
multiplication are *observable simulation results*, so they must not
change for ANY configuration: this test drives a fixed deterministic
workload through every stack in :mod:`repro.bench.configs` (every
Table-3 / Figure-7/8/9/10 cell), plus L4/L5 super-nesting stacks and the
Xen guest-hypervisor profile, and compares the resulting
exits/forwards/L0-handled/DVH-handled counters against goldens captured
from the pre-refactor dispatcher.  ``test_frame_choice_parity``
additionally checks that pricing level-1 VMX-instruction exits without a
trap frame is unobservable: the full metrics snapshot and the clock must
match a run that a chain tracker forces onto the framed path.

Regenerate the goldens **only** when deliberately changing simulated
behavior:

    PYTHONPATH=src python tests/hv/test_dispatch_parity.py --regen
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

import pytest

from repro.bench.configs import CONFIG_SETS
from repro.core.features import DvhFeatures
from repro.faults.chains import ChainTracker
from repro.hv import kvm
from repro.hv.dispatch import ExitContext
from repro.hv.stack import StackConfig, build_stack
from repro.hw.ops import ExitReason
from repro.workloads.microbench import run_microbenchmark

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_dispatch_parity.json")


def _super_nesting_configs() -> List[Tuple[str, StackConfig]]:
    """L4/L5 stacks: beyond the paper's testbed, exercising recursive
    forwarding chains (plain) and recursive DVH (full)."""
    out = []
    for levels in (4, 5):
        out.append((f"super:L{levels}", StackConfig(levels=levels, io_model="virtio")))
        out.append(
            (
                f"super:L{levels}+dvh",
                StackConfig(levels=levels, io_model="vp", dvh=DvhFeatures.full()),
            )
        )
    return out


def parity_configs() -> List[Tuple[str, StackConfig]]:
    """Every benchmark configuration, labeled ``set:name``."""
    out: List[Tuple[str, StackConfig]] = []
    for set_name, configs in sorted(CONFIG_SETS.items()):
        for label, factory in configs:
            out.append((f"{set_name}:{label}", factory()))
    out.extend(_super_nesting_configs())
    return out


def drive_op_mix(stack, config: StackConfig, light: bool = False) -> None:
    """Settle a built stack, then drive the standard op mix through it.

    ``light`` runs each op once, which still walks every forwarding
    chain the full mix does."""
    stack.settle()
    if config.levels >= 5:
        # L5 exit multiplication makes every op astronomically expensive
        # (that is the point); one op per reason keeps the test fast while
        # still pinning the whole forwarding chain.
        run_microbenchmark(stack, "Hypercall", 1)
        run_microbenchmark(stack, "ProgramTimer", 1)
    else:
        run_microbenchmark(stack, "Hypercall", 1 if light else 5)
        run_microbenchmark(stack, "ProgramTimer", 1 if light else 5)
        if getattr(stack.net, "device", None) is not None:
            run_microbenchmark(stack, "DevNotify", 1 if light else 3)
        run_microbenchmark(stack, "SendIPI", 1 if light else 2)


def exit_counters(config: StackConfig) -> Dict[str, Dict[str, int]]:
    """Build the stack, drive the standard op mix, return its counters."""
    stack = build_stack(config)
    drive_op_mix(stack, config)
    m = stack.metrics
    return {
        "exits": {f"{lvl}|{r}": n for (lvl, r), n in sorted(m.exits.items())},
        "forwards": {
            f"{lvl}|{r}|{o}": n for (lvl, r, o), n in sorted(m.forwards.items())
        },
        "l0_handled": {r: n for r, n in sorted(m.l0_handled.items())},
        "dvh_handled": {r: n for r, n in sorted(m.dvh_handled.items())},
    }


def _load_goldens() -> Dict[str, Dict]:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


_GOLDENS = _load_goldens() if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize(
    "label,config", parity_configs(), ids=[l for l, _ in parity_configs()]
)
def test_dispatch_parity(label: str, config: StackConfig) -> None:
    assert _GOLDENS, f"missing goldens: regenerate via {__file__} --regen"
    golden = _GOLDENS.get(label)
    assert golden is not None, f"no golden for {label!r}: regenerate goldens"
    assert exit_counters(config) == golden


class _CountingFrame(ExitContext):
    """ExitContext that counts its allocations."""

    allocated = 0

    def __init__(self, *args, **kwargs) -> None:
        type(self).allocated += 1
        super().__init__(*args, **kwargs)


def _frame_choice_configs() -> List[Tuple[str, StackConfig]]:
    # L5 is left out to keep tier-1 time down; L4 (with the light mix)
    # covers the same recursive forwarding and recursive-DVH chains.
    return [(l, c) for l, c in parity_configs() if c.levels < 5]


@pytest.mark.parametrize(
    "label,config",
    _frame_choice_configs(),
    ids=[l for l, _ in _frame_choice_configs()],
)
def test_frame_choice_parity(label: str, config: StackConfig, monkeypatch) -> None:
    """Trap frames on demand must be unobservable.

    The op mix runs twice: once bare, where level-1 VMX-instruction
    exits are priced without a trap frame, and once with a chain
    tracker attached, which forces a frame onto every exit.  The full
    metrics snapshot (cycles included) and the simulated clock must
    match, and frames must be allocated exactly where the rule says.
    """
    monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
    monkeypatch.setattr(kvm, "ExitContext", _CountingFrame)
    monkeypatch.setattr(_CountingFrame, "allocated", 0)
    light = config.levels >= 4
    bare = build_stack(config)
    drive_op_mix(bare, config, light)
    bare_frames = _CountingFrame.allocated

    framed = build_stack(config)
    tracker = framed.machine.chain_tracker = ChainTracker()
    drive_op_mix(framed, config, light)

    assert framed.metrics.snapshot() == bare.metrics.snapshot()
    assert framed.sim.now == bare.sim.now
    total = bare.metrics.total_exits()
    assert sum(tracker.exits.values()) == total
    frameless = bare.metrics.exits.get((1, ExitReason.VMX_INSTRUCTION.value), 0)
    assert bare_frames == total - frameless
    if config.levels >= 2:
        assert frameless > 0


def test_goldens_cover_every_config() -> None:
    """A config added to repro.bench.configs must get a golden too."""
    assert _GOLDENS, f"missing goldens: regenerate via {__file__} --regen"
    missing = [l for l, _ in parity_configs() if l not in _GOLDENS]
    assert not missing, f"configs without parity goldens: {missing}"


def _regen() -> None:
    goldens = {label: exit_counters(config) for label, config in parity_configs()}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} configs)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
