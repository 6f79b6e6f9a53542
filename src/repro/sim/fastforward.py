"""Steady-state fast-forward: epoch-skipping macro-events.

The paper's evaluation spends most of its simulated time in strictly
periodic phases: the Table 3 micro-op loops and closed-loop netperf RR
round trips.  The engine normally replays every micro-event of every
epoch.  This module detects steady state and collapses runs of
identical epochs into one *macro-event*: the clock jumps N periods and
the fingerprinted per-epoch :class:`Metrics` deltas are applied N
times.  The contract is strict equivalence — a run with
fast-forward enabled produces **byte-identical** metrics, digests, and
final simulated time as a run without it.

How a source earns a skip
-------------------------
A workload creates a :class:`PeriodicSource` bound to one machine —
the :class:`~repro.metrics.counters.Metrics` it fingerprints and the
veto it checks — and calls :meth:`PeriodicSource.observe` at every
epoch boundary (for example, after each completed transaction).  The
source walks a state machine:

1. **Cycle lock** — the stream of inter-boundary periods must repeat
   with a small cycle length (the *stride*: 1, 2, or 4 epochs).  Many
   steady states are period-2 — e.g. a request/response loop whose
   server alternates between polling and halting — so epochs are
   grouped into *blocks* of ``stride`` epochs and blocks are the unit of
   fingerprinting and skipping.
2. **Fingerprint** — with the cycle locked, the per-block deltas of
   the source's :class:`~repro.metrics.counters.Metrics` (plus the
   caller-supplied ``extra`` observables, e.g. the transaction
   latencies) must be identical for ``CONFIRM_BLOCKS`` consecutive
   blocks.
3. **Skip** — with a confirmed fingerprint, ``observe`` may collapse
   whole future blocks: it advances the clock via
   :meth:`Simulator.ff_shift` and applies the fingerprint deltas
   scaled by the skip count.  The *last* epoch is always executed
   micro-step so terminal state (armed timers, final events) is
   re-established identically to the slow path.

What blocks a skip
------------------
Skipping is refused — falling back to micro-stepping — whenever epoch
identity cannot be proven:

* the source's **veto** holds: span tracing, an attached auditor, a
  fault injector, or a chain tracker observe mid-epoch state the
  macro-event would hide;
* a **perturbation** was signalled (:meth:`FastForward.perturb`, e.g. a
  migration starting): the generation counter bump invalidates every
  source's fingerprint;
* the **window** is too small: anything live on the event heap before
  ``now + n * period`` (another process's delay, a *live* armed
  timer) bounds the jump — only cancelled
  :class:`~repro.sim.engine.TimerHandle` entries may be jumped over;
* the simulator's **rng state** changed since the fingerprint was
  confirmed (a draw mid-epoch means epochs are not reproducible).

The module is self-contained on purpose: it imports nothing from the
engine, so the engine can own a :class:`FastForward` instance without an
import cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

__all__ = ["FastForward", "PeriodicSource"]

#: Candidate block strides (epochs per block), smallest preferred.
STRIDES = (1, 2, 4)
#: Consecutive identical period-cycles required to lock a stride (two
#: identical blocks of inter-boundary periods).
MIN_PERIOD_STREAK = 2
#: Consecutive identical metric-delta blocks required to confirm the
#: fingerprint once the cycle is locked.
CONFIRM_BLOCKS = 2
#: Consecutive fingerprint mismatches (with a stable cycle) after which
#: a source gives up until the next perturbation, so a
#: periodic-but-not-identical phase doesn't pay snapshot overhead
#: forever.
MAX_DELTA_FAILS = 16


def _snap_delta(prev: Dict[str, Dict], cur: Dict[str, Dict]) -> Dict[str, Dict]:
    """Per-table counter growth between two Metrics snapshots.

    Counters are monotonic, so keys only appear and values only grow;
    the delta keeps changed keys only.
    """
    out: Dict[str, Dict] = {}
    for table, cur_entries in cur.items():
        prev_entries = prev.get(table)
        if prev_entries is None:
            if cur_entries:
                out[table] = dict(cur_entries)
            continue
        delta = {}
        for key, value in cur_entries.items():
            grown = value - prev_entries.get(key, 0)
            if grown:
                delta[key] = grown
        if delta:
            out[table] = delta
    return out


class PeriodicSource:
    """One periodic activity (an epoch stream) on one machine."""

    __slots__ = (
        "ff",
        "name",
        "metrics",
        "veto",
        "skipped_extras",
        "_generation",
        "_last_now",
        "_periods",
        "_extras",
        "_stride",
        "_pattern",
        "_phase",
        "_snaps",
        "_delta",
        "_delta_streak",
        "_block_extras",
        "_profile",
        "_float_log",
        "_rng_state",
        "_delta_fails",
        "_disabled",
        "_veto_active",
        "detections",
        "epochs_skipped",
    )

    def __init__(
        self,
        ff: "FastForward",
        name: str,
        metrics,
        veto: Callable[[], Optional[str]],
    ) -> None:
        self.ff = ff
        self.name = name
        #: The machine's :class:`Metrics`: its per-epoch deltas are the
        #: fingerprint and are scaled on every skip.
        self.metrics = metrics
        #: Returns a cause string while skipping must be refused (an
        #: observer is attached to the machine), None otherwise.
        self.veto = veto
        #: After a skip: the ``extra`` observables of the skipped epochs,
        #: in order, for the caller to replay its own bookkeeping.
        self.skipped_extras: List[Any] = []
        self._generation = ff.generation
        self.detections = 0
        self.epochs_skipped = 0
        self._reset()

    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self._last_now: Optional[int] = None
        #: Recent inter-boundary periods / extras (cycle detection).
        self._periods: deque = deque(maxlen=2 * STRIDES[-1])
        self._extras: deque = deque(maxlen=2 * STRIDES[-1])
        self._unlock()
        self._delta_fails = 0
        self._disabled = False
        self._veto_active: Optional[str] = None

    def _unlock(self) -> None:
        self._stride: Optional[int] = None
        self._pattern: Optional[tuple] = None
        self._phase = 0
        self._drop_fingerprint()
        # Stop the float-charge logs too — nobody will drain them until
        # a fingerprint is being confirmed again.
        self.metrics.ff_stop()

    def _drop_fingerprint(self) -> None:
        self._snaps: Optional[Dict[str, Dict]] = None
        self._delta: Optional[Dict[str, Dict]] = None
        self._delta_streak = 0
        self._block_extras: Any = None
        self._profile: Any = None
        self._float_log: Any = None
        self._rng_state: Any = None

    def _detect_stride(self) -> Optional[int]:
        """Smallest stride whose period cycle repeated twice in a row."""
        periods = self._periods
        have = len(periods)
        for s in STRIDES:
            if have < MIN_PERIOD_STREAK * s:
                continue
            if all(periods[-i] == periods[-s - i] for i in range(1, s + 1)):
                return s
        return None

    # ------------------------------------------------------------------
    def observe(self, remaining: int, extra: Any = None) -> int:
        """Mark an epoch boundary; maybe skip ahead.

        ``remaining`` is the number of identical epochs still ahead of
        the caller; ``extra`` is any additional per-epoch observable the
        caller must be able to replay itself (e.g. the transaction
        latency it appends to a list) — it becomes part of the
        fingerprint.  Returns the number of epochs skipped (0 almost
        always; never more than ``remaining - 1``).  On a skip the clock
        has already advanced and the metric deltas are already applied:
        the caller replays its own bookkeeping from
        :attr:`skipped_extras`.
        """
        ff = self.ff
        if not ff.enabled:
            return 0
        ff.epochs_observed += 1
        if self._generation != ff.generation:
            # A perturbation (migration start, fault window...) was
            # signalled since the last boundary: nothing observed before
            # it can be trusted.
            self._reset()
            self._generation = ff.generation
        if self._disabled:
            return 0
        sim = ff.sim
        now = sim.now
        last = self._last_now
        self._last_now = now
        if last is None:
            return 0

        # ---- 1. cycle lock ----------------------------------------
        period = now - last
        if period <= 0:
            self._periods.clear()
            self._extras.clear()
            self._unlock()
            return 0
        self._periods.append(period)
        self._extras.append(extra)
        stride = self._stride
        if stride is None:
            stride = self._detect_stride()
            if stride is None:
                return 0
            # Locked: the just-completed block is the period pattern,
            # and this boundary anchors the block grid.
            self._stride = stride
            pattern = tuple(self._periods)[-stride:]
            self._pattern = pattern
            self._phase = 0
        else:
            if period != self._pattern[self._phase]:
                # Cycle broke: start re-detection from recent history.
                self._unlock()
                return 0
            self._phase += 1
            if self._phase < stride:
                return 0  # mid-block boundary
            self._phase = 0

        # ---- veto (checked before paying for snapshots) ----------
        cause = self.veto()
        if cause:
            if cause != self._veto_active:
                self._veto_active = cause
                ff.invalidate(cause)
            self._drop_fingerprint()
            return 0
        self._veto_active = None

        # ---- 2. fingerprint (at block boundaries only) ------------
        block_period = sum(self._pattern)
        carriers, window = sim.ff_scan(block_period)
        if carriers is None:
            # Runnable work at the boundary: not a quiescent point.
            self._drop_fingerprint()
            return 0
        # The heap profile joins the fingerprint: the mid-cycle sleepers
        # (cycle carriers) must sit at the same offsets every block, and
        # near-term *non*-carrier work (a live timer, a pending callable)
        # shows up as a window that blocks the skip below.
        profile = tuple(
            (entry[0] - now, entry[2].name) for entry in carriers
        )
        block_extras = tuple(self._extras)[-stride:]
        metrics = self.metrics
        snaps = metrics.snapshot()
        log = metrics.ff_take_log()
        if log is None:
            # Logging was off, abandoned (overflow), or stolen by a
            # concurrent source: can't prove float replay this block.
            metrics.ff_record()
        prev = self._snaps
        self._snaps = snaps
        if prev is None:
            metrics.ff_record()
            self._block_extras = block_extras
            self._profile = profile
            self._float_log = None
            self._rng_state = sim.rng.getstate()
            return 0
        delta = _snap_delta(prev, snaps)
        if (
            delta == self._delta
            and block_extras == self._block_extras
            and profile == self._profile
            and log is not None
            and log == self._float_log
        ):
            self._delta_streak += 1
        else:
            if self._delta is not None:
                self._delta_fails += 1
                if self._delta_fails > MAX_DELTA_FAILS:
                    # Periodic but never identical: stop paying for
                    # snapshots until the next perturbation resets us.
                    self._disabled = True
                    metrics.ff_stop()
                    ff.invalidate("unstable-delta")
                    return 0
            self._delta = delta
            self._delta_streak = 1
            self._block_extras = block_extras
            self._profile = profile
            self._float_log = log
            self._rng_state = sim.rng.getstate()
            return 0
        if self._delta_streak == CONFIRM_BLOCKS:
            self.detections += 1
            ff.detections += 1

        # ---- 3. skip (whole blocks) -------------------------------
        max_epochs = remaining - 1
        if self._delta_streak < CONFIRM_BLOCKS or max_epochs < stride:
            return 0
        rng_state = sim.rng.getstate()
        if rng_state != self._rng_state:
            ff.invalidate("rng")
            self._drop_fingerprint()
            self._snaps = snaps
            self._rng_state = rng_state
            return 0
        n = max_epochs // stride
        if window is not None:
            gap = window - now
            # The skip target must stay strictly before the first live
            # non-carrier entry: that event, and everything after it,
            # runs micro-step at its natural absolute time.
            n_window = (gap - 1) // block_period
            if n_window <= 0:
                ff.window_blocked += 1
                if stride > 1:
                    # The block grid locked onto an arbitrary phase of
                    # the cycle; this boundary has live near-term work
                    # the carriers cannot absorb.  Rotate the grid one
                    # epoch later — some other phase of the cycle may be
                    # quiescent — and re-confirm there.
                    self._pattern = self._pattern[1:] + self._pattern[:1]
                    self._phase = stride - 1
                    self._drop_fingerprint()
                return 0
            if n_window < n:
                n = n_window
        sim.ff_shift(carriers, n * block_period)
        metrics.apply_scaled(self._delta, n, self._float_log)
        self._last_now = sim.now
        self._snaps = metrics.snapshot()
        skipped = n * stride
        self.skipped_extras = list(self._block_extras) * n
        self.epochs_skipped += skipped
        ff.epochs_skipped += skipped
        ff.macro_events += 1
        return skipped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PeriodicSource {self.name} stride={self._stride} "
            f"streak={self._delta_streak} skipped={self.epochs_skipped}>"
        )


class FastForward:
    """Per-simulator fast-forward manager: sources and counters."""

    __slots__ = (
        "sim",
        "enabled",
        "generation",
        "sources",
        "epochs_observed",
        "detections",
        "epochs_skipped",
        "macro_events",
        "window_blocked",
        "invalidations",
    )

    def __init__(self, sim, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        #: Bumped by :meth:`perturb`; every source checks it at each
        #: boundary and drops its state when it moved.
        self.generation = 0
        self.sources: Dict[str, PeriodicSource] = {}
        self.epochs_observed = 0
        self.detections = 0
        self.epochs_skipped = 0
        self.macro_events = 0
        self.window_blocked = 0
        #: cause -> count of fingerprint invalidations / skip refusals.
        self.invalidations: Dict[str, int] = {}

    def source(
        self, name: str, metrics, veto: Callable[[], Optional[str]]
    ) -> PeriodicSource:
        """Get-or-create the named periodic source, bound to one
        machine: ``metrics`` is fingerprinted and ``veto`` is checked
        at every block boundary (e.g. ``machine.metrics`` and
        ``machine._ff_veto``)."""
        src = self.sources.get(name)
        if src is None:
            src = PeriodicSource(self, name, metrics, veto)
            self.sources[name] = src
        return src

    # ------------------------------------------------------------------
    def perturb(self, cause: str) -> None:
        """Something aperiodic happened (a migration started, a fault
        window opened): invalidate every source's fingerprint."""
        self.generation += 1
        self.invalidate(cause)

    def invalidate(self, cause: str) -> None:
        self.invalidations[cause] = self.invalidations.get(cause, 0) + 1

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "ff_enabled": self.enabled,
            "ff_epochs_observed": self.epochs_observed,
            "ff_detections": self.detections,
            "ff_epochs_skipped": self.epochs_skipped,
            "ff_macro_events": self.macro_events,
            "ff_window_blocked": self.window_blocked,
            "ff_invalidations": dict(self.invalidations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"<FastForward {state} skipped={self.epochs_skipped} "
            f"macro={self.macro_events}>"
        )
