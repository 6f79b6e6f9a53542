"""Host time scaled by how fast the machine ran while it was measured.

On a shared host the benchmark's processor switches, every few hundred
milliseconds to a few seconds, between a fast state and a state about
1.5-2x slower (process CPU time slows with it, so it is not stolen
time).  A timed pass that lands mostly in one state or the other reads
up to 40% apart.

:class:`SpeedSampler` measures that state while the program runs.  A
real-time interval timer interrupts the process every
:data:`PERIOD_S`; the signal handler runs a small fixed reference
kernel (heap and dict work, as an event simulator does) and records how
long it took.  :meth:`SpeedSampler.scaled` turns a span's host time into
host time at the reference speed: the span minus the samples taken in
it, times the mean of ``REFERENCE_S / sample`` over the samples near it.
A program that does less work still reads proportionally less, since
the kernel's speed does not depend on the program.

The kernel keeps a tiny working set and allocates only short-lived
objects, so it neither competes with the program for cache nor shifts
when the program's garbage collections run.  It costs under 1% of the
measured time, and the handler stores samples in untracked arrays.
"""

from __future__ import annotations

import heapq
import signal
from array import array
from time import perf_counter

#: Seconds between samples.
PERIOD_S = 0.05
#: Heap operations per sample.
KERNEL_STEPS = 400
#: The kernel's time in the fast state of the 2-CPU x86 host the
#: benchmark was written on; it sets the unit of scaled time, so that
#: scaled seconds read about as raw seconds do on a quiet host.
REFERENCE_S = 0.25e-3
#: Fewest samples a span's speed is read from; shorter spans borrow
#: their neighbours' samples.
MIN_SAMPLES = 4


def kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed amount of event-queue work: pop, record, push."""
    heap = [(i * 7 % 13, i) for i in range(16)]
    heapq.heapify(heap)
    seen = {}
    total = 0
    for k in range(steps):
        t, i = heapq.heappop(heap)
        seen[k & 63] = (t, i)
        total += len(seen)
        heapq.heappush(heap, (t + (k * 31 + i) % 17 + 1, i))
    return total


class SpeedSampler:
    """Samples the reference kernel's speed while the process runs."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.costs = array("d")
        self._previous = None

    def install(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.costs.append(t1 - t0)

    def mark(self) -> int:
        """The index the next sample will take: bracket a span with two
        marks and pass both to :meth:`scaled`."""
        return len(self.costs)

    def scaled(self, elapsed: float, start: int, stop: int) -> float:
        """``elapsed`` host seconds of a span whose samples are
        ``start:stop``, without the sampling, at the reference speed.

        Call it once the samples after the span exist too: a span with
        fewer than :data:`MIN_SAMPLES` of its own reads its neighbours'.
        """
        return (elapsed - sum(self.costs[start:stop])) * self.speed(start, stop)

    def speed(self, start: int, stop: int) -> float:
        """Mean speed, relative to the reference, over samples
        ``start:stop`` widened to at least :data:`MIN_SAMPLES`."""
        lo, hi = start, stop
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.costs)):
            lo = max(0, lo - 1)
            hi = min(len(self.costs), hi + 1)
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        return sum(REFERENCE_S / c for c in self.costs[lo:hi]) / (hi - lo)
