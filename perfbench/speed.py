"""Reference-speed time: wall time corrected for how fast the machine ran.

On a shared host the speed of one process changes from one second to the
next, as other tenants load the cores it runs on: the same pure-Python
loop can take 1.7x longer in one second than in the next, and the same
``verify all --prime 7`` op took from 12.2 s to 18.0 s over ten runs. Raw
wall times of identical work therefore spread by more than any useful
regression bound.

``SpeedClock`` measures the machine's speed while the workload runs. A
``SIGALRM`` timer interrupts the main thread every ``TICK_S`` of wall
time; the handler runs ``kernel`` once and records how long it took. The
kernel is a fixed piece of pure-Python work like bpcalc's inner loop (a
sparse polynomial product over ``Fraction``), but it is the benchmark's
own code, so no change to bpcalc changes it. Each stretch of wall time
between two handler runs is then scaled by ``REF_KERNEL_S / k``, where
``k`` is the median kernel time over the ``WINDOW`` handler runs centred
on the end of that stretch: a stretch run at half speed counts half. One
kernel time is a noisy reading (run back to back, its quartiles lie 18%
apart); the median of nine, about a quarter of a second, still follows
the host's speed, which changes from second to second. The handler's own
time is left out. The result, ``scaled(a, b)``, is the time the work
between ``a`` and ``b`` would have taken at reference speed, the speed
at which the kernel takes ``REF_KERNEL_S`` (about the fastest the 2-vCPU
Xeon host that measured ``baseline.json`` ran it).

The timer costs one kernel run per tick, about a tenth of the wall time,
none of which is counted. A signal handler runs only between bytecodes,
so a long call into C delays the next tick; the stretch then is longer
and is scaled by the kernel times measured around its end.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

TICK_S = 0.025
REF_KERNEL_S = 0.0015
WINDOW = 9

_TERMS = {(i, j, (i * j) % 3): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}


def kernel() -> dict:
    """Square a fixed 20-term polynomial with Fraction coefficients."""
    out = {}
    for e1, c1 in _TERMS.items():
        for e2, c2 in _TERMS.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


class SpeedClock:
    """Records, while running, the stretches of wall time spent outside the
    timer's handler and the kernel's time at the end of each."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self.kernel_s = []
        self._since = None
        self._previous = None
        self._smoothed = []

    def _tick(self, signum=None, frame=None):
        # The kernel frees what it allocates before it returns; with the
        # collector off it cannot start a collection that would sweep the
        # program's young objects on the handler's uncounted time.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(self._since)
        self.ends.append(t0)
        self.kernel_s.append(t1 - t0)
        self._since = perf_counter()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._since = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop the timer; the last stretch ends with one more kernel run."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def scaled(self, a: float, b: float) -> float:
        """Reference-speed seconds of the work done between wall times a
        and b, both read with perf_counter while the clock ran."""
        if len(self._smoothed) != len(self.kernel_s):
            half = WINDOW // 2
            self._smoothed = [statistics.median(self.kernel_s[max(0, i - half):i + half + 1])
                              for i in range(len(self.kernel_s))]
        total = 0.0
        i = bisect.bisect_right(self.ends, a)
        while i < len(self.ends) and self.starts[i] < b:
            overlap = min(b, self.ends[i]) - max(a, self.starts[i])
            if overlap > 0:
                total += overlap * REF_KERNEL_S / self._smoothed[i]
            i += 1
        return total

    def slowdown(self) -> float:
        """Median kernel time over the run, as a multiple of REF_KERNEL_S."""
        xs = sorted(self.kernel_s)
        return xs[len(xs) // 2] / REF_KERNEL_S
