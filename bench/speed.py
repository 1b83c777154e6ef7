"""Correcting wall-clock times for the speed of a shared machine.

On a shared virtual machine (2-core Intel Xeon, Python 3.11.7), other
tenants slowed every process down by up to 1.8 times, in spells of a second
to over a minute, with process time equal to wall time throughout.  Medians within a
20 s run cannot average such spells out: raw run-to-run spreads of a fifth
to two fifths remained on fixed inputs.

A SpeedProbe therefore samples the machine's speed while the benchmark runs.
A virtual-time timer interrupts the process every SAMPLE_EVERY_S seconds of
its CPU time to time a small fixed kernel of this file's own: integer
elimination, tuple/dict churn and divisibility tests through small calls and
generators, the kinds of work shiftlab does.  The kernel calls no shiftlab
code, so a change to the library cannot move it.  A process waiting on a
child gets no timer signals, so the harness also takes a burst of samples
before each operation when none is recent.  An operation's time is its wall
time minus the time spent sampling during it, scaled by REFERENCE_KERNEL_S
over the median kernel time of the samples taken during it (for a short
operation, of the NEAREST samples closest to it): the time it would have
taken on the reference machine when quiet.  On fixed inputs this cut the
run-to-run spread of pass times from 0.09-0.41 to 0.02-0.07.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# the kernel's time on the reference machine (2-core Intel Xeon, Python
# 3.11.7) in a quiet spell; it sets the scale of every reported time
REFERENCE_KERNEL_S = 0.0011
SAMPLE_EVERY_S = 0.05  # of process CPU time
NEAREST = 9
FRESH_S, BURST = 0.1, 5


def _below(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def kernel() -> int:
    """Fixed work: fraction-free elimination of a 12 x 12 integer matrix,
    tuple-keyed dictionary updates and a sort, and divisibility tests of
    exponent vectors through small calls and generators."""
    rng = random.Random(7)
    n = 12
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    r, prev = 0, 1
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv, rowr = rows[r][c], rows[r]
        for i in range(r + 1, n):
            rowi, ric = rows[i], rows[i][c]
            for j in range(c + 1, n):
                rowi[j] = (pv * rowi[j] - ric * rowr[j]) // prev
            rowi[c] = 0
        prev, r = pv, r + 1
    counts: dict = {}
    for i in range(600):
        key = (i % 37, i % 13, i % 7)
        counts[key] = counts.get(key, 0) + i
    vecs = [tuple(rng.randint(0, 3) for _ in range(6)) for _ in range(14)]
    below = sum(1 for a in vecs for b in vecs if _below(a, b))
    return r + len(sorted(counts.items())) + below


class SpeedProbe:
    """Samples the kernel's time while started; at most one probe runs."""

    def __init__(self):
        self.at: list[float] = []  # when each sample ended
        self.kernel_s: list[float] = []  # the kernel's time in that sample
        self.spent = 0.0  # total seconds spent sampling

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)
        self.spent += t1 - t0

    def refresh(self) -> None:
        """Take a burst of samples unless one was taken in the last FRESH_S
        seconds."""
        if not self.at or time.perf_counter() - self.at[-1] > FRESH_S:
            for _ in range(BURST):
                self._sample(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_KERNEL_S over the median kernel time of the samples taken
        in [t0, t1], or of the NEAREST samples to it if fewer fell inside."""
        lo, hi = bisect_left(self.at, t0), bisect_right(self.at, t1)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if hi >= len(self.at) or (lo > 0 and t0 - self.at[lo - 1] <= self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def slowdown(self) -> float:
        """The machine's median slowness against the reference, for the record."""
        return statistics.median(self.kernel_s) / REFERENCE_KERNEL_S
