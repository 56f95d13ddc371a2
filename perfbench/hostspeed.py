"""Host speed, read from a fixed reference loop run among the timed work.

The benchmark's times are taken on shared virtual machines whose CPU speed
swings by up to 1.7x, in episodes from under a second to minutes.  It is not
stolen time: process CPU time swings with wall time.  So run.py times a short
pure-Python reference loop before the work and, from a SIGALRM timer, every
PERIOD_S while the work runs, and reports the work's time scaled to the host
speed at which that loop takes REFERENCE_S:

    scaled = (measured - time of the loops run inside) * REFERENCE_S / mean(loop times)

A change to the program moves the scaled time; a change in host speed moves
the loop and the work alike and mostly cancels.  Of the loops tried (Python
bytecode, 60x60 matrix products, numpy ops on 256-vectors, sums over an 8 MB
array), Python bytecode tracked the pipeline's cells best.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_S = 0.002
PERIOD_S = 0.1


def loop_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = perf_counter()
    total = 0
    for k in range(40_000):
        total += k
    return perf_counter() - t0


def scaled(seconds: float, loops) -> float:
    """`seconds` of work at the host speed the reference loop times `loops` show."""
    return seconds * REFERENCE_S / statistics.fmean(loops)


class HostSpeed:
    """Reference-loop times taken among the timed work, in order."""

    def __init__(self):
        self.loops = []

    @contextmanager
    def sampling(self, every_s=PERIOD_S):
        """Time the loop now, then every `every_s` of wall time until the block
        ends (not at all when `every_s` is None)."""
        self.loops.append(loop_s())
        if every_s is None:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, lambda *_: self.loops.append(loop_s()))
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, *args):
        """(fn(*args), its wall time less the loops run inside it, that time
        scaled by the loop times from just before the call to its end)."""
        first = len(self.loops)
        t0 = perf_counter()
        out = fn(*args)
        seconds = perf_counter() - t0
        inside = self.loops[first:]
        seconds -= sum(inside)
        return out, seconds, scaled(seconds, self.loops[max(first - 1, 0):])
