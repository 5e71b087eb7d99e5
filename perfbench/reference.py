"""A fixed reference task, timed beside the queries to gauge the machine's speed.

On a shared host the speed a process gets changes within seconds and drifts
over minutes, in CPU time as well as in wall time: a fixed pure-Python loop,
timed in 10 s slices for two minutes on a 2-core VM, read from 168 to 226 ms,
and the same benchmark run read 15-20% apart a few minutes later. That is
close to the regressions the benchmark must catch. So every timed stretch
of work (a query, a piece of set-up) is bracketed by two short runs of this
task, a unit each, and its CPU time is reported at nominal speed:

    time at nominal speed = CPU time * NOMINAL_UNIT_S
                            / mean(unit before, unit after)

The task never changes and never calls latcorr, so its time moves with the
machine and not with the program: a change that makes latcorr faster or
slower moves the scaled times by the same factor as the raw ones. It does
the kinds of work latcorr does (small integer matrix products, Fraction
sums, hashing tuples into dicts), with the garbage collector off so that a
collection of latcorr's heap is never charged to it.
"""

import gc
import time
from fractions import Fraction

# CPU seconds one unit takes at nominal speed: about its median, timed
# between queries, on the 2-core Xeon VM the benchmark was written on, so
# that scaled timings there read close to raw ones. A fixed constant, never
# re-measured, so that runs stay comparable.
NOMINAL_UNIT_S = 0.0017

_A = [[(3 * i + 5 * j) % 11 - 5 for j in range(8)] for i in range(8)]
_AT = [list(c) for c in zip(*_A)]


def unit():
    """One unit of reference work; returns a checksum so that none of it
    can be skipped."""
    total = 0
    for _ in range(4):
        m = _A
        for _ in range(2):
            m = [[sum(x * y for x, y in zip(row, col)) for col in _AT]
                 for row in m]
        f = Fraction(0)
        for i in range(1, 40):
            f += Fraction(i, i * i + 1)
        seen = {}
        for i in range(300):
            key = (i % 13, i % 7, i % 5)
            seen[key] = seen.get(key, 0) + i
        total += m[0][0] + f.denominator % 1000 + len(seen)
    return total


def timed_unit():
    """CPU seconds one unit takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        unit()
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def at_nominal(times, before, after):
    """Each of `times` at nominal speed: `before[i]` and `after[i]` are the
    reference units timed right before and right after time i."""
    return [t * 2 * NOMINAL_UNIT_S / (b + a)
            for t, b, a in zip(times, before, after)]


class Meter:
    """The CPU time of a stretch of work, at nominal speed. `mark()` cuts
    the stretch into pieces and times a reference unit at each cut, so that
    every piece is bracketed by two units."""

    def __init__(self):
        self.pieces = []
        self.units = [timed_unit()]
        self.c0 = time.process_time()

    def mark(self):
        self.pieces.append(time.process_time() - self.c0)
        self.units.append(timed_unit())
        self.c0 = time.process_time()

    def cpu(self):
        return sum(self.pieces)

    def nominal(self):
        return sum(at_nominal(self.pieces, self.units[:-1], self.units[1:]))
