"""Machine-speed normalisation of the benchmark's timings.

The benchmark machine is a few vCPUs of a shared host. It runs the same
code at speeds up to 1.5 times apart, drifting over seconds to minutes, and
process CPU time drifts with wall time (the slowdown is in the CPU, not in
waiting), so neither clock alone can tell a slower program from a slower
machine. Every timed interval is therefore bracketed by probes of a fixed
calibration workload written here, and its wall time is scaled to the
probe's reference time:

    normalised_s = wall_s * REFERENCE_S / mean(probe before, probe after)

A normalised second is a wall second on a machine that runs one probe in
REFERENCE_S. The probe mixes the kinds of work momentlab and its imports do:
an interpreter loop, Fraction arithmetic on rationals of 700-1500 bits,
and a shuffle and sort of a list of ints. Its code is the benchmark's own, so a
change to momentlab moves a normalised time exactly as it moves the wall
time at a fixed machine speed.
"""
from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# about the median probe time on a 2-vCPU shared host (Python 3.11)
REFERENCE_S = 0.012
PROBE_REPS = 3


def _unit():
    s = 0
    for i in range(20_000):
        s += i * i % 7
    x = Fraction(67, 53) ** 120
    y = Fraction(71, 59) ** 130
    acc = Fraction(0)
    for k in range(20):
        acc += x * y / (k + 1)
    items = list(range(15_000))
    random.Random(1).shuffle(items)
    items.sort()
    return s, acc, items[0]


def probe() -> float:
    """Median wall time of PROBE_REPS calibration units."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        _unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Normalises consecutive intervals; the probe that ends one interval
    also starts the next, so nothing but the timed work may run between a
    call of `normalise` and the start of the next interval."""

    REFERENCE_S = REFERENCE_S

    def __init__(self):
        self.probes = []
        self.restart()

    def restart(self):
        """A fresh opening probe, after untimed work since the last one."""
        self.probe_s = probe()
        self.probes.append(self.probe_s)

    def normalise(self, wall_s: float) -> float:
        """Scale an interval that has just ended, by the mean of the probe
        taken before it and one taken now."""
        before = self.probe_s
        self.restart()
        return wall_s * REFERENCE_S * 2 / (before + self.probe_s)
