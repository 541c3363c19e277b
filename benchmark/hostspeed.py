"""Times in seconds at a reference host speed.

The machines this benchmark runs on share their cores with other tenants,
and a run can go 20-40% slower for tens of seconds at a time.  A fixed
pure-Python probe, timed right before and right after an operation, shows
how fast the host is running then; scaling the operation's time by
PROBE_REF_S / (probe time) gives the time it would have taken at the
reference speed.  Over six back-to-back 30-s runs of `spectrum`, the sum
of per-operation median times spread 0.22 (interquartile range over
median) as measured and 0.07 scaled; over five of `witness-full2`, 0.14
and 0.06.  Scaling helps less for one long call: the probes at its ends
miss what the host does in between.

The probe is benchmark code and never changes with the program, so a
change that slows or speeds up the program moves the scaled times as it
moves the measured ones.
"""

import time
from typing import Callable, NamedTuple, TypeVar

T = TypeVar("T")

#: fastest probe time seen on the reference host (2-vCPU Intel Xeon VM,
#: Python 3.11.7); a scaled time is in seconds of that host at that speed
PROBE_REF_S = 0.004
PROBE_ITERATIONS = 40_000
PROBE_REPEATS = 3


class Timing(NamedTuple):
    raw_s: float   # as measured
    ref_s: float   # scaled to the reference host speed


def probe_s() -> float:
    """Fastest of a few runs of a fixed loop of integer and dict work."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        d, s = {}, 0
        for j in range(PROBE_ITERATIONS):
            s += j * j
            d[j & 1023] = s
        best = min(best, time.perf_counter() - t0)
    return best


def timed(fn: Callable[[], T]) -> tuple[Timing, T]:
    """Call fn, probing the host speed just before and just after it."""
    before = probe_s()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    speed = min(before, probe_s())
    return Timing(raw, raw * PROBE_REF_S / speed), result
