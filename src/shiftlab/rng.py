"""Deterministic 64-bit generator used for all sampling.

The generator is splitmix64: state advances by a fixed odd constant
(GAMMA) and each output is a finalizer mix of the state.  It is tiny,
portable and fully specified here, so identical (seed, n) always yield
identical streams on every platform.  splitmix64_runs, its one
implementation, draws the outputs of many streams in one vectorized pass,
each run exactly the stream of its own seed; the sub-seeds of a witness's
segments are outputs of its seed's own stream (Steele, Lea & Flood 2014).
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_runs(seeds: np.ndarray, firsts, counts,
                    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                    ) -> np.ndarray:
    """Outputs firsts[i] .. firsts[i] + counts[i] - 1 (counted from 1) of
    the stream seeded by seeds[i] (uint64), for every i, concatenated.

    Output t of the stream seeded by s is mix(s + t GAMMA), which is output
    p + 1 of the stream seeded by s + (t - p - 1) GAMMA; so the runs share
    one counter, vectorized in place (one scratch array for the shifts).
    A caller drawing many batches passes run_buffers of at least
    sum(counts) entries, and the outputs are then the leading part of its
    first buffer.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    n = int(counts.sum())
    with np.errstate(over="ignore"):
        shift = np.asarray(firsts, dtype=np.int64) - (ends - counts) - 1
        base = seeds + shift.astype(np.uint64) * np.uint64(_GAMMA)
        if buffers is None:
            tmp = counter_ramp(n)  # then the scratch for the shifts
            z = np.repeat(base, counts)
            z += tmp
        else:
            z, tmp, ramp = (b[:n] for b in buffers)
            # one run broadcasts its base; np.repeat has no out=
            np.add(ramp, base if len(base) == 1 else np.repeat(base, counts), out=z)
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def run_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffers for splitmix64_runs of up to n outputs: the output, the
    scratch for the shifts, and the counter ramp (counter_ramp)."""
    return np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64), counter_ramp(n)


def counter_ramp(n: int) -> np.ndarray:
    """Entry t is (t + 1) GAMMA mod 2^64, the counter of output t + 1."""
    ramp = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ramp *= np.uint64(_GAMMA)
    return ramp

