"""Deterministic 64-bit generator used for all sampling.

The generator is splitmix64: state advances by a fixed odd constant
(GAMMA) and each output is a finalizer mix of the state.  It is tiny,
portable and fully specified here, so identical (seed, n) always yield
identical streams on every platform.  Sub-seeds for parallel segments
are derived by mixing (seed, index) through the same finalizer.
"""

from __future__ import annotations

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, n: int) -> np.ndarray:
    """First n outputs of splitmix64 as uint64, vectorized in place (one
    scratch array for the shifts)."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    tmp = np.empty_like(z)
    with np.errstate(over="ignore"):
        z *= np.uint64(_GAMMA)
        z += np.uint64(seed & _MASK)
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= np.uint64(_MIX2)
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n floats in [0, 1) from the top 53 bits of each output."""
    bits = splitmix64_stream(seed, n)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u /= float(1 << 53)
    return u


def derive_subseed(seed: int, index: int) -> int:
    """Deterministic sub-seed for segment `index` of a run seeded by `seed`."""
    return _mix((seed & _MASK) + (index + 1) * _GAMMA)
