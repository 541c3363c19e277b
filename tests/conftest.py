import os
import time
from pathlib import Path

import pytest
from hypothesis import strategies as st

import numpy as np

from shiftlab import spectrum
from shiftlab.classify import _Visits
from shiftlab.measures import Potential, indicator_potential
from shiftlab.shifts import ShiftSpace, full_shift, golden_mean_shift, iter_words, sft_from_matrix
from shiftlab.spectrum import PressureFunction, lphi_interval
from shiftlab.synthesis import GapClass, synthesize_witness

import oracle

def density_estimates(visits, n_max: int) -> tuple[float, float]:
    """The classifier's (lower, upper) density estimates over its checkpoints
    of n_max, for visits at the given times in 1..n_max."""
    recurs = np.zeros(n_max + 1, dtype=bool)
    recurs[0] = True   # time 0, where the stream's own window stands
    recurs[visits] = True
    tally = _Visits(n_max, gaps=False)
    tally.add(0, recurs)
    stats = tally.stats()
    return stats.lower_density_est, stats.upper_density_est


ACCEPTANCE_SEED = 20250809
#: horizon of the default witnesses
HORIZON = 1 << 20

#: a range-2 potential with quarter values on the full 3-shift: a k = 3
#: Perron solve and dots over its 9 edges
FULL3_QUARTERS = Potential(range=2, table={
    (0, 0): 0.25, (0, 1): -0.5, (0, 2): 1.0,
    (1, 0): 0.75, (1, 1): 0.0, (1, 2): -0.25,
    (2, 0): 0.5, (2, 1): 1.25, (2, 2): -0.75})


@pytest.fixture(scope="session", autouse=True)
def checkout_on_subprocess_path():
    """CLI tests start `python -m shiftlab.cli` subprocesses; they import the
    package from this checkout, as the test process does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def golden() -> ShiftSpace:
    return golden_mean_shift()


@pytest.fixture(scope="session")
def full2() -> ShiftSpace:
    return full_shift(2)


@pytest.fixture(scope="session")
def full3() -> ShiftSpace:
    return full_shift(3)


def random_primitive_sft(k: int, seed: int) -> ShiftSpace:
    """Seeded random 0/1 matrix, redrawn until primitive with all k symbols."""
    attempt = 0
    while True:
        us = oracle.uniform_stream(oracle.splitmix64(seed + (attempt + 1) * oracle.GAMMA), k * k)
        mat = (us.reshape(k, k) < 0.6).astype(int).tolist()
        attempt += 1
        try:
            s = sft_from_matrix(k, mat)
        except Exception:
            continue
        if s.k == k and s.is_primitive:
            return s


def constant_potential(s: ShiftSpace, c: float, r: int = 1) -> Potential:
    return Potential(range=r, table={u: float(c) for u in iter_words(s, r)})


def pressure_function(s: ShiftSpace, phi: Potential) -> PressureFunction:
    """A fresh pressure function of phi on s, built as spectrum_curve builds it."""
    return PressureFunction(lphi_interval(s, phi))


def psi_at(s: ShiftSpace, phi: Potential, a: float) -> tuple[float, float]:
    """(psi, q_star) at one interior average a: spectrum_curve's Newton
    iteration run on the one-point grid [a]."""
    return spectrum._newton(pressure_function(s, phi), [a])[0]


@st.composite
def small_binary_matrices(draw):
    k = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    return k, rows


@pytest.fixture(scope="session")
def random4() -> ShiftSpace:
    return random_primitive_sft(4, ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def phi_golden(golden):
    return indicator_potential(golden, (1,))


@pytest.fixture(scope="session")
def phi_full2(full2):
    return indicator_potential(full2, (1,))


@pytest.fixture(scope="session")
def witnesses(full2, phi_full2):
    """The default witnesses: every gap class on the full 2-shift with the
    indicator of 1, at HORIZON and the acceptance seed; and the seconds
    their synthesis took."""
    out = {}
    t0 = time.time()
    for gc in GapClass:
        o = synthesize_witness(full2, gc, phi_full2, HORIZON, seed=ACCEPTANCE_SEED)
        out[gc] = o
    return out, time.time() - t0


#: one valid entry of every check kind, for a stream of 4096 symbols over 2
EVERY_CHECK = [
    {"check": "full_horizon_present", "horizon": 4096},
    {"check": "trace_attains", "targets": [0.3, 0.5], "tol": 0.05, "window": 0.5},
    {"check": "trace_converges", "target": 0.5, "tol": 0.01, "osc_tol": 0.01, "window": 0.25},
    {"check": "trace_oscillation", "min_gap": 0.2, "window": 0.5},
    {"check": "cylinder_lower_min", "lengths": [1, 2], "threshold": 0.01},
    {"check": "self_lower_max", "length": 6, "max": 0.01},
    {"check": "self_upper_min", "length": 6, "min": 0.05},
    {"check": "self_upper_decreasing", "lengths": [4, 8, 12], "final_max": 0.02},
    {"check": "coverage_counts", "length": 3, "min_visits": 8},
    {"check": "max_gap_bounded", "bounds": [[1, 3], [2, 4.5]]},
    {"check": "coverage_fraction_of_expected", "length": 2, "fraction": 0.2,
     "expected": [[[0, 0], 0.25], [[0, 1], 0.25], [[1, 0], 0.25], [[1, 1], 0.25]]},
    {"check": "not_eventually_periodic", "max_period": 1024},
    {"check": "periodic_density_exact", "period": 3},
]
