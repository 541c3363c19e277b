import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from shiftlab import oracle, rng
from shiftlab.measures import Potential, indicator_potential
from shiftlab.shifts import ShiftSpace, full_shift, golden_mean_shift, iter_words, sft_from_matrix

ACCEPTANCE_SEED = 20250809

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
        us = oracle.uniform_stream(rng.derive_subseed(seed, attempt), k * k)
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
