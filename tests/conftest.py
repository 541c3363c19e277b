import os
from pathlib import Path

import pytest

from shiftlab import rng
from shiftlab.measures import indicator_potential
from shiftlab.shifts import ShiftSpace, full_shift, golden_mean_shift, sft_from_matrix

ACCEPTANCE_SEED = 20250809


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
        us = rng.uniform_stream(rng.derive_subseed(seed, attempt), k * k)
        mat = (us.reshape(k, k) < 0.6).astype(int).tolist()
        attempt += 1
        try:
            s = sft_from_matrix(k, mat)
        except Exception:
            continue
        if s.k == k and s.is_primitive:
            return s


@pytest.fixture(scope="session")
def random4() -> ShiftSpace:
    return random_primitive_sft(4, ACCEPTANCE_SEED)


@pytest.fixture(scope="session")
def phi_golden(golden):
    return indicator_potential(golden, (1,))


@pytest.fixture(scope="session")
def phi_full2(full2):
    return indicator_potential(full2, (1,))
