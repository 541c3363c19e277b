"""Workload make-up: the operations of one round, generated from the seed.

An operation is one witness (`synthesize` then `verify`), one `spectrum`
command, or one `entropy` computation, each driven through the CLI.  Every
input document is generated here from the workload seed and written before
the first timed operation; shiftlab only ever sees the generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path

from checks import admissible_words, exact_interval, is_primitive

GOLDEN = [[1, 1], [1, 0]]
FULL2 = [[1, 1], [1, 1]]
FULL3 = [[1, 1, 1]] * 3
SYM3 = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]

ALL_CLASSES = ("W_NOT_QR", "V_NOT_W", "QW_NOT_V", "I_NOT_QW", "QR_NOT_ERG_NOT_A",
               "R_FULL_SUPPORT", "ALMOST_PERIODIC_NOT_PER", "PERIODIC")
#: I_NOT_QW's trace_oscillation thresholds were calibrated on the full 2-shift
#: and fail on the full 3-shift and the 3-symbol shift
THREE_SYMBOL_CLASSES = tuple(c for c in ALL_CLASSES if c != "I_NOT_QW")
#: on a random 4-shift V_NOT_W fails self_upper_min/self_lower_max, QW_NOT_V
#: fails coverage_counts on some matrices, I_NOT_QW fails or raises
#: NoProperSubshift, and ALMOST_PERIODIC_NOT_PER needs the full 2-shift on
#: symbols {0, 1}; what remains passes on every matrix
RANDOM4_CLASSES = ("W_NOT_QR", "QR_NOT_ERG_NOT_A", "R_FULL_SUPPORT", "PERIODIC")
RANDOM4_EDGES = 12

HORIZON_FULL2 = 1 << 20
HORIZON_AMBIENT = 1 << 16
SPECTRUM_POINTS = (33, 129)
#: block-recoded indicators; fixed words, since the Karp search cost on the
#: block graph depends strongly on the word.  Range 6 is left out: one such
#: command takes 3-7 s, too few repeats in a run for a steady time.
BLOCK_INDICATORS = ((1, 1, 1, 1, 1),)
BLOCK_POINTS = 33
COUNT_N = 200_000
COUNT_N_SPREAD = 1024
#: multinacci Parry numbers: the greedy expansion of 1 is 1^m, so the
#: digit stream is periodic and counting is valid at every n
BETA_ORDERS = (2, 3, 5)
BETA_N = (128, 256, 512)


@dataclass
class Witness:
    label: str
    matrix: list
    gap_class: str
    horizon: int
    seed: int
    shift_doc: Path
    potential_doc: Path
    out_dir: Path

    def synthesize_argv(self) -> list[str]:
        return ["synthesize", "--shift", str(self.shift_doc), "--class", self.gap_class,
                "--potential", str(self.potential_doc), "--horizon", str(self.horizon),
                "--seed", str(self.seed), "--out", str(self.out_dir)]

    def verify_argv(self) -> list[str]:
        return ["verify", "--orbit", str(self.out_dir)]


@dataclass
class Spectrum:
    label: str
    matrix: list
    range: int
    table: dict
    points: int
    shift_doc: Path
    potential_doc: Path
    csv: Path
    manifest: Path

    def argv(self) -> list[str]:
        return ["spectrum", "--shift", str(self.shift_doc), "--potential",
                str(self.potential_doc), "--points", str(self.points),
                "--out", str(self.csv), "--manifest", str(self.manifest)]


@dataclass
class Count:
    label: str
    shift: str            # "golden" | "full<k>"
    method: str           # "words" | "periodic"
    n: int
    shift_doc: Path

    def argv(self) -> list[str]:
        return ["entropy", "--shift", str(self.shift_doc), "--method", self.method,
                "--n", str(self.n)]


@dataclass
class BetaEstimate:
    label: str
    beta: str
    n: int

    def argv(self) -> list[str]:
        return ["entropy", "--beta", self.beta, "--n", str(self.n)]


# --- documents ----------------------------------------------------------------


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n")
    return path


def _shift_doc(path: Path, matrix) -> Path:
    return _write_json(path, {"schema": "shiftlab/shift/1", "k": len(matrix), "matrix": matrix})


def _potential_doc(path: Path, r: int, table: dict) -> Path:
    entries = [[list(w), v] for w, v in sorted(table.items())]
    return _write_json(path, {"schema": "shiftlab/potential/1", "range": r, "entries": entries})


def indicator(matrix, word) -> dict:
    word = tuple(word)
    return {w: (1.0 if w == word else 0.0) for w in admissible_words(matrix, len(word))}


def random_range2(matrix, rnd: random.Random) -> dict:
    """Range-2 potential with values in quarters of [-2, 2], redrawn until
    its cycle averages are not all equal (else there is no spectrum)."""
    words = admissible_words(matrix, 2)
    while True:
        table = {w: rnd.randint(-8, 8) / 4 for w in words}
        lo, hi = exact_interval(matrix, 2, table)
        if lo < hi:
            return table


def random_primitive(k: int, edges: int, rnd: random.Random) -> list:
    while True:
        chosen = set(rnd.sample(range(k * k), edges))
        matrix = [[1 if i * k + j in chosen else 0 for j in range(k)] for i in range(k)]
        if is_primitive(matrix):
            return matrix


def multinacci_root(m: int) -> str:
    """Root in (1, 2) of x^m = x^(m-1) + ... + 1, to 40 decimals, by bisection."""
    with localcontext() as ctx:
        ctx.prec = 60
        lo, hi = Decimal(1), Decimal(2)
        for _ in range(160):
            mid = (lo + hi) / 2
            if mid ** m - sum(mid ** i for i in range(m)) > 0:
                hi = mid
            else:
                lo = mid
        return f"{lo:.40f}"


# --- workloads ------------------------------------------------------------------


def _witnesses(inputs: Path, orbits: Path, ambients, rnd: random.Random) -> list[Witness]:
    ops = []
    for name, matrix, classes, horizon, symbol in ambients:
        shift = _shift_doc(inputs / f"{name}.json", matrix)
        phi = _potential_doc(inputs / f"{name}.phi.json", 1, indicator(matrix, (symbol,)))
        for gap_class in classes:
            label = f"{name}/{gap_class}"
            ops.append(Witness(label, matrix, gap_class, horizon, rnd.randrange(1 << 31),
                               shift, phi, orbits / name / gap_class))
    return ops


def witness_full2(seed: int, work: Path) -> list:
    rnd = random.Random(seed)
    ambients = [("full2", FULL2, ALL_CLASSES, HORIZON_FULL2, 1)]
    return _witnesses(work / "inputs", work / "orbits", ambients, rnd)


def witness_ambients(seed: int, work: Path) -> list:
    rnd = random.Random(seed)
    random4 = random_primitive(4, RANDOM4_EDGES, rnd)
    # The full 4-shift is left out: its V_NOT_W and QW_NOT_V witnesses take
    # 7-10 s each in largest_proper_scc_subgraph (2^16 edge subsets), and a
    # run could time them only twice, too few for a steady time.
    ambients = [("full3", FULL3, THREE_SYMBOL_CLASSES, HORIZON_AMBIENT, 0),
                ("sym3", SYM3, THREE_SYMBOL_CLASSES, HORIZON_AMBIENT, 0),
                ("random4", random4, RANDOM4_CLASSES, HORIZON_AMBIENT, 0)]
    return _witnesses(work / "inputs", work / "orbits", ambients, rnd)


def spectrum(seed: int, work: Path) -> list:
    rnd = random.Random(seed)
    inputs, out = work / "inputs", work / "spectra"
    out.mkdir(parents=True, exist_ok=True)
    ops: list = []

    def add(name, matrix, shift, r, table, points):
        label = f"{name}/r{r}/{points}"
        phi = _potential_doc(inputs / f"{name}.r{r}.phi.json", r, table)
        stem = label.replace("/", "-")
        ops.append(Spectrum(label, matrix, r, table, points, shift, phi,
                            out / f"{stem}.csv", out / f"{stem}.manifest.json"))

    for name, matrix in (("golden", GOLDEN), ("full2", FULL2), ("full3", FULL3)):
        shift = _shift_doc(inputs / f"{name}.json", matrix)
        r1 = indicator(matrix, (rnd.randrange(len(matrix)),))
        r2 = random_range2(matrix, rnd)
        for points in SPECTRUM_POINTS:
            add(name, matrix, shift, 1, r1, points)
            add(name, matrix, shift, 2, r2, points)
    full2 = inputs / "full2.json"
    for word in BLOCK_INDICATORS:
        add("full2", FULL2, full2, len(word), indicator(FULL2, word), BLOCK_POINTS)

    golden = inputs / "golden.json"
    for shift, doc, method in (("golden", golden, "words"), ("golden", golden, "periodic"),
                               ("full2", full2, "words"), ("full3", inputs / "full3.json", "periodic")):
        n = COUNT_N + rnd.randrange(COUNT_N_SPREAD)
        ops.append(Count(f"{shift}/{method}", shift, method, n, doc))
    for m in BETA_ORDERS:
        beta = multinacci_root(m)
        for n in BETA_N:
            ops.append(BetaEstimate(f"beta{m}/{n}", beta, n))
    return ops


BUILDERS = {"witness-full2": witness_full2, "witness-ambients": witness_ambients,
            "spectrum": spectrum}


def build(name: str, seed: int, work: Path) -> list:
    """The operations of one round of the named workload."""
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work)
