"""Correctness checks computed apart from shiftlab.

Nothing here imports the program.  Each check recomputes what an output
must be from first principles (Perron roots, max-plus cycle means, Fibonacci
and Lucas numbers, Thue-Morse parity) or tests a property the method must
have (admissibility, concavity, monotone entropy estimates), and returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

STREAM_LINE_WIDTH = 120
#: potentials use multiples of 1/WEIGHT_SCALE, so scaled weights are integers
WEIGHT_SCALE = 4
_NO_EDGE = -(1 << 40)


# --- shifts -----------------------------------------------------------------


def perron_root(matrix) -> float:
    """Spectral radius of a 0/1 matrix."""
    return float(max(abs(np.linalg.eigvals(np.array(matrix, dtype=float)))))


def is_primitive(matrix) -> bool:
    """Some power of the matrix is positive (Wielandt: power <= (k-1)^2 + 1)."""
    a = np.array(matrix, dtype=np.int64)
    p = a.copy()
    for _ in range((len(matrix) - 1) ** 2 + 1):
        if (p > 0).all():
            return True
        p = np.minimum(p @ a, 1)
    return False


def admissible_words(matrix, n: int) -> list[tuple[int, ...]]:
    k = len(matrix)
    return [w for w in itertools.product(range(k), repeat=n)
            if all(matrix[a][b] for a, b in zip(w, w[1:]))]


# --- witness streams ----------------------------------------------------------


def read_stream(path: Path, matrix, horizon: int) -> tuple[np.ndarray, list[str]]:
    """Decode stream.txt: digits in the alphabet, <= 120 columns per line,
    exactly `horizon` symbols, every consecutive pair allowed."""
    data = path.read_bytes()
    problems = []
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if any(len(line) > STREAM_LINE_WIDTH for line in lines):
        problems.append(f"{path}: a line is longer than {STREAM_LINE_WIDTH} columns")
    raw = np.frombuffer(b"".join(lines), dtype=np.uint8).astype(np.int64) - ord("0")
    k = len(matrix)
    if raw.size != horizon:
        problems.append(f"{path}: {raw.size} symbols, expected {horizon}")
    if raw.size and (raw.min() < 0 or raw.max() >= k):
        problems.append(f"{path}: symbol outside the alphabet 0..{k - 1}")
        return raw, problems
    allowed = np.array(matrix, dtype=bool)
    if raw.size > 1 and not allowed[raw[:-1], raw[1:]].all():
        problems.append(f"{path}: a consecutive pair is forbidden by the matrix")
    return raw, problems


def thue_morse(n: int) -> np.ndarray:
    """t_i = parity of the number of ones in the binary expansion of i."""
    x = np.arange(n, dtype=np.int64)
    parity = np.zeros(n, dtype=np.int64)
    while x.any():
        parity ^= x & 1
        x >>= 1
    return parity


def markov_entropy(p, pi) -> float:
    """-sum pi_i P_ij log P_ij."""
    return -sum(pi[i] * pij * math.log(pij)
                for i, row in enumerate(p) for pij in row if pij > 0)


def check_witness(orbit_dir: Path, matrix, gap_class: str, horizon: int) -> list[str]:
    stream, problems = read_stream(orbit_dir / "stream.txt", matrix, horizon)
    if problems:
        return problems
    cert = json.loads((orbit_dir / "certificate.json").read_text())
    if gap_class == "ALMOST_PERIODIC_NOT_PER":
        if not np.array_equal(stream, thue_morse(horizon)):
            problems.append(f"{orbit_dir}: stream is not Thue-Morse")
    elif gap_class == "PERIODIC":
        cycle = cert["pool"][0]["cycle"]
        if not np.array_equal(stream, np.resize(np.array(cycle, dtype=np.int64), horizon)):
            problems.append(f"{orbit_dir}: stream does not repeat the cycle {cycle}")
    elif gap_class == "R_FULL_SUPPORT":
        m = cert["pool"][0]
        h = markov_entropy(m["P"], m["pi"])
        want = math.log(perron_root(matrix))
        if abs(h - want) > 1e-9:
            problems.append(f"{orbit_dir}: pool entropy {h!r} is not log lambda {want!r}")
    return problems


# --- spectra --------------------------------------------------------------------


def block_graph(matrix, r: int, table: dict) -> np.ndarray:
    """Scaled integer edge weights of the graph whose closed walks of length
    p are the period-p points, weighted by the range-r potential."""
    if r == 1:
        k = len(matrix)
        w = np.full((k, k), _NO_EDGE, dtype=np.int64)
        for i in range(k):
            for j in range(k):
                if matrix[i][j]:
                    w[i, j] = _scaled(table[(i,)])
        return w
    nodes = admissible_words(matrix, r - 1)
    index = {u: i for i, u in enumerate(nodes)}
    w = np.full((len(nodes), len(nodes)), _NO_EDGE, dtype=np.int64)
    for u in nodes:
        for c in range(len(matrix)):
            if matrix[u[-1]][c]:
                w[index[u], index[u[1:] + (c,)]] = _scaled(table[u + (c,)])
    return w


def _scaled(value: float) -> int:
    x = Fraction(value) * WEIGHT_SCALE
    if x.denominator != 1:
        raise ValueError(f"potential value {value} is not a multiple of 1/{WEIGHT_SCALE}")
    return int(x)


def closed_walk_extremes(w: np.ndarray, max_len: int) -> list[tuple[Optional[Fraction], Optional[Fraction]]]:
    """(min, max) mean weight over closed walks of each length 1..max_len,
    by max-plus matrix powers; entry n-1 is for length n, None if there is
    no closed walk of that length."""
    out = []
    hi = w.copy()
    lo = np.where(w == _NO_EDGE, _NO_EDGE, -w)
    neg = lo.copy()
    for n in range(1, max_len + 1):
        if n > 1:
            hi = _maxplus(hi, w)
            lo = _maxplus(lo, neg)
        dh, dl = np.diagonal(hi), np.diagonal(lo)
        out.append((Fraction(-int(dl.max()), n * WEIGHT_SCALE) if dl.max() > _NO_EDGE // 2 else None,
                    Fraction(int(dh.max()), n * WEIGHT_SCALE) if dh.max() > _NO_EDGE // 2 else None))
    return out


def _maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c = (a[:, :, None] + b[None, :, :]).max(axis=1)
    return np.maximum(c, _NO_EDGE)


def exact_interval(matrix, r: int, table: dict) -> tuple[Fraction, Fraction]:
    """Minimum and maximum cycle mean."""
    w = block_graph(matrix, r, table)
    return _interval(closed_walk_extremes(w, w.shape[0]))


def _interval(walks) -> tuple[Fraction, Fraction]:
    """Both extremes are attained on a simple cycle, whose length is at most
    the node count, and every closed walk's mean is an average of
    simple-cycle means, so closed walks up to that length give them exactly."""
    found = [e for e in walks if e[0] is not None]
    return min(e[0] for e in found), max(e[1] for e in found)


def cycle_mean(cycle, r: int, table: dict) -> Fraction:
    p = len(cycle)
    ext = tuple(cycle) * (r // p + 2)
    return sum(Fraction(table[ext[i:i + r]]) for i in range(p)) / p


def check_spectrum(csv_path: Path, manifest_path: Path, matrix, r: int, table: dict,
                   points: int) -> tuple[int, list[str]]:
    """Returns (curve points written, problems)."""
    problems = []
    rows = csv_path.read_text().splitlines()
    if not rows or rows[0] != "a,psi,q_star":
        return 0, [f"{csv_path}: missing header"]
    curve = [tuple(float(x) for x in row.split(",")) for row in rows[1:]]
    if len(curve) not in (points, points + 1):
        problems.append(f"{csv_path}: {len(curve)} points, asked for {points}")
    w = block_graph(matrix, r, table)
    walks = closed_walk_extremes(w, max(w.shape[0], 12))
    lo, hi = _interval(walks[:w.shape[0]])
    manifest = json.loads(manifest_path.read_text())["inputs"]
    if manifest["L_phi"] != [float(lo), float(hi)]:
        problems.append(f"{manifest_path}: L_phi {manifest['L_phi']} is not [{lo}, {hi}]")
    k = len(matrix)
    for key, want in (("lo_cycle", lo), ("hi_cycle", hi)):
        cyc = tuple(manifest[key])
        if not cyc or any(not 0 <= c < k for c in cyc) or \
                not all(matrix[cyc[i]][cyc[(i + 1) % len(cyc)]] for i in range(len(cyc))):
            problems.append(f"{manifest_path}: {key} {cyc} is not a cycle of the shift")
        elif cycle_mean(cyc, r, table) != want:
            problems.append(f"{manifest_path}: {key} mean {cycle_mean(cyc, r, table)} != {want}")
    if problems:
        return len(curve), problems
    lo_cyc = cycle_mean(tuple(manifest["lo_cycle"]), r, table)
    hi_cyc = cycle_mean(tuple(manifest["hi_cycle"]), r, table)
    for n, (mn, mx) in enumerate(walks[:12], 1):
        if mn is not None and (mn < lo_cyc or mx > hi_cyc):
            problems.append(f"{manifest_path}: a period-{n} cycle beats an endpoint cycle")
    h_top = math.log(perron_root(matrix))
    for a, psi, _ in curve:
        if not lo < Fraction(a) < hi:
            problems.append(f"{csv_path}: a={a} not strictly inside L_phi")
        if psi > h_top + 1e-9 or psi < -1e-9:
            problems.append(f"{csv_path}: psi={psi} outside [0, h_top={h_top}]")
    if curve and max(p for _, p, _ in curve) < h_top - 1e-4:
        problems.append(f"{csv_path}: max psi does not reach log lambda = {h_top}")
    if not concave(curve):
        problems.append(f"{csv_path}: curve fails the midpoint concavity test")
    return len(curve), problems


def concave(curve, slack: float = 1e-9) -> bool:
    """Each middle point of three consecutive ones lies on or above the chord."""
    for (a1, p1, _), (a2, p2, _), (a3, p3, _) in zip(curve, curve[1:], curve[2:]):
        if not a1 < a2 < a3:
            return False
        if p2 < p1 + (p3 - p1) * (a2 - a1) / (a3 - a1) - slack:
            return False
    return True


# --- counting ---------------------------------------------------------------------


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1, by fast doubling."""
    def pair(m: int) -> tuple[int, int]:
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)
    return pair(n)[0]


def lucas(n: int) -> int:
    """L_n = F_(n-1) + F_(n+1)."""
    return fibonacci(n - 1) + fibonacci(n + 1)


def expected_count(shift: str, method: str, n: int) -> int:
    """Word counts k^n on full shifts, F_(n+2) on the golden mean shift;
    periodic counts k^n on full shifts, L_n on the golden mean shift."""
    if shift == "golden":
        return fibonacci(n + 2) if method == "words" else lucas(n)
    return int(shift[len("full"):]) ** n


def check_count_output(stdout: str, method: str, n: int, count: int) -> list[str]:
    want = f"{method} (n={n}): {math.log(count) / n:.12f}"
    if want not in stdout.splitlines():
        return [f"entropy --method {method} --n {n}: expected line {want!r}"]
    return []


def parse_beta_output(stdout: str) -> tuple[float, float]:
    """(word-count estimate, printed log beta) from `entropy --beta` output."""
    est = log_beta = None
    for line in stdout.splitlines():
        if line.startswith("word-count estimate"):
            est = float(line.split(":")[1])
        elif line.startswith("log beta:"):
            log_beta = float(line.split(":")[1])
    if est is None or log_beta is None:
        raise ValueError("entropy --beta output lacks the estimate lines")
    return est, log_beta


def check_beta_series(beta: str, estimates: list[tuple[int, float, float]]) -> list[str]:
    """Estimates at increasing n stay >= log beta and never increase."""
    problems = []
    want = math.log(float(beta))
    for n, est, log_beta in estimates:
        if abs(log_beta - want) > 1e-11:
            problems.append(f"beta {beta}: printed log beta {log_beta} != {want}")
        if est < want - 1e-11:
            problems.append(f"beta {beta}: estimate {est} at n={n} below log beta")
    for (n1, e1, _), (n2, e2, _) in zip(estimates, estimates[1:]):
        if e2 > e1 + 1e-11:
            problems.append(f"beta {beta}: estimate rises from n={n1} to n={n2}")
    return problems
