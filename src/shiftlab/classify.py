"""Finite-prefix recurrence and regularity evidence.

Everything here measures a single symbol stream: visit times to cylinders,
windowed lower/upper density estimates, running Birkhoff averages, sliding
empirical word frequencies.  None of it claims asymptotic class membership;
it scores the stream against thresholds a witness certificate declares.

Density estimators are cumulative ratios |visits ∩ [0,n)| / n scanned over
32 geometric checkpoints n in [N/2, N]; the min is the lower estimate and
the max the upper.  These are the stable finite-horizon proxies for
liminf/limsup visit frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import TooShort
from .measures import Potential
from .shifts import ShiftSpace, Word, iter_words

DENSITY_CHECKPOINTS = 32
DEFAULT_LADDER = (1, 2, 4, 8, 12)
DEFAULT_TRACE_CHECKPOINTS = 128


@dataclass
class VisitStatistics:
    cylinder_len: int
    target: Word
    visit_times: np.ndarray
    lower_density_est: float
    upper_density_est: float
    max_gap: int
    horizon: int


@dataclass
class RecurrenceReport:
    horizon: int
    ladder_stats: dict[int, VisitStatistics]
    trace: list[tuple[int, float]]
    oscillation: tuple[float, float]
    cylinder_coverage: dict[int, float]
    verdicts: list[dict]

    @property
    def all_pass(self) -> bool:
        return all(v["passed"] for v in self.verdicts)


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.int64, copy=False)
    return np.array(x, dtype=np.int64)


def _check_code_range(ell: int, k: int) -> None:
    if k ** ell > 1 << 63:
        raise ValueError(f"codes of {ell}-windows over {k} symbols do not fit in int64")


def window_codes(x: np.ndarray, ell: int, k: int) -> np.ndarray:
    """Integer code of every length-ell window, big-endian in the symbols.

    Raises ValueError when k**ell > 2**63, where the codes would wrap in int64.
    """
    _check_code_range(ell, k)
    n = len(x) - ell + 1
    if n <= 0:
        raise TooShort(f"stream of length {len(x)} has no {ell}-windows")
    codes = np.zeros(n, dtype=np.int64)
    for j in range(ell):
        codes *= k
        codes += x[j:j + n]
    return codes


def _window_code_sweep(x: np.ndarray, lengths: Iterable[int],
                       k: int) -> Iterator[tuple[int, np.ndarray]]:
    """(ell, window codes) for each of `lengths` in ascending order, from one array.

    The codes at ell extend those at ell - 1 in place as codes[:n-1] * k + x[ell-1:],
    so the sweep costs max(lengths) passes over x.  Each yielded array is
    overwritten by the next step.
    """
    wanted = sorted(set(lengths))
    if not wanted:
        return
    _check_code_range(wanted[-1], k)
    ell = wanted[0]
    codes = window_codes(x, ell, k)
    for target in wanted:
        while ell < target:
            ell += 1
            n = len(x) - ell + 1
            if n <= 0:
                raise TooShort(f"stream of length {len(x)} has no {ell}-windows")
            codes = codes[:n]
            codes *= k
            codes += x[ell - 1:]
        yield ell, codes


def word_code(w: Sequence[int], k: int) -> int:
    c = 0
    for sym in w:
        c = c * k + sym
    return c


def find_visits(x: np.ndarray, target: Sequence[int], k: int,
                horizon: Optional[int] = None) -> np.ndarray:
    """Times n >= 1 with x_n..x_{n+|target|-1} == target, up to the horizon."""
    ell = len(target)
    n_max = (horizon if horizon is not None else len(x) - ell)
    if n_max > len(x) - ell:
        raise TooShort(f"horizon {n_max} needs stream length >= {n_max + ell}")
    codes = window_codes(x[:n_max + ell], ell, k)
    hits = np.nonzero(codes == word_code(target, k))[0]
    return hits[hits >= 1]


def density_checkpoints(n_max: int, count: int = DENSITY_CHECKPOINTS) -> np.ndarray:
    """Geometric grid of `count` checkpoints spanning [n_max/2, n_max]."""
    lo = max(1, n_max // 2)
    pts = np.unique(np.round(np.geomspace(lo, n_max, count)).astype(np.int64))
    return pts


def windowed_density(visits: np.ndarray, n_max: int) -> tuple[float, float]:
    """(lower, upper) cumulative-ratio estimates over the checkpoint grid."""
    pts = density_checkpoints(n_max)
    counts = np.searchsorted(visits, pts, side="left")
    ratios = counts / pts
    return float(ratios.min()), float(ratios.max())


def visit_statistics(x, ell: int, n_max: Optional[int] = None,
                     target: Optional[Sequence[int]] = None,
                     k: Optional[int] = None) -> VisitStatistics:
    """Visit set of the length-ell self-cylinder (or a given target word).

    max_gap is the largest difference of consecutive visit times, with the
    horizon standing in when fewer than two visits exist.
    """
    arr = _as_array(x)
    if k is None:
        k = int(arr.max()) + 1 if len(arr) else 1
    if n_max is None:
        n_max = len(arr) - ell
    if n_max > len(arr) - ell or n_max < 1:
        raise TooShort(f"need length >= {n_max + ell}, have {len(arr)}")
    prefix = tuple(int(c) for c in arr[:ell])
    tgt = tuple(target) if target is not None else prefix
    visits = find_visits(arr, tgt, k, horizon=n_max)
    return _statistics_from_visits(ell, tgt, visits, n_max, tgt == prefix)


def _statistics_from_visits(ell: int, tgt: Word, visits: np.ndarray, n_max: int,
                            self_target: bool) -> VisitStatistics:
    lower, upper = windowed_density(visits, n_max)
    if len(visits) >= 2:
        gaps = np.diff(visits)
        max_gap = int(gaps.max())
        if self_target:
            max_gap = max(max_gap, int(visits[0]))
    elif len(visits) == 1:
        max_gap = int(max(visits[0], n_max - visits[0]))
    else:
        max_gap = n_max
    return VisitStatistics(cylinder_len=ell, target=tgt, visit_times=visits,
                           lower_density_est=lower, upper_density_est=upper,
                           max_gap=max_gap, horizon=n_max)


def birkhoff_trace(x, phi: Potential, checkpoints: Sequence[int],
                   k: Optional[int] = None) -> list[tuple[int, float]]:
    """Exact running averages (1/n) sum phi(window_i) at each checkpoint."""
    arr = _as_array(x)
    if k is None:
        k_data = int(arr.max()) + 1 if len(arr) else 1
        k_phi = 1 + max((max(w) for w in phi.table if w), default=0)
        k = max(k_data, k_phi)
    need = max(checkpoints) + phi.range
    if len(arr) < need:
        raise TooShort(f"need length >= {need}, have {len(arr)}")
    r = phi.range
    codes = window_codes(arr, r, k)
    table = np.zeros(k ** r)
    for w, v in phi.table.items():
        table[word_code(w, k)] = v
    values = table[codes]
    sums = np.cumsum(values)
    return [(int(n), float(sums[n - 1] / n)) for n in checkpoints]


def default_trace_checkpoints(n_max: int, count: int = DEFAULT_TRACE_CHECKPOINTS) -> list[int]:
    pts = np.unique(np.round(np.geomspace(16, n_max, count)).astype(np.int64))
    return [int(p) for p in pts if p >= 1]


def trace_oscillation(trace: list[tuple[int, float]], window: float = 0.5) -> tuple[float, float]:
    """(min, max) of the running average over checkpoints n >= window * N."""
    n_max = trace[-1][0]
    tail = [v for n, v in trace if n >= window * n_max]
    return (min(tail), max(tail))


def empirical_measure(x, ell: int, n_max: Optional[int] = None,
                      k: Optional[int] = None) -> dict[Word, float]:
    """Sliding-window frequency of every length-ell word in x_0..x_{n_max+ell-1}."""
    arr = _as_array(x)
    if k is None:
        k = int(arr.max()) + 1 if len(arr) else 1
    if n_max is None:
        n_max = len(arr) - ell + 1
    if n_max < 1 or n_max > len(arr) - ell + 1:
        raise TooShort(f"need length >= {n_max + ell - 1}, have {len(arr)}")
    codes = window_codes(arr[:n_max + ell - 1], ell, k)
    return _frequencies(np.bincount(codes, minlength=k ** ell), ell, k)


def _frequencies(counts: np.ndarray, ell: int, k: int) -> dict[Word, float]:
    """Word -> share of the windows, for the words whose code has a count."""
    total = counts.sum()
    out: dict[Word, float] = {}
    for code in np.nonzero(counts)[0]:
        w = []
        c = int(code)
        for _ in range(ell):
            w.append(c % k)
            c //= k
        out[tuple(reversed(w))] = counts[code] / total
    return out


def coverage(x, s: ShiftSpace, ell: int, expected_freq: Optional[dict[Word, float]] = None,
             min_raw_visits: int = 8) -> tuple[float, dict[Word, int]]:
    """Fraction of admissible ell-words visited 'positively', plus raw counts.

    Positive means frequency >= 1/(4 * expected count) under the declared
    full-support measure when given, else >= min_raw_visits raw occurrences.
    """
    counts = np.bincount(window_codes(_as_array(x), ell, s.k), minlength=s.k ** ell)
    return _coverage(counts, s, ell, expected_freq, min_raw_visits)


def _coverage(counts: np.ndarray, s: ShiftSpace, ell: int,
              expected_freq: Optional[dict[Word, float]] = None,
              min_raw_visits: int = 8) -> tuple[float, dict[Word, int]]:
    """coverage() from the window counts of every length-ell code."""
    admissible = list(iter_words(s, ell))
    hits = 0
    raw: dict[Word, int] = {}
    for w in admissible:
        count = int(counts[word_code(w, s.k)])
        raw[w] = count
        p_w = expected_freq.get(w, 0.0) if expected_freq else 0.0
        needed = math.ceil(1.0 / (4.0 * p_w)) if p_w > 0 else min_raw_visits
        if count >= needed:
            hits += 1
    return hits / len(admissible), raw


# ---------------------------------------------------------------------------
# verdict evaluation against certificate expected_statistics


@dataclass
class _WindowFacts:
    """What one ascending window-code sweep of a stream yields, by length.

    self_stats: visits of the self-cylinder x_0..x_{ell-1} up to the horizon;
    counts: occurrences of each code among all windows of the stream;
    lower: lower density estimate of each code up to the horizon.
    """
    self_stats: dict[int, VisitStatistics]
    counts: dict[int, np.ndarray]
    lower: dict[int, np.ndarray]


#: the parameters each check kind reads and their JSON types: int, float
#: (any number), [t] (a list of t) or [t, u] (a pair); io rejects an entry
#: that lacks one or holds a value of another type
CHECK_PARAMS: dict[str, dict] = {
    "full_horizon_present": {"horizon": int}, "trace_attains": {"targets": [float], "tol": float},
    "trace_converges": {"target": float, "tol": float, "osc_tol": float},
    "trace_oscillation": {"min_gap": float},
    "cylinder_lower_min": {"lengths": [int], "threshold": float},
    "self_lower_max": {"length": int, "max": float},
    "self_upper_min": {"length": int, "min": float},
    "self_upper_decreasing": {"lengths": [int], "final_max": float},
    "coverage_counts": {"length": int, "min_visits": float},
    "max_gap_bounded": {"bounds": [[int, float]]},
    "coverage_fraction_of_expected": {"length": int, "expected": [[[int], float]],
                                      "fraction": float},
    "not_eventually_periodic": {}, "periodic_density_exact": {"period": int},
}
#: parameters with a default, typed when present
OPTIONAL_PARAMS = {"window": float, "max_period": int}


def has_param_type(value, spec) -> bool:
    """Whether a JSON value has a CHECK_PARAMS type (bools are not numbers)."""
    if spec in (int, float):
        return type(value) is int or type(value) is spec
    if type(value) is not list:
        return False
    if len(spec) == 1:
        return all(has_param_type(x, spec[0]) for x in value)
    return len(value) == len(spec) and all(map(has_param_type, value, spec))


def _window_needs(check: dict) -> set[tuple[str, int]]:
    """(fact, length) pairs a check reads off the sweep; facts as in _WindowFacts."""
    kind = check["check"]
    if kind in ("self_lower_max", "self_upper_min"):
        return {("self", int(check["length"]))}
    if kind == "self_upper_decreasing":
        return {("self", int(ell)) for ell in check["lengths"]}
    if kind == "max_gap_bounded":
        return {("self", int(ell)) for ell, _ in check["bounds"]}
    if kind == "periodic_density_exact":
        return {("self", ell) for ell in range(1, int(check["period"]) + 1)}
    if kind in ("coverage_counts", "coverage_fraction_of_expected"):
        return {("counts", int(check["length"]))}
    if kind == "cylinder_lower_min":
        return {("lower", int(ell)) for ell in check["lengths"]}
    return set()


def _sweep_windows(arr: np.ndarray, k: int, n_max: int,
                   needs: set[tuple[str, int]]) -> _WindowFacts:
    """Every needed fact from two ascending sweeps, one array of each live.

    Counts and lower densities come off one window-code sweep.  Self-cylinder
    visits need no codes, so no length limit: x_0..x_{ell-1} recurs at n when
    x_0..x_{ell-2} does and x_{n+ell-1} == x_{ell-1}, one boolean pass per
    length.  Visit facts at ell run up to min(n_max, len - ell): the
    evaluation horizon, cut back for lengths past the ladder so their windows
    stay in the stream.
    """
    def horizon(ell: int) -> int:
        h = min(n_max, len(arr) - ell)
        if h < 1:
            raise TooShort(f"need length >= {ell + 1}, have {len(arr)}")
        return h

    facts = _WindowFacts({}, {}, {})
    for ell, codes in _window_code_sweep(arr, {ell for fact, ell in needs if fact != "self"}, k):
        if ("counts", ell) in needs:
            facts.counts[ell] = np.bincount(codes, minlength=k ** ell)
        if ("lower", ell) in needs:
            facts.lower[ell] = _lower_densities(codes, k ** ell, horizon(ell))
    self_lengths = {ell for fact, ell in needs if fact == "self"}
    recurs = np.ones(n_max, dtype=bool)   # entry n-1 for time n
    for ell in range(1, max(self_lengths, default=0) + 1):
        h = horizon(ell)
        recurs = recurs[:h]
        recurs &= arr[ell:ell + h] == arr[ell - 1]
        if ell in self_lengths:
            facts.self_stats[ell] = _statistics_from_visits(
                ell, tuple(int(c) for c in arr[:ell]), np.flatnonzero(recurs) + 1, h, True)
    return facts


def _lower_densities(codes: np.ndarray, size: int, n_max: int) -> np.ndarray:
    """windowed_density's lower estimate for every code at once: visits are the
    window starts 1..n_max, counted below each checkpoint by one bincount per
    stretch between checkpoints."""
    pts = density_checkpoints(n_max)
    counts = np.bincount(codes[1:pts[0]], minlength=size)
    lower = counts / pts[0]
    for a, b in zip(pts, pts[1:]):
        counts += np.bincount(codes[a:b], minlength=size)
        np.minimum(lower, counts / b, out=lower)
    return lower


def _rotation_agreements(cycle: np.ndarray) -> list[int]:
    """Entry ell-1: how many of the p rotations of the cycle agree with it on
    their first ell symbols, for ell = 1..p."""
    p = len(cycle)
    doubled = np.concatenate([cycle, cycle])
    rotations = np.arange(p)
    out = []
    for j in range(p):
        rotations = rotations[doubled[rotations + j] == doubled[j]]
        out.append(len(rotations))
    return out


def _eval_check(check: dict, x: np.ndarray, s: ShiftSpace, phi: Optional[Potential],
                trace: list[tuple[int, float]], facts: _WindowFacts) -> dict:
    """One expected_statistics entry -> verdict record (pure data)."""
    kind = check["check"]
    out = {"check": kind, "params": {k: v for k, v in check.items() if k != "check"}}

    if kind == "full_horizon_present":
        need = int(check["horizon"])
        out["measured"] = len(x)
        out["passed"] = len(x) >= need

    elif kind == "trace_attains":
        lo_n = check.get("window", 0.5) * trace[-1][0]
        tail = [v for n, v in trace if n >= lo_n]
        tol = check["tol"]
        out["measured"] = [min(abs(v - t) for v in tail) for t in check["targets"]]
        out["passed"] = all(m <= tol for m in out["measured"])

    elif kind == "trace_converges":
        lo_n = (1.0 - check.get("window", 0.25)) * trace[-1][0]
        tail = [v for n, v in trace if n >= lo_n]
        osc = max(tail) - min(tail)
        err = abs(tail[-1] - check["target"])
        out["measured"] = {"oscillation": osc, "final_error": err}
        out["passed"] = osc <= check["osc_tol"] and err <= check["tol"]

    elif kind == "trace_oscillation":
        lo, hi = trace_oscillation(trace, window=check.get("window", 0.5))
        out["measured"] = hi - lo
        out["passed"] = (hi - lo) >= check["min_gap"]

    elif kind == "cylinder_lower_min":
        worst = min(float(facts.lower[int(ell)][word_code(w, s.k)])
                    for ell in check["lengths"] for w in iter_words(s, int(ell)))
        out["measured"] = worst
        out["passed"] = worst >= check["threshold"]

    elif kind == "self_lower_max":
        st = facts.self_stats[int(check["length"])]
        out["measured"] = st.lower_density_est
        out["passed"] = st.lower_density_est <= check["max"]

    elif kind == "self_upper_min":
        st = facts.self_stats[int(check["length"])]
        out["measured"] = st.upper_density_est
        out["passed"] = st.upper_density_est >= check["min"]

    elif kind == "self_upper_decreasing":
        uppers = [facts.self_stats[int(ell)].upper_density_est for ell in check["lengths"]]
        strict = all(a > b for a, b in zip(uppers, uppers[1:]))
        out["measured"] = uppers
        out["passed"] = strict and uppers[-1] <= check["final_max"]

    elif kind == "coverage_counts":
        _, raw = _coverage(facts.counts[int(check["length"])], s, int(check["length"]))
        worst = min(raw.values())
        out["measured"] = worst
        out["passed"] = worst >= check["min_visits"]

    elif kind == "coverage_fraction_of_expected":
        expected = {tuple(w): f for w, f in check["expected"]}
        ell = int(check["length"])
        emp = _frequencies(facts.counts[ell], ell, s.k)
        ratios = [emp.get(w, 0.0) / f for w, f in expected.items() if f > 0]
        out["measured"] = min(ratios) if ratios else 0.0
        out["passed"] = bool(ratios) and bool(min(ratios) >= check["fraction"])

    elif kind == "max_gap_bounded":
        gaps = {int(ell): facts.self_stats[int(ell)].max_gap for ell, _ in check["bounds"]}
        out["measured"] = gaps
        out["passed"] = all(gaps[int(ell)] <= bound for ell, bound in check["bounds"])

    elif kind == "not_eventually_periodic":
        out["passed"] = not _eventually_periodic(x, check.get("max_period", 1024))
        out["measured"] = out["passed"]

    elif kind == "periodic_density_exact":
        # the self-cylinder of length ell recurs at the rotations of the cycle
        # x_0..x_{p-1} that agree with it on ell symbols.  Visit times start
        # at 1, so cumulative self-visit ratios run up to 1/n below the exact
        # rational; allow that on top of the p/horizon grain
        p = int(check["period"])
        ok = True
        measured = {}
        for ell, agreeing in enumerate(_rotation_agreements(x[:p]), start=1):
            st = facts.self_stats[ell]
            measured[ell] = (st.lower_density_est, st.upper_density_est)
            tol = 3.0 * p / st.horizon
            ok = ok and abs(st.lower_density_est - agreeing / p) <= tol
            ok = ok and abs(st.upper_density_est - agreeing / p) <= tol
        out["measured"] = measured
        out["passed"] = ok

    else:
        out["measured"] = None
        out["passed"] = False
        out["error"] = f"unknown check kind {kind}"
    return out


#: symbols of the second half compared for every period before any full compare
PERIOD_PROBE = 256


def _eventually_periodic(x: np.ndarray, max_period: int) -> bool:
    """Is some period p <= max_period locked in over the second half?

    A period must first hold on the probe block x[half:half+b], checked for
    all periods at once; only the survivors get the full compare.
    """
    n = len(x)
    half = n // 2
    top = min(max_period, half // 2)
    if top < 1:
        return False
    b = min(PERIOD_PROBE, n - half - top)
    shifted = np.lib.stride_tricks.sliding_window_view(x[half + 1:half + top + b], b)
    for p in np.flatnonzero((shifted == x[half:half + b]).all(axis=1)) + 1:
        if np.array_equal(x[half:n - p], x[half + p:n]):
            return True
    return False


def evaluate_certificate(x, s: ShiftSpace, expected_statistics: list[dict],
                         phi: Optional[Potential] = None) -> RecurrenceReport:
    """Score a stream against its certificate's expected statistics.

    Failures are verdicts, never exceptions: the report is pure data.
    """
    arr = _as_array(x)
    max_ell = max(DEFAULT_LADDER)
    n_max = len(arr) - max_ell
    if n_max < 16:
        raise TooShort("stream too short for any evidence")

    needs = {("self", ell) for ell in DEFAULT_LADDER}
    needs |= {("counts", ell) for ell in DEFAULT_LADDER if ell <= 4}
    for chk in expected_statistics:
        needs |= _window_needs(chk)
    facts = _sweep_windows(arr, s.k, n_max, needs)
    ladder_stats = {ell: facts.self_stats[ell] for ell in DEFAULT_LADDER}

    if phi is not None:
        cps = default_trace_checkpoints(min(len(arr) - phi.range, n_max + max_ell))
        trace = birkhoff_trace(arr, phi, cps, k=s.k)
        osc = trace_oscillation(trace)
    else:
        trace = []
        osc = (0.0, 0.0)

    cov = {ell: _coverage(facts.counts[ell], s, ell)[0] for ell in DEFAULT_LADDER if ell <= 4}
    verdicts = [_eval_check(chk, arr, s, phi, trace, facts) for chk in expected_statistics]
    return RecurrenceReport(horizon=n_max, ladder_stats=ladder_stats, trace=trace,
                            oscillation=osc, cylinder_coverage=cov, verdicts=verdicts)
