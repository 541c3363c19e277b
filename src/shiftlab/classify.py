"""Finite-prefix recurrence and regularity evidence.

Everything here measures a single symbol stream: self-cylinder visits,
windowed lower/upper density estimates, running Birkhoff averages, sliding
window counts.  None of it claims asymptotic class membership;
it scores the stream against thresholds a witness certificate declares.

Density estimators are cumulative ratios |visits ∩ [0,n)| / n scanned over
32 geometric checkpoints n in [N/2, N]; the min is the lower estimate and
the max the upper.  These are the stable finite-horizon proxies for
liminf/limsup visit frequencies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SchemaError, TooShort
from .io import COUNT, INTEGER, NUMBER, Context, Param, list_of, tuple_of, validate
from .measures import Potential
from .shifts import ShiftSpace, Word, iter_words

DENSITY_CHECKPOINTS = 32
DEFAULT_LADDER = (1, 2, 4, 8, 12)
DEFAULT_TRACE_CHECKPOINTS = 128


@dataclass
class VisitStatistics:
    """Visits of a self-cylinder x_0..x_{ell-1} at times 1..horizon."""
    visits: int
    lower_density_est: float
    upper_density_est: float
    max_gap: int
    horizon: int


@dataclass
class RecurrenceReport:
    horizon: int
    #: the stream's first max(DEFAULT_LADDER) symbols: each ladder target is a prefix
    prefix: list[int]
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


@functools.lru_cache(maxsize=1 << 16)
def density_checkpoints(n_max: int, count: int = DENSITY_CHECKPOINTS) -> np.ndarray:
    """Geometric grid of `count` checkpoints spanning [n_max/2, n_max], read-only.
    Cached: a periodic_density_exact check reads the grid of each self-visit
    horizon again after the sweep."""
    pts = np.unique(np.round(np.geomspace(max(1, n_max // 2), n_max, count)).astype(np.int64))
    pts.flags.writeable = False
    return pts


def windowed_density(visits: np.ndarray, n_max: int) -> tuple[float, float]:
    """(lower, upper) cumulative-ratio estimates over the checkpoint grid."""
    pts = density_checkpoints(n_max)
    ratios = np.searchsorted(visits, pts, side="left") / pts
    return float(ratios.min()), float(ratios.max())


def _statistics_from_visits(visits: np.ndarray, n_max: int) -> VisitStatistics:
    """Facts of a self-cylinder from its visit times in 1..n_max.  max_gap is
    the largest gap between consecutive visits, time 0 included; a single
    visit counts its gap to the horizon too, and none gives the horizon."""
    lower, upper = windowed_density(visits, n_max)
    if len(visits) >= 2:
        max_gap = max(int(np.diff(visits).max()), int(visits[0]))
    elif len(visits) == 1:
        max_gap = int(max(visits[0], n_max - visits[0]))
    else:
        max_gap = n_max
    return VisitStatistics(visits=len(visits), lower_density_est=lower,
                           upper_density_est=upper, max_gap=max_gap, horizon=n_max)


def birkhoff_trace(x, phi: Potential, checkpoints: Sequence[int],
                   k: int) -> list[tuple[int, float]]:
    """Exact running averages (1/n) sum phi(window_i) at each checkpoint, for
    a stream and a potential over k symbols; a window whose word the table
    lacks adds 0.  Values are read from a table of all k**range codes while
    that is no longer than the windows; past that, from the table's own
    sorted word codes, so memory follows the stream and the table."""
    arr = _as_array(x)
    need = max(checkpoints) + phi.range
    if len(arr) < need:
        raise TooShort(f"need length >= {need}, have {len(arr)}")
    codes = np.fromiter((word_code(w, k) for w in phi.table), np.int64, len(phi.table))
    values = np.fromiter(phi.table.values(), float, len(phi.table))
    if k ** phi.range <= len(arr) - phi.range + 1:   # a gather beats a binary search per window
        table = np.zeros(k ** phi.range)
        table[codes] = values
        sums = np.cumsum(table[window_codes(arr, phi.range, k)])
    else:
        windows = window_codes(arr, phi.range, k)
        order = np.argsort(codes)
        at = order[np.minimum(np.searchsorted(codes, windows, sorter=order), len(codes) - 1)]
        sums = np.cumsum(np.where(codes[at] == windows, values[at], 0.0))
    return [(int(n), float(sums[n - 1] / n)) for n in checkpoints]


def default_trace_checkpoints(n_max: int, count: int = DEFAULT_TRACE_CHECKPOINTS) -> list[int]:
    pts = np.unique(np.round(np.geomspace(16, n_max, count)).astype(np.int64))
    return [int(p) for p in pts if p >= 1]


def _tail(trace: list[tuple[int, float]], share: float) -> list[float]:
    """Running averages at the checkpoints n >= share * N."""
    lo_n = share * trace[-1][0]
    return [v for n, v in trace if n >= lo_n]


def trace_oscillation(trace: list[tuple[int, float]], window: float = 0.5) -> tuple[float, float]:
    """(min, max) of the running average over checkpoints n >= window * N."""
    tail = _tail(trace, window)
    return (min(tail), max(tail))


def _frequencies(counts: np.ndarray, ell: int, k: int) -> dict[Word, float]:
    """Word -> share of the windows, for the words whose code has a count."""
    codes = np.flatnonzero(counts)
    words = np.transpose(np.unravel_index(codes, (k,) * ell)).tolist()
    total = counts.sum()
    return {tuple(w): counts[code] / total for w, code in zip(words, codes)}


def _coverage(counts: np.ndarray, s: ShiftSpace, ell: int) -> tuple[float, dict[Word, int]]:
    """Share of the admissible ell-words with at least 8 windows, and the
    window count of each, from the window counts of every length-ell code."""
    raw = {w: int(counts[word_code(w, s.k)]) for w in iter_words(s, ell)}
    return sum(c >= 8 for c in raw.values()) / len(raw), raw


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


def _sweep_windows(arr: np.ndarray, k: int, n_max: int,
                   needs: set[tuple[str, int]]) -> _WindowFacts:
    """Every needed fact from two ascending sweeps, one array of each live.

    Counts and lower densities come off one window-code sweep.  Self-cylinder
    visits need no codes, so no length limit: x_0..x_{ell-1} recurs at n when
    x_0..x_{ell-2} does and x_{n+ell-1} == x_{ell-1}, one boolean pass per
    length, with no Python work that grows with ell.  Visit facts at ell run
    up to min(n_max, len - ell): the evaluation horizon, cut back for lengths
    past the ladder so their windows stay in the stream.
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
            facts.self_stats[ell] = _statistics_from_visits(np.flatnonzero(recurs) + 1, h)
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


def _agreeing_rotations(cycle: np.ndarray) -> Iterator[np.ndarray]:
    """For ell = 1..p, the rotations of the cycle that agree with it on their
    first ell symbols, ascending."""
    doubled = np.concatenate([cycle, cycle])
    rotations = np.arange(len(cycle))
    for j in range(len(cycle)):
        rotations = rotations[doubled[rotations + j] == doubled[j]]
        yield rotations


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


# ---------------------------------------------------------------------------
# the check table: every kind of expected_statistics entry, declared once


#: what a verdict reads; the trace is empty without a potential
_Evidence = NamedTuple("_Evidence", [("x", np.ndarray), ("s", ShiftSpace),
                                     ("trace", list), ("facts", _WindowFacts)])
# check parameter types beyond io's, for a stream of n symbols over k
#: a self-cylinder length or period: some visit time must follow it in the stream
LENGTH = Param("an integer ell with 1 <= ell < n", lambda v, c: type(v) is int and 1 <= v < c.n)
#: a length whose k**ell word codes get counted: no more codes than symbols
CODE_LENGTH = Param("an integer ell with 1 <= ell < n and k**ell <= n",
                    lambda v, c: LENGTH.test(v, c) and c.k ** min(v, c.n.bit_length()) <= c.n)
SHARE = Param("a number in (0, 1]", lambda v, c: NUMBER.test(v, c) and 0 < v <= 1)


class CheckKind(NamedTuple):
    """One kind of expected_statistics entry.  params: its parameters and their
    types; those in `defaults` may be left out.  verdict(p, ev): the verdict
    fields "measured" and "passed", in report order.  needs(p): the (fact,
    length) pairs it reads off the sweep, facts as in _WindowFacts.  trace:
    whether it reads the Birkhoff trace, so needs a potential.  p is the
    entry with its defaults filled in."""
    params: dict[str, Param]
    verdict: Callable[[dict, _Evidence], dict]
    needs: Callable[[dict], set[tuple[str, int]]] = lambda p: set()
    defaults: dict = {}
    trace: bool = False


def _at_least(measured, bound) -> dict:
    return {"measured": measured, "passed": measured >= bound}


def _at_most(measured, bound) -> dict:
    return {"measured": measured, "passed": measured <= bound}


def _spread(values: list[float]) -> float:
    return max(values) - min(values)


def _trace_distances(p: dict, ev: _Evidence) -> dict:
    tail = _tail(ev.trace, p["window"])
    measured = [min(abs(v - t) for v in tail) for t in p["targets"]]
    return {"measured": measured, "passed": all(m <= p["tol"] for m in measured)}


def _trace_settles(p: dict, ev: _Evidence) -> dict:
    tail = _tail(ev.trace, 1.0 - p["window"])
    osc, err = _spread(tail), abs(tail[-1] - p["target"])
    return {"measured": {"oscillation": osc, "final_error": err},
            "passed": osc <= p["osc_tol"] and err <= p["tol"]}


def _uppers_decrease(p: dict, ev: _Evidence) -> dict:
    uppers = [ev.facts.self_stats[ell].upper_density_est for ell in p["lengths"]]
    strict = all(a > b for a, b in zip(uppers, uppers[1:]))
    return {"measured": uppers, "passed": strict and uppers[-1] <= p["final_max"]}


def _expected_share(p: dict, ev: _Evidence) -> dict:
    expected = {tuple(w): f for w, f in p["expected"]}
    emp = _frequencies(ev.facts.counts[p["length"]], p["length"], ev.s.k)
    ratios = [emp.get(w, 0.0) / f for w, f in expected.items() if f > 0]
    return {"measured": min(ratios) if ratios else 0.0,
            "passed": bool(ratios) and bool(min(ratios) >= p["fraction"])}


def _gaps_within(p: dict, ev: _Evidence) -> dict:
    gaps = {ell: ev.facts.self_stats[ell].max_gap for ell, _ in p["bounds"]}
    return {"measured": gaps, "passed": all(gaps[ell] <= bound for ell, bound in p["bounds"])}


def _cycle_densities(p: dict, ev: _Evidence) -> dict:
    """A stream tiling the cycle x_0..x_{p-1} revisits its self-cylinder of
    length ell at exactly the times t >= 1 whose residue mod p is a rotation
    agreeing with the cycle on ell symbols.  That fixes the visit count below
    every density checkpoint, so the measured lower and upper estimates must
    equal the predicted ones exactly."""
    period, ok, measured = p["period"], True, {}
    for ell, rotations in enumerate(_agreeing_rotations(ev.x[:period]), start=1):
        st = ev.facts.self_stats[ell]
        measured[ell] = (st.lower_density_est, st.upper_density_est)
        if ok:
            pts = density_checkpoints(st.horizon)
            laps, rest = np.divmod(pts, period)
            ratios = (laps * len(rotations) + np.searchsorted(rotations, rest) - 1) / pts
            ok = measured[ell] == (float(ratios.min()), float(ratios.max()))
    return {"measured": measured, "passed": ok}


CHECKS: dict[str, CheckKind] = {
    "full_horizon_present": CheckKind(
        {"horizon": COUNT}, lambda p, ev: _at_least(len(ev.x), p["horizon"])),
    "trace_attains": CheckKind(
        {"targets": list_of(NUMBER), "tol": NUMBER, "window": SHARE}, _trace_distances,
        defaults={"window": 0.5}, trace=True),
    "trace_converges": CheckKind(
        {"target": NUMBER, "tol": NUMBER, "osc_tol": NUMBER, "window": SHARE}, _trace_settles,
        defaults={"window": 0.25}, trace=True),
    "trace_oscillation": CheckKind(
        {"min_gap": NUMBER, "window": SHARE},
        lambda p, ev: _at_least(_spread(_tail(ev.trace, p["window"])), p["min_gap"]),
        defaults={"window": 0.5}, trace=True),
    "cylinder_lower_min": CheckKind(
        {"lengths": list_of(CODE_LENGTH), "threshold": NUMBER},
        lambda p, ev: _at_least(min(float(ev.facts.lower[ell][word_code(w, ev.s.k)])
                                    for ell in p["lengths"] for w in iter_words(ev.s, ell)),
                                p["threshold"]),
        lambda p: {("lower", ell) for ell in p["lengths"]}),
    "self_lower_max": CheckKind(
        {"length": LENGTH, "max": NUMBER},
        lambda p, ev: _at_most(ev.facts.self_stats[p["length"]].lower_density_est, p["max"]),
        lambda p: {("self", p["length"])}),
    "self_upper_min": CheckKind(
        {"length": LENGTH, "min": NUMBER},
        lambda p, ev: _at_least(ev.facts.self_stats[p["length"]].upper_density_est, p["min"]),
        lambda p: {("self", p["length"])}),
    "self_upper_decreasing": CheckKind(
        {"lengths": list_of(LENGTH), "final_max": NUMBER}, _uppers_decrease,
        lambda p: {("self", ell) for ell in p["lengths"]}),
    "coverage_counts": CheckKind(
        {"length": CODE_LENGTH, "min_visits": NUMBER},
        lambda p, ev: _at_least(min(_coverage(ev.facts.counts[p["length"]], ev.s,
                                              p["length"])[1].values()), p["min_visits"]),
        lambda p: {("counts", p["length"])}),
    "max_gap_bounded": CheckKind(
        {"bounds": list_of(tuple_of(LENGTH, NUMBER))}, _gaps_within,
        lambda p: {("self", ell) for ell, _ in p["bounds"]}),
    "coverage_fraction_of_expected": CheckKind(
        {"length": CODE_LENGTH, "expected": list_of(tuple_of(list_of(INTEGER), NUMBER)),
         "fraction": NUMBER}, _expected_share, lambda p: {("counts", p["length"])}),
    "not_eventually_periodic": CheckKind(   # its reports list passed first
        {"max_period": COUNT}, lambda p, ev: dict.fromkeys(
            ("passed", "measured"), not _eventually_periodic(ev.x, p["max_period"])),
        defaults={"max_period": 1024}),
    "periodic_density_exact": CheckKind(
        {"period": LENGTH}, _cycle_densities,
        lambda p: {("self", ell) for ell in range(1, p["period"] + 1)}),
}


def _checked(chk, n: int, k: int, has_phi: bool) -> tuple[CheckKind, dict]:
    """The table entry of an expected_statistics entry and the entry with its
    defaults filled in, for a stream of n symbols over k; SchemaError if malformed."""
    name = chk.get("check") if type(chk) is dict else None
    kind = CHECKS.get(name) if type(name) is str else None
    if kind is None:
        raise SchemaError(f"unknown check kind {name!r}")
    validate(chk, kind.params, f"{name} check", Context(n=n, k=k), optional=kind.defaults)
    for param in chk:
        if param != "check" and param not in kind.params:
            raise SchemaError(f"{name} check takes no {param!r} parameter")
    if kind.trace and not has_phi:
        raise SchemaError(f"{name} check reads a Birkhoff trace, but there is no potential")
    return kind, {**kind.defaults, **chk}


def evaluate_certificate(x, s: ShiftSpace, expected_statistics: list[dict],
                         phi: Optional[Potential] = None) -> RecurrenceReport:
    """Score a stream against its certificate's expected statistics.

    Failures are verdicts, never exceptions: the report is pure data.  A
    malformed check is refused with SchemaError before any sweep: an unknown
    kind, a missing, unknown or mistyped parameter, a value outside the range
    CHECKS declares for it, or a trace check without a potential.
    """
    arr = _as_array(x)
    max_ell = max(DEFAULT_LADDER)
    n_max = len(arr) - max_ell
    if n_max < 16:
        raise TooShort("stream too short for any evidence")
    checks = [_checked(chk, len(arr), s.k, phi is not None) for chk in expected_statistics]

    needs = {("self", ell) for ell in DEFAULT_LADDER}
    needs |= {("counts", ell) for ell in DEFAULT_LADDER if ell <= 4}
    for kind, p in checks:
        needs |= kind.needs(p)
    facts = _sweep_windows(arr, s.k, n_max, needs)
    ladder_stats = {ell: facts.self_stats[ell] for ell in DEFAULT_LADDER}

    trace = [] if phi is None else birkhoff_trace(
        arr, phi, default_trace_checkpoints(min(len(arr) - phi.range, n_max + max_ell)), k=s.k)
    osc = trace_oscillation(trace) if trace else (0.0, 0.0)

    cov = {ell: _coverage(facts.counts[ell], s, ell)[0] for ell in DEFAULT_LADDER if ell <= 4}
    ev = _Evidence(arr, s, trace, facts)
    verdicts = [{"check": chk["check"], "params": {k: v for k, v in chk.items() if k != "check"},
                 **kind.verdict(p, ev)} for chk, (kind, p) in zip(expected_statistics, checks)]
    return RecurrenceReport(horizon=n_max, prefix=arr[:max_ell].tolist(),
                            ladder_stats=ladder_stats, trace=trace,
                            oscillation=osc, cylinder_coverage=cov, verdicts=verdicts)
