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

import bisect
import functools
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SchemaError, TooShort
from .measures import SAMPLE_CHUNK, Potential
from .shifts import ShiftSpace, Word, iter_words

DENSITY_CHECKPOINTS = 32
DEFAULT_LADDER = (1, 2, 4, 8, 12)
DEFAULT_TRACE_CHECKPOINTS = 128
REPORT_SCHEMA = "shiftlab/report/1"


@dataclass
class VisitStatistics:
    """Visits of a self-cylinder x_0..x_{ell-1} at times 1..horizon; max_gap
    is None unless the sweep was asked for it."""
    visits: int
    lower_density_est: float
    upper_density_est: float
    max_gap: Optional[int]
    horizon: int


def window_codes(x: np.ndarray, ell: int, k: int) -> np.ndarray:
    """Integer code of every length-ell window, big-endian in the symbols, in
    the narrowest unsigned dtype that holds k**ell codes.  ValueError when
    k**ell > 2**63, past the codes of int64."""
    if k ** ell > 1 << 63:
        raise ValueError(f"codes of {ell}-windows over {k} symbols do not fit in int64")
    n = len(x) - ell + 1
    if n <= 0:
        raise TooShort(f"stream of length {len(x)} has no {ell}-windows")
    codes = x[:n].astype(np.min_scalar_type(k ** ell - 1))
    for j in range(1, ell):
        codes *= k
        np.add(codes, x[j:j + n], out=codes, dtype=codes.dtype, casting="unsafe")
    return codes


def word_code(w: Sequence[int], k: int) -> int:
    c = 0
    for sym in w:
        c = c * k + sym
    return c


@functools.lru_cache(maxsize=1 << 16)
def density_checkpoints(n_max: int) -> np.ndarray:
    """Geometric grid of DENSITY_CHECKPOINTS checkpoints spanning
    [n_max/2, n_max], read-only.  Cached: a periodic_density_exact check
    reads the grid of each self-visit horizon again after the sweep."""
    grid = np.geomspace(max(1, n_max // 2), n_max, DENSITY_CHECKPOINTS)
    pts = np.unique(np.round(grid).astype(np.int64))
    pts.flags.writeable = False
    return pts


def birkhoff_trace(x, phi: Potential, checkpoints: Sequence[int],
                   k: int) -> list[tuple[int, float]]:
    """Exact running averages (1/n) sum phi(window_i) at each checkpoint, for
    a stream and a potential over k symbols; a window whose word the table
    lacks adds 0.  Values are read from a table of all k**range codes while
    that is no longer than the stream's windows; past that, from the table's
    own sorted word codes, so memory follows the stream and the table.

    The windows up to the last checkpoint are coded, looked up and summed
    SAMPLE_CHUNK at a time in one buffer: the running total is added into a
    chunk's first value before its cumsum, which makes the same float
    additions, in the same order, as one cumsum over every window.
    """
    arr = np.asarray(x)
    r = phi.range
    cps = np.asarray(checkpoints, dtype=np.int64)
    n = int(cps.max())
    if len(arr) < n + r:
        raise TooShort(f"need length >= {n + r}, have {len(arr)}")
    # unsigned, as the window codes are: int64 and uint64 would compare as floats
    codes = np.fromiter((word_code(w, k) for w in phi.table), np.uint64, len(phi.table))
    values = np.fromiter(phi.table.values(), float, len(phi.table))
    dense = k ** r <= len(arr) - r + 1   # a gather beats a binary search per window
    if dense:
        table = np.zeros(k ** r)
        table[codes] = values
    else:
        order = np.argsort(codes)
    averages = np.empty(len(cps))
    sums = np.empty(min(SAMPLE_CHUNK, n))
    total = 0.0
    for a in range(0, n, SAMPLE_CHUNK):
        b = min(a + SAMPLE_CHUNK, n)
        part = sums[:b - a]
        windows = window_codes(arr[a:b + r - 1], r, k)
        if dense:
            table.take(windows, out=part, mode="clip")   # "raise" would write a copy of part
        else:
            at = order[np.minimum(np.searchsorted(codes, windows, sorter=order), len(codes) - 1)]
            part[:] = np.where(codes[at] == windows, values[at], 0.0)
        part[0] += total
        np.cumsum(part, out=part)
        total = part[-1]
        here = (a < cps) & (cps <= b)
        averages[here] = part[cps[here] - 1 - a] / cps[here]
    return [(int(c), float(v)) for c, v in zip(cps, averages)]


def default_trace_checkpoints(n_max: int) -> list[int]:
    pts = np.unique(np.round(np.geomspace(16, n_max, DEFAULT_TRACE_CHECKPOINTS)).astype(np.int64))
    return [int(p) for p in pts if p >= 1]


def _tail(trace: list[tuple[int, float]], share: float) -> list[float]:
    """Running averages at the checkpoints n >= share * N."""
    lo_n = share * trace[-1][0]
    return [v for n, v in trace if n >= lo_n]


def trace_oscillation(trace: list[tuple[int, float]]) -> tuple[float, float]:
    """(min, max) of the running average over checkpoints n >= N/2."""
    tail = _tail(trace, 0.5)
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


#: what one sweep of a stream yields, by length: self_stats, the visits of the
#: self-cylinder x_0..x_{ell-1} up to the horizon (its max_gap only for a "gap");
#: counts, each code's windows in the stream; lower, each code's lower density estimate
_WindowFacts = NamedTuple("_WindowFacts", [("self_stats", dict), ("counts", dict),
                                           ("lower", dict)])


class _Visits:
    """The visits of a self-cylinder at times 1..h, taken a chunk at a time:
    their count (count_nonzero), how many fall below each density checkpoint,
    and with `gaps` the largest gap between them, time 0 included; only a
    chunk holding a checkpoint, or a gap, finds its visit times."""

    def __init__(self, h: int, gaps: bool):
        self.h, self.gaps, self.pts = h, gaps, density_checkpoints(h)
        self.count = -1   # time 0, where the stream's own window stands, is no visit
        self.below: list[int] = []
        self.gap = self.last = 0

    def add(self, a: int, recurs: np.ndarray) -> None:
        """Take recurs[i]: whether the self-cylinder recurs at time a + i."""
        pts = self.pts[slice(*np.searchsorted(self.pts, (a, a + len(recurs)), side="right"))] - a
        if not (len(pts) or self.gaps):
            self.count += np.count_nonzero(recurs)
            return
        at = np.flatnonzero(recurs)
        self.below += (self.count + np.searchsorted(at, pts)).tolist()
        self.count += len(at)
        if self.gaps and len(at):
            self.gap = max(self.gap, int(np.diff(at, prepend=self.last - a).max()))
            self.last = a + int(at[-1])

    def stats(self) -> VisitStatistics:
        """One visit also counts its gap to the horizon, and none gives the horizon."""
        ratios = np.array(self.below) / self.pts
        gap = max(self.gap, self.h - self.last) if self.count <= 1 else self.gap
        return VisitStatistics(visits=self.count, lower_density_est=float(ratios.min()),
                               upper_density_est=float(ratios.max()),
                               max_gap=gap if self.gaps else None, horizon=self.h)


class _Counts:
    """The windows of each code among the starts 0, 1, ..., taken a chunk at
    a time by one bincount per stretch between the checkpoints of `h`, and
    each code's lower density estimate: the least, over checkpoints c, of its
    windows among the starts 1..c-1 over c."""

    def __init__(self, size: int, h: Optional[int]):
        self.pts = density_checkpoints(h).tolist() if h else []
        self.counts = np.zeros(size, dtype=np.intp)
        self.lower = np.inf

    def add(self, a: int, codes: np.ndarray) -> None:
        """Take codes[i], the code of the window at start a + i."""
        if not a:
            self.first = codes[0]   # the stream's own window is no visit
        lo = 0
        for c in self.pts[bisect.bisect_right(self.pts, a):
                          bisect.bisect_right(self.pts, a + len(codes))]:
            self.counts += np.bincount(codes[lo:c - a], minlength=len(self.counts))
            lo = c - a
            ratio = self.counts / c
            ratio[self.first] = (self.counts[self.first] - 1) / c
            self.lower = np.minimum(self.lower, ratio)
        self.counts += np.bincount(codes[lo:], minlength=len(self.counts))


def _sweep_windows(arr: np.ndarray, k: int, n_max: int,
                   needs: set[tuple[str, int]]) -> _WindowFacts:
    """Every needed fact from one pass over the stream, SAMPLE_CHUNK window
    starts at a time (_Counts, _Visits), with no array that grows with it.
    A chunk's window codes read ell - 1 symbols into the next chunk.
    Self-cylinder visits need no codes, so no length limit: x_0..x_{ell-1}
    recurs at t when x_0..x_{ell-2} does and x_{t+ell-1} == x_{ell-1}, one
    boolean pass per length and chunk.  Visit facts at ell run up to
    min(n_max, len - ell): the evaluation horizon, cut back for lengths past
    the ladder so their windows stay in the stream."""
    def horizon(ell: int) -> int:
        h = min(n_max, len(arr) - ell)
        if h < 1:
            raise TooShort(f"need length >= {ell + 1}, have {len(arr)}")
        return h

    coded = {ell: _Counts(k ** ell, horizon(ell) if ("lower", ell) in needs else None)
             for fact, ell in needs if fact in ("counts", "lower")}
    selves = {ell: _Visits(horizon(ell), ("gap", ell) in needs)
              for fact, ell in needs if fact in ("self", "gap")}
    for a in range(0, len(arr), SAMPLE_CHUNK):
        for ell, tally in coded.items():
            if a <= len(arr) - ell:
                tally.add(a, window_codes(arr[a:a + SAMPLE_CHUNK + ell - 1], ell, k))
        recurs = np.ones(SAMPLE_CHUNK, dtype=bool)
        for ell in range(1, max(selves, default=0) + 1):
            recurs = recurs[:max(0, min(n_max, len(arr) - ell) + 1 - a)]   # times up to the horizon
            recurs &= arr[a + ell - 1:a + ell - 1 + len(recurs)] == arr[ell - 1]
            if ell in selves:
                selves[ell].add(a, recurs)
    return _WindowFacts({ell: visits.stats() for ell, visits in selves.items()},
                        {ell: coded[ell].counts for fact, ell in needs if fact == "counts"},
                        {ell: coded[ell].lower for fact, ell in needs if fact == "lower"})


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
# the check table: every kind of expected_statistics entry, declared once;
# synthesis.CLASSES states which entries, with which parameters, each class has


#: what a verdict reads; the trace is empty unless a check or the report reads it
_Evidence = NamedTuple("_Evidence", [("x", np.ndarray), ("s", ShiftSpace),
                                     ("trace", list), ("facts", _WindowFacts)])

#: the need of a check that reads the Birkhoff trace, and so needs a potential;
#: the sweep takes no window fact for it
TRACE = ("trace", 0)


class CheckKind(NamedTuple):
    """One kind of expected_statistics entry.  verdict(p, ev): the verdict
    fields "measured" and "passed", in report order.  needs(p): the (fact,
    length) pairs it reads off the sweep, facts as in _WindowFacts, and TRACE
    when it reads the trace.  p is the entry, which states every parameter."""
    verdict: Callable[[dict, _Evidence], dict]
    needs: Callable[[dict], set[tuple[str, int]]] = lambda p: set()


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
    "full_horizon_present": CheckKind(lambda p, ev: _at_least(len(ev.x), p["horizon"])),
    "trace_attains": CheckKind(_trace_distances, lambda p: {TRACE}),
    "trace_converges": CheckKind(_trace_settles, lambda p: {TRACE}),
    "trace_oscillation": CheckKind(
        lambda p, ev: _at_least(_spread(_tail(ev.trace, p["window"])), p["min_gap"]),
        lambda p: {TRACE}),
    "cylinder_lower_min": CheckKind(
        lambda p, ev: _at_least(min(float(ev.facts.lower[ell][word_code(w, ev.s.k)])
                                    for ell in p["lengths"] for w in iter_words(ev.s, ell)),
                                p["threshold"]),
        lambda p: {("lower", ell) for ell in p["lengths"]}),
    "self_lower_max": CheckKind(
        lambda p, ev: _at_most(ev.facts.self_stats[p["length"]].lower_density_est, p["max"]),
        lambda p: {("self", p["length"])}),
    "self_upper_min": CheckKind(
        lambda p, ev: _at_least(ev.facts.self_stats[p["length"]].upper_density_est, p["min"]),
        lambda p: {("self", p["length"])}),
    "self_upper_decreasing": CheckKind(
        _uppers_decrease, lambda p: {("self", ell) for ell in p["lengths"]}),
    "coverage_counts": CheckKind(
        lambda p, ev: _at_least(min(_coverage(ev.facts.counts[p["length"]], ev.s,
                                              p["length"])[1].values()), p["min_visits"]),
        lambda p: {("counts", p["length"])}),
    "max_gap_bounded": CheckKind(_gaps_within, lambda p: {("gap", ell) for ell, _ in p["bounds"]}),
    "coverage_fraction_of_expected": CheckKind(
        _expected_share, lambda p: {("counts", p["length"])}),
    "not_eventually_periodic": CheckKind(   # its reports list passed first
        lambda p, ev: dict.fromkeys(
            ("passed", "measured"), not _eventually_periodic(ev.x, p["max_period"]))),
    "periodic_density_exact": CheckKind(
        _cycle_densities, lambda p: {("self", ell) for ell in range(1, p["period"] + 1)}),
}


def _checked(chk) -> CheckKind:
    """The table entry of an expected_statistics entry; SchemaError for an unknown kind."""
    name = chk.get("check") if type(chk) is dict else None
    kind = CHECKS.get(name) if type(name) is str else None
    if kind is None:
        raise SchemaError(f"unknown check kind {name!r}")
    return kind


def evaluate_certificate(x, s: ShiftSpace, expected_statistics: list[dict],
                         phi: Optional[Potential] = None, report: bool = False) -> dict:
    """Score a stream against its certificate's expected statistics: one
    sweep for the facts the checks declare, and the Birkhoff trace only when
    a check reads it.  The dict ends in "verdicts" and "all_pass".  With
    `report`, the same sweep also takes the ladder's self-cylinder facts, the
    coverage of lengths 1, 2 and 4, and the trace of the potential when there
    is one, and the dict is the report document.

    Failures are verdicts, never exceptions: the result is pure data.  A
    stream too short for any evidence raises TooShort, and an unknown check
    kind SchemaError, both before any sweep.  The parameters are not typed
    here: verify scores only a certificate whose list certify found equal to
    the one its class states.
    """
    arr = np.asarray(x)
    n_max = len(arr) - max(DEFAULT_LADDER)
    if n_max < 16:
        raise TooShort("stream too short for any evidence")
    kinds = [_checked(chk) for chk in expected_statistics]
    needs = set().union(*(kind.needs(chk) for kind, chk in zip(kinds, expected_statistics)))
    coverage_lengths = [ell for ell in DEFAULT_LADDER if ell <= 4]
    if report:
        needs |= {("gap", ell) for ell in DEFAULT_LADDER}
        needs |= {("counts", ell) for ell in coverage_lengths} | ({TRACE} if phi is not None else set())
    facts = _sweep_windows(arr, s.k, n_max, needs)
    trace = (birkhoff_trace(arr, phi, default_trace_checkpoints(len(arr) - phi.range), k=s.k)
             if TRACE in needs else [])
    ev = _Evidence(arr, s, trace, facts)
    verdicts = [{"check": chk["check"], "params": {k: v for k, v in chk.items() if k != "check"},
                 **kind.verdict(chk, ev)} for chk, kind in zip(expected_statistics, kinds)]
    doc = {}
    if report:
        ladder = {ell: facts.self_stats[ell] for ell in DEFAULT_LADDER}
        doc = {
            "schema": REPORT_SCHEMA,
            "horizon": n_max,
            "ladder": {str(ell): {"target": arr[:ell].tolist(), "visits": st.visits,
                                  "lower_density_est": st.lower_density_est,
                                  "upper_density_est": st.upper_density_est,
                                  "max_gap": st.max_gap} for ell, st in ladder.items()},
            "trace": [[n, v] for n, v in trace],
            "oscillation": list(trace_oscillation(trace)) if trace else [0.0, 0.0],
            "cylinder_coverage": {str(ell): _coverage(facts.counts[ell], s, ell)[0]
                                  for ell in coverage_lengths},
        }
    return {**doc, "verdicts": verdicts, "all_pass": all(v["passed"] for v in verdicts)}
