"""Entropy spectrum of Birkhoff averages via the pressure function.

The constrained-entropy curve  psi(a) = sup{ h_m : integral of phi d m = a }
is computed as the concave conjugate  psi(a) = inf_q [P(q) - q a]  of the
pressure  P(q) = log spectral radius of B(q), B(q)_ij = A_ij exp(q phi(i,j)).
The attainable-average interval comes from exact min/max mean-cycle search
(Karp's recurrence in Fraction arithmetic), with witnessing cycles.  The
infimum sits where P'(q) = a: P' is the integral of phi against the
equilibrium state of q phi and P'' its asymptotic variance (Walters, ch. 9;
Ruelle), both read off the Perron solve that gives P, and Newton finds q.
The Newton iterations of all points of a curve run in lockstep: each round
solves the new q's of every running point in one stacked Perron solve,
whose results are bit-identical to solving each q alone.

A range-r potential is read on the graph of admissible blocks of
max(r - 1, 1) symbols, so a single edge-weighted kernel serves every range.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (DegenerateInterval, EndpointSaturation, NotStronglyConnected,
                     OutsideInterior, PressureOverflow)
from .measures import Potential, integrate, parry_measure
from .shifts import (ShiftSpace, Word, iter_words, least_cycle, perron,
                     strongly_connected_components, topological_entropy)

Q_CAP = 500.0
#: matrix entries per stacked Perron solve: keeps each (n, k, k) array of a
#: solve near 2 MB, however many q's a large block graph takes at once
STACK_ENTRIES = 1 << 18
NEWTON_TOL = 1e-12
IRREGULARITY_TOL = 1e-12
#: the most grid points a curve takes: 200,000 took 6.1 s on the full
#: 2-shift, and 10^8 ran out of memory
MAX_POINTS = 100_000


@dataclass
class EdgeSystem:
    """Edge-weighted graph on nodes 0..k-1 (its edges are the keys of
    weights): the ambient's blocks of max(r - 1, 1) symbols for a range-r potential.

    decode maps each node of the working graph back to the original symbol
    it begins with, so cycle witnesses read off in ambient symbols.
    """

    k: int
    weights: dict[tuple[int, int], float]
    decode: tuple[int, ...]


def edge_system(s: ShiftSpace, phi: Potential) -> EdgeSystem:
    """Reduce (shift, potential) to an edge-weighted graph.

    For a range-r potential the nodes are the admissible blocks of
    max(r - 1, 1) symbols, in lexicographic order (for r <= 2 the symbols
    themselves).  Block u has an edge to u[1:] + (c,) for each symbol c
    that may follow it, with weight phi((u + (c,))[:r]).
    """
    r = phi.range
    blocks = list(iter_words(s, max(r - 1, 1)))
    index = {w: i for i, w in enumerate(blocks)}
    weights = {}
    for u in blocks:
        for c in range(s.k):
            if s.matrix[u[-1]][c]:
                weights[(index[u], index[u[1:] + (c,)])] = phi.table[(u + (c,))[:r]]
    return EdgeSystem(k=len(blocks), weights=weights, decode=tuple(w[0] for w in blocks))


@dataclass(frozen=True)
class LphiInterval:
    """Attainable averages [lo, hi] with extreme cycles as witnesses, and
    each edge's reduced weight w - mean + p[u] - p[v] under Karp's exact
    potentials p: >= 0 at lo, <= 0 at hi, 0 on the extreme cycles.  system
    is the edge system they are read on."""

    lo: float
    hi: float
    lo_cycle: Word
    hi_cycle: Word
    lo_exact: Fraction
    hi_exact: Fraction
    lo_reduced: dict[tuple[int, int], float] = field(compare=False, repr=False)
    hi_reduced: dict[tuple[int, int], float] = field(compare=False, repr=False)
    system: EdgeSystem = field(compare=False, repr=False)


def _karp_extreme_cycle(system: EdgeSystem,
                        maximize: bool) -> tuple[Fraction, Word, dict[tuple[int, int], float]]:
    """Exact extreme mean cycle by Karp's recurrence over Fractions, and the
    reduced weights of its potentials (see LphiInterval).

    Ties in the optimum break toward the shortest cycle, then toward the
    lexicographically smallest one (decoded to ambient symbols, least
    rotation).  Exact potentials h make every edge's reduced weight
    w - mu* + h[u] - h[v] nonnegative, so the optimal cycles are exactly the
    cycles of the tight subgraph, where it is zero.  The witness decodes
    its least shortest cycle (shifts.least_cycle): block nodes are numbered
    in lexicographic order and a cycle's blocks are fixed by its symbols,
    so node order and decoded order agree.
    """
    k = system.k
    sign = -1 if maximize else 1
    # Fraction(float) is exact; limit_denominator recovers simple rationals
    # (error <= 1e-12 for genuinely irrational weights) and keeps arithmetic small
    w = {e: sign * Fraction(v).limit_denominator(10**12)
         for e, v in system.weights.items()}
    # scaled by their common denominator the weights are integers, and the
    # recurrence and potentials below run in exact integer arithmetic
    den = math.lcm(*(x.denominator for x in w.values()))
    w = {e: int(x * den) for e, x in w.items()}
    # strongly connected (lphi_interval checks), so d[m][v] is set for every v from m = 1
    d: list[list[Optional[int]]] = [[0] * k] + [[None] * k for _ in range(k)]
    for m in range(1, k + 1):
        prev, cur = d[m - 1], d[m]
        for (u, v), wt in w.items():
            cand = prev[u] + wt
            if cur[v] is None or cand < cur[v]:
                cur[v] = cand
    mu_star = min(max(Fraction(d[k][v] - d[m][v], k - m) for m in range(k)) for v in range(k))
    # witness: zero-mean cycle in the reweighted graph, via exact potentials;
    # reduced weights times mu_star's denominator are integers too
    rw = {e: wt * mu_star.denominator - mu_star.numerator for e, wt in w.items()}
    h = [0] * k
    for _ in range(k):
        for (u, v), wt in rw.items():
            h[v] = min(h[v], h[u] + wt)
    tight = np.zeros((k, k), dtype=bool)
    for (u, v), wt in rw.items():
        tight[u, v] = h[u] + wt == h[v]
    cycle = least_cycle(tight)
    if cycle is None:
        raise NotStronglyConnected("no extreme cycle in tight subgraph")
    value = (-mu_star if maximize else mu_star) / den
    # rw + h[u] - h[v] = sign * (w - value + p[u] - p[v]) * scale; the reduced
    # weights take the float weights themselves, exact up to the last rounding
    scale = den * mu_star.denominator
    p = [Fraction(sign * x, scale) for x in h]
    reduced = {(u, v): float(Fraction(x) - value + p[u] - p[v])
               for (u, v), x in system.weights.items()}
    return value, tuple(system.decode[v] for v in cycle), reduced


def lphi_interval(s: ShiftSpace, phi: Potential) -> LphiInterval:
    """Exact attainable-average interval with extreme-cycle witnesses."""
    comps = strongly_connected_components(s.matrix)
    real = [c for c in comps if len(c) > 1 or s.matrix[c[0]][c[0]]]
    if len(real) != 1 or len(real[0]) != s.k:
        raise NotStronglyConnected("interval search needs a strongly connected graph")
    system = edge_system(s, phi)
    lo, lo_cyc, lo_red = _karp_extreme_cycle(system, maximize=False)
    hi, hi_cyc, hi_red = _karp_extreme_cycle(system, maximize=True)
    return LphiInterval(lo=float(lo), hi=float(hi), lo_cycle=lo_cyc, hi_cycle=hi_cyc,
                        lo_exact=lo, hi_exact=hi, lo_reduced=lo_red, hi_reduced=hi_red,
                        system=system)


@dataclass
class PressureFunction:
    """q -> P(q) on an interval's edge system (lphi_interval's); cache
    maps q to (P(q), P'(q), P''(q)).

    With m = hi for q >= 0 (lo for q < 0) and that extreme's reduced
    weights R, B(q) = exp(q m) D exp(q R) D^-1 for a diagonal D; exp(q R)
    has entries <= 1, equal to 1 on the extreme cycle, so its Perron root
    rho lies in [1, k] and P = q m + log rho never overflows.  Its Perron
    data give the equilibrium state of q phi: P' = m + the integral of R
    (= the integral of phi; the coboundary integrates to 0), and P'' = the
    asymptotic variance of R.

    Called on a sequence of q's, it solves the uncached ones in one stacked
    Perron solve; each q's triple is bit-identical to solving it alone.
    """

    interval: LphiInterval
    cache: dict[float, tuple[float, float, float]] = field(default_factory=dict)

    def __post_init__(self):
        iv = self.interval
        edges = list(iv.system.weights)
        self._edges = tuple(np.array(edges, dtype=np.intp).T)
        # row 0: the q < 0 side (lo), row 1: the q >= 0 side (hi)
        self._means = np.array([iv.lo, iv.hi])
        self._reduced = np.array([[iv.lo_reduced[e] for e in edges],
                                  [iv.hi_reduced[e] for e in edges]])

    def __call__(self, qs: Sequence[float]) -> list[float]:
        """The list of P over a sequence of q's."""
        for x in qs:
            if abs(x) > Q_CAP:
                raise PressureOverflow(f"|q| = {abs(x)} beyond documented cap {Q_CAP}")
        new = [x for x in dict.fromkeys(qs) if x not in self.cache]
        size = max(1, STACK_ENTRIES // self.interval.system.k ** 2)
        for i in range(0, len(new), size):
            chunk = new[i:i + size]
            self.cache.update(zip(chunk, self._solve(np.array(chunk, dtype=float))))
        return [self.cache[x][0] for x in qs]

    def _solve(self, qs: np.ndarray) -> list[tuple[float, float, float]]:
        side = (qs >= 0).astype(np.intp)
        mean, reduced = self._means[side], self._reduced[side]
        n, k = len(qs), self.interval.system.k
        rows, cols = self._edges
        weight = np.exp(qs[:, None] * reduced)
        b = np.zeros((n, k, k))
        b[:, rows, cols] = weight
        rho, inv = perron(b)
        # math.log per root: numpy's vector log may differ in the last bit
        pressure = qs * mean + np.array([math.log(x) for x in rho.tolist()])
        # x = -G (b r (R - P')), with G, r and l from perron, is r times the
        # Poisson solution of the chain b_uv r_v / (rho r_u), so nothing
        # divides by a tiny r_u.  The products are stacked matmuls on the
        # operand layouts of a single solve, which keeps results bit-identical
        with np.errstate(all="ignore"):
            right, left, green = inv[:, :k, k], inv[:, k, :k], inv[:, :k, :k]
            flow = left[:, rows] * weight / (rho * _dots(left, right))[:, None]
            drift = _dots(flow, right[:, cols] * reduced)
            centred = reduced - drift[:, None]
            load = np.bincount((rows + k * np.arange(n)[:, None]).ravel(),
                               (weight * right[:, cols] * centred).ravel(),
                               minlength=n * k).reshape(n, k)
            x = np.matmul(-green, load[:, :, None])[:, :, 0]
            variance = _dots(flow, centred * (right[:, cols] * centred + 2.0 * x[:, cols]))
        # the equilibrium state sits on extreme cycles where the Perron data
        # fail (tied ones that no representable entry couples leave M
        # singular, and inv NaN): P' = mean to rounding
        ok = ((reduced.min(axis=1) <= drift) & (drift <= reduced.max(axis=1))
              & (0.0 <= variance) & (variance < math.inf))
        return list(zip(pressure.tolist(), np.where(ok, mean + drift, mean).tolist(),
                        np.where(ok, variance, 0.0).tolist()))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, m) stacks: one BLAS dot per row, on
    the row strides the operands have, as a 1-D u[i] @ v[i] would be."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def has_irregular(s: ShiftSpace, phi: Potential) -> bool:
    """Nonempty irregular set <=> cycle averages are not all equal."""
    iv = lphi_interval(s, phi)
    return iv.hi - iv.lo > IRREGULARITY_TOL


def _newton(pf: PressureFunction, grid: Sequence[float]) -> list[tuple[float, float]]:
    """(psi, q_star) at each interior average of grid, where P'(q_star) = a.

    Newton's method from q = 0 on the exact P' and P''.  P' increases, so
    each evaluation narrows a bracket around the root; a step that leaves
    the bracket (or that P'' <= 0 leaves undefined) bisects it instead, and
    a step past the cap stops at the cap.  EndpointSaturation when P' at
    the cap still falls short of a.  psi = P(q_star) - q_star a.

    The points iterate in lockstep: each round solves the next q of every
    running point in one pf call.  A point's iterates do not depend on the
    others, so each result, and the set of q's solved, is the one a
    separate solve of that point gives; the saturation raised is that of
    the first saturating point in grid order.
    """
    state = [(0.0, -math.inf, math.inf)] * len(grid)   # (q, lo_q, hi_q) per point
    out: list[tuple[float, float]] = [(math.nan, math.nan)] * len(grid)
    running, saturated = list(range(len(grid))), None
    while running:
        pf([state[i][0] for i in running])
        still = []
        for i in running:
            a, (q, lo_q, hi_q) = grid[i], state[i]
            value, slope, curvature = pf.cache[q]
            gap = a - slope
            if abs(q) == Q_CAP and gap * q > 0:
                # later points cannot raise first: drop them
                saturated = EndpointSaturation(f"P'({q}) = {slope} does not reach a = {a}")
                break
            lo_q, hi_q = (q, hi_q) if gap > 0 else (lo_q, q)
            step = gap / curvature if curvature > 0 else math.copysign(math.inf, gap)
            tol = NEWTON_TOL * (1.0 + abs(q))
            if gap == 0 or abs(step) <= tol or hi_q - lo_q <= tol:
                out[i] = (value - q * a, q)
                continue
            q_next = min(max(q + step, -Q_CAP), Q_CAP)
            state[i] = (q_next if lo_q < q_next < hi_q else (lo_q + hi_q) / 2, lo_q, hi_q)
            still.append(i)
        running = still
    if saturated is not None:
        raise saturated
    return out


@dataclass
class SpectrumCurve:
    """Grid of (a, psi, q_star) over the interior of the average interval."""

    points: list[tuple[float, float, float]]
    h_top: float
    parry_average: float
    interval: LphiInterval


def spectrum_curve(s: ShiftSpace, phi: Potential, npoints: int) -> SpectrumCurve:
    """Uniform interior grid, augmented with the maximal-entropy average."""
    if npoints < 3:
        raise ValueError("npoints >= 3 required")
    if npoints > MAX_POINTS:
        raise ValueError(f"npoints is {npoints}, above the limit MAX_POINTS = {MAX_POINTS}")
    iv = lphi_interval(s, phi)
    if iv.hi - iv.lo <= IRREGULARITY_TOL:
        raise DegenerateInterval("constant cycle averages; no spectrum to plot")
    h_top = topological_entropy(s)
    a_star = integrate(parry_measure(s), phi)
    grid = [iv.lo + (iv.hi - iv.lo) * (i + 1) / (npoints + 1) for i in range(npoints)]
    if min(abs(a - a_star) for a in grid) > 1e-3:
        grid.append(a_star)
    grid.sort()
    for a in grid:
        if not iv.lo < a < iv.hi:
            raise OutsideInterior(f"a={a} not inside ({iv.lo}, {iv.hi})")
    pf = PressureFunction(iv)
    pts = [(a,) + point for a, point in zip(grid, _newton(pf, grid))]
    return SpectrumCurve(points=pts, h_top=h_top, parry_average=a_star, interval=iv)


def check_concavity(curve: SpectrumCurve) -> bool:
    """Midpoint test on consecutive triples, allowing 1e-9 below the chord."""
    pts = curve.points
    for (a1, p1, _), (a2, p2, _), (a3, p3, _) in zip(pts, pts[1:], pts[2:]):
        if a3 - a1 <= 0:
            continue
        chord = p1 + (p3 - p1) * (a2 - a1) / (a3 - a1)
        if p2 < chord - 1e-9:
            return False
    return True


def sup_equals_htop(curve: SpectrumCurve) -> bool:
    """Whether the curve's max reaches the topological entropy, to 1e-4."""
    best = max(p for _, p, _ in curve.points)
    return best >= curve.h_top - 1e-4
