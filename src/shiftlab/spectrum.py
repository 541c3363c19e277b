"""Entropy spectrum of Birkhoff averages via the pressure function.

The constrained-entropy curve  psi(a) = sup{ h_m : integral of phi d m = a }
is computed as the concave conjugate  psi(a) = inf_q [P(q) - q a]  of the
pressure  P(q) = log spectral radius of B(q), B(q)_ij = A_ij exp(q phi(i,j)).
The attainable-average interval comes from exact min/max mean-cycle search
(Karp's recurrence in Fraction arithmetic), with witnessing cycles.

Potentials of range r > 2 are recoded onto the (r-1)-block graph so a single
edge-weighted kernel serves every range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (DegenerateInterval, EndpointSaturation, NotPrimitive,
                     NotStronglyConnected, OutsideInterior, PressureOverflow)
from .measures import Potential
from .shifts import (ShiftSpace, Word, iter_words, strongly_connected_components,
                     topological_entropy)

Q_CAP = 500.0
SUBGRADIENT_H = 1e-5
GOLDEN_SECTION_TOL = 1e-10
IRREGULARITY_TOL = 1e-12


@dataclass
class EdgeSystem:
    """Edge-weighted graph on nodes 0..k-1: the ambient symbols, or its
    (r-1)-blocks for a range-r potential.  The edges are the keys of weights.

    decode maps each node of the working graph back to the original symbol
    it begins with, so cycle witnesses read off in ambient symbols.
    """

    k: int
    weights: dict[tuple[int, int], float]
    decode: tuple[int, ...]


def edge_system(s: ShiftSpace, phi: Potential) -> EdgeSystem:
    """Reduce (shift, potential) to an edge-weighted graph.

    range 1: weight(i,j) = phi(i).  range 2: weight(i,j) = phi(ij).
    range r > 2: nodes are admissible (r-1)-words u; u -> v is allowed when
    u and v overlap in r-2 symbols and the union r-word is admissible, with
    weight phi(u . v[-1]).
    """
    if phi.range <= 2:
        weights = {}
        for i in range(s.k):
            for j in range(s.k):
                if s.matrix[i][j]:
                    key = (i,) if phi.range == 1 else (i, j)
                    weights[(i, j)] = phi.table[key]
        return EdgeSystem(k=s.k, weights=weights, decode=tuple(range(s.k)))
    r = phi.range
    blocks = list(iter_words(s, r - 1))
    index = {w: i for i, w in enumerate(blocks)}
    weights = {}
    for u in blocks:
        for c in range(s.k):
            if s.matrix[u[-1]][c]:
                weights[(index[u], index[u[1:] + (c,)])] = phi.table[u + (c,)]
    return EdgeSystem(k=len(blocks), weights=weights, decode=tuple(w[0] for w in blocks))


@dataclass
class PressureFunction:
    """Evaluation cache for q -> P(q) on one edge system."""

    system: EdgeSystem
    cache: dict[float, float] = field(default_factory=dict)

    def __call__(self, q: float) -> float:
        if abs(q) > Q_CAP:
            raise PressureOverflow(f"|q| = {abs(q)} beyond documented cap {Q_CAP}")
        if q not in self.cache:
            self.cache[q] = _pressure_value(self.system, q)
        return self.cache[q]

    def derivative(self, q: float) -> float:
        h = SUBGRADIENT_H
        return (self(q + h) - self(q - h)) / (2 * h)


def _pressure_value(system: EdgeSystem, q: float) -> float:
    """log of the Perron eigenvalue of A_ij exp(q w_ij).

    Rescaled dense eigenvalues when the weighted entries fit in doubles;
    log-domain power iteration otherwise (the Collatz-Wielandt bounds
    min/max of (Bv)_i / v_i bracket the eigenvalue, so the stopping rule
    is rigorous and primitivity guarantees convergence).
    """
    k = system.k
    log_b = np.full((k, k), -np.inf)
    for (i, j), w in system.weights.items():
        log_b[i, j] = q * w
    finite = log_b[np.isfinite(log_b)]
    shift = float(np.max(finite))
    if shift - float(np.min(finite)) < 600.0:
        b = np.exp(np.where(np.isfinite(log_b), log_b - shift, -np.inf))
        lam = float(np.max(np.abs(np.linalg.eigvals(b))))
        return shift + math.log(lam)
    mask = np.isfinite(log_b)
    v = np.zeros(k)
    lam_hi = lam_lo = 0.0
    for _ in range(500000):
        terms = log_b + v[None, :]
        row_max = np.max(terms, axis=1)
        with np.errstate(invalid="ignore"):
            safe = np.where(mask, np.exp(terms - row_max[:, None]), 0.0)
        w = row_max + np.log(safe.sum(axis=1))
        diff = w - v
        lam_hi = float(np.max(diff))
        lam_lo = float(np.min(diff))
        v = w - np.max(w)
        if lam_hi - lam_lo <= 1e-14 * max(1.0, abs(lam_hi)):
            break
    return (lam_hi + lam_lo) / 2.0


def pressure(s: ShiftSpace, phi: Potential, q: float) -> float:
    """log Perron eigenvalue of the q-weighted transition matrix."""
    if not s.is_primitive:
        raise NotPrimitive("pressure needs a primitive shift")
    return PressureFunction(edge_system(s, phi))(q)


@dataclass(frozen=True)
class LphiInterval:
    """Attainable averages [lo, hi] with extreme cycles as witnesses."""

    lo: float
    hi: float
    lo_cycle: Word
    hi_cycle: Word
    lo_exact: Fraction
    hi_exact: Fraction


def _karp_extreme_cycle(system: EdgeSystem, maximize: bool) -> tuple[Fraction, Word]:
    """Exact extreme mean cycle by Karp's recurrence over Fractions.

    Ties in the optimum break toward the shortest cycle, then toward the
    lexicographically smallest one (decoded to ambient symbols, least
    rotation).  Exact potentials h make every edge's reduced weight
    w - mu* + h[u] - h[v] nonnegative, so the optimal cycles are exactly the
    cycles of the tight subgraph, where it is zero.  A closed walk of the
    least length L there is a simple cycle, and every rotation of a cycle is
    a closed walk, so the witness is the least decoded word over closed
    walks of length L: it is read off greedily, one symbol at a time, from
    boolean walk powers of the tight subgraph.
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
    d: list[list[Optional[int]]] = [[0] * k] + [[None] * k for _ in range(k)]
    for m in range(1, k + 1):
        prev, cur = d[m - 1], d[m]
        for (u, v), wt in w.items():
            if prev[u] is not None:
                cand = prev[u] + wt
                if cur[v] is None or cand < cur[v]:
                    cur[v] = cand
    mu_star: Optional[Fraction] = None
    for v in range(k):
        if d[k][v] is None:
            continue
        worst = None
        for m in range(k):
            if d[m][v] is None:
                continue
            val = Fraction(d[k][v] - d[m][v], k - m)
            if worst is None or val > worst:
                worst = val
        if worst is not None and (mu_star is None or worst < mu_star):
            mu_star = worst
    if mu_star is None:
        raise NotStronglyConnected("no cycle found")
    # witness: zero-mean cycle in the reweighted graph, via exact potentials;
    # reduced weights times mu_star's denominator are integers too
    rw = {e: wt * mu_star.denominator - mu_star.numerator for e, wt in w.items()}
    h = [0] * k
    for _ in range(k):
        changed = False
        for (u, v), wt in rw.items():
            if h[u] + wt < h[v]:
                h[v] = h[u] + wt
                changed = True
        if not changed:
            break
    tight = np.zeros((k, k), dtype=bool)
    for (u, v), wt in rw.items():
        tight[u, v] = h[u] + wt == h[v]
    # walks[m][u, v]: some walk of exactly m tight edges leads from u to v
    walks = [np.eye(k, dtype=bool), tight]
    while not walks[-1].diagonal().any():
        if len(walks) > k:
            raise NotStronglyConnected("no extreme cycle in tight subgraph")
        walks.append(walks[-1] @ tight)
    length = len(walks) - 1
    # (start, node) pairs that spell the least prefix so far and can still
    # close a walk of the least length back at their start
    pairs = {(v, v) for v in range(k)}
    best_word = []
    for step in range(length):
        back = walks[length - step]
        pairs = {(a, v) for a, v in pairs if back[v, a]}
        sym = min(system.decode[v] for _, v in pairs)
        best_word.append(sym)
        pairs = {(a, int(u)) for a, v in pairs if system.decode[v] == sym
                 for u in np.flatnonzero(tight[v])}
    value = (-mu_star if maximize else mu_star) / den
    return value, tuple(best_word)


def lphi_interval(s: ShiftSpace, phi: Potential) -> LphiInterval:
    """Exact attainable-average interval with extreme-cycle witnesses."""
    comps = strongly_connected_components(s.matrix)
    real = [c for c in comps if len(c) > 1 or s.matrix[c[0]][c[0]]]
    if len(real) != 1 or len(real[0]) != s.k:
        raise NotStronglyConnected("interval search needs a strongly connected graph")
    system = edge_system(s, phi)
    lo, lo_cyc = _karp_extreme_cycle(system, maximize=False)
    hi, hi_cyc = _karp_extreme_cycle(system, maximize=True)
    return LphiInterval(lo=float(lo), hi=float(hi), lo_cycle=lo_cyc, hi_cycle=hi_cyc,
                        lo_exact=lo, hi_exact=hi)


def has_irregular(s: ShiftSpace, phi: Potential) -> bool:
    """Nonempty irregular set <=> cycle averages are not all equal."""
    iv = lphi_interval(s, phi)
    return iv.hi - iv.lo > IRREGULARITY_TOL


def spectrum_point(s: ShiftSpace, phi: Potential, a: float,
                   pf: Optional[PressureFunction] = None,
                   interval: Optional[LphiInterval] = None) -> tuple[float, float]:
    """(psi, q_star) at an interior average a, by convex minimization in q.

    Doubles a bracket from [-1, 1] until the pressure subgradient straddles
    a, then golden-section minimizes P(q) - q a to width 1e-10.
    """
    iv = interval if interval is not None else lphi_interval(s, phi)
    if not iv.lo < a < iv.hi:
        if iv.hi - iv.lo <= IRREGULARITY_TOL:
            raise OutsideInterior(f"interval degenerate at {iv.lo}")
        raise OutsideInterior(f"a={a} not inside ({iv.lo}, {iv.hi})")
    if pf is None:
        pf = PressureFunction(edge_system(s, phi))

    lo_q, hi_q = -1.0, 1.0
    while pf.derivative(lo_q) > a:
        lo_q *= 2
        if lo_q < -Q_CAP:
            raise EndpointSaturation(f"bracketing hit -{Q_CAP}")
    while pf.derivative(hi_q) < a:
        hi_q *= 2
        if hi_q > Q_CAP:
            raise EndpointSaturation(f"bracketing hit {Q_CAP}")

    g = lambda q: pf(q) - q * a
    invphi = (math.sqrt(5) - 1) / 2
    x1 = hi_q - invphi * (hi_q - lo_q)
    x2 = lo_q + invphi * (hi_q - lo_q)
    f1, f2 = g(x1), g(x2)
    while hi_q - lo_q > GOLDEN_SECTION_TOL:
        if f1 <= f2:
            hi_q, x2, f2 = x2, x1, f1
            x1 = hi_q - invphi * (hi_q - lo_q)
            f1 = g(x1)
        else:
            lo_q, x1, f1 = x1, x2, f2
            x2 = lo_q + invphi * (hi_q - lo_q)
            f2 = g(x2)
    q_star = (lo_q + hi_q) / 2
    psi = g(q_star)
    return float(psi), float(q_star)


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
    iv = lphi_interval(s, phi)
    if iv.hi - iv.lo <= IRREGULARITY_TOL:
        raise DegenerateInterval("constant cycle averages; no spectrum to plot")
    from .measures import integrate, parry_measure

    h_top = topological_entropy(s)
    a_star = integrate(parry_measure(s), phi)
    grid = [iv.lo + (iv.hi - iv.lo) * (i + 1) / (npoints + 1) for i in range(npoints)]
    if min(abs(a - a_star) for a in grid) > 1e-3:
        grid.append(a_star)
    grid.sort()
    pf = PressureFunction(edge_system(s, phi))
    pts = [(a,) + spectrum_point(s, phi, a, pf=pf, interval=iv) for a in grid]
    return SpectrumCurve(points=pts, h_top=h_top, parry_average=a_star, interval=iv)


def check_concavity(curve: SpectrumCurve, slack: float = 1e-9) -> bool:
    """Midpoint test on consecutive triples, allowing `slack` below the chord."""
    pts = curve.points
    for (a1, p1, _), (a2, p2, _), (a3, p3, _) in zip(pts, pts[1:], pts[2:]):
        if a3 - a1 <= 0:
            continue
        chord = p1 + (p3 - p1) * (a2 - a1) / (a3 - a1)
        if p2 < chord - slack:
            return False
    return True


def sup_equals_htop(curve: SpectrumCurve, tol: float = 1e-4) -> bool:
    """Whether the curve's max reaches the topological entropy."""
    best = max(p for _, p, _ in curve.points)
    return best >= curve.h_top - tol
