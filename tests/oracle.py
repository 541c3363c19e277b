"""Brute-force references on tiny instances.

Everything here is deliberately naive: depth-first enumeration, dense grid
search, full scans, big-int matrix powers.  These are the ground truth the
fast kernels are tested against, so they must stay independent of the
matrix/eigenvalue code paths.
Hard size caps raise BoundExceeded instead of silently crawling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from shiftlab.beta import BetaShiftSpec
from shiftlab.errors import ShiftlabError, SymbolOutOfRange, ValidityExceeded
from shiftlab.measures import InvariantMeasure, PeriodicMeasure, Potential
from shiftlab.shifts import SUBGRAPH_TIE_TOL, ShiftSpace, Word

MAX_WORD_LEN = 24
MAX_BETA_WORD_LEN = 14
MAX_CYCLE_LEN = 16
MAX_GRID_STEPS = 40
MAX_FREE_PARAMS = 4
MAX_DENSITY_N = 1 << 22
MAX_SUBGRAPH_EDGES = 14
MAX_CYCLE_WORDS = 1 << 18

#: splitmix64's counter increment and finalizer multipliers (Steele, Lea &
#: Flood 2014), restated here so that the reference shares nothing with
#: the vectorized shiftlab.rng
GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = (1 << 64) - 1


class BoundExceeded(ShiftlabError):
    """Brute-force instance exceeds the documented size cap."""


class Infeasible(ShiftlabError):
    """No grid point satisfies the constraint."""


@dataclass
class OracleResult:
    value: float
    enumerated: int
    note: str = ""


def brute_count_words(s: ShiftSpace, n: int) -> int:
    """Count admissible n-words by depth-first extension."""
    if n > MAX_WORD_LEN:
        raise BoundExceeded(f"n={n} > {MAX_WORD_LEN}")
    if n < 1:
        raise ValueError("n >= 1 required")

    def extend(last: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(extend(j, remaining - 1) for j in range(s.k) if s.matrix[last][j])

    return sum(extend(c, n - 1) for c in range(s.k))


def matrix_power_count_words(s: ShiftSpace, n: int) -> int:
    """Number of admissible n-words as the total of A^(n-1), an object-dtype
    (big-int) matrix power."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return int(np.linalg.matrix_power(np.array(s.matrix, dtype=object), n - 1).sum())


def matrix_power_count_periodic(s: ShiftSpace, n: int) -> int:
    """Number of points with period dividing n as the trace of A^n, an
    object-dtype (big-int) matrix power."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return int(np.linalg.matrix_power(np.array(s.matrix, dtype=object), n).trace())


def splitmix64(z: int) -> int:
    """The splitmix64 finalizer of z mod 2^64, one Python int at a time:
    output t of the stream seeded by s is splitmix64(s + t GAMMA)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """n floats in [0, 1) from the top 53 bits of each splitmix64 output:
    output t (counted from 1) is splitmix64(seed + t GAMMA), one at a
    time, independent of the vectorized splitmix64_runs."""
    return np.array([(splitmix64(seed + t * GAMMA) >> 11) / (1 << 53)
                     for t in range(1, n + 1)], dtype=np.float64)


def beta_admissible(w: Sequence[int], spec: BetaShiftSpec) -> bool:
    """True iff every suffix of w is lexicographically <= the digit stream."""
    for c in w:
        if not 0 <= c < spec.alphabet:
            raise SymbolOutOfRange(f"symbol {c} outside alphabet of size {spec.alphabet}")
    n = len(w)
    if n > spec.validity_length:
        raise ValidityExceeded(f"word length {n} > validity {spec.validity_length}")
    if n == 0:
        return True
    ref = spec.digits_prefix(n)
    for start in range(n):
        suffix = w[start:]
        if tuple(suffix) > ref[:n - start]:
            return False
    return True


def brute_beta_count_words(spec: BetaShiftSpec, n: int) -> int:
    """Count admissible beta-shift n-words by depth-first extension, each
    candidate checked suffix by suffix against the digit stream."""
    if n > MAX_BETA_WORD_LEN:
        raise BoundExceeded(f"n={n} > {MAX_BETA_WORD_LEN}")
    total = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        w = stack.pop()
        if len(w) == n:
            total += 1
            continue
        for c in range(spec.alphabet):
            cand = w + (c,)
            if beta_admissible(cand, spec):
                stack.append(cand)
    return total


def _prefix_function(ref: Sequence[int]) -> list[int]:
    """KMP prefix function of ref (1-indexed semantics, pi[0] unused)."""
    n = len(ref)
    pi = [0] * (n + 1)
    k = 0
    for i in range(2, n + 1):
        while k > 0 and ref[i - 1] != ref[k]:
            k = pi[k]
        if ref[i - 1] == ref[k]:
            k += 1
        pi[i] = k
    return pi


def match_length_beta_count_words(spec: BetaShiftSpec, n: int) -> int:
    """Count admissible beta-shift n-words by a match-length automaton DP.

    State = length of the longest suffix of the word read so far that equals
    a prefix of the digit stream.  Self-domination of the stream makes the
    longest match the binding constraint, so transitions are: symbol equal
    to the next digit extends the match, a smaller symbol falls back through
    the KMP prefix chain, a larger symbol is inadmissible.  Every state
    tries every symbol of the alphabet.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    ref = spec.digits_prefix(n)
    pi = _prefix_function(ref)

    def fallback(state: int, c: int) -> Optional[int]:
        k = state
        while k > 0 and ref[k] != c:
            k = pi[k]
        if ref[k] == c:
            return k + 1
        return None if c > ref[0] else 0

    counts = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for state, mult in counts.items():
            d = ref[state]
            for c in range(spec.alphabet):
                if c > d:
                    break
                t = state + 1 if c == d else fallback(state, c)
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + mult
        counts = nxt
    return sum(counts.values())


def brute_count_cycles(s: ShiftSpace, n: int) -> int:
    """Count points of period dividing n: admissible n-words with admissible wrap."""
    if n > MAX_CYCLE_LEN:
        raise BoundExceeded(f"n={n} > {MAX_CYCLE_LEN}")
    if n < 1:
        raise ValueError("n >= 1 required")

    def extend(first: int, last: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if s.matrix[last][first] else 0
        return sum(extend(first, j, remaining - 1) for j in range(s.k) if s.matrix[last][j])

    return sum(extend(c, c, n - 1) for c in range(s.k))


def brute_primitive_cycles(s: ShiftSpace, max_period: int) -> list[Word]:
    """Each cyclically admissible word of length <= max_period that is
    smaller than all its proper rotations (so aperiodic and a least
    rotation), listed in (period, word) order by trying every word."""
    if s.k ** max_period > MAX_CYCLE_WORDS:
        raise BoundExceeded(f"{s.k}^{max_period} words > {MAX_CYCLE_WORDS}")
    out = []
    for p in range(1, max_period + 1):
        for w in product(range(s.k), repeat=p):
            if (all(s.matrix[w[i]][w[(i + 1) % p]] for i in range(p))
                    and all(w < w[i:] + w[:i] for i in range(1, p))):
                out.append(w)
    return out


def brute_primitive_gap(s: ShiftSpace) -> int:
    """Least M >= 1 with an M-edge path between every ordered pair of symbols.

    Grows the (first, last) pairs of the admissible words one symbol at a
    time.  Raises BoundExceeded past MAX_WORD_LEN edges, which is how a
    shift that is not primitive shows here.
    """
    every_pair = {(i, j) for i in range(s.k) for j in range(s.k)}
    ends = {(i, i) for i in range(s.k)}
    for m in range(1, MAX_WORD_LEN + 1):
        ends = {(i, t) for i, c in ends for t in range(s.k) if s.matrix[c][t]}
        if ends == every_pair:
            return m
    raise BoundExceeded(f"no positive power up to {MAX_WORD_LEN}")


def brute_connecting_word(s: ShiftSpace, a: int, b: int, length: int) -> Word:
    """First w in itertools.product order with a.w.b admissible, |w| = length."""
    if s.k ** length > MAX_CYCLE_WORDS:
        raise BoundExceeded(f"{s.k}^{length} words > {MAX_CYCLE_WORDS}")
    for w in product(range(s.k), repeat=length):
        path = (a,) + w + (b,)
        if all(s.matrix[path[i]][path[i + 1]] for i in range(length + 1)):
            return w
    raise Infeasible(f"no {length}-symbol word joins {a} to {b}")


def _stationary(p: np.ndarray) -> np.ndarray:
    """Stationary row vector via the linear system pi(P - I) = 0, sum(pi) = 1.

    Direct LU solve of this square system, not the bordered Perron solve
    the measure kernels use.  Falls back to a Cesaro average if the system
    is singular.
    """
    k = p.shape[0]
    m = (p.T - np.eye(k)).copy()
    m[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)
        if np.all(pi > -1e-10):
            pi = np.maximum(pi, 0.0)
            return pi / pi.sum()
    except np.linalg.LinAlgError:
        pass
    pi = np.full(k, 1.0 / k)
    acc = np.zeros(k)
    for _ in range(20000):
        pi = pi @ p
        acc += pi
    acc /= acc.sum()
    return acc


def _entropy_and_integral(p: np.ndarray, phi_edge: np.ndarray) -> tuple[float, float]:
    pi = _stationary(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
    h = float(-(pi[:, None] * p * logs).sum())
    integral = float((pi[:, None] * p * phi_edge).sum())
    return h, integral


def _edge_phi(s: ShiftSpace, phi) -> np.ndarray:
    """Potential as a k x k edge table; range-1 tables act on the source symbol."""
    out = np.zeros((s.k, s.k))
    for i in range(s.k):
        for j in range(s.k):
            if not s.matrix[i][j]:
                continue
            if phi.range == 1:
                out[i, j] = phi.table[(i,)]
            else:
                out[i, j] = phi.table[(i, j)]
    return out


def _row_distributions(targets: list[int], steps: int):
    """Grid over probability vectors on `targets` with `steps` subdivisions."""
    m = len(targets)
    if m == 1:
        yield (1.0,)
        return
    for cuts in product(range(steps + 1), repeat=m - 1):
        total = sum(cuts)
        if total > steps:
            continue
        probs = [c / steps for c in cuts] + [(steps - total) / steps]
        yield tuple(probs)


def brute_constrained_entropy(s: ShiftSpace, phi, a: float, grid_steps: int = 40,
                              detailed: bool = False):
    """Max entropy with the integral pinned to a, from a memory-1 grid.

    Dense grid over the stochastic matrices compatible with A, one local
    refinement pass around the best near-constraint cell, then closure
    under two-point mixtures: a pair with integrals straddling a combines
    (entropy and integral are both affine) into a measure meeting the
    constraint exactly.  The result is therefore a certified lower bound
    for the constrained-entropy value at a itself, not just near it.
    """
    if grid_steps > MAX_GRID_STEPS:
        raise BoundExceeded(f"grid_steps={grid_steps} > {MAX_GRID_STEPS}")
    if phi.range > 2:
        raise BoundExceeded("oracle handles potentials of range <= 2 only")
    rows = [[j for j in range(s.k) if s.matrix[i][j]] for i in range(s.k)]
    free = [i for i in range(s.k) if len(rows[i]) > 1]
    if sum(len(rows[i]) - 1 for i in free) > MAX_FREE_PARAMS:
        raise BoundExceeded(f"more than {MAX_FREE_PARAMS} free parameters")
    phi_edge = _edge_phi(s, phi)
    span = float(np.max(np.abs(phi_edge))) if np.max(np.abs(phi_edge)) > 0 else 1.0
    eps = 1e-9  # keep every allowed edge open so the chain stays irreducible

    def assemble(choice: dict[int, tuple[float, ...]]) -> np.ndarray:
        p = np.zeros((s.k, s.k))
        for i in range(s.k):
            if i in choice:
                probs = np.array(choice[i])
                probs = np.maximum(probs, eps)
                probs = probs / probs.sum()
                for t, pr in zip(rows[i], probs):
                    p[i, t] = pr
            else:
                p[i, rows[i][0]] = 1.0
        return p

    evaluated_total = 0

    def scan(grids: dict[int, list[tuple[float, ...]]]):
        nonlocal evaluated_total
        free_rows = sorted(grids)
        out = []
        for combo in product(*(grids[i] for i in free_rows)):
            choice = dict(zip(free_rows, combo))
            h, integral = _entropy_and_integral(assemble(choice), phi_edge)
            out.append((h, integral, choice))
        evaluated_total += len(out)
        return out

    def best_exact(evaluated):
        """Best entropy among straddling mixtures hitting a exactly."""
        below = [(h, g) for h, g, _ in evaluated if g <= a]
        above = [(h, g) for h, g, _ in evaluated if g >= a]
        if not below or not above:
            return None
        below.sort(reverse=True)
        above.sort(reverse=True)
        best = None
        for h1, g1 in above[:60]:
            for h2, g2 in below[:60]:
                if g1 == g2:
                    mixed = max(h1, h2) if g1 == a else None
                else:
                    theta = (a - g2) / (g1 - g2)
                    mixed = theta * h1 + (1 - theta) * h2
                if mixed is not None and (best is None or mixed > best):
                    best = mixed
        return best

    coarse_pts = scan({i: list(_row_distributions(rows[i], grid_steps)) for i in free})
    dmin = min(abs(g - a) for _, g, _ in coarse_pts)
    if best_exact(coarse_pts) is None and dmin > 2.0 * span / grid_steps:
        raise Infeasible(f"nearest attainable integral is {dmin} away from {a}")
    near = min(coarse_pts, key=lambda t: (abs(t[1] - a), -t[0]))
    anchor = max((t for t in coarse_pts if abs(t[1] - a) <= max(dmin * 1.0001, span / (4.0 * grid_steps))),
                 key=lambda t: t[0], default=near)

    # refinement varies only the m-1 free coordinates of each row (the last
    # entry is the residual); the per-axis resolution shrinks with the total
    # dimension so the joint fine grid stays around 2e4 points
    total_dims = sum(len(rows[i]) - 1 for i in free)
    per_axis = min(41, max(7, int(round(24000 ** (1.0 / total_dims)))))
    fine: dict[int, list[tuple[float, ...]]] = {}
    for i in free:
        center = anchor[2][i]
        width = 2.0 / grid_steps
        axes = []
        for c in center[:-1]:
            lo = max(0.0, c - width)
            hi = min(1.0, c + width)
            axes.append([lo + t * (hi - lo) / (per_axis - 1) for t in range(per_axis)])
        pts = []
        for combo in product(*axes):
            head = sum(combo)
            if head > 1.0:
                continue
            pts.append(tuple(combo) + (1.0 - head,))
        fine[i] = pts
    fine_pts = scan(fine)

    value = best_exact(coarse_pts + fine_pts)
    if value is None:
        raise Infeasible(f"no measure pair straddles integral {a}")
    if detailed:
        return OracleResult(value=value, enumerated=evaluated_total,
                            note=f"two-point mixture closure at a={a}")
    return value


def brute_density(visits, n_max: int) -> tuple[float, float]:
    """Exact min/max of |visits ∩ [0,n)|/n over every n in [n_max/2, n_max].

    `visits` is an iterable of visit times or a boolean predicate evaluated
    on range(n_max).  Reference for the checkpointed estimators.
    """
    if n_max > MAX_DENSITY_N:
        raise BoundExceeded(f"N={n_max} > {MAX_DENSITY_N}")
    if callable(visits):
        flags = np.fromiter((bool(visits(i)) for i in range(n_max)), dtype=bool, count=n_max)
    else:
        flags = np.zeros(n_max, dtype=bool)
        idx = np.asarray(sorted(v for v in visits if 0 <= v < n_max), dtype=np.int64)
        flags[idx] = True
    counts = np.cumsum(flags)
    ns = np.arange(1, n_max + 1)
    lo = n_max // 2
    ratios = counts[lo - 1:] / ns[lo - 1:]
    return float(ratios.min()), float(ratios.max())


def brute_self_visits(x, word: Sequence[int], n_max: int) -> list[int]:
    """Every time t in 1..n_max at which `word` starts in x, by comparing
    tuples.  Reference for the self-cylinder sweep of the classifier."""
    w = tuple(int(c) for c in word)
    xs = [int(c) for c in x]
    if n_max + len(w) > len(xs):
        raise ValueError(f"need length >= {n_max + len(w)}, have {len(xs)}")
    if n_max > MAX_DENSITY_N:
        raise BoundExceeded(f"N={n_max} > {MAX_DENSITY_N}")
    return [t for t in range(1, n_max + 1) if tuple(xs[t:t + len(w)]) == w]


def scalar_typical_word(m: InvariantMeasure, n: int, seed: int) -> Word:
    """Symbol-by-symbol reference for a typical word: of a Markov measure,
    measures.sample_typical_words(m, [n], [seed]); of a periodic one, the
    symbols synthesis._regenerate gives its periodic segments.

    Markov chains draw the start symbol from pi and walk the rows of P one
    uniform at a time; periodic measures repeat their cycle.
    All randomness comes from the documented splitmix64 stream for `seed`.
    """
    if isinstance(m, PeriodicMeasure):
        cyc = m.cycle
        reps = cyc * (n // len(cyc) + 1)
        return tuple(reps[:n])
    if n < 1:
        raise ValueError("n >= 1 required")
    us = uniform_stream(seed, n)
    k = m.shift.k
    cum_rows = []
    for i in range(k):
        acc = 0.0
        row = []
        for j in range(k):
            acc += m.P[i][j]
            row.append(acc)
        row[-1] = 1.0 + 1e-15
        cum_rows.append(row)
    acc = 0.0
    u = float(us[0])
    state = k - 1
    for i in range(k):
        acc += m.pi[i]
        if u < acc:
            state = i
            break
    word = [state]
    for t in range(1, n):
        u = float(us[t])
        row = cum_rows[state]
        for j in range(k):
            if u < row[j]:
                state = j
                break
        word.append(state)
    return tuple(word)


def _mutually_reachable(nodes: list[int], edges: set[tuple[int, int]]) -> bool:
    """Whether every node reaches, and is reached from, the first one."""
    for fwd in (True, False):
        seen = {nodes[0]}
        frontier = [nodes[0]]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                src, dst = (a, b) if fwd else (b, a)
                if src == u and dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        if len(seen) != len(nodes):
            return False
    return True


def brute_largest_proper_subgraph(
    s: ShiftSpace) -> Optional[tuple[tuple[int, ...], frozenset[tuple[int, int]], float]]:
    """Reference for shifts.largest_proper_scc_subgraph over every edge subset.

    Each proper subset of A's edges of positive entropy whose endpoints are
    mutually reachable is a candidate; None when there is none.  Entropies
    come from a LAPACK eigvals call on the same submatrix layout (nodes
    ascending) as the kernel's, so the returned float matches: what this
    checks is the candidate set, not the eigenvalue solver.  Entropies within
    SUBGRAPH_TIE_TOL of the best are tied, and the least sorted edge set
    among them wins, as in the kernel.
    """
    edges = s.edges()
    if len(edges) > MAX_SUBGRAPH_EDGES:
        raise BoundExceeded(f"{len(edges)} edges > {MAX_SUBGRAPH_EDGES}")
    scored = []
    for r in range(1, len(edges)):
        for subset in combinations(edges, r):
            edge_set = set(subset)
            nodes = sorted({i for e in subset for i in e})
            if not _mutually_reachable(nodes, edge_set):
                continue
            sub = np.array([[1.0 if (i, j) in edge_set else 0.0 for j in nodes]
                            for i in nodes])
            ent = float(np.log(np.max(np.linalg.eigvals(sub).real)))
            if ent <= 1e-12:
                continue
            scored.append((list(subset), ent, tuple(nodes), frozenset(subset)))
    if not scored:
        return None
    top = max(c[1] for c in scored)
    _, ent, nodes, edge_set = min((c for c in scored if c[1] >= top - SUBGRAPH_TIE_TOL),
                                  key=lambda c: c[0])
    return nodes, edge_set, ent


def brute_extreme_cycle(s: ShiftSpace, phi: Potential, maximize: bool) -> tuple[Fraction, Word]:
    """Extreme Birkhoff average over periodic points, by listing every word.

    Each cyclically admissible word w of length n <= N is the periodic point
    w w w ..., with average (1/n) * sum of phi over its first n windows.
    N is the number of nodes of the edge graph the kernel searches (k, or
    the admissible (range-1)-words), which bounds its shortest extreme
    cycle.  Ties break toward the shorter word, then the smaller one, so
    the witness is a least rotation.  Float weights are read as rationals
    with denominators up to 10^12, as the kernel reads them.
    """
    r = phi.range
    nodes = s.k if r <= 2 else brute_count_words(s, r - 1)
    if s.k ** nodes > MAX_CYCLE_WORDS:
        raise BoundExceeded(f"{s.k}^{nodes} words > {MAX_CYCLE_WORDS}")
    weight = {w: Fraction(v).limit_denominator(10**12) for w, v in phi.table.items()}
    best = None
    for n in range(1, nodes + 1):
        for w in product(range(s.k), repeat=n):
            if not all(s.matrix[w[i]][w[(i + 1) % n]] for i in range(n)):
                continue
            ext = w * r
            avg = sum(weight[ext[i:i + r]] for i in range(n)) / n
            key = (-avg if maximize else avg, n, w)
            if best is None or key < best:
                best = key
    return (-best[0] if maximize else best[0]), best[2]


def full_compare_eventually_periodic(x: np.ndarray, max_period: int) -> bool:
    """Is some period p <= max_period locked in over the second half?  One
    whole-half compare per period."""
    n = len(x)
    half = n // 2
    for p in range(1, min(max_period, half // 2) + 1):
        if np.array_equal(x[half:n - p], x[half + p:n]):
            return True
    return False
