"""Exact invariant measures on SFTs and their entropy/integral/support arithmetic.

Three measure kinds cover everything the witness constructions need:
memory-1 Markov measures (including the maximal-entropy one), periodic-orbit
measures, and finite convex mixtures.  Entropy is affine over mixtures and
integrals are linear, so every derived fact is closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from . import rng
from .errors import NotAdmissible, NotPrimitive, RangeMismatch
from .shifts import (ShiftSpace, Word, count_words, is_admissible, is_cyclically_admissible,
                     iter_words, perron, strongly_connected_components)

VALIDATION_TOL = 1e-12


@dataclass(frozen=True)
class Potential:
    """Locally constant observable of finite range r, keyed by r-words."""

    range: int
    table: dict[Word, float] = field(compare=False)

    def __post_init__(self):
        if self.range < 1:
            raise ValueError("range >= 1 required")

    def value(self, w: Sequence[int]) -> float:
        key = tuple(w[:self.range])
        try:
            return self.table[key]
        except KeyError:
            raise RangeMismatch(f"word {key} missing from potential table")


def validate_potential(s: ShiftSpace, phi: Potential) -> None:
    """Check the table covers exactly the admissible range-words of s.

    Every key must be an admissible range-word; keys are distinct, so then
    the table has them all exactly when it has count_words(s, range) keys.
    The keys are checked first, and an empty table is refused uncounted,
    so no count runs for a range the table does not back.
    """
    r = phi.range
    for w in phi.table:
        if len(w) != r or not all(0 <= c < s.k for c in w) or not is_admissible(w, s):
            raise RangeMismatch(f"potential word {list(w)} is not an admissible {r}-word "
                                f"of the shift")
    if not phi.table or len(phi.table) != count_words(s, r):
        raise RangeMismatch(f"potential table lists {len(phi.table)} words, not every "
                            f"admissible {r}-word of the shift")


def indicator_potential(s: ShiftSpace, word: Sequence[int]) -> Potential:
    """1 on the cylinder of `word`, 0 elsewhere; range = len(word)."""
    w = tuple(word)
    if not is_admissible(w, s):
        raise NotAdmissible("indicator word must be admissible")
    table = {u: (1.0 if u == w else 0.0) for u in iter_words(s, len(w))}
    return Potential(range=len(w), table=table)


def constant_potential(s: ShiftSpace, c: float, r: int = 1) -> Potential:
    return Potential(range=r, table={u: float(c) for u in iter_words(s, r)})


@dataclass(frozen=True)
class SupportGraph:
    """Symbols and edges carrying positive probability."""

    symbols: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def union(self, other: "SupportGraph") -> "SupportGraph":
        return SupportGraph(self.symbols | other.symbols, self.edges | other.edges)

    def is_full(self, s: ShiftSpace) -> bool:
        return self.edges == frozenset((i, j) for i in range(s.k)
                                       for j in range(s.k) if s.matrix[i][j])


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov chain compatible with the ambient transition matrix."""

    shift: ShiftSpace
    P: tuple[tuple[float, ...], ...]
    pi: tuple[float, ...]


@dataclass(frozen=True)
class PeriodicMeasure:
    """Uniform measure on a periodic orbit, given by one admissible cycle."""

    shift: ShiftSpace
    cycle: Word


@dataclass(frozen=True)
class Mixture:
    """Finite convex combination of invariant measures."""

    weights: tuple[float, ...]
    components: tuple["InvariantMeasure", ...]


InvariantMeasure = Union[MarkovMeasure, PeriodicMeasure, Mixture]


def markov_measure(s: ShiftSpace, p: Sequence[Sequence[float]],
                   pi: Optional[Sequence[float]] = None) -> MarkovMeasure:
    """Validated Markov measure; pi is the left Perron vector of P when
    omitted, and ValueError when P has no unique stationary vector."""
    arr = np.array(p, dtype=float)
    if (arr.shape != (s.k, s.k) or not np.isfinite(arr).all() or (arr < 0).any()
            or (arr[s.matrix_array() == 0] > 0).any()
            or np.abs(arr.sum(axis=1) - 1.0).max() > VALIDATION_TOL):
        raise ValueError(f"P is not a {s.k}x{s.k} stochastic matrix on the shift's transitions")
    if pi is None:
        inv = perron(arr)[1]
        if inv is None:
            raise ValueError("P has more than one stationary vector")
        pi = inv[-1, :-1]
    stat = np.array(pi, dtype=float)
    if (stat.shape != (s.k,) or not np.isfinite(stat).all()
            or abs(stat.sum() - 1.0) > VALIDATION_TOL):
        raise ValueError(f"pi must be {s.k} finite numbers summing to 1")
    if np.max(np.abs(stat @ arr - stat)) > 1e-10:
        raise ValueError("pi is not stationary for P")
    return MarkovMeasure(shift=s, P=tuple(tuple(float(x) for x in row) for row in arr),
                         pi=tuple(float(x) for x in stat))


def periodic_measure(s: ShiftSpace, cycle: Sequence[int]) -> PeriodicMeasure:
    w = tuple(cycle)
    if not is_cyclically_admissible(w, s):
        raise NotAdmissible(f"cycle {w} is not cyclically admissible")
    return PeriodicMeasure(shift=s, cycle=w)


def mixture(weights: Sequence[float], components: Sequence[InvariantMeasure]) -> Mixture:
    w = tuple(float(x) for x in weights)
    if len(w) != len(components) or len(w) == 0:
        raise ValueError("weights and components must align and be nonempty")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    if abs(sum(w) - 1.0) > VALIDATION_TOL:
        raise ValueError(f"weights sum to {sum(w)}, not 1")
    return Mixture(weights=w, components=tuple(components))


def equilibrium_measure(s: ShiftSpace, b: np.ndarray) -> MarkovMeasure:
    """The Markov measure built from the Perron data of B >= 0 on A's edges.

    With Perron root lambda and right/left Perron vectors v, u of an
    irreducible B, from one shifts.perron solve: P_ij = B_ij v_j / (lambda v_i)
    and pi_i ~ u_i v_i.  B = A gives the Parry measure, B = A o exp(q phi) the
    equilibrium state of q phi for a range-2 potential phi (Parry 1964;
    Walters, ch. 9).
    """
    lam, inv = perron(b)
    right, left = inv[:-1, -1], inv[-1, :-1]
    p = b * right / (lam * right[:, None])
    p /= p.sum(axis=1, keepdims=True)  # scrub rounding so rows sum to 1 exactly
    uv = left * right
    return markov_measure(s, p, uv / uv.sum())


def parry_measure(s: ShiftSpace) -> MarkovMeasure:
    """The maximal-entropy Markov measure: P_ij = A_ij v_j / (lambda v_i)."""
    if not s.is_primitive:
        raise NotPrimitive("maximal-entropy measure needs a primitive matrix")
    return equilibrium_measure(s, s.matrix_array())


def entropy(m: InvariantMeasure) -> float:
    """Metric entropy; affine over mixtures, zero on periodic orbits."""
    if isinstance(m, MarkovMeasure):
        total = 0.0
        for i in range(m.shift.k):
            for j in range(m.shift.k):
                pij = m.P[i][j]
                if pij > 0:
                    total -= m.pi[i] * pij * math.log(pij)
        return total
    if isinstance(m, PeriodicMeasure):
        return 0.0
    return sum(w * entropy(c) for w, c in zip(m.weights, m.components))


def markov_word_probability(m: MarkovMeasure, w: Word) -> float:
    """Stationary probability of the cylinder [w] under (pi, P)."""
    p = m.pi[w[0]]
    for a, b in zip(w, w[1:]):
        p *= m.P[a][b]
    return p


def integrate(m: InvariantMeasure, phi: Potential) -> float:
    """Expectation of phi; linear over mixtures."""
    if isinstance(m, MarkovMeasure):
        total = 0.0
        for w, v in phi.table.items():
            if v != 0.0:
                if any(not 0 <= c < m.shift.k for c in w):
                    raise RangeMismatch(f"table word {w} outside alphabet of size {m.shift.k}")
                total += markov_word_probability(m, w) * v
        return total
    if isinstance(m, PeriodicMeasure):
        cyc = m.cycle
        p = len(cyc)
        ext = cyc * (phi.range // p + 2)
        return sum(phi.value(ext[i:i + phi.range]) for i in range(p)) / p
    return sum(w * integrate(c, phi) for w, c in zip(m.weights, m.components))


def support(m: InvariantMeasure) -> SupportGraph:
    """Symbols/edges of positive probability; union over mixtures."""
    if isinstance(m, MarkovMeasure):
        symbols = frozenset(i for i in range(m.shift.k) if m.pi[i] > 0)
        edges = frozenset((i, j) for i in symbols for j in range(m.shift.k)
                          if m.pi[i] * m.P[i][j] > 0)
        return SupportGraph(symbols, edges)
    if isinstance(m, PeriodicMeasure):
        cyc = m.cycle
        edges = frozenset((cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
        return SupportGraph(frozenset(cyc), edges)
    out = support(m.components[0])
    for c in m.components[1:]:
        out = out.union(support(c))
    return out


def support_pieces(m: InvariantMeasure) -> list[SupportGraph]:
    """Supports of the ergodic components, kept separate.

    A union of strongly connected pieces can fill the whole edge set while
    the corresponding closed invariant set stays proper, so properness and
    disjointness questions are answered on pieces, never on the union.
    """
    if isinstance(m, Mixture):
        pieces = []
        for c in m.components:
            pieces.extend(support_pieces(c))
        uniq = []
        for p in pieces:
            if p not in uniq:
                uniq.append(p)
        return uniq
    return [support(m)]


def has_full_support(m: InvariantMeasure, s: ShiftSpace) -> bool:
    """Whether the closed support is the whole shift.

    A periodic orbit is always a proper subset (the ambient is infinite),
    even when its cycle happens to traverse every edge.  A Markov component
    fills the shift exactly when every allowed edge carries probability.
    For a mixing ambient a finite union of proper closed invariant pieces
    stays proper, so a mixture is full iff some component is.
    """
    if isinstance(m, PeriodicMeasure):
        return False
    if isinstance(m, MarkovMeasure):
        return support(m).is_full(s)
    return any(has_full_support(c, s) for c in m.components)


def supports_disjoint(m1: InvariantMeasure, m2: InvariantMeasure) -> bool:
    """Edge-disjointness of supports; implies the subshifts share no point."""
    e1 = support(m1).edges
    e2 = support(m2).edges
    return not (e1 & e2)


def piece_is_single_orbit(p: SupportGraph) -> bool:
    """True when the piece is one cycle, i.e. a minimal finite subshift."""
    outdeg: dict[int, int] = {}
    for i, _ in p.edges:
        outdeg[i] = outdeg.get(i, 0) + 1
    return all(outdeg.get(i, 0) == 1 for i in p.symbols)


def is_ergodic(m: InvariantMeasure) -> bool:
    """Markov: support strongly connected.  Mixtures of distinct parts: no."""
    if isinstance(m, PeriodicMeasure):
        return True
    if isinstance(m, MarkovMeasure):
        g = support(m)
        nodes = sorted(g.symbols)
        mat = [[1 if (i, j) in g.edges else 0 for j in nodes] for i in nodes]
        comps = strongly_connected_components(mat)
        return len(comps) == 1
    if len(m.components) == 1:
        return is_ergodic(m.components[0])
    return False


def sample_typical_word(m: InvariantMeasure, n: int, seed: int,
                        start: Optional[int] = None) -> np.ndarray:
    """Deterministic n-word typical for the measure, as an int64 array.

    Markov chains draw the start symbol from pi (unless fixed) and walk the
    rows of P: step t moves from state i to the first j with u_t < c_i[j],
    where c_i is row i of P accumulated left to right (its last entry
    raised to just above 1) and u_t is output t of the documented
    splitmix64 stream for `seed`.  Periodic measures repeat their cycle.
    The same (m, n, seed, start) always gives the same word, and a longer
    draw extends a shorter one.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if isinstance(m, PeriodicMeasure):
        return np.tile(np.array(m.cycle, dtype=np.int64), -(-n // len(m.cycle)))[:n]
    if isinstance(m, Mixture):
        raise ValueError("mixtures are realized by scheduling, not direct sampling")
    us = rng.uniform_stream(seed, n)
    k = m.shift.k
    cum_rows = [list(accumulate(row))[:-1] + [1.0 + 1e-15] for row in m.P]
    if start is None:
        acc = 0.0
        u = float(us[0])
        state = k - 1
        for i in range(k):
            acc += m.pi[i]
            if u < acc:
                state = i
                break
    else:
        state = start
    word = np.empty(n, dtype=np.int64)
    word[0] = state
    word[1:] = _walk(cum_rows, state, us[1:])
    return word


def _walk(cum_rows: list[list[float]], state: int, us: np.ndarray) -> np.ndarray:
    """States after each step of the chain that moves from i to
    searchsorted(cum_rows[i], u, side="right") on uniform u, from `state`.

    Step t is a map f_t on the k states.  The steps are cut into blocks of
    b ~ sqrt(len(us)) steps; b vectorised passes compose every block's maps
    for all entry states at once (parallel prefix over function composition,
    Hillis & Steele 1986, done blockwise), a loop over the blocks chains
    their entry states, and one gather reads the walk off the prefixes.
    """
    k = len(cum_rows)
    steps = len(us)
    b = max(1, math.isqrt(steps))
    blocks = -(-steps // b)
    # Each row's searchsorted changes value only at the rows' own entries,
    # so f_t depends only on bucket_t = #{edges <= u_t}: f_t = table[bucket_t].
    # One bucket past the last real one is the identity map that pads the
    # final block.
    edges = np.unique(np.array(cum_rows))
    table = np.empty((len(edges) + 2, k), dtype=np.min_scalar_type(k - 1))
    table[0] = 0
    for i, row in enumerate(cum_rows):
        table[1:-1, i] = np.searchsorted(row, edges, side="right")
    table[-1] = np.arange(k)
    bucket = np.full(blocks * b, len(edges) + 1, dtype=np.min_scalar_type(len(edges) + 1))
    bucket[:steps] = 0
    for edge in edges:
        bucket[:steps] += us >= edge
    # prefix[s, j, i]: state after s + 1 steps of block j entered in state i
    prefix = table.take(bucket.reshape(blocks, b).T, axis=0)
    flat = (np.arange(blocks) * k)[:, None]
    idx = np.empty((blocks, k), dtype=np.intp)
    for s in range(1, b):
        np.add(flat, prefix[s - 1], out=idx)
        prefix[s] = prefix[s].take(idx)
    block_map = prefix[-1].tolist()
    entries = np.empty(blocks, dtype=np.intp)
    for j in range(blocks):
        entries[j] = state
        state = block_map[j][state]
    return prefix[:, np.arange(blocks), entries].T.reshape(-1)[:steps]
