"""Exact invariant measures on SFTs and their entropy/integral/support arithmetic.

Three measure kinds cover everything the witness constructions need:
memory-1 Markov measures (including the maximal-entropy one), periodic-orbit
measures, and finite convex mixtures.  Entropy is affine over mixtures and
integrals are linear, so every derived fact is closed-form.

Typical words of a Markov measure come from one walk kernel and one entry,
sample_typical_words: all segments of one measure are sampled together,
and each segment's symbols are exactly those of sampling it alone
(sample_typical_words(m, [n], [seed])), whatever else is sampled with it.
A periodic measure's typical word is its cycle repeated.  A memoryless
chain, one whose rows of P all have the same thresholds (a Bernoulli
measure such as the full 2-shift's Parry measure), skips the walk's prefix
scan: every step map is constant, so each state is one table lookup.  A
walk longer than one chunk makes its chunk buffers (random bits, step
maps) once and reuses them for every chunk.  A stream said to hold such
words is checked step by step against the walk's maps, which does not
replay the walk (walk_mismatch).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import rng
from .errors import NotAdmissible, NotPrimitive, RangeMismatch
from .shifts import (SYMBOL_DTYPE, ShiftSpace, Word, count_words, is_admissible,
                     is_cyclically_admissible, iter_words, perron, strongly_connected_components)

VALIDATION_TOL = 1e-12


@dataclass(frozen=True)
class Potential:
    """Locally constant observable of finite range r, keyed by r-words."""

    range: int
    table: dict[Word, float] = field(compare=False)

    def __post_init__(self):
        if self.range < 1:
            raise ValueError("range >= 1 required")


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


# A | union, not typing.Union: typing caches every Union it builds, so a
# re-imported module would stay alive through its old classes.
InvariantMeasure = MarkovMeasure | PeriodicMeasure | Mixture


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
        pi = perron(arr)[1][-1, :-1]
        if np.isnan(pi).all():
            raise ValueError("P has more than one stationary vector")
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
        return sum(phi.table[ext[i:i + phi.range]] for i in range(p)) / p
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


#: steps of a walk drawn per pass.  A chunk takes about 26 bytes a step
#: (outputs, their scratch, the counter ramp, step maps, comparisons), so
#: 2^16 steps keep it within a 2 MB L2 cache; at 2^17 splitmix64 costs
#: 6.1 ns an output, at 2^16 4.8 ns
SAMPLE_CHUNK = 1 << 16
#: maps composed per block at each level of the walk's prefix scan
SCAN_RADIX = 32


def sample_typical_words(m: MarkovMeasure, lengths: Sequence[int],
                         seeds: Sequence[int]) -> np.ndarray:
    """Deterministic words typical for m, one per (lengths[i], seeds[i]),
    concatenated into one SYMBOL_DTYPE array.

    A segment of length n with seed s draws its start symbol from pi and
    walks the rows of P: step t moves from state i to the first j with
    u_t < c_i[j], where c_i is row i of P accumulated left to right (its
    last entry raised to just above 1) and u_t is output t of the
    documented splitmix64 stream for s.  The same (m, n, s) always gives
    the same word, and a longer draw extends a shorter one.

    All segments of the measure are walked together, SAMPLE_CHUNK steps at
    a time (_walk_chunks).  Step t of a segment is a map f_t on the k
    states, and a segment's first step is the constant map to its start
    symbol, so a chunk is one composition f_t o ... o f_0, read off by one
    prefix scan (_scan), or by one gather when every step map is constant.
    Each segment's symbols are exactly those of sampling it alone, so a
    certificate stays recomputable segment by segment.
    """
    out = np.empty(int(sum(lengths)), dtype=SYMBOL_DTYPE)
    for a, b, g, table in _walk_chunks(m, lengths, seeds):
        out[a:b] = _scan(table, g, int(out[a - 1]) if a else 0)
    return out


def walk_mismatch(m: MarkovMeasure, word: np.ndarray, starts: Sequence[int],
                  lengths: Sequence[int], seeds: Sequence[int]) -> int:
    """The first index of `word` where it differs from the walks of
    sample_typical_words(m, lengths, seeds), or -1 when it holds them all:
    segment i stands at word[starts[i]:starts[i] + lengths[i]], the starts
    ascending.

    The walk is not replayed.  Step t is right exactly when its map takes
    the word's previous symbol to the word's symbol, table[g_t, x_{t-1}]
    == x_t; a segment's first step is a constant map, so it reads no
    previous symbol.  Every step before the first wrong one matches the
    walk, so by induction the first wrong step is the first symbol where
    the word and the walk differ.  Each chunk joins its segments' slices
    once, for one gather and one compare; a memoryless walk (every map
    constant) gathers the table's first column, reading no previous symbol.
    """
    offsets = [0, *itertools.accumulate(lengths)]
    k = m.shift.k
    for a, b, g, table in _walk_chunks(m, lengths, seeds):
        spans = range(bisect.bisect_right(offsets, a) - 1, bisect.bisect_left(offsets, b))
        x = np.concatenate([word[starts[j] + max(offsets[j], a) - offsets[j]:
                                 starts[j] + min(offsets[j + 1], b) - offsets[j]] for j in spans])
        if (table == table[:, :1]).all():
            miss = table[:, 0].take(g) != x
        else:
            flat = table.reshape(-1)
            i = np.multiply(g, k, dtype=np.min_scalar_type(len(flat) - 1))   # narrowest g k + x
            i[1:] += x[:-1]
            i[0] += word[starts[spans[0]] + a - offsets[spans[0]] - 1]   # any symbol at a start
            miss = flat.take(i) != x
        if miss.any():
            t = a + int(miss.argmax())
            j = bisect.bisect_right(offsets, t) - 1
            return starts[j] + t - offsets[j]
    return -1


def _walk_chunks(m: MarkovMeasure, lengths: Sequence[int], seeds: Sequence[int]
                 ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The walk of sample_typical_words(m, lengths, seeds), one chunk at a
    time: (a, b, g, table) for its steps a .. b - 1, where step t maps
    state i to table[g[t - a], i].  g is a buffer the next chunk overwrites.

    The chunk buffers are allocated once per walk, and none outlives it.
    With bits the raw splitmix64 output and u = (bits >> 11) / 2^53 its
    uniform, u >= c exactly when bits >= ceil(c 2^53) 2^11; so each step's
    map is picked by integer comparisons on the raw outputs.
    """
    n_seg = len(lengths)
    lens = np.array(lengths, dtype=np.int64)
    if n_seg != len(seeds) or (lens < 1).any():
        raise ValueError("one seed and a length >= 1 per segment required")
    k = m.shift.k
    if k > np.iinfo(SYMBOL_DTYPE).max + 1:
        raise ValueError(f"{k} symbols do not fit in {np.dtype(SYMBOL_DTYPE)}")
    rows = _thresholds(m.P + (m.pi,))  # each row of P, then pi
    edges, table = _step_maps(rows[:-1])
    pi_edges = _bits(rows[-1])
    offsets = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    seed_arr = np.array([int(x) % (1 << 64) for x in seeds], dtype=np.uint64)
    total = int(offsets[-1])
    # A walk of one chunk has nothing to reuse, and splitmix64_runs then
    # makes two arrays, not three, and frees one before the scan: passing
    # buffers there too made a witness-ambients benchmark round (walks of
    # at most 2^16 steps) about 7% slower.
    size = min(SAMPLE_CHUNK, total)
    buffers = rng.run_buffers(size) if total > SAMPLE_CHUNK else None
    maps = np.empty(size, dtype=np.min_scalar_type(len(table) - 1))
    reached = np.empty(size, dtype=bool)
    for a in range(0, total, SAMPLE_CHUNK):
        b = min(a + SAMPLE_CHUNK, total)
        first = int(offsets.searchsorted(a, side="right")) - 1
        last = int(offsets.searchsorted(b, side="left"))
        starts = offsets[first:last]   # of the segments with steps in [a, b)
        lo = np.maximum(starts, a)
        u = rng.splitmix64_runs(seed_arr[first:last], lo - starts + 1,
                                np.minimum(offsets[first + 1:last + 1], b) - lo, buffers)
        # map of each step: the number of thresholds its output reaches
        g = maps[:b - a]
        g.fill(0)
        for edge in edges:
            g += np.greater_equal(u, edge, out=reached[:b - a])
        heads = starts[starts >= a] - a
        g[heads] = len(edges) + 1 + np.searchsorted(pi_edges, u[heads], side="right")
        yield a, b, g, table


def _thresholds(probs) -> np.ndarray:
    """The thresholds of each probability row (last axis) of probs,
    scaled by 2^53: with c the running maximum of its partial sums,
    left to right and the last one dropped, the exact integers
    ceil(c_j 2^53) >= 0 as floats.  Those below 2^53 are the T_j / 2^11 of
    _bits; the number of T_j <= bits is the first j with u < c_j, or
    len - 1 when there is none.
    """
    c = np.maximum.accumulate(np.cumsum(probs, axis=-1)[..., :-1], axis=-1)
    c *= float(1 << 53)  # exact: scaling by a power of 2
    return np.maximum(np.ceil(c, out=c), 0.0, out=c)


def _bits(scaled: np.ndarray) -> np.ndarray:
    """The uint64 thresholds T_j = ceil(c_j 2^53) 2^11 of the scaled ones
    below 2^53, in order."""
    return scaled[scaled < float(1 << 53)].astype(np.uint64) << np.uint64(11)


def _step_maps(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From the _thresholds of the rows of P: the sorted distinct uint64
    thresholds of all rows, and the table of step maps: row b <=
    #thresholds is the map of a step whose output reaches b of them, and
    row #thresholds + 1 + c the constant map to c."""
    k = len(rows)
    edges = np.unique(rows[rows < float(1 << 53)])
    table = np.empty((len(edges) + 1 + k, k), dtype=SYMBOL_DTYPE)
    table[0] = 0
    for i, row in enumerate(rows):  # a row's entries past 2^53 lie above every edge
        table[1:len(edges) + 1, i] = np.searchsorted(row, edges, side="right")
    table[len(edges) + 1:] = np.arange(k)[:, None]
    return _bits(edges), table


def _scan(table: np.ndarray, g: np.ndarray, entry: int) -> np.ndarray:
    """The states of a walk entered in `entry` whose step t maps state i to
    table[g[t], i]: a radix-R blocked prefix scan over function composition
    (Hillis & Steele 1986; Blelloch 1990), R = SCAN_RADIX.

    When every map of the table is constant the walk forgets its state at
    each step, so its states are read off the table's first column by one
    gather (a memoryless chain, or block maps that each hold a constant
    step).  Otherwise R - 1 vectorised passes compose the maps of every
    block of R steps for all entry states at once; the blocks' entry states
    come from the same scan over the block maps, and one gather reads the
    walk off.  That is about R log_R(len(g)) passes; a walk of at most R^2
    steps, where the passes would cost more, is stepped in Python.
    """
    if (table == table[:, :1]).all():
        return table[:, 0].take(g)
    n = len(g)
    if n <= SCAN_RADIX ** 2:
        maps = table.tolist()
        walk = []
        for i in g.tolist():
            entry = maps[i][entry]
            walk.append(entry)
        return np.array(walk, dtype=table.dtype)
    k = table.shape[1]
    blocks = -(-n // SCAN_RADIX)
    padded = np.zeros(blocks * SCAN_RADIX, dtype=g.dtype)  # padding steps are never read
    padded[:n] = g
    # prefix[r, j, i]: state after r + 1 steps of block j entered in state i
    prefix = table.take(padded.reshape(blocks, SCAN_RADIX).T, axis=0)
    flat = np.repeat(np.arange(0, blocks * k, k), k).reshape(blocks, k)
    idx = np.empty((blocks, k), dtype=np.intp)
    for r in range(1, SCAN_RADIX):
        np.add(flat, prefix[r - 1], out=idx)
        prefix[r] = prefix[r].take(idx)
    entries = np.empty(blocks, dtype=np.intp)
    entries[0] = entry
    entries[1:] = _scan(prefix[-1, :-1], np.arange(blocks - 1), entry)
    return prefix[:, np.arange(blocks), entries].T.reshape(-1)[:n]
