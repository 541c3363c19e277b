"""Shift spaces of finite type: admissibility, counting, entropy, bridges, cycles.

A shift space is a finite alphabet {0..k-1} with a 0/1 transition matrix A;
the points are one-sided sequences whose consecutive pairs are allowed by A.
Distances follow d(x,y) = 2^(-min{n : x_n != y_n}), so the epsilon-ball of
radius 2^(-l) around x is exactly the cylinder on x_0..x_l.  All logarithms
are natural.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EmptyShift, NoProperSubshift, NotAdmissible, NotPrimitive, SymbolOutOfRange

Word = tuple[int, ...]
#: the dtype of every symbol stream: one byte per symbol, alphabets up to 256
SYMBOL_DTYPE = np.uint8

#: proper-subgraph entropies this close to the best one count as tied
SUBGRAPH_TIE_TOL = 1e-12


def parse_word(text: str) -> Word:
    """Parse a word given as a string of decimal digits, e.g. "0101"."""
    return tuple(int(c) for c in text)


def format_word(w: Sequence[int]) -> str:
    return "".join(str(c) for c in w)


@dataclass(frozen=True)
class ShiftSpace:
    """A one-sided subshift of finite type on k symbols.

    matrix is stored as a tuple of tuples of 0/1 ints (immutable, exact).
    primitive_gap is the least M with A^M entrywise positive, or None if the
    matrix is not primitive.  bridge_table caches connecting_word: entry
    (i, j) holds the M interior symbols of the lexicographically smallest
    admissible path from i to j with exactly M + 1 edges (one exists because
    A^(M+1) is positive too).  reach_table caches, per target j, the reach
    rows _reach(A, M, j) that every source's bridge to j walks.
    """

    k: int
    matrix: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None
    primitive_gap: Optional[int] = None
    bridge_table: dict[tuple[int, int], Word] = field(default_factory=dict, compare=False)
    reach_table: dict[int, list[int]] = field(default_factory=dict, compare=False)

    @property
    def is_primitive(self) -> bool:
        return self.primitive_gap is not None

    def matrix_array(self) -> np.ndarray:
        a = np.array(self.matrix, dtype=np.float64)
        a.flags.writeable = False
        return a

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.k) for j in range(self.k) if self.matrix[i][j]]

    @cached_property
    def count_recurrence(self) -> tuple[list[int], list[int], list[int]]:
        """(chi, words, traces), made on the first count and kept: the
        coefficients c_0..c_k of chi_A, and 1^T A^i 1 and tr A^i for i < k,
        the seeds of both exact counts.

        The traces follow from chi_A by Newton's identities,
        tr A^i = -(i c_(k-i) + sum_(j<i) c_(k-j) tr A^(i-j)).
        """
        chi = characteristic_polynomial(self.matrix)
        k = self.k
        words, traces, v = [], [k], [1] * k
        for _ in range(k):
            words.append(sum(v))
            v = [sum(map(mul, row, v)) for row in self.matrix]
        for i in range(1, k):
            traces.append(-(i * chi[k - i] + sum(chi[k - j] * traces[i - j] for j in range(1, i))))
        return chi, words, traces


def _trim(matrix: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Iteratively delete symbols with a zero row or zero column.

    Returns the trimmed matrix and the surviving original indices, in order.
    """
    keep = list(range(len(matrix)))
    while keep:
        sub = [[matrix[i][j] for j in keep] for i in keep]
        dead = [idx for idx, i in enumerate(keep)
                if not any(sub[idx]) or not any(row[idx] for row in sub)]
        if not dead:
            return sub, keep
        dead_set = set(dead)
        keep = [i for idx, i in enumerate(keep) if idx not in dead_set]
    return [], []


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product through float BLAS (exact: entries count <= k paths)."""
    return np.matmul(a, b, dtype=np.float64) > 0


def _primitive_gap(a: np.ndarray) -> Optional[int]:
    """The least M >= 1 with A^M > 0 for a trimmed A; None when A is not primitive.

    Wielandt's bound decides first: a primitive k x k matrix has
    A^((k-1)^2+1) > 0 (Lind & Marcus 4.5), and as A has no zero row a
    positive power stays positive, so squaring past that exponent suffices.
    The same monotonicity lets a binary descent over the kept squarings
    A^(2^t) find the last exponent m with A^m not positive; M = m + 1.
    """
    k = a.shape[0]
    squares = [a]
    while 2 ** (len(squares) - 1) < (k - 1) ** 2 + 1:
        squares.append(_bool_product(squares[-1], squares[-1]))
    if not squares[-1].all():
        return None
    power, m = np.eye(k, dtype=bool), 0
    for t in range(len(squares) - 1, -1, -1):
        step = _bool_product(power, squares[t])
        if not step.all():
            power, m = step, m + 2 ** t
    return m + 1


def _masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int: bit t is column t."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _reach(a: np.ndarray, gap: int, j: int) -> list[int]:
    """Entry r - 1, for r = 1..gap, is the column A^r[:, j] as a bitmask.

    The columns come backward, one k-vector step each, and serve every
    source: the k^2 bridges of a k-symbol shift take k passes, not k^2.
    """
    reach = np.empty((gap, len(a)), dtype=bool)
    column = np.arange(len(a)) == j
    for r in range(gap):
        column = reach[r] = a @ column
    return _masks(reach)


def _connector(successors: list[int], reach: list[int], i: int) -> Word:
    """Interior of the lexicographically least (gap+1)-edge path from i to
    the target j of reach = _reach(A, gap, j).

    With r edges left after the next one, the walk takes its least
    successor t with A^r[t, j]: the lowest bit of successors[i] & reach[r - 1].
    """
    word = []
    for row in reversed(reach):
        options = successors[i] & row
        i = (options & -options).bit_length() - 1
        word.append(i)
    return tuple(word)


def sft_from_matrix(k: int, matrix: Sequence[Sequence[int]],
                    labels: Optional[Sequence[str]] = None) -> ShiftSpace:
    """Build a ShiftSpace, trimming stranded symbols and probing primitivity.

    Symbols whose row or column is all zero cannot appear in any point and
    are removed (iteratively, reindexing the survivors in order).  Raises
    EmptyShift if nothing survives.  A missing primitive_gap is a flag, not
    an error: non-mixing shifts still support counting and entropy.
    """
    if len(matrix) != k or any(len(r) != k for r in matrix):
        raise ValueError(f"matrix must be {k}x{k}")
    if any(x not in (0, 1) for row in matrix for x in row):
        raise ValueError("matrix entries must be 0 or 1")
    rows = [list(map(int, row)) for row in matrix]
    if labels is not None and len(labels) != k:
        raise ValueError(f"{len(labels)} labels for {k} symbols")
    trimmed, survivors = _trim(rows)
    if not survivors:
        raise EmptyShift("no symbol has both an outgoing and incoming transition")
    return ShiftSpace(k=len(survivors), matrix=tuple(tuple(row) for row in trimmed),
                      labels=tuple(labels[i] for i in survivors) if labels is not None else None,
                      primitive_gap=_primitive_gap(np.array(trimmed, dtype=bool)))


def full_shift(k: int) -> ShiftSpace:
    return sft_from_matrix(k, [[1] * k for _ in range(k)])


def golden_mean_shift() -> ShiftSpace:
    """Two symbols, word 11 forbidden."""
    return sft_from_matrix(2, [[1, 1], [1, 0]])


def check_symbols(w: Sequence[int], k: int) -> None:
    for c in w:
        if not 0 <= c < k:
            raise SymbolOutOfRange(f"symbol {c} outside alphabet of size {k}")


def is_admissible(w: Sequence[int], s: ShiftSpace) -> bool:
    """Language membership; empty and length-1 words are admissible."""
    check_symbols(w, s.k)
    return all(s.matrix[w[i]][w[i + 1]] for i in range(len(w) - 1))


def is_cyclically_admissible(w: Sequence[int], s: ShiftSpace) -> bool:
    """Admissible including the wrap-around transition w[-1] -> w[0]."""
    if len(w) == 0:
        return False
    return is_admissible(w, s) and bool(s.matrix[w[-1]][w[0]])


def characteristic_polynomial(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Integer coefficients c_0, ..., c_k = 1 of chi_A(x) = det(xI - A).

    Faddeev-LeVerrier: with M_1 = I, c_(k-j) = -tr(A M_j) / j and
    M_(j+1) = A M_j + c_(k-j) I.  Each division is exact, as c_(k-j) is an
    integer for an integer A.
    """
    k = len(matrix)
    chi = [0] * k + [1]
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for j in range(1, k + 1):
        cols = list(zip(*m))
        am = [[sum(map(mul, row, col)) for col in cols] for row in matrix]
        chi[k - j] = -sum(am[i][i] for i in range(k)) // j
        m = [[x + chi[k - j] * (i == c) for c, x in enumerate(row)] for i, row in enumerate(am)]
    return chi


def _power_mod(chi: list[int], m: int) -> list[int]:
    """Coefficients r_0..r_(k-1) of x^m mod chi, for a monic chi of degree k.

    Left-to-right square-and-multiply (Fiduccia 1985).  A squaring takes the
    products of nonzero coefficient pairs once each, and a multiplication by
    x is a shift; reducing the result takes only multiples of chi's small
    coefficients, one row per degree above k - 1.
    """
    k = len(chi) - 1
    low = [(i, c) for i, c in enumerate(chi[:k]) if c]
    r = [1] + [0] * (k - 1)
    for bit in bin(m)[2:]:
        nz = [(i, u) for i, u in enumerate(r) if u]
        r = [0] * (2 * k - 1)
        for a, (i, u) in enumerate(nz):
            r[2 * i] += u * u
            u2 = u << 1
            for j, v in nz[a + 1:]:
                r[i + j] += u2 * v
        if bit == "1":
            r.insert(0, 0)
        for d in range(len(r) - 1, k - 1, -1):
            top = r.pop()
            if top:
                for i, c in low:
                    r[d - k + i] -= top * c
    return r


def count_words(s: ShiftSpace, n: int) -> int:
    """Exact number of admissible n-words, 1^T A^(n-1) 1.

    By Cayley-Hamilton A^m = sum_i r_i A^i with x^m mod chi_A = sum_i r_i x^i,
    so the count is the same combination of 1^T A^i 1 for i < k.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    chi, words, _ = s.count_recurrence
    return sum(r * w for r, w in zip(_power_mod(chi, n - 1), words))


def count_periodic(s: ShiftSpace, n: int) -> int:
    """Exact number of points with period dividing n, tr A^n: as count_words,
    the combination of tr A^i for i < k given by x^n mod chi_A."""
    if n < 1:
        raise ValueError("n >= 1 required")
    chi, _, traces = s.count_recurrence
    return sum(r * t for r, t in zip(_power_mod(chi, n), traces))


def strongly_connected_components(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Classes of mutual reachability, each ascending, ordered by least member.

    Reachability is the closure (I + A)^(2^t) with 2^t >= k, by t squarings.
    """
    k = len(matrix)
    reach = np.eye(k, dtype=bool) | np.array(matrix, dtype=bool)
    for _ in range((k - 1).bit_length()):
        reach = _bool_product(reach, reach)
    classes: dict[int, list[int]] = {}
    for i, least in enumerate((reach & reach.T).argmax(axis=1).tolist()):
        classes.setdefault(least, []).append(i)
    return list(classes.values())


def perron(b: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Perron root rho of a square B >= 0 and the inverse of the bordered
    matrix M = [[B - rho I, 1], [1^T, 0]].

    rho(B) is an eigenvalue of B (Perron-Frobenius) and no eigenvalue has a
    larger real part, so rho is the largest real part of one dense eigvals
    call.  When rho is a simple root (B irreducible, for one) M^-1 holds the
    right Perron vector r (last column) and the left one l (last row), both
    summing to 1, and in its leading k x k block a generalized inverse G of
    B - rho I.  In place of M^-1 comes an all-NaN array when M is singular,
    which happens exactly when rho is not a simple root.

    A stack B of shape (n, k, k) gives the n roots as an array and the n
    inverses in one (n, k+1, k+1) array, each from the same LAPACK calls a
    single B makes.
    """
    stack = b if b.ndim == 3 else b[None]
    k = stack.shape[-1]
    rho = np.linalg.eigvals(stack).real.max(axis=-1)
    border = np.zeros((len(stack), k + 1, k + 1))
    border[:, :k, :k] = stack - rho[:, None, None] * np.eye(k)
    border[:, :k, k] = border[:, k, :k] = 1.0
    try:
        inv = np.linalg.inv(border)
    except np.linalg.LinAlgError:
        # one singular member fails the whole batch: invert one at a time
        inv = np.full(border.shape, np.nan)
        for i, m in enumerate(border):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(m)
    return (float(rho[0]), inv[0]) if b.ndim == 2 else (rho, inv)


def topological_entropy(s: ShiftSpace) -> float:
    """log of the spectral radius of A, the largest over its components
    (perron's root, also when A is reducible).

    Constant row sums give the spectral radius exactly (covers full shifts).
    """
    row_sums = {sum(row) for row in s.matrix}
    lam = row_sums.pop() if len(row_sums) == 1 else perron(s.matrix_array())[0]
    return float(np.log(lam)) if lam > 0 else 0.0


def connecting_word(s: ShiftSpace, a: int, b: int) -> Word:
    """The M interior symbols gluing a segment ending in a to one starting with b.

    M = primitive_gap, so segment windows sit exactly M apart, matching the
    uniform-gap gluing that mixing shifts support.  Deterministic: the
    interior of the lexicographically smallest (M+1)-edge path a -> b.
    """
    if not s.is_primitive:
        raise NotPrimitive("bridging requires a primitive shift")
    check_symbols((a, b), s.k)
    if (a, b) not in s.bridge_table:
        m = np.array(s.matrix, dtype=bool)
        if b not in s.reach_table:
            s.reach_table[b] = _reach(m, s.primitive_gap, b)
        s.bridge_table[(a, b)] = _connector(_masks(m), s.reach_table[b], a)
    return s.bridge_table[(a, b)]


def iter_words(s: ShiftSpace, n: int) -> Iterator[Word]:
    """All admissible n-words, lexicographic, by depth-first extension."""
    if n == 0:
        yield ()
        return
    stack: list[Word] = [(c,) for c in range(s.k - 1, -1, -1)]
    while stack:
        w = stack.pop()
        if len(w) == n:
            yield w
            continue
        last = w[-1]
        for c in range(s.k - 1, -1, -1):
            if s.matrix[last][c]:
                stack.append(w + (c,))


def primitive_cycles(s: ShiftSpace, max_period: int) -> Iterator[Word]:
    """All cyclically admissible aperiodic necklaces with period <= max_period,
    each as its least rotation (a Lyndon word), lazily in (period, word) order.

    Per period, a depth-first search over admissible prenecklaces
    (Fredricksen-Kessler-Maiorana): w with longest Lyndon prefix of length q
    extends by c >= w[-q], keeping q when c == w[-q], else becoming Lyndon.
    """
    for p in range(1, max_period + 1):
        stack = [((c,), 1) for c in range(s.k - 1, -1, -1)]
        while stack:
            w, q = stack.pop()
            if len(w) == p:
                if q == p and s.matrix[w[-1]][w[0]]:
                    yield w
                continue
            for c in range(s.k - 1, w[-q] - 1, -1):
                if s.matrix[w[-1]][c]:
                    stack.append((w + (c,), q if c == w[-q] else len(w) + 1))


def least_cycle(adjacency: Sequence[Sequence[int]]) -> Optional[Word]:
    """The least node sequence among the graph's shortest cycles, or None.

    The shortest length L is the first power of A with a nonzero diagonal; a
    closed L-edge walk is a simple cycle, so from the least diagonal node a
    the cycle is a, then the interior of the least L-edge path a -> a.
    """
    a = power = np.array(adjacency, dtype=bool)
    for length in range(1, len(a) + 1):
        if power.diagonal().any():
            start = int(power.diagonal().argmax())
            return (start,) + _connector(_masks(a), _reach(a, length - 1, start), start)
        power = _bool_product(power, a)
    return None


def cycle_word_for(s: ShiftSpace, w: Word) -> Word:
    """A cyclically admissible word containing w, closing it with a bridge."""
    if not is_admissible(w, s):
        raise NotAdmissible(format_word(w))
    if is_cyclically_admissible(w, s):
        return w
    return w + connecting_word(s, w[-1], w[0])


def largest_proper_scc_subgraph(
    s: ShiftSpace) -> tuple[tuple[int, ...], frozenset[tuple[int, int]], float]:
    """The proper strongly connected subgraph of positive entropy with the
    largest growth rate.

    Entropies within SUBGRAPH_TIE_TOL of the best count as tied, and the
    tie breaks toward the lexicographically smallest sorted edge set, so
    rounding in the eigenvalues never picks among exactly tied subgraphs.
    Returns (symbols, edges, log growth).  A subgraph that is a bare cycle
    does not qualify, and NoProperSubshift is raised when nothing better
    exists; e.g. A = [[1,1],[1,0]] only has the 0-loop.

    Only the strongly connected components of A minus one edge are scanned,
    which is exact: a proper strongly connected subgraph H misses some edge
    e, so it lies inside one component C of A - e, and if H != C then
    rho(H) < rho(C), because removing part of an irreducible graph strictly
    lowers its spectral radius (Perron-Frobenius; Lind & Marcus 4.4).  Every
    maximiser is therefore such a C.
    """
    scored = []
    for drop in s.edges():
        mat = [[1 if (i, j) != drop and s.matrix[i][j] else 0 for j in range(s.k)]
               for i in range(s.k)]
        for comp in strongly_connected_components(mat):
            edge_set = frozenset((i, j) for i in comp for j in comp if mat[i][j])
            if not edge_set:
                continue
            sub = np.array([[1.0 if (i, j) in edge_set else 0.0 for j in comp] for i in comp])
            ent = float(np.log(perron(sub)[0]))
            if ent > 1e-12:
                scored.append((sorted(edge_set), ent, tuple(comp), edge_set))
    if not scored:
        raise NoProperSubshift("no proper strongly connected subgraph with positive entropy")
    top = max(ent for _, ent, _, _ in scored)
    _, ent, nodes, edge_set = min((c for c in scored if c[1] >= top - SUBGRAPH_TIE_TOL),
                                  key=lambda c: c[0])
    return nodes, edge_set, ent


def subshift_from_edges(s: ShiftSpace, edges: frozenset[tuple[int, int]]) -> tuple[ShiftSpace, list[int]]:
    """ShiftSpace on the subgraph's symbols; returns it plus the symbol map."""
    nodes = sorted({i for i, _ in edges} | {j for _, j in edges})
    mat = [[1 if (a, b) in edges else 0 for b in nodes] for a in nodes]
    return sft_from_matrix(len(nodes), mat), nodes
