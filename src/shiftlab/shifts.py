"""Shift spaces of finite type: admissibility, counting, entropy, bridges.

A shift space is a finite alphabet {0..k-1} with a 0/1 transition matrix A;
the points are one-sided sequences whose consecutive pairs are allowed by A.
Distances follow d(x,y) = 2^(-min{n : x_n != y_n}), so the epsilon-ball of
radius 2^(-l) around x is exactly the cylinder on x_0..x_l.  All logarithms
are natural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EmptyShift, NotAdmissible, NotPrimitive, SymbolOutOfRange

Word = tuple[int, ...]

#: Wielandt bound would be k^2 - 2k + 2; k^2 is the documented search cap.
_PRIMITIVITY_CAP_EXP = 2


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
    matrix is not primitive.  bridge_table[(i, j, l)] is the lexicographically
    smallest admissible path from i to j with exactly l edges (l-1 interior
    symbols), for every l in [primitive_gap, 2*primitive_gap].
    """

    k: int
    matrix: tuple[tuple[int, ...], ...]
    labels: Optional[tuple[str, ...]] = None
    primitive_gap: Optional[int] = None
    bridge_table: dict[tuple[int, int, int], Word] = field(default_factory=dict, compare=False)

    @property
    def is_primitive(self) -> bool:
        return self.primitive_gap is not None

    def matrix_array(self) -> np.ndarray:
        a = np.array(self.matrix, dtype=np.float64)
        a.flags.writeable = False
        return a

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.k) for j in range(self.k) if self.matrix[i][j]]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _int_matpow(a: list[list[int]], n: int) -> list[list[int]]:
    size = len(a)
    result = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [row[:] for row in a]
    while n:
        if n & 1:
            result = _int_matmul(result, base)
        base = _int_matmul(base, base)
        n >>= 1
    return result


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


def _positivity_gap(matrix: list[list[int]], cap: int) -> Optional[int]:
    """Least M <= cap with matrix^M entrywise positive (boolean arithmetic)."""
    k = len(matrix)
    boolean = [[1 if matrix[i][j] else 0 for j in range(k)] for i in range(k)]
    power = boolean
    for m in range(1, cap + 1):
        if all(all(row) for row in power):
            return m
        power = [[1 if any(x and y for x, y in zip(row, col)) else 0
                  for col in zip(*boolean)] for row in power]
    return None


def _reach_tables(matrix: tuple[tuple[int, ...], ...], max_len: int) -> list[list[list[bool]]]:
    """reach[r][i][j]: is there a path of exactly r edges from i to j."""
    k = len(matrix)
    reach = [[[i == j for j in range(k)] for i in range(k)]]
    for _ in range(max_len):
        prev = reach[-1]
        nxt = [[any(matrix[i][t] and prev[t][j] for t in range(k)) for j in range(k)]
               for i in range(k)]
        reach.append(nxt)
    return reach


def _lex_path(matrix: tuple[tuple[int, ...], ...], reach, i: int, j: int, length: int) -> Optional[Word]:
    """Lexicographically smallest path i -> j with exactly `length` edges."""
    if not reach[length][i][j]:
        return None
    path = [i]
    cur = i
    for remaining in range(length, 0, -1):
        for t in range(len(matrix)):
            if matrix[cur][t] and reach[remaining - 1][t][j]:
                path.append(t)
                cur = t
                break
        else:
            return None
    return tuple(path)


def sft_from_matrix(k: int, matrix: Sequence[Sequence[int]],
                    labels: Optional[Sequence[str]] = None) -> ShiftSpace:
    """Build a ShiftSpace, trimming stranded symbols and probing primitivity.

    Symbols whose row or column is all zero cannot appear in any point and
    are removed (iteratively, reindexing the survivors in order).  Raises
    EmptyShift if nothing survives.  A missing primitive_gap is a flag, not
    an error: non-mixing shifts still support counting and entropy.
    """
    rows = [list(map(int, row)) for row in matrix]
    if len(rows) != k or any(len(r) != k for r in rows):
        raise ValueError(f"matrix must be {k}x{k}")
    if any(x not in (0, 1) for row in rows for x in row):
        raise ValueError("matrix entries must be 0 or 1")
    trimmed, survivors = _trim(rows)
    if not survivors:
        raise EmptyShift("no symbol has both an outgoing and incoming transition")
    new_k = len(survivors)
    new_labels = None
    if labels is not None:
        new_labels = tuple(labels[i] for i in survivors)
    tup = tuple(tuple(row) for row in trimmed)
    gap = _positivity_gap(trimmed, new_k ** _PRIMITIVITY_CAP_EXP)
    table: dict[tuple[int, int, int], Word] = {}
    if gap is not None:
        reach = _reach_tables(tup, 2 * gap)
        for i in range(new_k):
            for j in range(new_k):
                for ell in range(gap, 2 * gap + 1):
                    path = _lex_path(tup, reach, i, j, ell)
                    if path is None:
                        raise NotPrimitive(
                            f"primitive gap {gap} found but no {ell}-edge path {i}->{j}")
                    table[(i, j, ell)] = path
    return ShiftSpace(k=new_k, matrix=tup, labels=new_labels,
                      primitive_gap=gap, bridge_table=table)


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


def count_words(s: ShiftSpace, n: int) -> int:
    """Exact number of admissible n-words: the total of A^(n-1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rows = [list(row) for row in s.matrix]
    power = _int_matpow(rows, n - 1)
    return sum(sum(row) for row in power)


def count_periodic(s: ShiftSpace, n: int) -> int:
    """Exact number of points with period dividing n: trace of A^n."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rows = [list(row) for row in s.matrix]
    power = _int_matpow(rows, n)
    return sum(power[i][i] for i in range(s.k))


def strongly_connected_components(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    k = len(matrix)
    index = [-1] * k
    low = [0] * k
    on_stack = [False] * k
    stack: list[int] = []
    components: list[list[int]] = []
    counter = itertools.count()

    for root in range(k):
        if index[root] != -1:
            continue
        work = [(root, iter([j for j in range(k) if matrix[root][j]]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter([j for j in range(k) if matrix[w][j]])))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def _perron_pair(a: np.ndarray, tol: float = 1e-13, max_iter: int = 200000) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and right eigenvector of a nonnegative irreducible matrix.

    Iterates on A + I so periodic (imprimitive) matrices converge too.
    """
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0]), np.ones(1)
    shifted = a + np.eye(n)
    v = np.ones(n) / n
    lam = 0.0
    for _ in range(max_iter):
        w = shifted @ v
        new_lam = float(np.max(w))
        w = w / new_lam
        if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)) and np.max(np.abs(w - v)) <= tol:
            v = w
            lam = new_lam
            break
        v = w
        lam = new_lam
    return lam - 1.0, v / v.sum()


def spectral_radius(s: ShiftSpace) -> float:
    """Largest Perron eigenvalue over strongly connected components."""
    comps = strongly_connected_components(s.matrix)
    best = 0.0
    for comp in comps:
        sub = np.array([[s.matrix[i][j] for j in comp] for i in comp], dtype=np.float64)
        if len(comp) == 1 and sub[0, 0] == 0:
            continue
        lam, _ = _perron_pair(sub)
        best = max(best, lam)
    return best


def topological_entropy(s: ShiftSpace) -> float:
    """log of the spectral radius of A; max over components if reducible.

    Constant row sums give the spectral radius exactly (covers full shifts).
    """
    row_sums = {sum(row) for row in s.matrix}
    if len(row_sums) == 1:
        c = row_sums.pop()
        return float(np.log(c)) if c > 0 else 0.0
    lam = spectral_radius(s)
    return float(np.log(lam)) if lam > 0 else 0.0


def perron_pair(s: ShiftSpace) -> tuple[float, np.ndarray, np.ndarray]:
    """(lambda, right eigenvector, left eigenvector) of a primitive matrix."""
    if not s.is_primitive:
        raise NotPrimitive("Perron data requires a primitive matrix")
    a = s.matrix_array()
    lam, right = _perron_pair(a)
    _, left = _perron_pair(a.T)
    return lam, right, left


def bridge(s: ShiftSpace, i: int, j: int, ell: int) -> Word:
    """Connecting path with exactly ell edges, endpoints included.

    Deterministic: the table stores the lexicographically smallest path.
    """
    if not s.is_primitive:
        raise NotPrimitive("bridging requires a primitive shift")
    check_symbols((i, j), s.k)
    gap = s.primitive_gap
    if not gap <= ell <= 2 * gap:
        raise ValueError(f"bridge length {ell} outside [{gap}, {2 * gap}]")
    return s.bridge_table[(i, j, ell)]


def connecting_word(s: ShiftSpace, a: int, b: int) -> Word:
    """The M interior symbols gluing a segment ending in a to one starting with b.

    M = primitive_gap, so segment windows sit exactly M apart, matching the
    uniform-gap gluing that mixing shifts support.  For M = 1 the (M+1)-edge
    bridge is in the table; its interior has length M.
    """
    if not s.is_primitive:
        raise NotPrimitive("bridging requires a primitive shift")
    gap = s.primitive_gap
    path = bridge(s, a, b, gap + 1)
    return path[1:-1]


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


def primitive_cycles(s: ShiftSpace, max_period: int) -> list[Word]:
    """All cyclically admissible aperiodic necklaces with period <= max_period.

    Each orbit is reported once, as its lexicographically least rotation;
    results sorted by (period, word).
    """
    seen: set[Word] = set()
    out: list[Word] = []
    for p in range(1, max_period + 1):
        for w in iter_words(s, p):
            if not s.matrix[w[-1]][w[0]]:
                continue
            rotations = [w[i:] + w[:i] for i in range(p)]
            canon = min(rotations)
            if canon != w or canon in seen:
                continue
            # aperiodic check: no proper rotation equals the word itself
            if any(rot == w for rot in rotations[1:]):
                continue
            seen.add(canon)
            out.append(canon)
    return out


def cycle_word_for(s: ShiftSpace, w: Word) -> Word:
    """A cyclically admissible word containing w, closing it with a bridge."""
    if not is_admissible(w, s):
        raise NotAdmissible(format_word(w))
    if is_cyclically_admissible(w, s):
        return w
    return w + connecting_word(s, w[-1], w[0])


def largest_proper_scc_subgraph(
    s: ShiftSpace, require_positive_entropy: bool = True,
) -> tuple[tuple[int, ...], frozenset[tuple[int, int]], float]:
    """The proper strongly connected subgraph with the largest growth rate.

    Ties break toward the lexicographically smallest edge set.  Returns
    (symbols, edges, log growth).  With require_positive_entropy (the
    default, for measure-building roles) a subgraph that is a bare cycle
    does not qualify and NoProperSubshift is raised when nothing better
    exists; e.g. A = [[1,1],[1,0]] only has the 0-loop.

    Only the strongly connected components of A minus one edge are scanned,
    which is exact: a proper strongly connected subgraph H misses some edge
    e, so it lies inside one component C of A - e, and if H != C then
    rho(H) < rho(C), because removing part of an irreducible graph strictly
    lowers its spectral radius (Perron-Frobenius; Lind & Marcus 4.4).  Every
    maximiser is therefore such a C, also when the best entropy is zero.
    """
    from .errors import NoProperSubshift

    candidates = []
    for drop in s.edges():
        mat = [[1 if (i, j) != drop and s.matrix[i][j] else 0 for j in range(s.k)]
               for i in range(s.k)]
        for comp in strongly_connected_components(mat):
            comp_edges = frozenset((i, j) for i in comp for j in comp if mat[i][j])
            if comp_edges:
                candidates.append((tuple(comp), comp_edges))
    best = None
    for nodes, edge_set in candidates:
        sub = np.array([[1.0 if (i, j) in edge_set else 0.0 for j in nodes] for i in nodes])
        lam, _ = _perron_pair(sub)
        if lam <= 0:
            continue
        ent = float(np.log(lam))
        if require_positive_entropy and ent <= 1e-12:
            continue
        key = (-ent, sorted(edge_set))
        if best is None or key < best[0]:
            best = (key, nodes, edge_set, ent)
    if best is None:
        raise NoProperSubshift(
            "no proper strongly connected subgraph"
            + (" with positive entropy" if require_positive_entropy else ""))
    _, nodes, edge_set, ent = best
    return nodes, edge_set, ent


def subshift_from_edges(s: ShiftSpace, edges: frozenset[tuple[int, int]]) -> tuple[ShiftSpace, list[int]]:
    """ShiftSpace on the subgraph's symbols; returns it plus the symbol map."""
    nodes = sorted({i for i, _ in edges} | {j for _, j in edges})
    mat = [[1 if (a, b) in edges else 0 for b in nodes] for a in nodes]
    return sft_from_matrix(len(nodes), mat), nodes
