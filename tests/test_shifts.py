import functools
import math
import random
import time
import tracemalloc
from itertools import combinations, islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.errors import EmptyShift, NotPrimitive, SymbolOutOfRange
from shiftlab.measures import parry_measure
from shiftlab.shifts import (characteristic_polynomial, connecting_word, count_periodic,
                             count_words, full_shift, is_admissible,
                             is_cyclically_admissible, iter_words,
                             largest_proper_scc_subgraph, least_cycle, parse_word,
                             perron, primitive_cycles, sft_from_matrix,
                             strongly_connected_components, topological_entropy)

import oracle
from conftest import ACCEPTANCE_SEED, random_primitive_sft, small_binary_matrices

PHI = (1 + math.sqrt(5)) / 2


def cycle_matrix(k: int, chord: bool) -> list[list[int]]:
    """The k-cycle i -> i+1 mod k, with the chord 0 -> 2 if asked: with it,
    the Wielandt matrix, whose gap (k-1)^2 + 1 is the largest possible."""
    m = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    if chord:
        m[0][2] = 1
    return m


class TestConstruction:
    def test_full_shift_gap(self, full2):
        assert full2.primitive_gap == 1

    def test_golden_gap(self, golden):
        # A^2 = [[2,1],[1,1]] is positive while A itself has a zero entry
        assert golden.primitive_gap == 2

    def test_disjoint_fixed_points_not_primitive(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        assert not s.is_primitive
        assert s.k == 2

    def test_empty_shift(self):
        with pytest.raises(EmptyShift):
            sft_from_matrix(1, [[0]])

    def test_trimming_removes_stranded_symbol(self):
        # symbol 2 has no incoming edge and dies; symbol 1 then keeps both ends
        s = sft_from_matrix(3, [[1, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert s.k == 2
        assert s.matrix == ((1, 1), (1, 0))

    def test_trimming_idempotent(self, golden):
        again = sft_from_matrix(golden.k, golden.matrix)
        assert again == golden

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            sft_from_matrix(2, [[1, 2], [1, 0]])

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_label_count_must_match(self, labels):
        with pytest.raises(ValueError):
            sft_from_matrix(2, [[1, 1], [1, 0]], labels)


class TestMixing:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_gap_and_connectors_match_brute_force(self, k):
        for seed in range(12):
            s = random_primitive_sft(k, 7000 * k + seed)
            assert s.primitive_gap == oracle.brute_primitive_gap(s)
            for i in range(k):
                for j in range(k):
                    assert connecting_word(s, i, j) == oracle.brute_connecting_word(
                        s, i, j, s.primitive_gap)

    @pytest.mark.parametrize("k", [5, 10, 20, 30])
    def test_wielandt_matrix_has_largest_gap(self, k):
        s = sft_from_matrix(k, cycle_matrix(k, chord=True))
        assert s.primitive_gap == (k - 1) ** 2 + 1
        for i in range(k):
            for j in range(k):
                cw = connecting_word(s, i, j)
                assert len(cw) == s.primitive_gap
                assert is_admissible((i,) + cw + (j,), s)

    def test_slow_mixing_graph_keeps_only_squarings(self):
        # a 100-cycle with a chord has gap 9,802: only the log2 squarings
        # are kept, and a connector is built when it is read
        tracemalloc.start()
        try:
            s = sft_from_matrix(100, cycle_matrix(100, chord=True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.primitive_gap == 99 ** 2 + 1
        assert peak <= 32 << 20
        cw = connecting_word(s, 5, 1)
        assert len(cw) == s.primitive_gap and is_admissible((5,) + cw + (1,), s)

    @pytest.mark.parametrize("matrix", [
        cycle_matrix(200, chord=False),
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]],
    ], ids=["200-cycle", "disjoint-loops"])
    def test_not_primitive(self, matrix):
        s = sft_from_matrix(len(matrix), matrix)
        assert s.primitive_gap is None
        assert s.bridge_table == {}
        with pytest.raises(oracle.BoundExceeded):
            oracle.brute_primitive_gap(s)


def components_by_subsets(k: int, edges: set[tuple[int, int]]) -> list[list[int]]:
    """Each symbol's largest strongly connected induced subgraph: its component."""
    best = {i: [i] for i in range(k)}
    for r in range(2, k + 1):
        for nodes in combinations(range(k), r):
            inner = {(a, b) for a, b in edges if a in nodes and b in nodes}
            if oracle._mutually_reachable(list(nodes), inner):
                for i in nodes:
                    best[i] = list(nodes)
    return sorted({tuple(c) for c in best.values()})


class TestComponents:
    def test_partition_matches_mutual_reachability(self):
        gen = random.Random(20261018)
        for _ in range(300):
            k = gen.randint(1, 6)
            density = gen.choice([0.15, 0.3, 0.5])
            m = [[int(gen.random() < density) for _ in range(k)] for _ in range(k)]
            edges = {(i, j) for i in range(k) for j in range(k) if m[i][j]}
            comps = strongly_connected_components(m)
            assert [tuple(c) for c in comps] == components_by_subsets(k, edges)

    def test_loopless_singletons(self):
        # 0 -> 1 -> 2 with a loop only at 1: three classes, ordered by least member
        assert strongly_connected_components([[0, 1, 0], [0, 1, 1], [0, 0, 0]]) == [[0], [1], [2]]


class TestAdmissibility:
    def test_alternation_admissible(self, golden):
        assert is_admissible(parse_word("0101"), golden)

    def test_forbidden_pair(self, golden):
        assert not is_admissible(parse_word("011"), golden)

    def test_full_shift_everything(self, full2):
        for w in iter_words(full2, 5):
            assert is_admissible(w, full2)

    def test_empty_and_single(self, golden):
        assert is_admissible((), golden)
        assert is_admissible((1,), golden)

    def test_symbol_out_of_range(self, golden):
        with pytest.raises(SymbolOutOfRange):
            is_admissible((0, 2), golden)


class TestCounting:
    def test_golden_word_counts(self, golden):
        assert [count_words(golden, n) for n in (1, 2, 3, 4)] == [2, 3, 5, 8]

    def test_full2_words(self, full2):
        assert count_words(full2, 10) == 1024

    def test_golden_periodic_counts(self, golden):
        assert [count_periodic(golden, n) for n in (1, 2, 3, 4)] == [1, 3, 4, 7]

    def test_full2_periodic(self, full2):
        assert count_periodic(full2, 3) == 8

    def test_word_count_matches_enumeration(self, golden):
        for n in range(1, 11):
            assert count_words(golden, n) == sum(1 for _ in iter_words(golden, n))

    def test_golden_n24_vs_oracle(self, golden):
        assert count_words(golden, 24) == oracle.brute_count_words(golden, 24)

    def test_big_n_arbitrary_precision(self, full3):
        assert count_words(full3, 64) == 3 ** 64

    def test_reducible_diagonal(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        assert count_words(s, 3) == 2
        assert count_periodic(s, 3) == 2

    def test_counts_are_python_ints(self, golden, full3, random4):
        for s in (golden, full3, random4):
            assert count_words(s, 1) == s.k
            for n in (1, 2, 40):
                assert type(count_words(s, n)) is int
                assert type(count_periodic(s, n)) is int


class TestCharacteristicPolynomial:
    """chi_A, which every exact count reduces x^n by, on seeded 0/1 matrices."""

    def test_integer_monic_and_cayley_hamilton(self):
        rnd = random.Random(ACCEPTANCE_SEED)
        for _ in range(300):
            k = rnd.randint(1, 6)
            a = [[int(rnd.random() < 0.5) for _ in range(k)] for _ in range(k)]
            chi = characteristic_polynomial(a)
            assert len(chi) == k + 1 and chi[k] == 1
            assert all(type(c) is int for c in chi)
            assert chi[k - 1] == -sum(a[i][i] for i in range(k))
            total, power = np.zeros((k, k), dtype=object), np.eye(k, dtype=int).astype(object)
            for c in chi:
                total = total + c * power
                power = power.dot(np.array(a, dtype=object))
            assert not total.any(), a
            # np.poly takes the eigenvalues in floats; at k <= 6 its
            # coefficients lie within 1e-6 of the integers, so they round exactly
            floats = np.poly(np.array(a, dtype=float))[::-1]
            assert np.abs(floats - chi).max() < 1e-6, a
            assert np.round(floats).astype(int).tolist() == chi, a


class TestEntropy:
    def test_full2(self, full2):
        assert topological_entropy(full2) == pytest.approx(math.log(2), abs=1e-12)

    def test_golden(self, golden):
        assert topological_entropy(golden) == pytest.approx(math.log(PHI), abs=1e-9)

    def test_fixed_point(self):
        s = sft_from_matrix(1, [[1]])
        assert topological_entropy(s) == 0.0

    def test_reducible_takes_max_component(self):
        # component {0,1} is the full 2-shift; symbol 2 only feeds into it
        s = sft_from_matrix(3, [[1, 1, 0], [1, 1, 0], [1, 1, 1]])
        assert topological_entropy(s) == pytest.approx(math.log(2), abs=1e-9)

    def test_word_growth_dominates_entropy(self, golden):
        h = topological_entropy(golden)
        for n in range(1, 25):
            assert math.log(count_words(golden, n)) / n >= h - 1e-12
        assert abs(math.log(count_words(golden, 24)) / 24 - h) <= 0.03

    def test_periodic_growth(self, golden):
        est = math.log(count_periodic(golden, 30)) / 30
        assert abs(est - math.log(PHI)) <= 0.02


def mp_perron_vector(b: np.ndarray, dps: int = 30) -> tuple[mpmath.mpf, list[mpmath.mpf]]:
    """(rho, r) with B r = rho r and sum r = 1, to dps digits: two Newton
    steps on [(B - rho I) r, sum r - 1] = 0 in mpmath from numpy's eig.
    The solution is checked to be an eigenpair with r > 0, which by
    Perron-Frobenius makes it the Perron pair of an irreducible B."""
    k = len(b)
    w, v = np.linalg.eig(b)
    top = int(np.argmax(w.real))
    start = list(v[:, top].real / v[:, top].real.sum()) + [w[top].real]
    with mpmath.workdps(dps):
        bm = mpmath.matrix(b.tolist())
        x = mpmath.matrix([mpmath.mpf(float(c)) for c in start])

        def residual(x):
            r = x[:k]
            return mpmath.matrix([*(bm * r - x[k] * r), sum(r) - 1])

        for _ in range(2):
            jac = mpmath.matrix(k + 1, k + 1)
            for i in range(k):
                for j in range(k):
                    jac[i, j] = bm[i, j] - (x[k] if i == j else 0)
                jac[i, k] = -x[i]
                jac[k, i] = 1
            x -= mpmath.lu_solve(jac, residual(x))
        assert mpmath.norm(residual(x)) < mpmath.mpf(10) ** (5 - dps)
        assert all(x[i] > 0 for i in range(k))
        return x[k], [x[i] for i in range(k)]


#: irreducible matrices for the kernel check: primitive ambients, a slowly
#: mixing 60-cycle with a chord, and a period-2 chain (eigenvalues 1, -1, 0)
PERRON_CASES = {
    "golden": np.array([[1.0, 1.0], [1.0, 0.0]]),
    "full3": np.ones((3, 3)),
    "three_symbol": np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]),
    "random4": random_primitive_sft(4, ACCEPTANCE_SEED).matrix_array(),
    "chord60": np.array(cycle_matrix(60, chord=True), dtype=float),
    "period2": np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]]),
}


@functools.lru_cache(maxsize=None)
def mp_perron_case(name: str) -> tuple[mpmath.mpf, list[mpmath.mpf], list[mpmath.mpf]]:
    """(rho, r, l) of PERRON_CASES[name] from mp_perron_vector."""
    b = PERRON_CASES[name]
    rho, right = mp_perron_vector(b)
    return rho, right, mp_perron_vector(b.T)[1]


class TestPerron:
    @pytest.mark.parametrize("name", PERRON_CASES)
    def test_root_and_vectors_match_mpmath(self, name):
        b = PERRON_CASES[name]
        k = len(b)
        rho, inv = perron(b)
        mp_rho, mp_right, mp_left = mp_perron_case(name)
        assert abs(rho - mp_rho) <= 1e-14
        assert max(abs(inv[i, k] - mp_right[i]) for i in range(k)) <= 1e-14
        assert max(abs(inv[k, i] - mp_left[i]) for i in range(k)) <= 1e-14

    def test_golden_entropy_is_log_phi(self, golden):
        with mpmath.workdps(30):
            assert abs(topological_entropy(golden) - mpmath.log(mpmath.phi)) <= 4e-16

    def test_slow_mixing_parry_measure(self):
        # the 60-cycle with a chord mixes slowly (gap 3,482); its Parry
        # measure has pi_i = l_i r_i / sum l r, from the one dense solve
        s = sft_from_matrix(60, cycle_matrix(60, chord=True))
        _, right, left = mp_perron_case("chord60")
        uv = [a * b for a, b in zip(left, right)]
        pi = parry_measure(s).pi
        assert max(abs(p - x / sum(uv)) for p, x in zip(pi, uv)) <= 1e-14

    def test_tied_classes_have_no_inverse(self):
        # two disjoint loops: rho = 1 twice, so the bordered matrix is singular
        rho, inv = perron(np.eye(2))
        assert rho == 1.0 and np.isnan(inv).all()

    def test_stack_flags_only_the_singular_member(self):
        ones = np.ones((2, 2))
        rho, inv = perron(np.stack([np.eye(2), ones, 2.0 * ones]))
        assert rho[0] == 1.0 and np.isnan(inv[0]).all()
        for i, b in ((1, ones), (2, 2.0 * ones)):
            lone_rho, lone_inv = perron(b)
            assert rho[i] == lone_rho and (inv[i] == lone_inv).all()

    def test_reducible_spectral_radius(self):
        # the loop on 0 feeds the golden block {1, 2}: rho is the larger class root
        s = sft_from_matrix(3, [[1, 1, 0], [0, 1, 1], [0, 1, 0]])
        assert topological_entropy(s) == pytest.approx(math.log(PHI), abs=1e-15)


class TestBridges:
    def test_golden_1_to_1(self, golden):
        assert connecting_word(golden, 1, 1) == (0, 0)

    def test_full2_short(self, full2):
        assert connecting_word(full2, 0, 1) == (0,)

    def test_golden_lex_smallest(self, golden):
        # 3-edge paths 0 -> 0 are 0000, 0010 and 0100
        assert connecting_word(golden, 0, 0) == (0, 0)

    def test_all_table_entries_admissible(self, golden, full2, random4):
        for s in (golden, full2, random4):
            for i in range(s.k):
                for j in range(s.k):
                    cw = connecting_word(s, i, j)
                    assert len(cw) == s.primitive_gap
                    assert is_admissible((i,) + cw + (j,), s)

    def test_not_primitive_refused(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        with pytest.raises(NotPrimitive):
            connecting_word(s, 0, 1)

    def test_connecting_word_length(self, golden):
        cw = connecting_word(golden, 0, 1)
        assert len(cw) == golden.primitive_gap
        assert is_admissible((0,) + cw + (1,), golden)


class TestCycles:
    def test_golden_cycles(self, golden):
        assert list(primitive_cycles(golden, 3)) == [(0,), (0, 1), (0, 0, 1)]

    def test_first_cycles_come_lazily(self):
        # the 8 fixed points, 28 orbits of period 2 and 9 of period 3; listing
        # every 8-word first would take 8^8 steps
        start = time.perf_counter()
        first = list(islice(primitive_cycles(full_shift(8), 8), 45))
        assert time.perf_counter() - start < 1.0
        assert first[-1] == (0, 1, 2) and [len(c) for c in first].count(3) == 9

    def test_least_cycle(self, golden):
        assert least_cycle(golden.matrix) == (0,)
        assert least_cycle(cycle_matrix(5, chord=True)) == (0, 2, 3, 4)
        assert least_cycle([[0, 1], [0, 0]]) is None

    def test_cyclic_admissibility(self, golden):
        assert is_cyclically_admissible((0, 1), golden)
        assert not is_cyclically_admissible((1, 1), golden)
        assert not is_cyclically_admissible((), golden)


class TestProperSubgraph:
    def test_full4_drops_last_loop(self):
        # deleting any loop (i, i) leaves growth rate (3 + sqrt 21)/2, the
        # best; of the four tied edge sets, the one without (3, 3) is least
        s = full_shift(4)
        nodes, edges, ent = largest_proper_scc_subgraph(s)
        assert nodes == (0, 1, 2, 3)
        assert set(s.edges()) - edges == {(3, 3)}
        assert ent == pytest.approx(math.log((3 + math.sqrt(21)) / 2), abs=1e-15)


class TestProperties:
    @given(small_binary_matrices())
    @settings(max_examples=60, deadline=None)
    def test_trim_idempotent_everywhere(self, km):
        k, rows = km
        try:
            s = sft_from_matrix(k, rows)
        except EmptyShift:
            return
        assert sft_from_matrix(s.k, s.matrix) == s

    @given(small_binary_matrices(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_submultiplicative_counts(self, km, n, m):
        k, rows = km
        try:
            s = sft_from_matrix(k, rows)
        except EmptyShift:
            return
        assert count_words(s, n + m) <= count_words(s, n) * count_words(s, m)

    def test_submultiplicative_on_test_shifts(self, golden, full2, full3, random4):
        for s in (golden, full2, full3, random4):
            counts = {n: count_words(s, n) for n in range(1, 25)}
            for n in range(1, 13):
                for m in range(1, 13):
                    assert counts[n + m] <= counts[n] * counts[m]

    @given(small_binary_matrices())
    @settings(max_examples=40, deadline=None)
    def test_periodic_counts_match_enumeration(self, km):
        k, rows = km
        try:
            s = sft_from_matrix(k, rows)
        except EmptyShift:
            return
        for n in range(1, 7):
            brute = sum(1 for w in iter_words(s, n) if s.matrix[w[-1]][w[0]])
            assert count_periodic(s, n) == brute
