import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import oracle
from shiftlab.errors import EmptyShift, NotConverged, NotPrimitive, SymbolOutOfRange
from shiftlab.shifts import (_perron_pair, connecting_word, count_periodic, count_words,
                             full_shift, is_admissible, is_cyclically_admissible,
                             iter_words, largest_proper_scc_subgraph, parse_word,
                             primitive_cycles, sft_from_matrix, topological_entropy)

PHI = (1 + math.sqrt(5)) / 2


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


class TestPerronPair:
    def test_unconverged_iteration_raises(self):
        # a 60-cycle with the chord 0 -> 2 mixes slowly: about 18k iterations
        n = 60
        a = np.zeros((n, n))
        a[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        a[0, 2] = 1.0
        with pytest.raises(NotConverged):
            _perron_pair(a, max_iter=1000)
        lam, v = _perron_pair(a)
        assert np.max(np.abs(a @ v - lam * v)) <= 1e-12


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
        assert primitive_cycles(golden, 3) == [(0,), (0, 1), (0, 0, 1)]

    def test_cyclic_admissibility(self, golden):
        assert is_cyclically_admissible((0, 1), golden)
        assert not is_cyclically_admissible((1, 1), golden)
        assert not is_cyclically_admissible((), golden)


@st.composite
def small_binary_matrices(draw):
    k = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    return k, rows


class TestProperSubgraph:
    def test_full4_drops_last_loop(self):
        # deleting any loop (i, i) leaves growth rate (3 + sqrt 21)/2, the
        # best; the four ties are broken by float entropies, picking (3, 3)
        s = full_shift(4)
        nodes, edges, ent = largest_proper_scc_subgraph(s)
        assert nodes == (0, 1, 2, 3)
        assert set(s.edges()) - edges == {(3, 3)}
        assert ent == 1.3327057628202617


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
