import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.errors import EmptyShift, NoProperSubshift
from shiftlab.measures import Potential, indicator_potential
from shiftlab.shifts import (count_periodic, count_words, full_shift, iter_words,
                             largest_proper_scc_subgraph, least_cycle, primitive_cycles,
                             sft_from_matrix)
from shiftlab.spectrum import lphi_interval
from shiftlab.synthesis import _disjoint_cycle

import oracle
from oracle import BoundExceeded, Infeasible
from conftest import density_estimates, psi_at, random_primitive_sft, small_binary_matrices


class TestBruteCounts:
    def test_golden_small(self, golden):
        assert oracle.brute_count_words(golden, 4) == 8
        assert oracle.brute_count_cycles(golden, 4) == 7

    def test_full2(self, full2):
        assert oracle.brute_count_words(full2, 5) == 32
        assert oracle.brute_count_cycles(full2, 5) == 32

    def test_reducible_diagonal(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        assert oracle.brute_count_words(s, 3) == 2
        assert oracle.brute_count_cycles(s, 3) == 2

    def test_kernel_agreement(self, golden, full2, full3, random4):
        for s in (golden, full2, full3, random4):
            for n in range(1, 13):
                assert count_words(s, n) == oracle.brute_count_words(s, n)
                assert count_periodic(s, n) == oracle.brute_count_cycles(s, n)

    def test_caps(self, golden):
        with pytest.raises(BoundExceeded):
            oracle.brute_count_words(golden, 25)
        with pytest.raises(BoundExceeded):
            oracle.brute_count_cycles(golden, 17)


class TestRecurrenceCounts:
    """The x^n mod chi_A counts against the big-int matrix powers."""

    def test_matches_matrix_powers(self, golden, full2, full3, random4):
        cases = [golden, full2, full3, full_shift(4), random4,
                 sft_from_matrix(2, [[1, 0], [0, 1]]), sft_from_matrix(2, [[0, 1], [1, 0]]),
                 sft_from_matrix(1, [[1]])]
        for s in cases:
            for n in list(range(1, 41)) + [1_000, 20_000]:
                assert count_words(s, n) == oracle.matrix_power_count_words(s, n), (s.matrix, n)
                assert count_periodic(s, n) == oracle.matrix_power_count_periodic(s, n), (s.matrix, n)

    @given(small_binary_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_powers_on_small_matrices(self, km):
        k, rows = km
        try:
            s = sft_from_matrix(k, rows)
        except EmptyShift:
            return
        for n in (1, 2, 3, 5, 17, 64, 1_000):
            assert count_words(s, n) == oracle.matrix_power_count_words(s, n)
            assert count_periodic(s, n) == oracle.matrix_power_count_periodic(s, n)

    def test_nonpositive_n_rejected(self, golden):
        for fn in (count_words, count_periodic, oracle.matrix_power_count_words,
                   oracle.matrix_power_count_periodic):
            for n in (0, -1):
                with pytest.raises(ValueError):
                    fn(golden, n)


class TestConstrainedEntropy:
    def test_golden_at_parry_mean(self, golden, phi_golden):
        got = oracle.brute_constrained_entropy(golden, phi_golden, 0.276393, 40)
        assert got == pytest.approx(math.log((1 + 5 ** 0.5) / 2), abs=0.02)

    def test_full2_symmetric(self, full2, phi_full2):
        got = oracle.brute_constrained_entropy(full2, phi_full2, 0.5, 40)
        assert got == pytest.approx(math.log(2), abs=0.02)

    def test_infeasible_outside(self, golden, phi_golden):
        with pytest.raises(Infeasible):
            oracle.brute_constrained_entropy(golden, phi_golden, 0.9, 40)

    def test_grid_cap(self, golden, phi_golden):
        with pytest.raises(BoundExceeded):
            oracle.brute_constrained_entropy(golden, phi_golden, 0.3, 100)


class TestDensity:
    def test_evens(self):
        lo, hi = oracle.brute_density(set(range(0, 4096, 2)), 4096)
        assert lo == pytest.approx(0.5, abs=1e-3)
        assert hi == pytest.approx(0.5, abs=1e-3)

    def test_powers_of_two_thin(self):
        visits = {1 << k for k in range(21)}
        lo, hi = oracle.brute_density(visits, 1 << 20)
        assert hi <= 4e-5

    def test_everything(self):
        lo, hi = oracle.brute_density(lambda n: True, 1024)
        assert lo == hi == 1.0

    def test_cap(self):
        with pytest.raises(BoundExceeded):
            oracle.brute_density(set(), (1 << 22) + 1)

    @given(st.sets(st.integers(1, 9999), max_size=200), st.integers(2000, 10000))
    @settings(max_examples=25, deadline=None)
    def test_windowed_estimator_brackets_exact(self, visits, n_max):
        # low-density sets: the 32-checkpoint scan misses extremes inward by
        # at most (grid ratio - 1) * density < 0.01; a visit time is >= 1
        exact_lo, exact_hi = oracle.brute_density(visits, n_max)
        arr = np.array(sorted(v for v in visits if v < n_max), dtype=np.int64)
        est_lo, est_hi = density_estimates(arr, n_max)
        assert exact_lo - 1e-12 <= est_lo <= exact_lo + 0.01
        assert exact_hi - 0.01 <= est_hi <= exact_hi + 1e-12


class TestDominanceInvariant:
    def test_oracle_never_exceeds_variational_sup(self, golden, phi_golden):
        for i in range(1, 10):
            a = 0.5 * i / 10
            psi, _ = psi_at(golden, phi_golden, a)
            val = oracle.brute_constrained_entropy(golden, phi_golden, a, 40)
            assert val <= psi + 1e-6
            assert abs(val - psi) <= 0.02

    def test_detailed_result(self, full2, phi_full2):
        r = oracle.brute_constrained_entropy(full2, phi_full2, 0.5, 20, detailed=True)
        assert r.enumerated > 0
        assert r.value == pytest.approx(0.6931471805599453, abs=0.02)


class TestThreeSymbolAgreement:
    def test_dominance_and_agreement(self):
        from shiftlab.shifts import sft_from_matrix
        s3 = sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        phi = indicator_potential(s3, (1,))
        for a in (0.3, 0.6):
            psi, _ = psi_at(s3, phi, a)
            val = oracle.brute_constrained_entropy(s3, phi, a, 10)
            assert val <= psi + 1e-6
            assert abs(val - psi) <= 0.02


def _quarter_potential(s, r: int, seed: int) -> Potential:
    """Seeded weights in {-1, -3/4, ..., 1} on every admissible r-word."""
    words = list(iter_words(s, r))
    us = oracle.uniform_stream(seed, len(words))
    return Potential(range=r, table={w: float(int(u * 9)) / 4 - 1 for w, u in zip(words, us)})


def _small_sfts(max_edges: int):
    """Seeded random primitive SFTs with k = 2..4 and at most max_edges edges."""
    out = []
    for k in (2, 3, 4):
        for seed in range(60):
            s = random_primitive_sft(k, 1000 * k + seed)
            if len(s.edges()) <= max_edges and s not in out:
                out.append(s)
            if sum(t.k == k for t in out) == 8:
                break
    return out


class TestProperSubgraphSearch:
    def test_matches_exhaustive_edge_subsets(self, golden, full2):
        cases = [golden, full2, sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])]
        cases += _small_sfts(10)
        assert len(cases) >= 20
        for s in cases:
            try:
                got = largest_proper_scc_subgraph(s)
            except NoProperSubshift:
                got = None
            assert got == oracle.brute_largest_proper_subgraph(s), s.matrix

    def test_cap(self):
        with pytest.raises(BoundExceeded):
            oracle.brute_largest_proper_subgraph(full_shift(4))


class TestExtremeCycle:
    def test_interval_matches_periodic_points(self, golden, full2):
        cases = 0
        # k <= 3, so the range-3 block graphs have at most 9 nodes
        for s in [golden, full2] + [t for t in _small_sfts(9) if t.k <= 3]:
            for r in (1, 2, 3):
                phi = _quarter_potential(s, r, cases)
                iv = lphi_interval(s, phi)
                lo, lo_cycle = oracle.brute_extreme_cycle(s, phi, maximize=False)
                hi, hi_cycle = oracle.brute_extreme_cycle(s, phi, maximize=True)
                assert (iv.lo_exact, iv.lo_cycle) == (lo, lo_cycle), (s.matrix, phi.table)
                assert (iv.hi_exact, iv.hi_cycle) == (hi, hi_cycle), (s.matrix, phi.table)
                cases += 1
        assert cases >= 30

    def test_cap(self, full3):
        with pytest.raises(BoundExceeded):
            oracle.brute_extreme_cycle(full3, indicator_potential(full3, (0, 1, 2, 0)), True)


def _shares_no_edge(cycle, edges) -> bool:
    return not any((a, b) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


class TestPrimitiveCycles:
    """The lazy Lyndon-word generator and the least-cycle search against the
    listing of every word up to period 6."""

    def test_generator_matches_enumeration(self, golden, full2, full3, random4):
        cases = [golden, full2, full3, random4, full_shift(4)] + _small_sfts(16)
        assert len(cases) >= 20
        for s in cases:
            for p in range(1, 7):
                assert list(primitive_cycles(s, p)) == oracle.brute_primitive_cycles(s, p), s.matrix

    def test_least_cycle_is_first(self, golden, full2, full3, random4):
        for s in [golden, full2, full3, random4] + _small_sfts(16):
            assert least_cycle(s.matrix) == oracle.brute_primitive_cycles(s, 6)[0], s.matrix

    def test_disjoint_cycle_is_first_edge_disjoint(self, golden, full2, full3, random4):
        """A shortest cycle has at most k <= 4 nodes, so period 6 lists
        every candidate the search could return."""
        checked = 0
        for s in [golden, full2, full3, random4] + _small_sfts(16):
            subgraphs = []
            try:
                subgraphs.append(largest_proper_scc_subgraph(s)[1])
            except NoProperSubshift:
                pass
            for seed in (len(s.edges()), 1000 + len(s.edges())):
                us = oracle.uniform_stream(seed, len(s.edges()))
                subgraphs.append(frozenset(e for e, u in zip(s.edges(), us) if u < 0.5))
            for edges in subgraphs:
                want = next((c for c in oracle.brute_primitive_cycles(s, 6)
                             if _shares_no_edge(c, edges)), None)
                try:
                    got = _disjoint_cycle(s, edges)
                except NoProperSubshift:
                    got = None
                assert got == want, (s.matrix, sorted(edges))
                checked += got is not None
        assert checked >= 30

    def test_cap(self):
        with pytest.raises(BoundExceeded):
            oracle.brute_primitive_cycles(full_shift(4), 10)
