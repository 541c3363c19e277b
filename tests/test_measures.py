import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import oracle, rng
from shiftlab.errors import EmptyShift, NotAdmissible, NotPrimitive
from shiftlab.measures import (Potential, constant_potential, entropy,
                               equilibrium_measure, has_full_support,
                               indicator_potential, integrate, is_ergodic,
                               markov_measure, markov_word_probability, mixture,
                               parry_measure, periodic_measure,
                               periodic_measures_in_cylinder, sample_typical_word,
                               support, support_pieces, supports_disjoint)
from shiftlab.oracle import scalar_typical_word
from shiftlab.shifts import (is_admissible, iter_words, primitive_cycles, sft_from_matrix,
                             topological_entropy)
from shiftlab.spectrum import PressureFunction, edge_system

from conftest import random_primitive_sft

PHI = (1 + math.sqrt(5)) / 2


class TestParry:
    def test_golden_closed_form(self, golden):
        m = parry_measure(golden)
        p = m.p_array()
        assert p[0, 0] == pytest.approx(1 / PHI, abs=1e-9)
        assert p[0, 1] == pytest.approx(1 / PHI ** 2, abs=1e-9)
        assert p[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert m.pi[0] == pytest.approx(PHI ** 2 / (1 + PHI ** 2), abs=1e-9)
        assert m.pi[1] == pytest.approx(1 / (1 + PHI ** 2), abs=1e-9)

    def test_full_shifts_uniform(self, full2, full3):
        for s, k in ((full2, 2), (full3, 3)):
            m = parry_measure(s)
            assert np.allclose(m.p_array(), 1.0 / k)
            assert entropy(m) == pytest.approx(math.log(k), abs=1e-12)

    def test_entropy_matches_topological(self, golden, random4):
        for s in (golden, random4):
            assert entropy(parry_measure(s)) == pytest.approx(
                topological_entropy(s), abs=1e-9)

    def test_requires_primitive(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        with pytest.raises(NotPrimitive):
            parry_measure(s)


def _seeded_potential(s, r, seed):
    """Range-r potential with seeded values in [-1, 1)."""
    words = list(iter_words(s, r))
    us = rng.uniform_stream(seed, len(words))
    return Potential(range=r, table={w: 2.0 * float(u) - 1.0 for w, u in zip(words, us)})


class TestEquilibrium:
    """The Markov measure built from B = A o exp(q phi) is the equilibrium
    state of q phi: checked against the pressure kernel, which solves P(q)
    from dense eigenvalues and never builds a measure."""

    def test_variational_identity_derivative_and_parry(self, golden, full2, random4):
        s3 = sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        for n, s in enumerate((golden, full2, s3, random4)):
            assert equilibrium_measure(s, s.matrix_array()) == parry_measure(s)
            for r in (1, 2):
                phi = _seeded_potential(s, r, 100 * n + r)
                pf = PressureFunction(edge_system(s, phi))
                for q in (-3.0, -0.5, 0.0, 1.0, 2.0):
                    b = np.zeros((s.k, s.k))
                    for i, j in s.edges():
                        b[i, j] = math.exp(q * phi.table[(i, j)[:r]])
                    m = equilibrium_measure(s, b)
                    a = integrate(m, phi)
                    assert abs(entropy(m) + q * a - pf(q)) <= 1e-11
                    assert abs(a - pf.derivative(q)) <= 1e-9


class TestStationary:
    def test_periodic_chain(self):
        # period-2 chain: the power iteration must not oscillate between classes
        s = sft_from_matrix(3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        m = markov_measure(s, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
        assert m.pi == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)

    def test_omitted_pi_matches_lu_oracle(self):
        for seed in range(30):
            s = random_primitive_sft(2 + seed % 4, seed)
            m = _thinned_chain(s, seed)
            assert np.max(np.abs(m.pi_array() - oracle._stationary(m.p_array()))) <= 1e-12


class TestEntropyIntegral:
    def test_periodic_entropy_zero(self, golden):
        assert entropy(periodic_measure(golden, (0, 1))) == 0.0

    def test_mixture_affinity_exact(self, full2):
        p = parry_measure(full2)
        z = periodic_measure(full2, (0,))
        mix = mixture((0.5, 0.5), (p, z))
        assert entropy(mix) == 0.5 * entropy(p)

    def test_integrate_periodic(self, full2, phi_full2):
        assert integrate(periodic_measure(full2, (0, 1)), phi_full2) == 0.5

    def test_integrate_parry_golden(self, golden, phi_golden):
        assert integrate(parry_measure(golden), phi_golden) == pytest.approx(
            1 / (1 + PHI ** 2), abs=1e-9)

    def test_constant_potential(self, golden):
        c = constant_potential(golden, 3.25)
        for m in (parry_measure(golden), periodic_measure(golden, (0,))):
            assert integrate(m, c) == pytest.approx(3.25, abs=1e-12)

    def test_integral_linear_over_mixtures(self, full2, phi_full2):
        a = parry_measure(full2)
        b = periodic_measure(full2, (1,))
        mix = mixture((0.3, 0.7), (a, b))
        expect = 0.3 * integrate(a, phi_full2) + 0.7 * integrate(b, phi_full2)
        assert integrate(mix, phi_full2) == pytest.approx(expect, abs=1e-15)

    def test_range2_integration(self, golden):
        phi11 = indicator_potential(golden, (0, 1))
        m = parry_measure(golden)
        assert integrate(m, phi11) == pytest.approx(
            markov_word_probability(m, (0, 1)), abs=1e-15)

    def test_entropy_below_topological(self, golden, full2, random4, phi_golden):
        for s in (golden, full2, random4):
            h_top = topological_entropy(s)
            for m in (parry_measure(s), periodic_measure(s, (0,) if s.matrix[0][0] else (0, 1))):
                assert -1e-12 <= entropy(m) <= h_top + 1e-9


class TestSupport:
    def test_parry_full(self, golden):
        g = support(parry_measure(golden))
        assert g.edges == frozenset({(0, 0), (0, 1), (1, 0)})
        assert has_full_support(parry_measure(golden), golden)

    def test_periodic_support(self, full2):
        g = support(periodic_measure(full2, (0,)))
        assert g.symbols == frozenset({0}) and g.edges == frozenset({(0, 0)})

    def test_mixture_union(self, full2):
        mix = mixture((0.5, 0.5), (periodic_measure(full2, (0,)),
                                   periodic_measure(full2, (0, 1))))
        g = support(mix)
        assert g.symbols == frozenset({0, 1})
        assert g.edges == frozenset({(0, 0), (0, 1), (1, 0)})

    def test_periodic_never_full(self, full2):
        # the cycle 0011 walks every edge yet its orbit is four points
        m = periodic_measure(full2, (0, 0, 1, 1))
        assert support(m).is_full(full2)
        assert not has_full_support(m, full2)

    def test_disjointness(self, full2):
        golden_sub = markov_measure(full2, [[0.5, 0.5], [1.0, 0.0]])
        assert supports_disjoint(golden_sub, periodic_measure(full2, (1,)))
        assert not supports_disjoint(golden_sub, periodic_measure(full2, (0,)))

    def test_pieces_stay_separate(self, full2):
        mix = mixture((0.5, 0.5), (parry_measure(full2), periodic_measure(full2, (1,))))
        assert len(support_pieces(mix)) == 2


class TestErgodicity:
    def test_parry_ergodic(self, golden):
        assert is_ergodic(parry_measure(golden))

    def test_mixture_not_ergodic(self, full2):
        mix = mixture((0.5, 0.5), (parry_measure(full2), periodic_measure(full2, (0,))))
        assert not is_ergodic(mix)


class TestPeriodicInCylinder:
    def test_golden_zero_cylinder(self, golden):
        ms = periodic_measures_in_cylinder(golden, (0,), 3)
        assert [m.cycle for m in ms] == [(0,), (0, 1), (0, 0, 1)]

    def test_count_grows_with_bound(self, golden):
        counts = [len(periodic_measures_in_cylinder(golden, (0,), b)) for b in range(1, 7)]
        assert counts == sorted(counts) and counts[-1] > counts[0]

    def test_full2_one_cylinder(self, full2):
        ms = periodic_measures_in_cylinder(full2, (1,), 1)
        assert [m.cycle for m in ms] == [(1,)]

    def test_forbidden_cylinder(self, golden):
        with pytest.raises(NotAdmissible):
            periodic_measures_in_cylinder(golden, (1, 1), 3)

    def test_word_longer_than_cycle(self, full2):
        ms = periodic_measures_in_cylinder(full2, (0, 0), 2)
        assert (0,) in [m.cycle for m in ms]


class TestSampling:
    def test_periodic_deterministic(self, full2):
        w = sample_typical_word(periodic_measure(full2, (0, 1)), 5, 0)
        assert tuple(w.tolist()) == (0, 1, 0, 1, 0)

    def test_full2_frequency(self, full2, phi_full2):
        w = sample_typical_word(parry_measure(full2), 1 << 16, seed=12345)
        assert abs(sum(w) / len(w) - 0.5) < 0.01

    def test_golden_frequency(self, golden, phi_golden):
        m = parry_measure(golden)
        w = sample_typical_word(m, 1 << 16, seed=999)
        target = integrate(m, phi_golden)
        assert abs(sum(w) / len(w) - target) < 0.01

    def test_always_admissible(self, golden, random4):
        for s in (golden, random4):
            w = sample_typical_word(parry_measure(s), 4096, seed=77)
            assert is_admissible(w, s)

    def test_same_seed_same_word(self, golden):
        m = parry_measure(golden)
        a, b = sample_typical_word(m, 512, 31337), sample_typical_word(m, 512, 31337)
        assert tuple(a.tolist()) == tuple(b.tolist())

    def test_prefix_stability_under_longer_draw(self, golden):
        m = parry_measure(golden)
        short = sample_typical_word(m, 100, 5)
        long = sample_typical_word(m, 400, 5)
        assert tuple(long[:100].tolist()) == tuple(short.tolist())

    def test_mixture_sampling_refused(self, full2):
        mix = mixture((0.5, 0.5), (parry_measure(full2), periodic_measure(full2, (0,))))
        with pytest.raises(ValueError):
            sample_typical_word(mix, 8, 0)


def _thinned_chain(s, seed):
    """Markov measure with random weights on s whose support drops allowed
    edges while staying primitive, so some allowed transitions have P = 0."""
    k = s.k
    us = rng.uniform_stream(seed, 2 * k * k)
    keep = [list(row) for row in s.matrix]
    for t in np.argsort(us[:k * k]):
        i, j = divmod(int(t), k)
        if keep[i][j]:
            keep[i][j] = 0
            try:
                thinned = sft_from_matrix(k, keep)
            except EmptyShift:
                thinned = None
            if thinned is None or thinned.k != k or not thinned.is_primitive:
                keep[i][j] = 1
    p = np.array(keep, dtype=float) * (0.05 + us[k * k:].reshape(k, k))
    return markov_measure(s, p / p.sum(axis=1, keepdims=True))


@st.composite
def sampling_cases(draw):
    k = draw(st.integers(2, 5))
    s = random_primitive_sft(k, draw(st.integers(0, 1 << 16)))
    kind = draw(st.sampled_from(["parry", "thinned", "periodic"]))
    if kind == "parry":
        m = parry_measure(s)
    elif kind == "thinned":
        m = _thinned_chain(s, draw(st.integers(0, 1 << 16)))
    else:
        m = periodic_measure(s, draw(st.sampled_from(primitive_cycles(s, 4))))
    b = draw(st.integers(1, 40))
    n = draw(st.sampled_from([1, 2, 3, b * b, b * b + 1, b * b + 2, 1 << 16])
             | st.integers(1, 5000))
    start = draw(st.none() | st.integers(0, k - 1))
    return m, n, draw(st.integers(0, (1 << 64) - 1)), start


class TestSamplerMatchesScalarWalk:
    @given(sampling_cases())
    @settings(max_examples=80, deadline=None)
    def test_symbol_for_symbol(self, case):
        m, n, seed, start = case
        w = sample_typical_word(m, n, seed, start=start)
        assert w.dtype == np.int64
        assert tuple(w.tolist()) == scalar_typical_word(m, n, seed, start=start)

    def test_thinned_chain_has_zero_allowed_transitions(self, full3):
        m = _thinned_chain(full3, 11)
        assert any(m.P[i][j] == 0 for i in range(3) for j in range(3))


class TestValidation:
    def test_bad_row_sum(self, golden):
        with pytest.raises(ValueError):
            markov_measure(golden, [[0.5, 0.4], [1.0, 0.0]])

    def test_forbidden_edge(self, golden):
        with pytest.raises(ValueError):
            markov_measure(golden, [[0.5, 0.5], [0.5, 0.5]])

    def test_bad_cycle(self, golden):
        with pytest.raises(NotAdmissible):
            periodic_measure(golden, (1, 1))

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=20, deadline=None)
    def test_mixture_affinity_property(self, theta):
        from shiftlab.shifts import full_shift
        s = full_shift(2)
        a = parry_measure(s)
        b = periodic_measure(s, (0,))
        mix = mixture((theta, 1 - theta), (a, b))
        assert entropy(mix) == pytest.approx(theta * entropy(a), abs=1e-14)

    def test_bad_weights(self, full2):
        with pytest.raises(ValueError):
            mixture((0.5, 0.6), (parry_measure(full2), periodic_measure(full2, (0,))))


class TestPotentialValidation:
    def test_complete_table_accepted(self, golden, phi_golden):
        from shiftlab.measures import validate_potential
        validate_potential(golden, phi_golden)

    def test_incomplete_table_rejected(self, golden):
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import Potential, validate_potential
        with pytest.raises(RangeMismatch):
            validate_potential(golden, Potential(range=1, table={(0,): 1.0}))

    def test_alien_alphabet_rejected_on_integrate(self, golden):
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import Potential
        phi = Potential(range=1, table={(0,): 0.0, (1,): 1.0, (2,): 5.0})
        with pytest.raises(RangeMismatch):
            integrate(parry_measure(golden), phi)


class TestSamplingStart:
    def test_fixed_start_symbol(self, golden):
        m = parry_measure(golden)
        w = sample_typical_word(m, 64, seed=9, start=1)
        assert w[0] == 1 and is_admissible(w, golden)
