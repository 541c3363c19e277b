import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab
from shiftlab import rng
from shiftlab.errors import EmptyShift, NotAdmissible, NotPrimitive
from shiftlab.measures import (SAMPLE_CHUNK, MarkovMeasure, PeriodicMeasure, Potential, _bits,
                               _step_maps, _thresholds, entropy,
                               equilibrium_measure, has_full_support,
                               indicator_potential, integrate, is_ergodic,
                               markov_measure, markov_word_probability, mixture,
                               parry_measure, periodic_measure, sample_typical_words,
                               support, support_pieces, walk_mismatch)
from shiftlab.shifts import (SYMBOL_DTYPE, ShiftSpace, full_shift, is_admissible, iter_words,
                             primitive_cycles, sft_from_matrix, topological_entropy)
from shiftlab.synthesis import Segment, _regenerate, _sub_parry, sub_seeds

import oracle
from oracle import scalar_typical_word
from conftest import constant_potential, pressure_function, random_primitive_sft

PHI = (1 + math.sqrt(5)) / 2


class TestParry:
    def test_golden_closed_form(self, golden):
        m = parry_measure(golden)
        p = np.array(m.P)
        assert p[0, 0] == pytest.approx(1 / PHI, abs=1e-9)
        assert p[0, 1] == pytest.approx(1 / PHI ** 2, abs=1e-9)
        assert p[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert m.pi[0] == pytest.approx(PHI ** 2 / (1 + PHI ** 2), abs=1e-9)
        assert m.pi[1] == pytest.approx(1 / (1 + PHI ** 2), abs=1e-9)

    def test_full_shifts_uniform(self, full2, full3):
        for s, k in ((full2, 2), (full3, 3)):
            m = parry_measure(s)
            assert np.allclose(np.array(m.P), 1.0 / k)
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
    us = oracle.uniform_stream(seed, len(words))
    return Potential(range=r, table={w: 2.0 * float(u) - 1.0 for w, u in zip(words, us)})


class TestEquilibrium:
    """The Markov measure built from B = A o exp(q phi) is the equilibrium
    state of q phi: checked against the pressure kernel's P(q) and its exact
    P'(q), which the pressure kernel integrates against the Perron data of
    the balanced matrix, not of B itself."""

    def test_variational_identity_derivative_and_parry(self, golden, full2, random4):
        s3 = sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])
        for n, s in enumerate((golden, full2, s3, random4)):
            assert equilibrium_measure(s, s.matrix_array()) == parry_measure(s)
            for r in (1, 2):
                phi = _seeded_potential(s, r, 100 * n + r)
                pf = pressure_function(s, phi)
                for q in (-3.0, -0.5, 0.0, 1.0, 2.0):
                    b = np.zeros((s.k, s.k))
                    for i, j in s.edges():
                        b[i, j] = math.exp(q * phi.table[(i, j)[:r]])
                    m = equilibrium_measure(s, b)
                    a = integrate(m, phi)
                    assert abs(entropy(m) + q * a - pf([q])[0]) <= 1e-11
                    assert abs(a - pf.cache[q][1]) <= 1e-11


class TestStationary:
    def test_periodic_chain(self):
        # period-2 chain: eigenvalues 1, -1 and 0, so rho is the largest real part
        s = sft_from_matrix(3, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        m = markov_measure(s, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
        assert m.pi == pytest.approx((0.25, 0.5, 0.25), abs=1e-12)

    def test_omitted_pi_matches_lu_oracle(self):
        for seed in range(30):
            s = random_primitive_sft(2 + seed % 4, seed)
            m = _thinned_chain(s, seed)
            assert np.max(np.abs(np.array(m.pi) - oracle._stationary(np.array(m.P)))) <= 1e-12


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
        """Edge-disjoint supports share no point; the I_NOT_QW structure rule
        asks it of mu and omega's attached orbit."""
        edges = support(markov_measure(full2, [[0.5, 0.5], [1.0, 0.0]])).edges
        assert edges.isdisjoint(support(periodic_measure(full2, (1,))).edges)
        assert not edges.isdisjoint(support(periodic_measure(full2, (0,))).edges)

    def test_pieces_stay_separate(self, full2):
        mix = mixture((0.5, 0.5), (parry_measure(full2), periodic_measure(full2, (1,))))
        assert len(support_pieces(mix)) == 2


class TestErgodicity:
    def test_parry_ergodic(self, golden):
        assert is_ergodic(parry_measure(golden))

    def test_mixture_not_ergodic(self, full2):
        mix = mixture((0.5, 0.5), (parry_measure(full2), periodic_measure(full2, (0,))))
        assert not is_ergodic(mix)


class TestSampling:
    def test_periodic_deterministic(self, full2):
        """A periodic segment is its cycle repeated from the first symbol,
        cut anywhere: inside the first period, inside a later one, and one
        past two whole periods."""
        m = periodic_measure(full2, (0, 1, 1))
        for n in (1, 5, 7):
            w = _regenerate([Segment(kind="periodic", start=0, length=n, source=0)], [m],
                            sub_seeds(["periodic"], 0))[0]
            assert w.dtype == SYMBOL_DTYPE
            assert tuple(w.tolist()) == ((0, 1, 1) * 3)[:n] == scalar_typical_word(m, n, 0)

    def test_full2_frequency(self, full2, phi_full2):
        w = sample_typical_words(parry_measure(full2), [1 << 16], [12345])
        assert abs(w.mean() - 0.5) < 0.01

    def test_golden_frequency(self, golden, phi_golden):
        m = parry_measure(golden)
        w = sample_typical_words(m, [1 << 16], [999])
        target = integrate(m, phi_golden)
        assert abs(w.mean() - target) < 0.01

    def test_alphabet_beyond_one_byte_refused(self):
        """257 symbols would wrap in one-byte symbols, so the sampler refuses them."""
        uniform = (1 / 257,) * 257
        m = MarkovMeasure(ShiftSpace(257, ((1,) * 257,) * 257), (uniform,) * 257, uniform)
        with pytest.raises(ValueError, match="257 symbols do not fit in uint8"):
            sample_typical_words(m, [4], [1])

    def test_always_admissible(self, golden, random4):
        for s in (golden, random4):
            w = sample_typical_words(parry_measure(s), [4096], [77])
            assert is_admissible(w, s)

    def test_same_seed_same_word(self, golden):
        m = parry_measure(golden)
        a, b = sample_typical_words(m, [512], [31337]), sample_typical_words(m, [512], [31337])
        assert tuple(a.tolist()) == tuple(b.tolist())

    def test_prefix_stability_under_longer_draw(self, golden):
        m = parry_measure(golden)
        short = sample_typical_words(m, [100], [5])
        long = sample_typical_words(m, [400], [5])
        assert tuple(long[:100].tolist()) == tuple(short.tolist())


def _thinned_chain(s, seed):
    """Markov measure with random weights on s whose support drops allowed
    edges while staying primitive, so some allowed transitions have P = 0."""
    k = s.k
    us = oracle.uniform_stream(seed, 2 * k * k)
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
        m = periodic_measure(s, draw(st.sampled_from(list(primitive_cycles(s, 4)))))
    b = draw(st.integers(1, 40))
    n = draw(st.sampled_from([1, 2, 3, b * b, b * b + 1, b * b + 2, 1 << 16])
             | st.integers(1, 5000))
    return m, n, draw(st.integers(0, (1 << 64) - 1))


@st.composite
def batch_cases(draw):
    """A Markov measure (Parry, a thinned chain, or a sub-Parry measure whose
    rows off the subgraph force one transition) and lists of lengths, some
    at and around the walk's chunk size, and seeds over the 64-bit range."""
    k = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["parry", "thinned", "sub_parry"]))
    if kind == "parry":
        m = parry_measure(random_primitive_sft(k, draw(st.integers(0, 1 << 16))))
    elif kind == "thinned":
        m = _thinned_chain(random_primitive_sft(k, draw(st.integers(0, 1 << 16))),
                           draw(st.integers(0, 1 << 16)))
    else:
        m = _sub_parry(full_shift(k))[0]
    chunk = SAMPLE_CHUNK
    lengths = draw(st.lists(st.sampled_from([1, 2, chunk - 1, chunk, chunk + 1])
                            | st.integers(1, 3000), min_size=1, max_size=4))
    seeds = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=len(lengths),
                          max_size=len(lengths)))
    return m, lengths, seeds


def _constant_step_maps(m):
    """Whether each step map a walk of m can draw is constant: the maps of
    reaching 1 .. #thresholds thresholds, and that of reaching none unless
    some threshold is 0, which every output reaches."""
    edges, table = _step_maps(_thresholds(m.P))
    drawn = table[int(len(edges) > 0 and edges[0] == 0):len(edges) + 1]
    return [bool((row == row[0]).all()) for row in drawn]


#: chains whose step maps are all constant, none constant, or some of each;
#: a Parry chain's kind (None, not asserted) hangs on the last bits of its
#: Perron solve, so the asserted kinds come from rows given exactly or from
#: a chain's graph (a state with one successor)
WALK_CHAINS = {
    "bernoulli_full2": ("all", lambda: markov_measure(full_shift(2), [[0.5, 0.5]] * 2)),
    "bernoulli_full10": ("all", lambda: markov_measure(full_shift(10), [[0.1] * 10] * 10)),
    "tilted_bernoulli": ("all", lambda: markov_measure(full_shift(3), [[0.2, 0.5, 0.3]] * 3)),
    "cycle_with_chord": ("none", lambda: parry_measure(
        sft_from_matrix(3, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]))),
    "sub_parry_full2": ("mixed", lambda: _sub_parry(full_shift(2))[0]),
    "parry_full2": (None, lambda: parry_measure(full_shift(2))),
    "parry_full3": (None, lambda: parry_measure(full_shift(3))),
    "parry_full10": (None, lambda: parry_measure(full_shift(10))),
}


class TestSamplerMatchesScalarWalk:
    @pytest.mark.parametrize("chain", sorted(WALK_CHAINS))
    def test_words_at_the_chunk_edges(self, chain):
        """Words one short of, at and one past SAMPLE_CHUNK, alone and as
        one batch, on chains whose step maps are all, none or some constant."""
        kind, make = WALK_CHAINS[chain]
        m = make()
        constant = _constant_step_maps(m)
        assert {"all": all(constant), "none": not any(constant), None: True,
                "mixed": any(constant) and not all(constant)}[kind]
        lengths = [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1]
        seeds = [3, (1 << 64) - 1, 20250809]
        words = [scalar_typical_word(m, n, seed) for n, seed in zip(lengths, seeds)]
        for n, seed, want in zip(lengths, seeds, words):
            assert tuple(sample_typical_words(m, [n], [seed]).tolist()) == want
        assert tuple(sample_typical_words(m, lengths, seeds).tolist()) == sum(words, ())

    @given(sampling_cases())
    @settings(max_examples=80, deadline=None)
    def test_symbol_for_symbol(self, case):
        """A Markov word is one segment of the sampler; a periodic one is a
        periodic segment as synthesis renders it."""
        m, n, seed = case
        if isinstance(m, PeriodicMeasure):
            w = _regenerate([Segment(kind="periodic", start=0, length=n, source=0)], [m],
                            sub_seeds(["periodic"], seed))[0]
        else:
            w = sample_typical_words(m, [n], [seed])
        assert w.dtype == SYMBOL_DTYPE
        assert tuple(w.tolist()) == scalar_typical_word(m, n, seed)

    @given(batch_cases())
    @settings(max_examples=30, deadline=None)
    def test_batch_is_the_concatenated_words(self, case):
        m, lengths, seeds = case
        w = sample_typical_words(m, lengths, seeds)
        assert w.dtype == SYMBOL_DTYPE
        assert tuple(w.tolist()) == sum((scalar_typical_word(m, n, seed)
                                         for n, seed in zip(lengths, seeds)), ())

    def test_batch_on_the_full_10_shift(self):
        """k = 10, with segments ending just before, at and just after chunk
        boundaries, and the extreme seeds."""
        m = parry_measure(full_shift(10))
        chunk = SAMPLE_CHUNK
        lengths = [1, 2, chunk - 1, chunk, chunk + 1, 5000]
        seeds = [0, (1 << 64) - 1, 1 << 63, 20250809, 1, (1 << 64) - 2]
        w = sample_typical_words(m, lengths, seeds)
        assert tuple(w.tolist()) == sum((scalar_typical_word(m, n, seed)
                                         for n, seed in zip(lengths, seeds)), ())

    def test_batch_refuses_empty_segments(self, full2):
        with pytest.raises(ValueError):
            sample_typical_words(parry_measure(full2), [4, 0], [1, 2])

    def test_thinned_chain_has_zero_allowed_transitions(self, full3):
        m = _thinned_chain(full3, 11)
        assert any(m.P[i][j] == 0 for i in range(3) for j in range(3))


class TestWalkMismatch:
    @pytest.mark.parametrize("chain", sorted(WALK_CHAINS))
    def test_first_flipped_symbol(self, chain):
        """Segments that straddle SAMPLE_CHUNK, standing apart in a stream
        whose symbols between them no walk reads: the clean stream gives -1,
        and one flipped symbol (at a segment's head, inside one, at either
        side of a chunk edge, or last) gives the first index where the
        stream and the walks differ.  The last segment spans 16 chunk
        edges, where a step reads its previous symbol from the last chunk."""
        m = WALK_CHAINS[chain][1]()
        k = m.shift.k
        lengths = [5, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 2, 7, 16 * SAMPLE_CHUNK + 1]
        seeds = [3, (1 << 64) - 1, 20250809, 1, 2]
        gaps = [0, 3, 1, 2, 1]   # symbols before each segment
        starts = [sum(gaps[:i + 1]) + sum(lengths[:i]) for i in range(len(lengths))]
        walk = sample_typical_words(m, lengths, seeds)
        clean = np.full(starts[-1] + lengths[-1], k - 1, dtype=SYMBOL_DTYPE)
        for at, seg in zip(starts, np.split(walk, np.cumsum(lengths)[:-1])):
            clean[at:at + len(seg)] = seg
        assert walk_mismatch(m, clean, starts, lengths, seeds) == -1

        def stream_index(step):   # where step `step` of the walks stands
            i = int(np.searchsorted(np.cumsum(lengths), step, side="right"))
            return starts[i] + step - sum(lengths[:i])

        flips = [starts[0], starts[2], starts[1] + 100, stream_index(SAMPLE_CHUNK - 1),
                 stream_index(SAMPLE_CHUNK), stream_index(2 * SAMPLE_CHUNK), len(clean) - 1]
        for at in flips:
            word = clean.copy()
            word[at] = (word[at] + 1) % k
            assert walk_mismatch(m, word, starts, lengths, seeds) == np.flatnonzero(word != clean)[0]


class TestValidation:
    def test_bad_row_sum(self, golden):
        with pytest.raises(ValueError):
            markov_measure(golden, [[0.5, 0.4], [1.0, 0.0]])

    def test_forbidden_edge(self, golden):
        with pytest.raises(ValueError):
            markov_measure(golden, [[0.5, 0.5], [0.5, 0.5]])

    def test_two_stationary_vectors(self):
        # two disjoint loops: rho = 1 is a double root, so pi is not determined
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="more than one stationary vector"):
            markov_measure(s, [[1.0, 0.0], [0.0, 1.0]])

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

    @pytest.mark.parametrize("table", [
        {(0,): 0.0, (1,): 1.0, (2,): 0.0},                 # symbol outside the alphabet
        {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0},           # 11 is forbidden, 10 missing
        {(0,): 0.0, (1, 0): 1.0},                           # a word of the wrong length
        {(0,): 0.0},                                        # a word missing
    ])
    def test_other_tables_rejected(self, golden, table):
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import validate_potential
        with pytest.raises(RangeMismatch):
            validate_potential(golden, Potential(range=len(next(iter(table))), table=table))

    def test_empty_table_refused_before_counting(self, full2):
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import validate_potential
        with pytest.raises(RangeMismatch, match="lists 0 words"):
            validate_potential(full2, Potential(range=10 ** 9, table={}))

    @given(seed=st.integers(0, 300), r=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_accepts_exactly_the_admissible_words(self, seed, r, data):
        """The key check and the count accept a table exactly when its words
        are the set of admissible r-words."""
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import validate_potential
        s = random_primitive_sft(2 + seed % 3, seed)
        admissible = set(iter_words(s, r))
        every = list(itertools.product(range(s.k), repeat=r))
        keys = data.draw(st.one_of(st.just(admissible), st.sets(st.sampled_from(every)),
                                   st.builds(lambda w: admissible - {w}, st.sampled_from(every)),
                                   st.builds(lambda w: admissible | {w}, st.sampled_from(every))))
        phi = Potential(range=r, table=dict.fromkeys(keys, 0.0))
        if keys == admissible:
            validate_potential(s, phi)
        else:
            with pytest.raises(RangeMismatch):
                validate_potential(s, phi)

    def test_alien_alphabet_rejected_on_integrate(self, golden):
        from shiftlab.errors import RangeMismatch
        from shiftlab.measures import Potential
        phi = Potential(range=1, table={(0,): 0.0, (1,): 1.0, (2,): 5.0})
        with pytest.raises(RangeMismatch):
            integrate(parry_measure(golden), phi)


class TestSplitmix:
    @pytest.mark.parametrize("seed", [0, 1, 20250809, (1 << 64) - 1, -7, (1 << 70) + 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 33, 1000])
    def test_stream_is_the_scalar_mix(self, seed, n):
        """One run from output 1 of a seed taken mod 2^64 is the scalar mix,
        and the oracle's uniforms are the top 53 bits of each output."""
        want = [oracle.splitmix64(seed + (i + 1) * oracle.GAMMA) for i in range(n)]
        run = rng.splitmix64_runs(np.array([seed % (1 << 64)], dtype=np.uint64), [1], [n])
        assert run.tolist() == want
        assert oracle.uniform_stream(seed, n).tolist() == [(z >> 11) / (1 << 53) for z in want]

    @pytest.mark.parametrize("buffers", [False, True])
    @pytest.mark.parametrize("seeds, firsts, counts", [
        ([5], [1000], [SAMPLE_CHUNK + 3]),
        ([0, (1 << 64) - 1, 20250809], [1, 7, 1 << 40], [SAMPLE_CHUNK - 1, 3, 9]),
        ([1, 2, 3, 4], [2, 1, 5, 1], [4, 0, SAMPLE_CHUNK, 2]),
    ])
    def test_runs_are_the_scalar_mix(self, seeds, firsts, counts, buffers):
        """Several runs from nonzero offsets, past one chunk in all, into
        fresh arrays or into the leading part of larger caller buffers."""
        want = [oracle.splitmix64(s + t * oracle.GAMMA)
                for s, f, c in zip(seeds, firsts, counts) for t in range(f, f + c)]
        seed_arr = np.array(seeds, dtype=np.uint64)
        if buffers:
            given = rng.run_buffers(sum(counts) + 5)
            got = rng.splitmix64_runs(seed_arr, firsts, counts, given)
            assert got.base is given[0]
        else:
            got = rng.splitmix64_runs(seed_arr, firsts, counts)
        assert got.dtype == np.uint64 and got.tolist() == want


def _per_row_thresholds(probs):
    """Reference for one row: the running sum in Python, left to right."""
    c = np.maximum.accumulate(np.array(list(itertools.accumulate(probs))[:-1], dtype=float))
    c = np.ceil(c * float(1 << 53)).clip(0.0)
    return c[c < float(1 << 53)].astype(np.uint64) << np.uint64(11)


@st.composite
def threshold_cases(draw):
    """(P, pi) as a MarkovMeasure stores them: a real chain's, or rows of
    random weights with zeros, and a start vector that may dip below 0."""
    if draw(st.booleans()):
        s = random_primitive_sft(draw(st.integers(2, 5)), draw(st.integers(0, 1 << 16)))
        m = (parry_measure(s) if draw(st.booleans())
             else _thinned_chain(s, draw(st.integers(0, 1 << 16))))
        return m.P, m.pi
    k = draw(st.integers(1, 6))
    weight = st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0]) | st.floats(0.0, 1.0)
    rows = []
    for _ in range(k):
        raw = draw(st.lists(weight, min_size=k, max_size=k))
        total = sum(raw)
        rows.append(tuple(x / total for x in raw) if total > 0 else (0.0,) * (k - 1) + (1.0,))
    pi = draw(st.lists(st.floats(-1e-16, 1.0), min_size=k, max_size=k))
    return tuple(rows), tuple(pi)


class TestStepMaps:
    @given(threshold_cases())
    @settings(max_examples=200, deadline=None)
    def test_vectorised_thresholds_match_the_per_row_sums(self, case):
        """One cumsum over every row gives the thresholds, the step-map table
        and pi's thresholds bit for bit as a Python running sum per row."""
        p, pi = case
        k = len(p)
        rows = [_per_row_thresholds(row) for row in p]
        want_edges = np.unique(np.concatenate(rows))
        want_table = np.empty((len(want_edges) + 1 + k, k), dtype=SYMBOL_DTYPE)
        want_table[0] = 0
        for i, row in enumerate(rows):
            want_table[1:len(want_edges) + 1, i] = np.searchsorted(row, want_edges, side="right")
        want_table[len(want_edges) + 1:] = np.arange(k)[:, None]
        scaled = _thresholds(p + (pi,))
        edges, table = _step_maps(scaled[:-1])
        assert edges.dtype == np.uint64 and edges.tolist() == want_edges.tolist()
        assert table.dtype == SYMBOL_DTYPE and np.array_equal(table, want_table)
        assert _bits(scaled[-1]).tolist() == _per_row_thresholds(pi).tolist()


class TestReimport:
    def test_a_fresh_import_frees_the_old_copy(self):
        """Importing the package afresh, as a harness that reloads it does,
        leaves one copy of the measure classes alive, not one per import."""
        script = ("import gc, importlib, sys\n"
                  "for _ in range(3):\n"
                  "    for name in [m for m in sys.modules if m.split('.')[0] == 'shiftlab']:\n"
                  "        del sys.modules[name]\n"
                  "    importlib.import_module('shiftlab.cli')\n"
                  "gc.collect()\n"
                  "print(sum(isinstance(o, type) and o.__name__ == 'MarkovMeasure'\n"
                  "          for o in gc.get_objects()))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.split() == ["1"]
