import itertools
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import classify
from shiftlab.classify import (CHECKS, DEFAULT_LADDER, _checked, _coverage, _Evidence,
                               _eventually_periodic, _frequencies, _agreeing_rotations,
                               _sweep_windows, birkhoff_trace,
                               default_trace_checkpoints, density_checkpoints,
                               evaluate_certificate, evaluate_checks, trace_oscillation,
                               window_codes, word_code)
from shiftlab.errors import SchemaError, TooShort
from shiftlab.io import report_to_doc
from shiftlab.measures import (SAMPLE_CHUNK, integrate, indicator_potential, parry_measure,
                               sample_typical_words, Potential)
from shiftlab.shifts import SYMBOL_DTYPE, full_shift, iter_words, sft_from_matrix
from shiftlab.synthesis import GapClass, synthesize_witness, thue_morse_word

from oracle import brute_self_visits, full_compare_eventually_periodic
from conftest import ACCEPTANCE_SEED, EVERY_CHECK, density_estimates


def alternating(n):
    return np.tile(np.array([0, 1], dtype=np.int64), n // 2 + 1)[:n]


def _self_stats(x, ell, n_max, k=2):
    """The sweep's visit facts of the length-ell self-cylinder, its gap included."""
    return _sweep_windows(x, k, n_max, {("self", ell), ("gap", ell)}).self_stats[ell]


def _empirical(x, ell, k=2):
    """Word -> share of the length-ell windows of x, off the sweep's counts."""
    return _frequencies(_sweep_windows(x, k, len(x) - ell, {("counts", ell)}).counts[ell], ell, k)


class TestVisitStatistics:
    def test_alternating_period2(self, full2):
        x = alternating(8192)
        st_ = _self_stats(x, 2, 4096)
        assert brute_self_visits(x, x[:2], 4096)[:3] == [2, 4, 6]
        assert st_.visits == 2048
        assert st_.lower_density_est == pytest.approx(0.5, abs=2e-3)
        assert st_.upper_density_est == pytest.approx(0.5, abs=2e-3)
        assert st_.max_gap == 2

    def test_all_zeros(self):
        x = np.zeros(4096, dtype=np.int64)
        st_ = _self_stats(x, 4, 2048)
        assert st_.lower_density_est == pytest.approx(1.0, abs=1e-2)

    def test_no_revisit(self):
        x = np.zeros(4096, dtype=np.int64)
        x[0] = 1
        st_ = _self_stats(x, 2, 2048)  # prefix 10 never recurs
        assert st_.visits == 0
        assert st_.upper_density_est == 0.0
        assert st_.max_gap == st_.horizon

    def test_too_short(self):
        """No visit time fits when the self-cylinder is the whole stream."""
        with pytest.raises(TooShort):
            _self_stats(np.zeros(8, dtype=np.int64), 8, 100)

    def test_bounds_always_ordered(self, full2):
        x = np.array(sample_typical_words(parry_measure(full2), [4096], [3]), dtype=np.int64)
        for ell in (1, 2, 4, 8):
            st_ = _self_stats(x, ell, len(x) - ell)
            assert 0.0 <= st_.lower_density_est <= st_.upper_density_est <= 1.0


class TestBirkhoffTrace:
    def test_alternating_half(self, full2, phi_full2):
        x = alternating(4096)
        ((n, avg),) = birkhoff_trace(x, phi_full2, [1000], k=2)
        assert n == 1000 and abs(avg - 0.5) <= 1 / 1000

    def test_zeros(self, phi_full2):
        x = np.zeros(4096, dtype=np.int64)
        assert birkhoff_trace(x, phi_full2, [100, 1000], k=2) == [(100, 0.0), (1000, 0.0)]

    def test_matches_empirical_integral(self, full2):
        # running average at n equals the phi-mass of the n-window empirical measure
        phi = Potential(range=2, table={w: float(w[0] * 2 - w[1]) for w in iter_words(full2, 2)})
        x = np.array(sample_typical_words(parry_measure(full2), [2100], [8]), dtype=np.int64)
        n = 2000
        ((_, avg),) = birkhoff_trace(x, phi, [n], k=2)
        emp = _empirical(x[:n + 1], 2)
        integral = sum(phi.table[w] * f for w, f in emp.items())
        assert abs(avg - integral) <= 2 * 2 * 2.0 / n

    def test_too_short(self, phi_full2):
        with pytest.raises(TooShort):
            birkhoff_trace(np.zeros(10, dtype=np.int64), phi_full2, [100], k=2)

    @pytest.mark.parametrize("length", [12, 40])
    @pytest.mark.parametrize("r", [2, 4])
    def test_window_outside_table_adds_zero(self, golden, r, length):
        """On an inadmissible stream the windows of forbidden words add 0,
        whether the trace reads a table of all 2**r codes (at most as many
        as the windows) or searches the potential's own codes (r = 4 with
        12 symbols)."""
        phi = Potential(range=r, table={w: float(i + 1) for i, w in enumerate(iter_words(golden, r))})
        x = np.random.default_rng(r * length).integers(0, 2, length)
        x[3:5] = 1
        checkpoints = list(range(1, length - r + 1))
        windows = [phi.table.get(tuple(x[i:i + r].tolist()), 0.0) for i in range(length - r)]
        assert birkhoff_trace(x, phi, checkpoints, k=2) == [
            (n, sum(windows[:n]) / n) for n in checkpoints]

    def test_memory_follows_the_table(self, golden):
        """A range-22 potential on the golden-mean shift lists its 46,368
        admissible words; a dense table of all 2^22 codes would take 32 MiB."""
        phi = indicator_potential(golden, (0,) * 22)
        x = np.zeros(1200, dtype=np.int64)
        x[::25] = 1
        tracemalloc.start()
        try:
            trace = birkhoff_trace(x, phi, [1000, 1150], k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        zero_runs = np.convolve(x, np.ones(22, dtype=np.int64), "valid") == 0
        assert trace == [(n, float(zero_runs[:n].sum() / n)) for n in (1000, 1150)]


class TestChunkedTrace:
    @pytest.mark.parametrize("lookup", ["dense", "searched"])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_equals_one_cumsum(self, r, lookup):
        """Summed a chunk at a time, the trace equals, float for float, one
        cumsum over every window, at the checkpoints around the first chunk
        edge and at the last window.  The potential has random values on
        the words of symbols 0..2 but one; the searched lookup declares an
        alphabet so large that a table of all its codes outgrows the windows."""
        gen = np.random.default_rng(10 * r + len(lookup))
        x = gen.integers(0, 3, SAMPLE_CHUNK + 50)
        windows = len(x) - r + 1
        k = 3 if lookup == "dense" else math.ceil(windows ** (1 / r)) + 1
        assert (k ** r <= windows) == (lookup == "dense")
        words = list(itertools.product(range(3), repeat=r))
        table = {w: float(gen.normal()) for w in words[1:]}
        phi = Potential(range=r, table=table)
        xs = x.tolist()
        sums = np.cumsum([table.get(tuple(xs[i:i + r]), 0.0) for i in range(windows)])
        checkpoints = [1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, len(x) - r]
        assert birkhoff_trace(x, phi, checkpoints, k) == [
            (n, float(sums[n - 1] / n)) for n in checkpoints]

    def test_memory_is_one_chunk(self, full2, phi_full2):
        """A trace of 2^20 symbols holds a chunk of codes and sums, not the
        stream's (16 MB of them)."""
        x = sample_typical_words(parry_measure(full2), [1 << 20], [1])
        tracemalloc.start()
        try:
            birkhoff_trace(x, phi_full2, default_trace_checkpoints(len(x) - 1), k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestEmpiricalMeasure:
    def test_point_mass(self):
        x = np.zeros(512, dtype=np.int64)
        em = _empirical(x, 3)
        assert em == {(0, 0, 0): 1.0}

    def test_sums_to_one(self, full2):
        x = np.array(sample_typical_words(parry_measure(full2), [4096], [10]), dtype=np.int64)
        for ell in (1, 2, 3):
            assert sum(_empirical(x, ell).values()) == pytest.approx(1.0, abs=1e-12)

    def test_lln_against_integrate(self, golden, phi_golden):
        m = parry_measure(golden)
        x = np.array(sample_typical_words(m, [1 << 16], [2024]), dtype=np.int64)
        em = _empirical(x, 1)
        assert em.get((1,), 0.0) == pytest.approx(integrate(m, phi_golden), abs=0.01)

    def test_marginal_consistency(self, full2):
        x = np.array(sample_typical_words(parry_measure(full2), [1 << 14], [5]), dtype=np.int64)
        n = len(x)
        for ell in (2, 3):
            em_l = _empirical(x, ell)
            em_s = _empirical(x, ell - 1)
            for w, f in em_s.items():
                total = sum(em_l.get(w + (c,), 0.0) for c in (0, 1))
                assert abs(total - f) <= 2.0 / n


class TestCoverage:
    def test_full_support_sample(self, full2):
        x = np.array(sample_typical_words(parry_measure(full2), [1 << 14], [6]), dtype=np.int64)
        r = evaluate_certificate(x, full2, [{"check": "coverage_counts", "length": 3,
                                             "min_visits": 8}])
        assert r.cylinder_coverage == {1: 1.0, 2: 1.0, 4: 1.0}
        assert r.all_pass and r.verdicts[0]["measured"] >= 8

    def test_starved_word(self, full2):
        x = np.zeros(4096, dtype=np.int64)
        counts = _sweep_windows(x, 2, 4000, {("counts", 2)}).counts[2]
        frac, raw = _coverage(counts, full2, 2)
        assert raw[(0, 0)] > 0 and raw[(1, 1)] == 0
        assert frac == 0.25


class TestOscillation:
    def test_constant_trace(self):
        trace = [(n, 0.3) for n in (10, 100, 1000)]
        lo, hi = trace_oscillation(trace)
        assert lo == hi == 0.3

    def test_window_filters(self):
        trace = [(10, 0.0), (600, 0.4), (1000, 0.5)]
        lo, hi = trace_oscillation(trace)
        assert (lo, hi) == (0.4, 0.5)


class TestEvaluate:
    def test_periodic_densities(self, full2):
        x = alternating(1 << 14)
        stats = [{"check": "periodic_density_exact", "period": 2}]
        r = evaluate_certificate(x, full2, stats)
        assert r.all_pass

    def test_unknown_check_fails_closed(self, full2):
        x = alternating(1 << 14)
        for evaluate in (evaluate_certificate, evaluate_checks):
            with pytest.raises(SchemaError, match="unknown check kind 'definitely_not_a_check'"):
                evaluate(x, full2, [{"check": "definitely_not_a_check"}])

    def test_report_is_pure_data(self, full2, phi_full2):
        x = alternating(1 << 14)
        stats = [{"check": "trace_oscillation", "min_gap": 0.5}]
        r = evaluate_certificate(x, full2, stats, phi=phi_full2)
        assert not r.all_pass  # alternation converges; no exception raised
        assert r.oscillation[0] <= r.oscillation[1]


def _same(a, b) -> bool:
    """Equal, with the same Python types all through."""
    return a == b and repr(a) == repr(b)


class TestVerifyVerdicts:
    """evaluate_checks, a plain verify's verdict pass, computes only the facts
    the checks declare, and its verdicts are those of verify --report."""

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_verdict_reads_only_declared_facts(self, full2, phi_full2, name):
        """Scored from the facts its needs declare alone, and a trace only if
        it declares one, each kind gives the full report's verdict; a fact
        read but not declared raises KeyError, an undeclared trace IndexError."""
        chk = next(c for c in EVERY_CHECK if c["check"] == name)
        x = np.array(sample_typical_words(parry_measure(full2), [4096], [19]), dtype=np.int64)
        kind, p = _checked(chk, len(x), 2, True)
        facts = _sweep_windows(x, 2, len(x) - max(DEFAULT_LADDER), kind.needs(p))
        trace = birkhoff_trace(x, phi_full2, default_trace_checkpoints(len(x) - phi_full2.range),
                               k=2) if kind.trace else []
        declared = kind.verdict(p, _Evidence(x, full2, trace, facts))
        (full,) = evaluate_certificate(x, full2, [chk], phi=phi_full2).verdicts
        assert {k: v for k, v in full.items() if k not in ("check", "params")} == declared

    def test_default_witnesses(self, witnesses, full2, phi_full2):
        """Every default witness, and the two cross-scored pairs, whose
        verdicts include failures."""
        orbits, _ = witnesses
        a, b = orbits[GapClass.R_FULL_SUPPORT], orbits[GapClass.I_NOT_QW]
        cases = [(o.word, o.certificate.expected_statistics) for o in orbits.values()]
        cases += [(a.word, b.certificate.expected_statistics),
                  (b.word, a.certificate.expected_statistics)]
        passes = []
        for word, checks in cases:
            verdicts = evaluate_checks(word, full2, checks, phi=phi_full2)
            assert _same(verdicts, evaluate_certificate(word, full2, checks,
                                                        phi=phi_full2).verdicts)
            passes.append(all(v["passed"] for v in verdicts))
        assert passes == [True] * len(orbits) + [False, False]

    def test_symbol_dtype_leaves_report_bytes(self, witnesses, full2, phi_full2):
        """A default witness's report is the same from its one-byte symbols
        and from an int64 copy."""
        for o in witnesses[0].values():
            assert o.word.dtype == SYMBOL_DTYPE
            docs = [json.dumps(report_to_doc(evaluate_certificate(
                word, full2, o.certificate.expected_statistics, phi=phi_full2)), indent=2)
                for word in (o.word, o.word.astype(np.int64))]
            assert docs[0] == docs[1]

    def test_three_symbol_witnesses(self, full3):
        """The classes that pass on the full 3-shift and a 3-symbol shift."""
        for s in (full3, sft_from_matrix(3, [[1, 1, 1], [1, 1, 0], [1, 0, 1]])):
            phi = indicator_potential(s, (0,))
            for gc in GapClass:
                if gc is GapClass.I_NOT_QW:
                    continue
                o = synthesize_witness(s, gc, phi, 1 << 14, seed=ACCEPTANCE_SEED)
                checks = o.certificate.expected_statistics
                report = evaluate_certificate(o.word, s, checks, phi=phi)
                assert report.all_pass, (gc, report.verdicts)
                assert _same(evaluate_checks(o.word, s, checks, phi=phi), report.verdicts)

    def test_only_read_facts_computed(self, witnesses, full2, phi_full2, monkeypatch):
        """Classes whose checks read no window codes and no trace compute
        neither; the report computes both for each."""
        calls = {"birkhoff_trace": 0, "window_codes": 0}

        def counted(name):
            fn = getattr(classify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(classify, name, counted(name))
        orbits, _ = witnesses
        expected = {GapClass.V_NOT_W: 0, GapClass.PERIODIC: 0,
                    GapClass.ALMOST_PERIODIC_NOT_PER: 0, GapClass.QR_NOT_ERG_NOT_A: 1}
        for gc, traces in expected.items():
            o = orbits[gc]
            for name in calls:
                calls[name] = 0
            evaluate_checks(o.word, full2, o.certificate.expected_statistics, phi=phi_full2)
            assert calls["birkhoff_trace"] == traces, gc
            if not traces:
                assert calls["window_codes"] == 0, gc
            evaluate_certificate(o.word, full2, o.certificate.expected_statistics, phi=phi_full2)
            assert calls["birkhoff_trace"] == traces + 1 and calls["window_codes"] > 0, gc


@st.composite
def visit_sets(draw):
    n_max = draw(st.integers(2000, 8000))
    step = draw(st.integers(2, 50))
    jitter = draw(st.integers(0, 1))
    visits = np.arange(1, n_max, step, dtype=np.int64) + jitter
    return visits[visits < n_max], n_max


class TestDensityProperties:
    @given(visit_sets())
    @settings(max_examples=30, deadline=None)
    def test_lower_below_upper(self, vs):
        visits, n_max = vs
        lo, hi = density_estimates(visits, n_max)
        assert 0.0 <= lo <= hi <= 1.0

    def test_checkpoints_cover_window(self):
        pts = default_trace_checkpoints(1 << 20)
        assert pts[-1] == 1 << 20
        assert pts[0] >= 1


class TestHierarchyConsistency:
    def test_w_evidence_implies_qw_evidence(self, full2, phi_full2):
        # positive lower density at every ladder length forces positive upper
        # density: the estimators satisfy lower <= upper pointwise
        from shiftlab.synthesis import GapClass, synthesize_witness
        o = synthesize_witness(full2, GapClass.W_NOT_QR, phi_full2, 1 << 15, seed=12)
        r = evaluate_certificate(o.word, full2, [])
        for st_ in r.ladder_stats.values():
            if st_.lower_density_est > 0:
                assert st_.upper_density_est > 0
            assert st_.lower_density_est <= st_.upper_density_est

    def test_thue_morse_gap_is_horizon_free(self):
        g16, g18 = (evaluate_certificate(thue_morse_word(n), full_shift(2), []).ladder_stats[4]
                    .max_gap for n in (1 << 16, 1 << 18))
        assert g16 == g18 == 8


def _stream(k, n, seed):
    return np.random.default_rng(seed).integers(0, k, n).astype(np.int64)


class TestWindowCodes:
    def test_codes_that_fill_int64(self):
        x = _stream(2, 200, 5)
        codes = window_codes(x, 63, 2)
        assert codes.min() >= 0
        assert [int(c) for c in codes] == [word_code(x[i:i + 63].tolist(), 2)
                                           for i in range(len(codes))]

    def test_codes_that_would_wrap_raise(self):
        x = np.ones(200, dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            window_codes(x, 64, 2)
        with pytest.raises(ValueError, match="int64"):
            window_codes(x, 70, 2)

    def test_narrowest_unsigned_dtype(self):
        x = _stream(3, 100, 4)
        for ell, dtype in ((1, np.uint8), (5, np.uint8), (6, np.uint16), (11, np.uint32),
                           (21, np.uint64)):
            assert window_codes(x, ell, 3).dtype == dtype
            assert window_codes(x.astype(SYMBOL_DTYPE), ell, 3).dtype == dtype

    @given(k=st.integers(2, 4), n=st.integers(30, 400), seed=st.integers(0, 2 ** 32),
           lengths=st.sets(st.integers(1, 6), min_size=1, max_size=5),
           chunk=st.sampled_from([7, 64, SAMPLE_CHUNK]))
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_fresh_codes(self, k, n, seed, lengths, chunk):
        """Counted a chunk at a time, each length's counts are those of the
        codes of the whole stream."""
        x = _stream(k, n, seed)
        with mock.patch.object(classify, "SAMPLE_CHUNK", chunk):
            counts = _sweep_windows(x, k, n - 12, {("counts", ell) for ell in lengths}).counts
        assert sorted(counts) == sorted(lengths)
        for ell in lengths:
            assert np.array_equal(counts[ell], np.bincount(window_codes(x, ell, k),
                                                           minlength=k ** ell))


def _brute_facts(x, word, h):
    """(visits, lower, upper, max_gap) of `word` at times 1..h from the tuple
    scan: densities at the checkpoints, and the gaps as the sweep documents
    them for a self-cylinder."""
    visits = brute_self_visits(x, word, h)
    ratios = [sum(1 for t in visits if t < pt) / pt for pt in density_checkpoints(h).tolist()]
    if len(visits) >= 2:
        gap = max(b - a for a, b in zip([0] + visits, visits))
    else:
        gap = max(visits[0], h - visits[0]) if visits else h
    return len(visits), min(ratios), max(ratios), gap


class TestSweepFacts:
    """Facts from the one sweep equal a brute tuple scan exactly, whether the
    stream is one chunk or many (classify's chunk size patched to 64)."""

    @given(k=st.integers(2, 3), seed=st.integers(0, 2 ** 32), n=st.integers(200, 3000),
           period=st.sampled_from([None, 1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_facts_equal_per_target_scans(self, k, seed, n, period):
        self._facts_equal_scans(k, seed, n, period)

    @given(k=st.integers(2, 3), seed=st.integers(0, 2 ** 32), n=st.integers(200, 3000),
           period=st.sampled_from([None, 1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_facts_across_chunk_seams(self, k, seed, n, period):
        with mock.patch.object(classify, "SAMPLE_CHUNK", 64):
            self._facts_equal_scans(k, seed, n, period)

    def test_gap_only_where_declared(self):
        x = _stream(2, 500, 1)
        facts = _sweep_windows(x, 2, 488, {("self", 1), ("gap", 2)})
        assert facts.self_stats[1].max_gap is None
        assert facts.self_stats[2].max_gap == _brute_facts(x, x[:2], 488)[3]

    @staticmethod
    def _facts_equal_scans(k, seed, n, period):
        x = _stream(k, n, seed)
        if period is not None:
            x = np.tile(x[:period], n // period + 1)[:n]
        s = full_shift(k)
        n_max = n - 8
        needs = {(fact, ell) for fact in ("gap", "counts", "lower") for ell in (1, 2, 3)}
        needs |= {("gap", 8), ("gap", 10)}
        facts = _sweep_windows(x, k, n_max, needs)
        for ell in (1, 2, 3, 8, 10):
            got = facts.self_stats[ell]
            h = min(n_max, n - ell)
            assert (got.visits, got.lower_density_est, got.upper_density_est, got.max_gap,
                    got.horizon) == (*_brute_facts(x, x[:ell], h), h)
        for ell in (1, 2, 3):
            for w in iter_words(s, ell):
                visits, lower, _, _ = _brute_facts(x, w, n_max)
                assert facts.lower[ell][word_code(w, k)] == lower
                assert facts.counts[ell][word_code(w, k)] == \
                    len(brute_self_visits(x, w, n - ell)) + (tuple(x[:ell].tolist()) == w)
        phi = Potential(range=2, table={w: float(i) for i, w in enumerate(iter_words(s, 2))})
        sums = np.cumsum([phi.table[tuple(x[i:i + 2].tolist())] for i in range(n - 2)])
        checkpoints = default_trace_checkpoints(n - 2)
        assert birkhoff_trace(x, phi, checkpoints, k) == [
            (c, float(sums[c - 1] / c)) for c in checkpoints]


class TestPeriodicDensity:
    @pytest.mark.parametrize("cycle", ["1", "01", "001", "0101", "0110", "0" * 12 + "1",
                                       "0" * 16 + "1", "0" * 69 + "1"])
    def test_tiled_cycle_passes(self, full2, cycle):
        """Periods past the ladder, and past the 63 symbols whose window codes
        fit in int64."""
        c = np.array([int(ch) for ch in cycle], dtype=np.int64)
        x = np.tile(c, (1 << 14) // len(c) + 1)[:1 << 14]
        stats = [{"check": "periodic_density_exact", "period": len(c)}]
        assert evaluate_certificate(x, full2, stats).all_pass

    @pytest.mark.parametrize("cycle,period", [("001", 2), ("01", 3), ("0011", 3)])
    def test_wrong_period_fails(self, full2, cycle, period):
        c = np.array([int(ch) for ch in cycle], dtype=np.int64)
        x = np.tile(c, (1 << 14) // len(c) + 1)[:1 << 14]
        stats = [{"check": "periodic_density_exact", "period": period}]
        assert not evaluate_certificate(x, full2, stats).all_pass

    def test_aperiodic_stream_fails(self, full2):
        x = _stream(2, 1 << 14, 8)
        stats = [{"check": "periodic_density_exact", "period": 3}]
        assert not evaluate_certificate(x, full2, stats).all_pass

    def test_rotation_agreements(self):
        def agreeing(cycle):
            return [r.tolist() for r in _agreeing_rotations(np.array(cycle))]
        assert agreeing([0, 0, 1]) == [[0, 1], [0], [0]]
        assert agreeing([0, 1, 0, 1]) == [[0, 2]] * 4
        assert agreeing([1]) == [[0]]

    def test_long_period(self, full2):
        """A 16,000-symbol random cycle at 2^16: one boolean pass and no Python
        work per length that grows with it.  A period next to the true one fails:
        its predicted visit counts are off at some checkpoint."""
        c = _stream(2, 16000, 16000)
        x = np.tile(c, (1 << 16) // len(c) + 1)[:1 << 16]
        start = time.perf_counter()
        assert evaluate_certificate(x, full2, [{"check": "periodic_density_exact",
                                                "period": 16000}]).all_pass
        assert time.perf_counter() - start < 5.0
        stats = [{"check": "periodic_density_exact", "period": 15999}]
        assert not evaluate_certificate(x, full2, stats).all_pass


def test_coverage_fraction_verdict_is_a_python_bool(full2):
    stats = [{"check": "coverage_fraction_of_expected", "length": 2, "fraction": 0.5,
              "expected": [[list(w), 0.25] for w in iter_words(full2, 2)]}]
    r = evaluate_certificate(_stream(2, 1 << 12, 3), full2, stats)
    assert type(r.verdicts[0]["passed"]) is bool and r.all_pass


def _eventually_periodic_arrays():
    periodic = st.builds(lambda c, n: np.tile(np.array(c, dtype=np.int64), n // len(c) + 1)[:n],
                         st.lists(st.integers(0, 2), min_size=1, max_size=40),
                         st.integers(1, 5000))
    prefixed = st.builds(lambda pre, tail: np.concatenate([np.array(pre, dtype=np.int64), tail]),
                         st.lists(st.integers(0, 2), max_size=3000), periodic)
    noise = st.builds(_stream, st.integers(2, 3), st.integers(1, 5000), st.integers(0, 2 ** 32))
    return st.one_of(periodic, prefixed, noise)


class TestEventuallyPeriodic:
    @given(x=_eventually_periodic_arrays(), max_period=st.sampled_from([1, 3, 40, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_as_full_compare(self, x, max_period):
        assert _eventually_periodic(x, max_period) == \
            full_compare_eventually_periodic(x, max_period)

    def test_thue_morse_and_its_periodic_tail(self):
        tm = thue_morse_word(1 << 16)
        assert not _eventually_periodic(tm, 1024)
        tail = np.tile(tm[:300], 200)
        x = np.concatenate([tm, tail])
        assert _eventually_periodic(x, 1024) == full_compare_eventually_periodic(x, 1024)
        assert _eventually_periodic(tail, 300) and not _eventually_periodic(tail, 299)
