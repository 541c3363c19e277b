import math

import mpmath as mp
import numpy as np
import pytest

from shiftlab.beta import beta_count_words, beta_entropy_estimate, quasi_greedy_normalize
from shiftlab.errors import SymbolOutOfRange, ValidityExceeded
from shiftlab.shifts import count_words, golden_mean_shift, perron

from oracle import beta_admissible, brute_beta_count_words, match_length_beta_count_words

GOLDEN = "1.61803398874989484820458683436563811772"
TRIBONACCI = "1.8392867552141611325518525646532866004242"
PENTANACCI = "1.9659482366454853371899373759344013961513"
TEST_BETAS = ["1.8", GOLDEN, "2.5", mp.nstr(mp.e, 40), TRIBONACCI, PENTANACCI]
#: the oracle DP is compared up to this word length (or the validity length)
DP_MAX_N = 60
#: brute enumeration runs to n = 12, or to the last n with beta^n below this
#: many words (beta = 3.9 would list 12 million 12-words)
BRUTE_WORDS = 60_000


def greedy_digits(beta, n: int) -> tuple[int, ...]:
    """First n digits of the greedy (raw) expansion of 1."""
    return quasi_greedy_normalize(beta, raw=True).digits_prefix(n)


def distinct_streams(betas):
    """The quasi-greedy and the raw spec of each beta, one per distinct digit
    stream: a non-terminating expansion gives both modes the same stream."""
    specs = {}
    for beta in betas:
        for raw in (False, True):
            spec = quasi_greedy_normalize(beta, raw=raw)
            specs.setdefault((spec.preperiod, spec.period), spec)
    return list(specs.values())


def assert_counts_match_oracles(spec, brute_max_n: int) -> None:
    for n in range(1, min(DP_MAX_N, spec.validity_length) + 1):
        assert beta_count_words(spec, n) == match_length_beta_count_words(spec, n), n
    for n in range(1, brute_max_n + 1):
        assert beta_count_words(spec, n) == brute_beta_count_words(spec, n), n


class TestExpansion:
    def test_golden_digits(self):
        assert greedy_digits(GOLDEN, 4) == (1, 1, 0, 0)

    def test_digits_18(self):
        assert greedy_digits("1.8", 4) == (1, 1, 0, 1)

    def test_first_digit_is_floor(self):
        assert greedy_digits("2.5", 1) == (2,)

    def test_digits_in_range(self):
        for beta in TEST_BETAS:
            digits = greedy_digits(beta, 30)
            floor = int(mp.floor(mp.mpf(beta)))
            assert all(0 <= d <= floor for d in digits)


class TestNormalization:
    def test_golden_becomes_periodic(self):
        spec = quasi_greedy_normalize(GOLDEN)
        assert spec.preperiod == ()
        assert spec.period == (1, 0)

    def test_integer_full_shift(self):
        spec = quasi_greedy_normalize("2")
        assert spec.is_integer and spec.alphabet == 2
        assert beta_count_words(spec, 10) == 1024

    def test_nonterminating_truncated(self):
        spec = quasi_greedy_normalize("1.8")
        assert spec.period == ()
        assert spec.validity_length >= 100

    def test_raw_mode_keeps_literal_stream(self):
        raw = quasi_greedy_normalize(GOLDEN, raw=True)
        assert raw.preperiod == (1, 1)
        assert raw.period == (0,)
        assert beta_admissible((1, 1), raw)

    def test_self_maximality(self):
        for beta in TEST_BETAS:
            spec = quasi_greedy_normalize(beta)
            span = len(spec.preperiod) + max(len(spec.period), 1)
            limit = min(2 * span, spec.validity_length, 64)
            ref = spec.digits_prefix(limit)
            for shift in range(1, min(span, limit)):
                assert ref[shift:] <= ref[:limit - shift]


class TestAdmissibility:
    def test_golden_forbids_11(self):
        spec = quasi_greedy_normalize(GOLDEN)
        assert not beta_admissible((1, 1), spec)

    def test_golden_allows_alternation(self):
        spec = quasi_greedy_normalize(GOLDEN)
        assert beta_admissible((0, 1, 0, 1), spec)

    def test_zeros_always_admissible(self):
        for beta in TEST_BETAS:
            spec = quasi_greedy_normalize(beta)
            assert beta_admissible((0,) * 8, spec)

    def test_symbol_range(self):
        spec = quasi_greedy_normalize(GOLDEN)
        with pytest.raises(SymbolOutOfRange):
            beta_admissible((0, 2), spec)

    def test_validity_guard(self):
        spec = quasi_greedy_normalize("1.8")
        with pytest.raises(ValidityExceeded):
            beta_count_words(spec, spec.validity_length + 1)


class TestCounting:
    def test_golden_language_equals_sft(self):
        spec = quasi_greedy_normalize(GOLDEN)
        g = golden_mean_shift()
        for n in range(1, 11):
            assert beta_count_words(spec, n) == count_words(g, n)

    def test_automaton_matches_enumeration(self):
        """Both digit modes, against the match-length DP and brute enumeration."""
        for spec in distinct_streams(TEST_BETAS):
            assert_counts_match_oracles(spec, brute_max_n=12)

    @pytest.mark.parametrize("beta", [2, 3, 10, 10 ** 20])
    def test_integer_beta_counts_powers(self, beta):
        spec = quasi_greedy_normalize(str(beta))
        for n in (1, 2, 7, 22):
            assert beta_count_words(spec, n) == beta ** n

    def test_golden_long_words_equal_sft(self):
        spec = quasi_greedy_normalize(GOLDEN)
        assert beta_count_words(spec, 20_000) == count_words(golden_mean_shift(), 20_000)

    def test_estimates_monotone_and_above(self):
        for beta in TEST_BETAS:
            spec = quasi_greedy_normalize(beta)
            logb = math.log(spec.beta)
            ests = [beta_entropy_estimate(spec, n) for n in range(4, 17)]
            assert all(b <= a + 1e-12 for a, b in zip(ests, ests[1:]))
            assert all(e >= logb - 1e-12 for e in ests)

    @pytest.mark.parametrize("beta", [GOLDEN, TRIBONACCI, PENTANACCI, "3"])
    def test_standard_graph_perron_root_is_beta(self, beta):
        """The standard beta-shift graph of a periodic stream: state i has one
        edge to state i+1 (the fold after the last digit) and t_{i+1} edges
        to state 0.  Its Perron root is beta, a third route to log beta."""
        spec = quasi_greedy_normalize(beta)
        digits = spec.digits_prefix(len(spec.preperiod) + len(spec.period))
        graph = np.zeros((len(digits), len(digits)))
        for i, t in enumerate(digits):
            graph[i, 0] += t
            graph[i, i + 1 if i + 1 < len(digits) else len(spec.preperiod)] += 1
        assert abs(math.log(perron(graph)[0]) - math.log(spec.beta)) <= 1e-12

    def test_submultiplicative(self):
        for beta in TEST_BETAS:
            spec = quasi_greedy_normalize(beta)
            counts = {n: beta_count_words(spec, n) for n in range(1, 11)}
            for n in range(1, 6):
                for m in range(1, 11 - n):
                    assert counts[n + m] <= counts[n] * counts[m]


FUZZED_BETAS = ["1.05", "1.2599210498948731647672106072782", "1.5",
                "2.7182818284590452353602874713527", "3.3027756377319946465596106337352", "3.9"]


class TestFuzzedBetas:
    @pytest.mark.parametrize("beta,raw", [pytest.param(b, False, id=b) for b in FUZZED_BETAS]
                             + [pytest.param(b, True, id=f"{b}-raw") for b in FUZZED_BETAS])
    def test_normalization_and_counting_consistent(self, beta, raw):
        spec = quasi_greedy_normalize(beta, raw=raw)
        logb = math.log(spec.beta)
        assert_counts_match_oracles(
            spec, brute_max_n=max(n for n in range(1, 13) if spec.beta ** n <= BRUTE_WORDS))
        assert beta_entropy_estimate(spec, 12) >= logb - 1e-12

    def test_near_integer_snaps(self):
        spec = quasi_greedy_normalize("2.0000000000000000000000000000000000001")
        assert spec.is_integer and spec.alphabet == 2

    def test_just_off_integer_keeps_three_symbols(self):
        spec = quasi_greedy_normalize("2.000000000001")
        assert not spec.is_integer
        assert spec.alphabet == 3
