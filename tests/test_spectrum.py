import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from shiftlab import spectrum
from shiftlab.errors import (DegenerateInterval, EndpointSaturation, NotStronglyConnected,
                             OutsideInterior, PressureOverflow)
from shiftlab.measures import (entropy, indicator_potential, integrate, markov_measure,
                               parry_measure, Potential)
from shiftlab.shifts import iter_words, perron, sft_from_matrix, topological_entropy
from shiftlab.spectrum import (PressureFunction, check_concavity, has_irregular, lphi_interval,
                               spectrum_curve, sup_equals_htop)

from conftest import FULL3_QUARTERS, constant_potential, pressure_function, psi_at

PHI = (1 + math.sqrt(5)) / 2


def golden_pressure_exact(q: float) -> float:
    # B(q) = [[1,1],[e^q,0]] has Perron root (1 + sqrt(1+4e^q))/2
    return math.log((1 + math.sqrt(1 + 4 * math.exp(q))) / 2)


class TestPressure:
    def test_constant_potential_affine(self, golden):
        c = constant_potential(golden, 2.5)
        h = topological_entropy(golden)
        for q in (-3.0, 0.0, 7.0):
            [value] = pressure_function(golden, c)([q])
            assert value == pytest.approx(h + q * 2.5, abs=1e-9)

    def test_zero_is_entropy(self, golden, phi_golden):
        [value] = pressure_function(golden, phi_golden)([0.0])
        assert value == pytest.approx(topological_entropy(golden), abs=1e-9)

    def test_analytic_curve(self, golden, phi_golden):
        for q in (-20, -5, -1, 0, 0.5, 3, 25):
            [value] = pressure_function(golden, phi_golden)([float(q)])
            assert value == pytest.approx(golden_pressure_exact(q), abs=1e-10)

    def test_extreme_q_finite(self, golden, phi_golden):
        assert all(map(math.isfinite, pressure_function(golden, phi_golden)([500.0, -500.0])))

    def test_overflow_guard(self, golden, phi_golden):
        with pytest.raises(PressureOverflow):
            pressure_function(golden, phi_golden)([501.0])

    def test_convexity_on_cache(self, golden, phi_golden):
        pf = pressure_function(golden, phi_golden)
        qs = [-8, -4, -2, -1, 0, 1, 2, 4, 8]
        vals = {q: pf([float(q)])[0] for q in qs}
        for q1, q2, q3 in zip(qs, qs[1:], qs[2:]):
            chord = vals[q1] + (vals[q3] - vals[q1]) * (q2 - q1) / (q3 - q1)
            assert vals[q2] <= chord + 1e-9


class TestInterval:
    def test_golden(self, golden, phi_golden):
        iv = lphi_interval(golden, phi_golden)
        assert (iv.lo, iv.hi) == (0.0, 0.5)
        assert iv.lo_cycle == (0,)
        assert iv.hi_cycle == (0, 1)

    def test_full2(self, full2, phi_full2):
        iv = lphi_interval(full2, phi_full2)
        assert (iv.lo, iv.hi) == (0.0, 1.0)
        assert iv.lo_cycle == (0,) and iv.hi_cycle == (1,)

    def test_constant(self, golden):
        iv = lphi_interval(golden, constant_potential(golden, 2.5))
        assert iv.lo == iv.hi == 2.5

    def test_range2_potential(self, full2):
        # phi(w0 w1) = w0 - w1 has every cycle average zero
        table = {w: float(w[0] - w[1]) for w in iter_words(full2, 2)}
        phi = Potential(range=2, table=table)
        iv = lphi_interval(full2, phi)
        assert iv.lo == iv.hi == 0.0
        assert not has_irregular(full2, phi)

    def test_witness_cycle_averages_exact(self, random4):
        phi = indicator_potential(random4, (1,))
        iv = lphi_interval(random4, phi)
        lo_avg = sum(1 for c in iv.lo_cycle if c == 1) / len(iv.lo_cycle)
        hi_avg = sum(1 for c in iv.hi_cycle if c == 1) / len(iv.hi_cycle)
        assert lo_avg == pytest.approx(iv.lo, abs=1e-12)
        assert hi_avg == pytest.approx(iv.hi, abs=1e-12)

    def test_range5_block_graph_full3(self, full3):
        # 81 block nodes: an enumeration of simple cycles does not finish here
        iv = lphi_interval(full3, indicator_potential(full3, (0, 1, 2, 0, 1)))
        assert (iv.lo_exact, iv.lo_cycle) == (0, (0,))
        assert (iv.hi_exact, iv.hi_cycle) == (Fraction(1, 3), (0, 1, 2))

    def test_not_strongly_connected(self):
        s = sft_from_matrix(2, [[1, 0], [0, 1]])
        with pytest.raises(NotStronglyConnected):
            lphi_interval(s, indicator_potential(s, (1,)))


class TestIrregularity:
    def test_indicator_irregular_everywhere(self, golden, full2, full3, random4):
        for s in (golden, full2, full3, random4):
            assert has_irregular(s, indicator_potential(s, (1,)))

    def test_constant_regular(self, golden, full2, full3, random4):
        for s in (golden, full2, full3, random4):
            assert not has_irregular(s, constant_potential(s, 1.0))


class TestSpectrumPoint:
    def test_maximum_at_parry_average(self, golden, phi_golden):
        a_star = integrate(parry_measure(golden), phi_golden)
        psi, q = psi_at(golden, phi_golden, a_star)
        assert psi == pytest.approx(math.log(PHI), abs=1e-8)
        assert abs(q) < 1e-6

    def test_full2_symmetric_max(self, full2, phi_full2):
        psi, _ = psi_at(full2, phi_full2, 0.5)
        assert psi == pytest.approx(math.log(2), abs=1e-8)

    def test_memory1_analytic(self, golden, phi_golden):
        # entropy of the unique memory-1 chain with mean a: H(p)/(2-p), p=(1-2a)/(1-a)
        for a in (0.1, 0.2, 0.35, 0.45):
            p = (1 - 2 * a) / (1 - a)
            h = -(p * math.log(p) + (1 - p) * math.log(1 - p)) / (2 - p)
            psi, _ = psi_at(golden, phi_golden, a)
            assert psi == pytest.approx(h, abs=1e-7)

    def test_duality(self, golden, phi_golden):
        pf = pressure_function(golden, phi_golden)
        for a in (0.1, 0.25, 0.4):
            psi, q = psi_at(golden, phi_golden, a)
            assert abs(psi + q * a - pf([q])[0]) <= 1e-8

    def test_duality_along_curve(self, golden, phi_golden):
        pf = pressure_function(golden, phi_golden)
        curve = spectrum_curve(golden, phi_golden, 15)
        for a, psi, q in curve.points:
            assert abs(psi + q * a - pf([q])[0]) <= 1e-8

    def test_dominates_constructed_measures(self, golden, phi_golden):
        for p0 in (0.3, 0.5, 0.7):
            m = markov_measure(golden, [[p0, 1 - p0], [1.0, 0.0]])
            a = integrate(m, phi_golden)
            psi, _ = psi_at(golden, phi_golden, a)
            assert entropy(m) <= psi + 1e-8


class TestCurve:
    def test_golden_curve(self, golden, phi_golden):
        curve = spectrum_curve(golden, phi_golden, 33)
        assert check_concavity(curve)
        assert sup_equals_htop(curve)
        h = topological_entropy(golden)
        for a, psi, _ in curve.points:
            assert 0.0 < psi <= h + 1e-9

    def test_grid_contains_parry_average(self, golden, phi_golden):
        curve = spectrum_curve(golden, phi_golden, 5)
        assert min(abs(a - curve.parry_average) for a, _, _ in curve.points) <= 1e-3

    def test_degenerate_rejected(self, golden):
        with pytest.raises(DegenerateInterval):
            spectrum_curve(golden, constant_potential(golden, 1.0), 9)

    def test_collapsed_grid_outside_interior(self, golden):
        # phi(1) two ulps below phi(0) = 1e6: an interval about 1.2e-10 wide,
        # above the degeneracy tolerance, whose grid rounds onto lo
        below = np.nextafter(np.nextafter(1e6, 0.0), 0.0)
        phi = Potential(range=1, table={(0,): 1e6, (1,): float(below)})
        iv = lphi_interval(golden, phi)
        assert 1e-10 < iv.hi - iv.lo < 2e-10
        with pytest.raises(OutsideInterior, match="not inside"):
            spectrum_curve(golden, phi, 33)

    def test_range3_block_recode(self, full2):
        # potential on 3-words: indicator of 101; pressure at 0 still log 2
        table = {w: (1.0 if w == (1, 0, 1) else 0.0) for w in iter_words(full2, 3)}
        phi = Potential(range=3, table=table)
        [value] = pressure_function(full2, phi)([0.0])
        assert value == pytest.approx(math.log(2), abs=1e-9)
        iv = lphi_interval(full2, phi)
        assert iv.lo == 0.0 and iv.hi == pytest.approx(0.5, abs=1e-12)
        psi, _ = psi_at(full2, phi, 0.25)
        assert 0 < psi <= math.log(2) + 1e-9


class TestNearEndpoints:
    def test_interior_points_close_to_endpoints(self, golden, phi_golden):
        h = topological_entropy(golden)
        for a in (0.001, 0.499):
            psi, q = psi_at(golden, phi_golden, a)
            assert 0.0 < psi <= h + 1e-9
            assert abs(q) <= 500.0


def _mp_pressure(c: float):
    """P(q) of c * 1_[1] on the golden shift: log((1 + sqrt(1 + 4 e^{cq})) / 2)."""
    return lambda q: mpmath.log((1 + mpmath.sqrt(1 + 4 * mpmath.exp(c * q))) / 2)


class TestDerivatives:
    def test_slope_and_curvature_closed_form(self, golden, phi_golden):
        pf = pressure_function(golden, phi_golden)
        exact = _mp_pressure(1.0)
        for q in (-20.0, -5.0, -1.0, 0.0, 0.5, 3.0, 25.0):
            pf([q])
            _, slope, curvature = pf.cache[q]
            assert abs(slope - float(mpmath.diff(exact, q))) <= 1e-12
            assert abs(curvature - float(mpmath.diff(exact, q, 2))) <= 1e-12

    def test_slope_monotone_on_tied_extreme_cycles(self):
        # the minimum mean 3 sits on the loops at 1 and 2, joined by the tight
        # edge 1 -> 2: the Perron root is nearly double for q << 0, where the
        # Perron data lose their digits; P' must still rise within [lo, hi]
        s = sft_from_matrix(3, [[1, 1, 1], [0, 1, 1], [1, 0, 1]])
        pf = pressure_function(s, Potential(range=1, table={(0,): 9.0, (1,): 3.0, (2,): 3.0}))
        slopes = []
        for q in [-60.0 + 0.25 * i for i in range(241)]:
            pf([q])
            slopes.append(pf.cache[q][1])
        assert all(3.0 <= x <= 9.0 for x in slopes)
        assert all(x <= y + 1e-9 for x, y in zip(slopes, slopes[1:]))


class TestOverflowRegime:
    """|q| near the cap, where q phi spans hundreds of nats: the balanced
    kernel against closed forms."""

    def test_coboundary_is_entropy(self, golden):
        # phi(01) = 2, phi(10) = -2 is a coboundary: P(q) = log of the golden ratio
        phi = Potential(range=2, table={(0, 0): 0.0, (0, 1): 2.0, (1, 0): -2.0})
        pf = pressure_function(golden, phi)
        for q in (-500.0, -300.0, 300.0, 500.0):
            assert abs(pf([q])[0] - math.log(PHI)) <= 1e-12

    def test_scaled_indicator_closed_form(self, golden):
        phi = Potential(range=1, table={(0,): 0.0, (1,): 5.0})
        exact = _mp_pressure(5.0)
        pf = pressure_function(golden, phi)
        for q in (-500.0, -300.0, 300.0, 500.0):
            assert abs(pf([q])[0] - float(exact(q))) <= 1e-12

    def test_spectrum_point_near_endpoints(self, golden):
        # L_phi = [0, 5/2]; the exact root of P'(q) = a and psi = P(q) - q a
        phi = Potential(range=1, table={(0,): 0.0, (1,): 5.0})
        exact = _mp_pressure(5.0)
        for a in (1e-9, 2.5 - 1e-9):
            psi, q = psi_at(golden, phi, a)
            q_exact = mpmath.findroot(lambda t: mpmath.diff(exact, t) - a, q)
            assert abs(q - float(q_exact)) <= 1e-6
            assert abs(psi - float(exact(q_exact) - q_exact * a)) <= 1e-12


def lone_solve(pf: PressureFunction, q: float) -> tuple[float, float, float]:
    """pf's (P, P', P'') at q from one k x k Perron solve and 1-D numpy
    dots: the one-matrix formulation the stacked solve reproduces bit for bit."""
    iv = pf.interval
    k, edges = iv.system.k, list(iv.system.weights)
    rows, cols = np.array(edges).T
    mean, side = (iv.hi, iv.hi_reduced) if q >= 0 else (iv.lo, iv.lo_reduced)
    reduced = np.array([side[e] for e in edges])
    b = np.zeros((k, k))
    b[rows, cols] = np.exp(q * reduced)
    rho, inv = perron(b)
    with np.errstate(all="ignore"):
        right, left, green = inv[:k, k], inv[k, :k], inv[:k, :k]
        flow = left[rows] * b[rows, cols] / (rho * float(left @ right))
        drift = float(flow @ (right[cols] * reduced))
        centred = reduced - drift
        x = -green @ np.bincount(rows, b[rows, cols] * right[cols] * centred, minlength=k)
        variance = float(flow @ (centred * (right[cols] * centred + 2.0 * x[cols])))
    if not (reduced.min() <= drift <= reduced.max() and 0.0 <= variance < math.inf):
        return q * mean + math.log(rho), mean, 0.0
    return q * mean + math.log(rho), mean + drift, variance


class TestLockstep:
    """A curve's points run Newton in lockstep, each round one stacked Perron
    solve; every result must be the one a lone solve gives, bit for bit."""

    #: pressure evaluations of a 33-point curve, counted when the points
    #: ran one after another on a shared PressureFunction
    CURVE_EVALS = {"golden": 149, "full2_11111": 282, "full3_quarters": 151}

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_stacked_solve_equals_lone_solves(self, golden, full3, random4, r):
        rng = random.Random(r)
        qs = [i / 4 for i in range(-240, 241)] + [rng.uniform(-60.0, 60.0) for _ in range(40)]
        for s in (golden, full3, random4):
            phi = Potential(range=r, table={w: rng.randint(-8, 8) / 4 for w in iter_words(s, r)})
            together = pressure_function(s, phi)
            values = together(qs)
            alone = PressureFunction(together.interval)
            for q in qs:
                alone([q])
            assert together.cache == alone.cache == {q: lone_solve(alone, q) for q in qs}
            assert values == [alone.cache[q][0] for q in qs]

    def test_large_stacks_split(self, full3, monkeypatch):
        # 27 entries make three 3 x 3 matrices a stack: 10 q's take four solves
        qs = [i - 4.5 for i in range(10)]
        one = pressure_function(full3, FULL3_QUARTERS)
        one(qs)
        monkeypatch.setattr(spectrum, "STACK_ENTRIES", 27)
        split = PressureFunction(one.interval)
        sizes, solve = [], split._solve
        split._solve = lambda stack: sizes.append(len(stack)) or solve(stack)
        assert split(qs) == one(qs) and split.cache == one.cache
        assert sizes == [3, 3, 3, 1]

    def test_curve_points_are_lone_points(self, golden, phi_golden, full2, full3):
        cases = ((golden, phi_golden), (full3, FULL3_QUARTERS),
                 (full2, indicator_potential(full2, (1, 1, 1))))
        for s, phi in cases:
            curve = spectrum_curve(s, phi, 33)
            assert curve.points == [(a,) + psi_at(s, phi, a) for a, _, _ in curve.points]

    def test_curve_evaluation_count(self, golden, phi_golden, full2, full3, monkeypatch):
        made = []

        class Recording(PressureFunction):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)

        monkeypatch.setattr(spectrum, "PressureFunction", Recording)
        cases = {"golden": (golden, phi_golden),
                 "full2_11111": (full2, indicator_potential(full2, (1, 1, 1, 1, 1))),
                 "full3_quarters": (full3, FULL3_QUARTERS)}
        counts = {}
        for name, (s, phi) in cases.items():
            made.clear()
            spectrum_curve(s, phi, 33)
            counts[name] = len(made[0].cache)
        assert counts == self.CURVE_EVALS

    def test_saturation_of_first_point_in_grid_order(self, golden):
        # L_phi = [-0.0025, 0]: q phi stays within 2.5 nats of 0 up to the
        # cap, so P'(+-500) stops short of the outer grid points.  The lowest
        # point saturates at q = -500 on its third evaluation, the highest at
        # q = 500 on its second; the curve raises the lowest's, as a
        # point-by-point loop does
        phi = Potential(range=1, table={(0,): 0.0, (1,): -0.005})
        iv = lphi_interval(golden, phi)
        raised = []
        for i in range(9):
            try:
                psi_at(golden, phi, iv.lo + (iv.hi - iv.lo) * (i + 1) / 10)
            except EndpointSaturation as err:
                raised.append(str(err))
        assert len(raised) == 2
        with pytest.raises(EndpointSaturation) as err:
            spectrum_curve(golden, phi, 9)
        assert str(err.value) == raised[0]
