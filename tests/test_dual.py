"""Tests for the natural-parameter geometry."""

import math

import numpy as np
import pytest

from bailab.dual import (
    NaturalInstance,
    bregman,
    dual_rate_objects,
    mean_to_natural,
    natural_to_mean,
    phi_second,
    phi_second_range,
    potential,
    taylor_bracket_check,
)
from bailab.errors import ArgumentError, DomainError
from bailab.rates import BanditInstance, kl_bernoulli, lambda_star, x_star

# Frozen from a 60-digit mpmath evaluation of the defining formulas.
SIGMOID_2 = 0.8807970779778824
BREGMAN_2_M2 = 1.5231883119115297
PHI2_AT_3 = 0.04517665973091213
PHI2_AT_1 = 0.19661193324148185


def random_instances(n, seed, lo=0.05, hi=0.95, min_gap=0.01):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        m1, m2 = rng.uniform(lo, hi, 2)
        if abs(m1 - m2) >= min_gap:
            out.append(BanditInstance(m1, m2))
    return out


class TestConversions:
    def test_logit_of_half_is_zero(self):
        assert mean_to_natural(0.5) == 0.0

    def test_frozen_sigmoid_pair(self):
        assert natural_to_mean(2.0) == pytest.approx(SIGMOID_2, abs=2e-16)
        assert mean_to_natural(0.8807970779778823) == pytest.approx(2.0, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = float(rng.uniform(1e-6, 1 - 1e-6))
            assert natural_to_mean(mean_to_natural(p)) == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0, float("nan")])
    def test_mean_domain(self, p):
        with pytest.raises(DomainError):
            mean_to_natural(p)

    def test_natural_requires_finite(self):
        with pytest.raises(DomainError):
            natural_to_mean(float("inf"))

    def test_instance_round_trip(self):
        inst = BanditInstance(0.8, 0.4)
        nat = NaturalInstance.from_means(inst)
        back = nat.to_means()
        assert back.mu1 == pytest.approx(inst.mu1, abs=1e-15)
        assert back.mu2 == pytest.approx(inst.mu2, abs=1e-15)

    def test_natural_instance_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            NaturalInstance(float("inf"), 0.0)


class TestPotential:
    def test_symmetric_point(self):
        phi, prime, second = potential(0.0)
        assert phi == math.log(2.0)
        assert prime == 0.5
        assert second == 0.25

    def test_large_argument_is_overflow_safe(self):
        phi, prime, second = potential(50.0)
        assert phi == pytest.approx(50.0, abs=1e-12)
        assert prime == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < second <= 0.25
        assert math.isfinite(potential(700.0).phi)
        assert math.isfinite(potential(-700.0).phi)

    def test_second_derivative_is_exactly_even(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            xi = float(rng.uniform(-30, 30))
            assert phi_second(xi) == phi_second(-xi)

    def test_second_derivative_keeps_its_bits_up_to_1000(self):
        grid = np.concatenate([np.linspace(-1000.0, 1000.0, 20_001),
                               [745.1332191019411, 745.1332191019412, 1000.0, -1000.0]])
        for xi in map(float, grid):
            t = 0.5 / math.cosh(0.5 * xi)
            assert phi_second(xi) == t * t

    @pytest.mark.parametrize("xi", [1000.5, 1421.0, 3000.0, 1e300, math.inf])
    def test_second_derivative_is_zero_where_cosh_overflows(self, xi):
        assert phi_second(xi) == phi_second(-xi) == 0.0

    def test_far_argument_has_zero_curvature(self):
        assert potential(3000.0).phi_second == potential(-3000.0).phi_second == 0.0

    def test_second_derivative_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            xi = float(rng.uniform(-50, 50))
            assert 0.0 < phi_second(xi) <= 0.25

    def test_range_uses_unimodality(self):
        lo, hi = phi_second_range(1.0, 3.0)
        assert lo == phi_second(3.0) and hi == phi_second(1.0)
        assert lo == pytest.approx(PHI2_AT_3, abs=2e-17)
        assert hi == pytest.approx(PHI2_AT_1, abs=1e-16)
        lo, hi = phi_second_range(-5.0, 5.0)
        assert hi == 0.25
        assert lo == phi_second(5.0)
        # oracle: dense grid over the interval (peak resolved to grid spacing)
        grid = np.linspace(-2.0, 7.0, 10_001)
        vals = [phi_second(float(v)) for v in grid]
        lo, hi = phi_second_range(-2.0, 7.0)
        assert lo == pytest.approx(min(vals), abs=1e-12)
        assert hi == pytest.approx(max(vals), abs=1e-7)
        assert hi >= max(vals)


class TestBregman:
    def test_zero_on_diagonal(self):
        for xi in (-3.0, 0.0, 2.5):
            assert bregman(xi, xi) == 0.0

    def test_frozen_value(self):
        assert bregman(2.0, -2.0) == pytest.approx(BREGMAN_2_M2, abs=5e-16)

    def test_far_argument_stays_finite(self):
        assert abs(bregman(0.0, 3000.0) - math.log(2.0)) <= 1e-9

    def test_positive_off_diagonal(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            a, b = rng.uniform(-6, 6, 2)
            if abs(a - b) > 1e-3:
                assert bregman(float(a), float(b)) > 0.0

    def test_matches_kl_divergence(self):
        for inst in random_instances(300, seed=29, min_gap=0.0):
            nat = NaturalInstance.from_means(inst)
            kl = kl_bernoulli(inst.mu1, inst.mu2)
            assert bregman(nat.xi2, nat.xi1) == pytest.approx(kl, abs=1e-10)


class TestDualRateObjects:
    def test_boundary_allocation(self):
        nat = NaturalInstance(1.5, -0.5)
        objs = dual_rate_objects(0.0, nat)
        assert objs.lambda_bar == 1.5

    def test_matches_primal_minimizer(self):
        rng = np.random.default_rng(31)
        for inst in random_instances(300, seed=37):
            nat = NaturalInstance.from_means(inst)
            x = float(rng.uniform(0, 1))
            objs = dual_rate_objects(x, nat)
            assert natural_to_mean(objs.lambda_bar) == pytest.approx(
                lambda_star(x, inst), abs=1e-10
            )

    def test_matches_primal_optimum(self):
        for inst in random_instances(300, seed=41):
            nat = NaturalInstance.from_means(inst)
            objs = dual_rate_objects(0.3, nat)
            assert objs.x_star_dual == pytest.approx(x_star(inst), abs=1e-8)
            assert 0.0 < objs.x_star_dual < 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            dual_rate_objects(0.5, NaturalInstance(1.0, 1.0))


class TestTaylorBracket:
    def test_small_symmetric_pair_approaches_peak(self):
        ratio, lo, hi = taylor_bracket_check(1e-3, -1e-3)
        assert hi == 0.25
        assert ratio == pytest.approx(0.25, abs=1e-6)
        assert lo <= ratio <= hi
        # the ratio tightens onto the peak as the pair shrinks
        errs = [abs(taylor_bracket_check(e, -e).ratio - 0.25) for e in (0.5, 0.05, 5e-3)]
        assert errs[0] > errs[1] > errs[2]

    def test_positive_interval_endpoints(self):
        ratio, lo, hi = taylor_bracket_check(3.0, 1.0)
        assert lo == phi_second(3.0)
        assert hi == phi_second(1.0)
        assert lo <= ratio <= hi
        # oracle: dense-grid extremes of phi'' over [1, 3]
        grid = [phi_second(v) for v in np.linspace(1.0, 3.0, 10_001)]
        assert lo == pytest.approx(min(grid), abs=1e-12)
        assert hi == pytest.approx(max(grid), abs=1e-12)

    def test_zero_interior_peaks_bracket(self):
        ratio, lo, hi = taylor_bracket_check(-5.0, 5.0)
        assert hi == 0.25
        assert lo <= ratio <= hi

    def test_holds_on_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            alpha = float(rng.uniform(-6, 6))
            gap = float(rng.uniform(1e-3, 10.0))
            beta = alpha + gap if rng.uniform() < 0.5 else alpha - gap
            ratio, lo, hi = taylor_bracket_check(alpha, beta)
            assert lo <= ratio <= hi

    def test_far_endpoint_has_zero_curvature(self):
        bracket = taylor_bracket_check(0.0, 3000.0)
        assert bracket.lo == 0.0 and bracket.hi == 0.25

    def test_equal_arguments_rejected(self):
        with pytest.raises(ArgumentError):
            taylor_bracket_check(1.0, 1.0)


class TestHalfRegionEquivalence:
    def test_primal_and_dual_conditions_coincide(self):
        for inst in random_instances(500, seed=47, lo=0.02, hi=0.98, min_gap=0.0):
            nat = NaturalInstance.from_means(inst)
            primal = inst.mu1 > inst.mu2 and inst.mu1 + inst.mu2 >= 1.0
            dual_side = nat.xi1 > nat.xi2 and nat.xi1 >= -nat.xi2
            assert primal == dual_side
