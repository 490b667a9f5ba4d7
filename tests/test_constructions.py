"""Tests for the constructive instance builders."""

import math

import numpy as np
import pytest

from bailab.constructions import (
    ConstructionCase,
    asymmetry_gap,
    check_odds_inequality,
    construct_beating_instance,
    construct_dual_instance,
    find_halfdisk_delta,
)
from bailab.dual import mean_to_natural, phi_second
from bailab.errors import ArgumentError
from bailab.rates import BanditInstance, g_closed, lambda_star, x_star

SIGMOID_M1 = 0.2689414213699951  # mean whose log-odds is -1


def reverify(cert):
    """Primal-only re-verification of a certificate, canonical orientation."""
    inst, x, a = cert.canonical()
    assert inst.mu1 > inst.mu2
    assert inst.mu1 + inst.mu2 >= 1.0 - 1e-12
    assert abs(lambda_star(x, inst) - a) <= 1e-9
    assert x_star(inst) < 0.5 * (0.5 + x)
    # delivered orientation: target hit and uniform strictly better
    assert abs(lambda_star(cert.x_input, cert.instance) - cert.a_target) <= 1e-9
    assert g_closed(cert.x_input, cert.instance) < g_closed(0.5, cert.instance)


class TestConstructDualInstance:
    def test_negative_alpha_case_matches_the_antisymmetric_pair(self):
        cert = construct_dual_instance(SIGMOID_M1, 0.75)
        assert cert.case_used is ConstructionCase.NEGATIVE_ALPHA
        # alpha = -1, 2x - 1 = 1/2, so the natural parameters are (2, -2)
        assert mean_to_natural(cert.instance.mu1) == pytest.approx(2.0, abs=1e-12)
        assert mean_to_natural(cert.instance.mu2) == pytest.approx(-2.0, abs=1e-12)
        assert cert.instance.mu1 == pytest.approx(0.88080, abs=1e-5)
        assert cert.instance.mu2 == pytest.approx(0.11920, abs=1e-5)
        assert cert.residual_lambda <= 1e-9
        assert cert.x_star_value == pytest.approx(0.5, abs=1e-9)
        assert cert.x_tilde == 0.625
        assert cert.x_star_value < cert.x_tilde
        assert cert.delta is None and cert.s is None
        reverify(cert)

    def test_half_disk_case_at_alpha_zero(self):
        cert = construct_dual_instance(0.5, 0.75)
        assert cert.case_used is ConstructionCase.HALF_DISK
        assert cert.residual_lambda <= 1e-9
        assert cert.delta is not None and cert.delta > 0.0
        assert cert.s == pytest.approx(cert.delta / 1.5, abs=1e-15)
        reverify(cert)

    def test_every_certificate_reverifies(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            a = float(rng.uniform(0.05, 0.95))
            x = float(rng.uniform(0.55, 1.0))
            reverify(construct_dual_instance(a, x))

    def test_x_one_is_admitted(self):
        cert = construct_dual_instance(0.4, 1.0)
        assert cert.x_tilde == 0.75
        reverify(cert)

    def test_pair_near_the_midpoint_is_snapped_and_solved(self):
        # the antisymmetric pair has xi1 ~ 22 here; mu1 keeps too few digits
        # of 1 - mu1 for the direct pair to reach the residual bound
        cert = construct_dual_instance(0.0856, 0.5519)
        assert cert.case_used is ConstructionCase.NEGATIVE_ALPHA
        assert cert.residual_lambda <= 1e-12
        reverify(cert)

    def test_unrepresentable_pair_names_the_smallest_offset(self):
        # log-odds of 0.05 over twice the largest log-odds below a mean of 1
        limit = -mean_to_natural(0.05) / (2.0 * 53.0 * math.log(2.0))
        with pytest.raises(ArgumentError, match=r"must exceed 0\.040074"):
            construct_dual_instance(0.05, 0.51)
        reverify(construct_dual_instance(0.05, 0.5 + limit * (1.0 + 1e-9)))

    @pytest.mark.parametrize("a,x", [(0.3, 0.5), (0.3, 0.2), (0.0, 0.8), (1.0, 0.8)])
    def test_preconditions(self, a, x):
        with pytest.raises(ArgumentError):
            construct_dual_instance(a, x)


class TestFindHalfdiskDelta:
    def test_disk_probe_oracle(self):
        # every pair inside the half-disk satisfies the dominance inequality,
        # with the extremes of phi'' measured on a dense grid
        alpha, x_tilde = 0.0, 0.625
        delta = find_halfdisk_delta(alpha, x_tilde)
        assert delta > 0.0
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            a, b = rng.uniform(-delta, delta, 2)
            if a == b:
                continue
            xi1, xi2 = alpha + max(a, b), alpha + min(a, b)
            grid = np.linspace(xi2, xi1, 2001)
            vals = [phi_second(float(v)) for v in grid]
            assert min(vals) * x_tilde**2 > max(vals) * (1.0 - x_tilde) ** 2
            checked += 1

    def test_radius_shrinks_toward_the_uniform_limit(self):
        deltas = [find_halfdisk_delta(0.5, xt) for xt in (0.55, 0.65, 0.75, 0.9)]
        assert deltas == sorted(deltas)
        assert deltas[0] < deltas[-1]

    def test_degenerate_pair_is_trivial(self):
        # at xi1 == xi2 == alpha both extremes equal phi''(alpha)
        alpha, x_tilde = 1.3, 0.7
        v = phi_second(alpha)
        assert v * x_tilde**2 > v * (1.0 - x_tilde) ** 2

    def test_preconditions(self):
        with pytest.raises(ArgumentError):
            find_halfdisk_delta(0.5, 0.5)
        with pytest.raises(ArgumentError):
            find_halfdisk_delta(0.5, 1.0)
        with pytest.raises(ArgumentError):
            find_halfdisk_delta(-0.1, 0.7)


class TestConstructBeatingInstance:
    def test_uniform_strictly_beats_the_requested_allocation(self):
        cert = construct_beating_instance(0.3, 0.8)
        assert g_closed(0.8, cert.instance) < g_closed(0.5, cert.instance)
        reverify(cert)

    def test_mirrored_construction(self):
        cert = construct_beating_instance(0.3, 0.2)
        assert cert.case_used is ConstructionCase.MIRRORED
        assert abs(lambda_star(0.2, cert.instance) - 0.3) <= 1e-9
        assert cert.instance.mu1 > cert.instance.mu2
        reverify(cert)

    def test_mirrored_mean_near_zero_is_solved_again(self):
        # the complement of the mirror problem's mu2 ~ 1e-8 loses its tail
        x = x_star(BanditInstance(0.7, 0.2))
        cert = construct_beating_instance(0.6, x)
        assert cert.case_used is ConstructionCase.MIRRORED
        assert cert.residual_lambda <= 1e-12
        reverify(cert)
        # canonical() hands back the verified mirror-problem instance
        assert cert.canonical()[0] is cert.unmirrored
        assert "unmirrored" not in cert.to_json_dict()

    def test_gap_is_positive_for_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = float(rng.uniform(0.05, 0.95))
            x = float(rng.uniform(0.05, 0.45))
            if rng.uniform() < 0.5:
                x = 1.0 - x
            cert = construct_beating_instance(a, x)
            gap = g_closed(0.5, cert.instance) - g_closed(x, cert.instance)
            assert gap > 0.0

    def test_uniform_allocation_rejected(self):
        with pytest.raises(ArgumentError):
            construct_beating_instance(0.3, 0.5)

    @pytest.mark.parametrize("a, x", [(0.999999, 0.500001), (1e-15, 0.1)])
    def test_unrepresentable_gap_rejected(self, a, x):
        with pytest.raises(ArgumentError, match="not representable"):
            construct_beating_instance(a, x)

    def test_boundary_allocations_admitted(self):
        reverify(construct_beating_instance(0.35, 1.0))
        reverify(construct_beating_instance(0.35, 0.0))


class TestAsymmetryGap:
    def test_symmetric_instance_has_no_gap(self):
        inst = BanditInstance(0.7, 0.3)
        for delta in (0.05, 0.2, 0.4):
            res = asymmetry_gap(inst, delta)
            assert res.gap == pytest.approx(0.0, abs=1e-9)

    def test_gap_vanishes_with_delta(self):
        inst = BanditInstance(0.9, 0.5)
        gaps = [asymmetry_gap(inst, d).gap for d in (0.2, 0.05, 0.01, 1e-4)]
        assert all(g >= 0.0 for g in gaps)
        assert gaps[-1] <= 1e-6

    def test_reference_instance(self):
        res = asymmetry_gap(BanditInstance(0.9, 0.5), 0.1)
        assert res.gap >= 0.0
        assert res.f_value >= 0.0
        assert res.f_prime >= 0.0
        assert res.m_value >= 0.0

    def test_stationarity_expressions_agree_independently(self):
        # recompute both forms from scratch at an independently located optimum
        for m1, m2 in [(0.9, 0.5), (0.8, 0.35), (0.97, 0.2)]:
            xs = x_star(BanditInstance(m1, m2), tol=1e-12)
            m_first = (1 - m1) ** (1 - xs) * (1 - m2) ** xs / math.log(m1 / m2)
            m_second = m1 ** (1 - xs) * m2**xs / math.log((1 - m2) / (1 - m1))
            assert abs(m_first - m_second) <= 1e-9
            res = asymmetry_gap(BanditInstance(m1, m2), 0.05)
            assert res.m_value == pytest.approx(m_first, abs=1e-9)

    def test_random_sweep_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m1 = float(rng.uniform(0.52, 0.97))
            m2 = float(rng.uniform(1.0 - m1, m1 - 0.01))
            inst = BanditInstance(m1, m2)
            if not (inst.mu1 > inst.mu2 and inst.mu1 + inst.mu2 >= 1.0):
                continue
            xs = x_star(inst)
            delta = float(rng.uniform(0.05, 1.0)) * min(xs, 1.0 - xs)
            res = asymmetry_gap(inst, delta)
            assert res.gap >= -1e-12
            assert res.f_value >= -1e-12
            assert res.f_prime >= -1e-12

    def test_preconditions(self):
        with pytest.raises(ArgumentError):
            asymmetry_gap(BanditInstance(0.3, 0.7), 0.1)  # wrong orientation
        with pytest.raises(ArgumentError):
            asymmetry_gap(BanditInstance(0.6, 0.3), 0.1)  # below the diagonal
        with pytest.raises(ArgumentError):
            asymmetry_gap(BanditInstance(0.9, 0.5), 0.0)
        with pytest.raises(ArgumentError):
            asymmetry_gap(BanditInstance(0.9, 0.5), 0.9)  # exceeds min(x*, 1-x*)


class TestOddsInequality:
    def test_binary_complementary_pair_holds_with_equality(self):
        # 0.75 and 0.25 are exactly complementary in binary
        assert check_odds_inequality(BanditInstance(0.75, 0.25))
        assert check_odds_inequality(BanditInstance(0.25, 0.75))  # symmetric products

    def test_reference_points(self):
        assert check_odds_inequality(BanditInstance(0.9, 0.5))
        assert not check_odds_inequality(BanditInstance(0.4, 0.2))

    def test_holds_on_the_exact_half_region(self):
        from fractions import Fraction

        grid = np.linspace(0.0025, 0.9975, 80)
        for m1 in grid:
            f1 = Fraction(float(m1))
            for m2 in grid:
                f2 = Fraction(float(m2))
                if f1 > f2 and f1 + f2 >= 1:
                    assert check_odds_inequality(BanditInstance(float(m1), float(m2)))
