"""Tests for the primal rate machinery."""

import math
import re
import sys

import numpy as np
import pytest

from bailab.errors import ArgumentError, DomainError
from bailab.rates import (
    BanditInstance,
    _libm,
    g_closed,
    g_closed_grid,
    kl_bernoulli,
    lambda_star,
    pinsker_like_bound_slack,
    rate_profile,
    stationarity_residual,
    x_star,
    x_star_grid,
)
from bailab.verification import fd_argmin, minimize_rate_objective

# Values frozen from a 60-digit mpmath evaluation of the defining formulas.
KL_HALF_QUARTER = 0.14384103622589045
KL_ZERO_03 = 0.3566749439387324
G_HALF_73 = 0.08717669357238887
LAMBDA_075_84 = 0.5106170936515774
XSTAR_95 = 0.5415688421539021
PINSKER_HALF_HALF = 0.34657359027997264
PINSKER_ZERO_03 = 1.0498221244986776

DYADIC_X = [k / 32.0 for k in range(33)]


def grid_min_objective(x, inst, n=200_001):
    """Dense-grid oracle for the inner minimization."""
    lam = np.linspace(min(inst.mu1, inst.mu2), max(inst.mu1, inst.mu2), n)
    vals = (1.0 - x) * kl_vec(lam, inst.mu1) + x * kl_vec(lam, inst.mu2)
    k = int(np.argmin(vals))
    return float(lam[k]), float(vals[k])


def kl_vec(a, b):
    a = np.asarray(a)
    out = np.zeros_like(a, dtype=float)
    pos = a > 0
    out[pos] += a[pos] * np.log(a[pos] / b)
    sub = a < 1
    out[sub] += (1.0 - a[sub]) * np.log((1.0 - a[sub]) / (1.0 - b))
    return out


class TestBanditInstance:
    def test_valid_construction(self):
        inst = BanditInstance(0.7, 0.3)
        assert inst.mu1 == 0.7 and inst.mu2 == 0.3
        assert inst.is_separated
        assert inst.best_arm == 1
        assert inst.swapped() == BanditInstance(0.3, 0.7)
        assert BanditInstance(0.3, 0.7).best_arm == 2

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_out_of_range_means(self, mu):
        with pytest.raises(DomainError):
            BanditInstance(mu, 0.5)
        with pytest.raises(DomainError):
            BanditInstance(0.5, mu)

    @pytest.mark.parametrize("mu", [1e-320, 5e-324, sys.float_info.min / 2])
    def test_rejects_subnormal_means(self, mu):
        limit = "smallest normal double 2.2250738585072014e-308"
        with pytest.raises(DomainError, match=f"mu1 must be at least the {limit}, got {mu!r}"):
            BanditInstance(mu, 0.5)
        with pytest.raises(DomainError, match=f"mu2 must be at least the {limit}"):
            BanditInstance(0.5, mu)
        with pytest.raises(DomainError, match=limit):
            g_closed_grid(0.5, [mu], [0.5])

    def test_accepts_the_smallest_normal_mean(self):
        # RuntimeWarnings are errors here, so the slope does not overflow
        inst = BanditInstance(sys.float_info.min, 0.5)
        assert inst.mu1 == 2.2250738585072014e-308
        assert x_star(inst) == pytest.approx(0.99022, abs=1e-5)

    def test_diagonal_has_no_best_arm(self):
        inst = BanditInstance(0.4, 0.4)
        assert not inst.is_separated
        with pytest.raises(DomainError):
            inst.best_arm


class TestKlBernoulli:
    def test_identity_is_zero(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0
        assert kl_bernoulli(0.123, 0.123) == 0.0

    def test_frozen_values(self):
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(KL_HALF_QUARTER, abs=1e-15)
        assert kl_bernoulli(0.0, 0.3) == pytest.approx(KL_ZERO_03, abs=1e-15)

    def test_boundary_convention_is_the_limit(self):
        # 0 log 0 = 0 agrees with the eps -> 0 limit of the interior formula
        eps = 1e-13
        assert kl_bernoulli(eps, 0.3) == pytest.approx(kl_bernoulli(0.0, 0.3), abs=1e-10)
        assert kl_bernoulli(1.0, 0.3) == pytest.approx(math.log(1 / 0.3), abs=1e-15)

    def test_nonnegative_and_zero_only_on_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = float(rng.uniform(0, 1))
            b = float(rng.uniform(0.01, 0.99))
            v = kl_bernoulli(a, b)
            assert v >= 0.0
            if abs(a - b) > 1e-6:
                assert v > 0.0

    @pytest.mark.parametrize("a,b", [(0.5, 0.0), (0.5, 1.0), (-0.1, 0.5), (1.1, 0.5),
                                     (float("nan"), 0.5), (0.5, float("nan"))])
    def test_domain_errors(self, a, b):
        with pytest.raises(DomainError):
            kl_bernoulli(a, b)


class TestGClosed:
    def test_zero_at_boundary_allocations(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            inst = BanditInstance(*rng.uniform(0.01, 0.99, 2))
            assert g_closed(0.0, inst) == 0.0
            assert g_closed(1.0, inst) == 0.0

    def test_frozen_value(self):
        assert g_closed(0.5, BanditInstance(0.7, 0.3)) == pytest.approx(
            G_HALF_73, abs=1e-15
        )

    def test_complementary_means_give_symmetric_g(self):
        # exactly complementary in binary: 1 - 0.75 == 0.25
        inst = BanditInstance(0.75, 0.25)
        for x in DYADIC_X:
            assert g_closed(x, inst) == g_closed(1.0 - x, inst)
        # decimal-complementary pairs differ by one representation ulp
        inst = BanditInstance(0.7, 0.3)
        for x in DYADIC_X:
            assert g_closed(x, inst) == pytest.approx(g_closed(1.0 - x, inst), abs=1e-15)

    def test_swap_symmetry_is_exact_on_dyadics(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            inst = BanditInstance(*rng.uniform(0.01, 0.99, 2))
            swapped = inst.swapped()
            for x in DYADIC_X:
                assert g_closed(x, inst) == g_closed(1.0 - x, swapped)

    def test_against_grid_minimization(self):
        for inst, x in [
            (BanditInstance(0.7, 0.3), 0.5),
            (BanditInstance(0.8, 0.4), 0.75),
            (BanditInstance(0.25, 0.6), 0.3),
        ]:
            _, oracle = grid_min_objective(x, inst)
            assert g_closed(x, inst) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_invalid_allocation(self):
        with pytest.raises(ArgumentError):
            g_closed(1.5, BanditInstance(0.5, 0.6))
        with pytest.raises(ArgumentError):
            g_closed(float("nan"), BanditInstance(0.5, 0.6))


# the reference instances of the benchmark's ``demo`` runs
DEMO_MU0 = [(0.9, 0.5), (0.8, 0.3), (0.95, 0.7), (0.7, 0.2),
            (0.85, 0.55), (0.75, 0.35), (0.92, 0.6), (0.3, 0.8)]


class TestGClosedGrid:
    @pytest.mark.parametrize("grid", [0.05, 0.037, 0.01, 0.003])
    def test_equals_scalar_on_every_off_diagonal_cell(self, grid):
        # the means and the allocations the demo command scans
        values = [grid * k for k in range(1, int(round(1.0 / grid)))]
        cells = [(i, j) for i in range(len(values)) for j in range(len(values)) if i != j]
        instances = [BanditInstance(values[i], values[j]) for i, j in cells]
        rows, cols = np.array(cells).T
        for x in [0.5] + [x_star(BanditInstance(*mu)) for mu in DEMO_MU0]:
            scalar = np.array([g_closed(x, inst) for inst in instances])
            assert np.array_equal(g_closed_grid(x, values, values)[rows, cols], scalar)

    def test_rows_and_columns_take_their_own_means(self):
        grid = g_closed_grid(0.3, [0.2, 0.9], [0.4, 0.6, 0.7])
        assert grid.shape == (2, 3)
        assert grid[1, 2] == g_closed(0.3, BanditInstance(0.9, 0.7))

    def test_boundary_allocations_give_zero(self):
        assert not g_closed_grid(0.0, [0.2, 0.7], [0.4]).any()
        assert not g_closed_grid(1.0, [0.2, 0.7], [0.4]).any()

    @pytest.mark.parametrize("means", [[0.2, 0.0], [1.0], [0.5, float("nan")]])
    def test_rejects_means_outside_the_open_interval(self, means):
        with pytest.raises(DomainError):
            g_closed_grid(0.5, means, [0.3])
        with pytest.raises(DomainError):
            g_closed_grid(0.5, [0.3], means)

    def test_rejects_invalid_allocation(self):
        with pytest.raises(ArgumentError):
            g_closed_grid(1.5, [0.2, 0.7], [0.4])

    def test_names_the_first_bad_mean_in_list_order(self):
        means = [0.001 * k for k in range(1, 1000)]
        early, late = list(means), list(means)
        early[500], early[700] = 1.5, 0.0
        late[500] = -0.25
        inside = r"means must lie strictly inside \(0, 1\), got "
        with pytest.raises(DomainError, match=inside + r"1\.5$"):
            g_closed_grid(0.3, early, late)
        with pytest.raises(DomainError, match=inside + r"-0\.25$"):
            g_closed_grid(0.3, means, late)
        with pytest.raises(DomainError, match=inside + r"1\.5$"):
            g_closed_grid(0.3, np.array(early), np.array(late))

    def test_names_a_nan_and_a_subnormal_mean_as_floats(self):
        inside = r"means must lie strictly inside \(0, 1\), got nan$"
        normal = r"means must be at least the smallest normal double 2\.2250738585072014e-308, got 5e-324$"
        for means, match in (([0.2, math.nan, 0.0], inside), ([0.2, 5e-324, 0.0], normal)):
            with pytest.raises(DomainError, match=match):
                g_closed_grid(0.5, means, [0.3])
            with pytest.raises(DomainError, match=match):
                g_closed_grid(0.5, [0.3], np.array(means))

    @pytest.mark.parametrize("means", [[[0.2, 0.3]], np.array([[0.2], [0.3]]), 0.3])
    def test_refuses_means_that_are_not_one_dimensional(self, means):
        shape = np.shape(means)
        with pytest.raises(ArgumentError, match=rf"means must be a 1-D list, got shape {re.escape(str(shape))}$"):
            g_closed_grid(0.5, means, [0.4])
        with pytest.raises(ArgumentError, match=re.escape(str(shape))):
            g_closed_grid(0.5, [0.4], means)


def libm_logs(values) -> np.ndarray:
    return np.array([math.log(v) for v in np.ravel(values).tolist()])


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# integers whose forward-stepping np.log misses libm's last bit (numpy 2.4.6)
SIMD_LOG_MISSES = np.array([9170.0, 19143.0, 94869.0, 102327.0, 136085.0, 136837.0,
                            141614.0, 147674.0, 275063.0, 285343.0])


class TestLibm:
    """``rates._libm`` gives libm's bits: ``math.log`` and ``**`` per entry."""

    def test_log_on_the_cephes_sample_means(self):
        from test_exact import TestCephesReplicas  # bound here, so not collected twice

        p = TestCephesReplicas.sample_means()
        assert same_bits(_libm(np.log, p), libm_logs(p))

    def test_log_on_random_doubles(self):
        v = 10.0 ** np.random.default_rng(28).uniform(-300.0, 300.0, 200_000)
        assert same_bits(_libm(np.log, v), libm_logs(v))

    def test_log_on_the_integers_of_a_log_factorial_table(self):
        k = np.arange(1.0, 300_002.0)
        assert same_bits(_libm(np.log, k), libm_logs(k))

    @pytest.mark.parametrize("n", range(71))
    def test_log_at_every_length_of_a_simd_tail(self, n):
        for shift in range(8):
            v = np.roll(np.resize(SIMD_LOG_MISSES, n), shift)
            assert same_bits(_libm(np.log, v), libm_logs(v))

    def test_power_on_random_pairs(self):
        rng = np.random.default_rng(2308)
        b, e = rng.uniform(0.0, 1.0, 200_000), rng.uniform(0.0, 1.0, 200_000)
        assert same_bits(_libm(np.power, b, e), [u ** w for u, w in zip(b.tolist(), e.tolist())])

    @pytest.mark.parametrize("e", [0.5, 2.0])
    def test_power_on_a_full_exponent_array(self, e):
        # a scalar exponent here would be taken as sqrt or square
        b = np.random.default_rng(12000).uniform(0.0, 1.0, 300_000)
        assert same_bits(_libm(np.power, b, np.full(b.size, e)), [u ** e for u in b.tolist()])

    def test_log_of_a_raveled_grid(self):
        # the cells of g_closed_grid: a C-ordered 2-D array, raveled to a view
        cells = np.outer(np.linspace(0.01, 0.99, 300), np.linspace(0.02, 0.98, 301)) + 0.25
        logs = _libm(np.log, cells.ravel()).reshape(cells.shape)
        assert same_bits(logs, libm_logs(cells).reshape(cells.shape))


class TestGByMinimization:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(23)
        cases = [(BanditInstance(*rng.uniform(0.02, 0.98, 2)), float(rng.uniform(0, 1)))
                 for _ in range(300)]
        values = minimize_rate_objective([x for _, x in cases], [i.mu1 for i, _ in cases],
                                         [i.mu2 for i, _ in cases])[1]
        worst = max(abs(g_closed(x, inst) - v) for (inst, x), v in zip(cases, values))
        assert worst <= 1e-6

    def test_boundary_allocation_minimizes_at_the_pulled_arm(self):
        lam, value = minimize_rate_objective(0.0, 0.6, 0.2)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert lam == pytest.approx(0.6, abs=1e-6)

    def test_minimizer_matches_lambda_star(self):
        inst = BanditInstance(0.8, 0.4)
        lam, _ = minimize_rate_objective(0.75, inst.mu1, inst.mu2)
        assert lam == pytest.approx(lambda_star(0.75, inst), abs=1e-8)


class TestArrayOracles:
    def test_grid_call_equals_elementwise_calls(self):
        rng = np.random.default_rng(31)
        x, m1, m2 = rng.uniform(0.02, 0.98, (3, 40))
        x[:2], m2[2] = (0.0, 1.0), m1[2]
        lam, value = minimize_rate_objective(x, m1, m2)
        lam_fd = fd_argmin(x, m1, m2)
        for i in range(x.size):
            assert minimize_rate_objective(x[i], m1[i], m2[i]) == (lam[i], value[i])
            assert fd_argmin(x[i], m1[i], m2[i]) == lam_fd[i]

    def test_collapsed_bracket_gives_the_midpoint(self):
        lam, value = minimize_rate_objective(0.4, 0.3, 0.3 + 5e-11)
        assert lam == 0.5 * (0.3 + (0.3 + 5e-11))
        assert value == pytest.approx(0.0, abs=1e-15)
        assert fd_argmin(0.4, 0.3, 0.3 + 1e-7) == 0.5 * (0.3 + (0.3 + 1e-7))

    def test_boundary_allocations_pin_fd_argmin_at_the_pulled_mean(self):
        assert fd_argmin([0.0, 1.0], 0.6, 0.2).tolist() == [0.6, 0.2]

    def test_rejects_allocations_outside_the_unit_interval(self):
        with pytest.raises(ArgumentError):
            minimize_rate_objective([0.5, 1.5], 0.7, 0.3)
        with pytest.raises(ArgumentError):
            fd_argmin(float("nan"), 0.7, 0.3)


class TestLambdaStar:
    def test_boundary_reduces_to_the_pulled_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            inst = BanditInstance(*rng.uniform(0.01, 0.99, 2))
            assert lambda_star(0.0, inst) == pytest.approx(inst.mu1, abs=1e-14)
            assert lambda_star(1.0, inst) == pytest.approx(inst.mu2, abs=1e-14)

    def test_complementary_instance_centers_at_half(self):
        for p in (0.6, 0.75, 0.9, 0.97):
            inst = BanditInstance(p, 1.0 - p)
            assert lambda_star(0.5, inst) == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value_and_argmin_oracle(self):
        inst = BanditInstance(0.8, 0.4)
        lam = lambda_star(0.75, inst)
        assert lam == pytest.approx(LAMBDA_075_84, abs=1e-15)
        argmin, _ = grid_min_objective(0.75, inst)
        assert lam == pytest.approx(argmin, abs=1e-5)

    def test_swap_symmetry_is_exact_on_dyadics(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            inst = BanditInstance(*rng.uniform(0.01, 0.99, 2))
            swapped = inst.swapped()
            for x in DYADIC_X:
                assert lambda_star(x, inst) == lambda_star(1.0 - x, swapped)

    def test_strictly_interior(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            inst = BanditInstance(*rng.uniform(0.01, 0.99, 2))
            lam = lambda_star(float(rng.uniform(0, 1)), inst)
            assert 0.0 < lam < 1.0


class TestXStar:
    def test_complementary_instance_gives_half(self):
        for p in (0.55, 0.7, 0.9, 0.99):
            assert x_star(BanditInstance(p, 1.0 - p)) == pytest.approx(0.5, abs=1e-10)

    def test_frozen_value_and_bracket(self):
        xs = x_star(BanditInstance(0.9, 0.5))
        assert xs == pytest.approx(XSTAR_95, abs=1e-9)
        assert 0.50 < xs < 0.60

    def test_swap_maps_to_complement(self):
        xs = x_star(BanditInstance(0.9, 0.5))
        assert x_star(BanditInstance(0.5, 0.9)) == pytest.approx(1.0 - xs, abs=1e-9)

    def test_against_dense_grid_argmax(self):
        for inst in (BanditInstance(0.9, 0.5), BanditInstance(0.3, 0.8)):
            xs = x_star(inst)
            grid = np.linspace(0.0, 1.0, 1_000_001)
            m1, m2 = inst.mu1, inst.mu2
            vals = -np.log(
                (1 - m1) ** (1 - grid) * (1 - m2) ** grid + m1 ** (1 - grid) * m2**grid
            )
            assert xs == pytest.approx(float(grid[np.argmax(vals)]), abs=1e-5)

    def test_maximizes_g(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            inst = BanditInstance(*rng.uniform(0.05, 0.95, 2))
            if not inst.is_separated:
                continue
            xs = x_star(inst)
            g0 = g_closed(xs, inst)
            for dx in (-1e-4, 1e-4):
                assert g0 >= g_closed(min(1.0, max(0.0, xs + dx)), inst)

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            x_star(BanditInstance(0.4, 0.4))
        with pytest.raises(DomainError):
            x_star_grid(np.array([0.3, 0.4]), np.array([0.5, 0.4]))

    def test_grid_matches_scalar_bitwise(self):
        # x_star bisects in Python floats and x_star_grid in arrays; both take
        # numpy's log and power, so the scalar must give the grid's bits
        rng = np.random.default_rng(41)
        uniform = rng.uniform(0.0, 1.0, (8100, 2))
        a = rng.uniform(0.0, 1.0, 6000)
        gap = rng.choice([-1.0, 1.0], 6000) * 10.0 ** rng.uniform(-16.0, -3.0, 6000)
        near_diagonal = np.column_stack([a, a + gap])
        near_zero = 10.0 ** rng.uniform(-300.0, -280.0, (3000, 2))
        near_zero[::2, 1] = rng.uniform(0.0, 1.0, 1500)
        near_one = 1.0 - 10.0 ** rng.uniform(-16.0, -10.0, (3000, 2))
        near_one[::2, 1] = rng.uniform(0.0, 1.0, 1500)
        pairs = np.concatenate([uniform, near_diagonal, near_zero, near_one])
        keep = ((pairs > sys.float_info.min) & (pairs < 1.0)).all(axis=1)
        keep &= pairs[:, 0] != pairs[:, 1]
        m1, m2 = pairs[keep].T
        assert m1.size >= 20_000
        grid = x_star_grid(m1, m2).tolist()
        scalar = [x_star(BanditInstance(a, b)) for a, b in zip(m1.tolist(), m2.tolist())]
        assert scalar == grid

class TestStationarityResidual:
    def test_zero_within_contract(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            inst = BanditInstance(*rng.uniform(0.02, 0.98, 2))
            x = float(rng.uniform(0.01, 0.99))
            assert abs(stationarity_residual(x, inst)) <= 1e-8

    def test_matches_finite_difference_derivative(self):
        # central difference of the mixture objective at lambda_star
        for x, inst in [(0.5, BanditInstance(0.7, 0.3)), (0.9, BanditInstance(0.6, 0.1))]:
            lam = lambda_star(x, inst)
            h = 1e-6

            def obj(l):
                return (1 - x) * kl_bernoulli(l, inst.mu1) + x * kl_bernoulli(l, inst.mu2)

            fd = (obj(lam + h) - obj(lam - h)) / (2 * h)
            assert stationarity_residual(x, inst) == pytest.approx(fd, abs=1e-6)

    def test_symmetric_point_is_exactly_zero(self):
        assert stationarity_residual(0.5, BanditInstance(0.5, 0.5)) == 0.0

    def test_boundary_rejected(self):
        with pytest.raises(ArgumentError):
            stationarity_residual(0.0, BanditInstance(0.7, 0.3))
        with pytest.raises(ArgumentError):
            stationarity_residual(1.0, BanditInstance(0.7, 0.3))


class TestPinskerLikeBound:
    def test_frozen_values(self):
        assert pinsker_like_bound_slack(0.5, 0.5) == pytest.approx(
            PINSKER_HALF_HALF, abs=1e-15
        )
        assert pinsker_like_bound_slack(0.0, 0.3) == pytest.approx(
            PINSKER_ZERO_03, abs=1e-15
        )

    def test_p_one_gives_log_two(self):
        for q in (0.1, 0.5, 0.9):
            assert pinsker_like_bound_slack(1.0, q) == pytest.approx(
                math.log(2.0), abs=1e-14
            )

    def test_nonnegative_on_grid(self):
        ps = np.linspace(0.0, 1.0, 100)
        qs = np.linspace(0.005, 0.995, 100)
        worst = min(
            pinsker_like_bound_slack(float(p), float(q)) for p in ps for q in qs
        )
        assert worst >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pinsker_like_bound_slack(0.5, 0.0)
        with pytest.raises(DomainError):
            pinsker_like_bound_slack(0.5, 1.0)


class TestRateProfile:
    def test_profile_at_given_allocation(self):
        inst = BanditInstance(0.7, 0.3)
        prof = rate_profile(inst, x=0.5)
        assert prof.g_value == g_closed(0.5, inst)
        assert prof.lambda_min == lambda_star(0.5, inst)
        assert prof.x_star == pytest.approx(0.5, abs=1e-10)

    def test_profile_defaults_to_the_optimum(self):
        inst = BanditInstance(0.9, 0.5)
        prof = rate_profile(inst)
        assert prof.g_value == g_closed(prof.x_star, inst)
        assert 0.0 < prof.lambda_min < 1.0

    def test_needs_separated_instance(self):
        with pytest.raises(DomainError):
            rate_profile(BanditInstance(0.6, 0.6))
