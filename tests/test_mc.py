"""Tests for the Monte Carlo engines."""

import math

import numpy as np
import pytest

from brute_force import replay_pick2, stream_draw

from bailab.errors import ArgumentError, DomainError
from bailab.exact import exact_summary, static_error_exact
from bailab.mc import (
    Estimate,
    _mix64,
    _replay_adaptive,
    _uniform_batch,
    simulate_plain,
    simulate_tilted_static,
)
from bailab.policies import PolicySpec
from bailab.rates import BanditInstance, g_closed

INST = BanditInstance(0.7, 0.3)


class TestStreams:
    def test_batch_matches_scalar(self):
        reps = np.arange(200, dtype=np.uint64)
        for seed in (0, 42, 123456789, -17):
            for k in (0, 1, 7):
                batch = _uniform_batch(seed, reps, k)
                for i in (0, 1, 55, 199):
                    assert batch[i] == stream_draw(seed, i, k)

    def test_streams_fill_the_unit_interval(self):
        u = _uniform_batch(7, np.arange(200_000, dtype=np.uint64), 0)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        hist, _ = np.histogram(u, bins=20, range=(0, 1))
        assert hist.min() > 9_000

    def test_mix_is_deterministic(self):
        assert _mix64(0) == _mix64(0)
        assert _mix64(1) != _mix64(2)


class TestSimulatePlain:
    def test_agrees_with_exact_at_tiny_budget(self):
        est = simulate_plain(PolicySpec.uniform(), BanditInstance(0.9, 0.1), 2, 10**6, 42)
        assert abs(est.mean - 0.10) <= 4 * est.std_err
        assert est.method == "plain"
        assert est.n_samples == 10**6 and est.seed == 42

    def test_bit_reproducible(self):
        a = simulate_plain(PolicySpec.static(0.4), INST, 25, 20_000, 7)
        b = simulate_plain(PolicySpec.static(0.4), INST, 25, 20_000, 7)
        assert a == b

    def test_seed_changes_the_estimate(self):
        a = simulate_plain(PolicySpec.uniform(), INST, 20, 20_000, 1)
        b = simulate_plain(PolicySpec.uniform(), INST, 20, 20_000, 2)
        assert a.mean != b.mean

    def test_adaptive_policy_replications(self):
        policy = PolicySpec.plugin_tracking(0.5)
        exact_p = exact_summary(policy, INST, 12).p_error
        est = simulate_plain(policy, INST, 12, 40_000, 11)
        assert abs(est.mean - exact_p) <= 4 * est.std_err
        again = simulate_plain(policy, INST, 12, 40_000, 11)
        assert est == again

    @pytest.mark.parametrize("T", [2, 3, 17])
    @pytest.mark.parametrize("mu", [(0.7, 0.3), (0.45, 0.6)])
    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_adaptive_replay_matches_scalar_reference(self, rate, mu, T):
        policy, inst = PolicySpec.plugin_tracking(rate), BanditInstance(*mu)
        masses = _replay_adaptive(policy, inst, T, 21, np.arange(64, dtype=np.uint64))
        assert masses.tolist() == [replay_pick2(policy, inst, T, 21, i) for i in range(64)]

    def test_degenerate_instance_rejected(self):
        with pytest.raises(DomainError):
            simulate_plain(PolicySpec.uniform(), BanditInstance(0.4, 0.4), 10, 100, 0)

    def test_argument_validation(self):
        with pytest.raises(ArgumentError):
            simulate_plain(PolicySpec.uniform(), INST, 10, 0, 0)
        with pytest.raises(ArgumentError):
            simulate_plain(PolicySpec.uniform(), INST, 1, 100, 0)
        with pytest.raises(ArgumentError):
            simulate_plain(PolicySpec.static(0.01), INST, 10, 100, 0)


class TestSimulateTiltedStatic:
    def test_agrees_with_exact_fast_path(self):
        exact_p = static_error_exact(0.5, INST, 100)
        est = simulate_tilted_static(0.5, INST, 100, 10**5, 13)
        assert est.method == "tilted"
        assert abs(est.mean - exact_p) <= 3 * est.std_err
        assert est.std_err / est.mean <= 0.05

    def test_rate_recovery_at_deep_budget(self):
        # the finite-budget rate carries a (log T)/(2T) prefactor above g,
        # about 6.1% of g at T=600; the estimator must recover the exact
        # rate tightly and therefore sit within 7% of g itself
        from bailab.exact import static_error_log

        est = simulate_tilted_static(0.5, INST, 600, 10**5, 29)
        rate = -math.log(est.mean) / 600
        exact_rate = -static_error_log(0.5, INST, 600) / 600
        assert abs(rate - exact_rate) / exact_rate <= 0.005
        assert abs(rate - g_closed(0.5, INST)) / g_closed(0.5, INST) <= 0.07

    def test_raw_weights_average_to_one(self):
        # importance weights without the indicator integrate to one
        from bailab.mc import _binom_cdf, _binom_from_uniform, _uniform_batch
        from bailab.policies import arm2_count
        from bailab.rates import lambda_star

        x, T, n, seed = 0.5, 60, 10**5, 3
        n2 = arm2_count(x, T)
        n1 = T - n2
        lam = lambda_star(x, INST)
        reps = np.arange(n, dtype=np.uint64)
        s1 = _binom_from_uniform(_uniform_batch(seed, reps, 0), _binom_cdf(n1, lam))
        s2 = _binom_from_uniform(_uniform_batch(seed, reps, 1), _binom_cdf(n2, lam))
        logw = s1 * math.log(INST.mu1 / lam)
        logw = logw + (n1 - s1) * math.log((1 - INST.mu1) / (1 - lam))
        logw = logw + s2 * math.log(INST.mu2 / lam)
        logw = logw + (n2 - s2) * math.log((1 - INST.mu2) / (1 - lam))
        w = np.exp(logw)
        se = float(np.std(w, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(w)) - 1.0) <= 3 * se

    def test_variance_advantage_over_plain(self):
        # at T=200 the plain estimator sees no events at all
        plain = simulate_plain(PolicySpec.static(0.5), INST, 200, 10**4, 17)
        assert plain.mean == 0.0
        tilted = simulate_tilted_static(0.5, INST, 200, 10**4, 17)
        assert tilted.mean > 0.0
        assert tilted.std_err / tilted.mean <= 0.2

    def test_bit_reproducible(self):
        a = simulate_tilted_static(0.5, INST, 200, 5_000, 23)
        b = simulate_tilted_static(0.5, INST, 200, 5_000, 23)
        assert a == b

    def test_estimates_reported_raw(self):
        est = simulate_tilted_static(0.5, INST, 10, 2_000, 5)
        assert isinstance(est, Estimate)
        assert est.mean >= 0.0  # no clamping applied beyond nonnegativity of weights

    def test_schedule_validation(self):
        with pytest.raises(ArgumentError):
            simulate_tilted_static(0.0, INST, 10, 100, 0)
        with pytest.raises(DomainError):
            simulate_tilted_static(0.5, BanditInstance(0.3, 0.3), 10, 100, 0)
