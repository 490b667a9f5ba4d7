"""Tests for the Monte Carlo engines."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from brute_force import (replay_pick2, static_mc_reference, static_successes, stream_draw,
                         stream_uniforms)

from bailab.errors import ArgumentError, DomainError
from bailab.exact import exact_summary, static_error_exact
from bailab.mc import (
    Estimate,
    _binom_cdf,
    _inverse_cdf_sampler,
    _mix64,
    _replay_adaptive,
    _stream_states,
    _uniforms,
    simulate_plain,
    simulate_tilted_static,
)
from bailab.policies import PolicySpec, schedule_counts
from bailab.rates import BanditInstance, g_closed, lambda_star

INST = BanditInstance(0.7, 0.3)


class TestStreams:
    def test_batch_matches_scalar(self):
        reps = np.arange(200, dtype=np.uint64)
        for seed in (0, 42, 123456789, -17):
            for k in (0, 1, 7):
                batch = _uniforms(_stream_states(seed, reps), k)
                for i in (0, 1, 55, 199):
                    assert batch[i] == stream_draw(seed, i, k)

    def test_streams_fill_the_unit_interval(self):
        u = _uniforms(_stream_states(7, np.arange(200_000, dtype=np.uint64)), 0)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        hist, _ = np.histogram(u, bins=20, range=(0, 1))
        assert hist.min() > 9_000

    def test_mix_is_deterministic(self):
        assert _mix64(0) == _mix64(0)
        assert _mix64(1) != _mix64(2)


class TestBinomialCdf:
    """The inverse-CDF sampler's table equals ``scipy.stats.binom.cdf``, which
    calls the same ufunc, so static draws stay what they were."""

    @pytest.mark.parametrize("n", [1, 7, 40, 900, 100_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_equals_scipy_stats_bit_for_bit(self, n, p):
        assert np.array_equal(_binom_cdf(n, p), binom.cdf(np.arange(n + 1), n, p))

    def test_equals_scipy_stats_at_an_oracle_tilt(self):
        x = PolicySpec.oracle_static(BanditInstance(0.9, 0.5)).schedule_fraction()
        lam = lambda_star(x, INST)
        for n in schedule_counts(x, 2001, "oracle"):
            assert np.array_equal(_binom_cdf(n, lam), binom.cdf(np.arange(n + 1), n, lam))


class TestInverseCdfSampler:
    """The guide table returns what ``searchsorted`` in the CDF returns, on the
    draws where a bucket or a threshold begins or ends."""

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 900, 100_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_equals_searchsorted_at_every_edge(self, n, p):
        cdf = _binom_cdf(n, p)
        thr = np.floor(cdf * 2.0**53).astype(np.int64)
        edges = np.arange(1, 2**12, dtype=np.int64) << 41
        bits = np.concatenate([[0, 2**53 - 1], edges - 1, edges, thr - 1, thr, thr + 1])
        bits = np.clip(bits, 0, 2**53 - 1)
        expected = np.searchsorted(cdf, bits.astype(np.float64) * 2.0**-53, side="left")
        assert np.array_equal(_inverse_cdf_sampler(cdf)(bits), expected)


# the block length of the static and adaptive Monte Carlo loops
BLOCK = 2**16
EDGE_SEED = 2024


@pytest.fixture(scope="module")
def edge_uniforms():
    n = 3 * BLOCK + 7
    return stream_uniforms(EDGE_SEED, n, 0), stream_uniforms(EDGE_SEED, n, 1)


class TestBlockEdges:
    """Blocked estimates equal the whole-array reference bit for bit, whichever
    side of a block edge the replication count falls."""

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("mu", [(0.6, 0.45), (0.45, 0.6)])
    def test_static_estimates_equal_the_whole_array_reference(self, edge_uniforms, n, mu):
        inst = BanditInstance(*mu)
        u1, u2 = (u[:n] for u in edge_uniforms)
        for policy, T in [(PolicySpec.uniform(), 9), (PolicySpec.static(0.3), 10)]:
            est = simulate_plain(policy, inst, T, n, EDGE_SEED)
            assert (est.mean, est.std_err) == static_mc_reference(
                u1, u2, policy.schedule_fraction(), inst, T, tilted=False)
        est = simulate_tilted_static(0.3, inst, 60, n, EDGE_SEED)
        assert (est.mean, est.std_err) == static_mc_reference(u1, u2, 0.3, inst, 60, tilted=True)

    def test_adaptive_estimate_equals_the_whole_array_replay(self):
        policy, inst, T, n = PolicySpec.plugin_tracking(0.5), INST, 4, BLOCK + 3
        errors = _replay_adaptive(policy, inst, T, 8, np.arange(n, dtype=np.uint64))
        assert simulate_plain(policy, inst, T, n, 8).mean == float(np.mean(errors))


def _peak_traced_bytes(run) -> int:
    run()  # first call outside the trace: one-time imports and caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_tilted_holds_one_value_per_replication(self):
        n = 10**6
        peak = _peak_traced_bytes(lambda: simulate_tilted_static(0.5, INST, 200, n, 1))
        assert peak <= 24 * n + 8 * 2**20

    def test_plain_static_memory_does_not_grow_with_n(self):
        def peak(n):
            return _peak_traced_bytes(
                lambda: simulate_plain(PolicySpec.static(0.4), INST, 40, n, 1))

        assert peak(2**22) - peak(2**16) < 2**20


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


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**64) + 5, True, 1.0])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ArgumentError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            simulate_plain(PolicySpec.uniform(), INST, 10, 10, seed)
        with pytest.raises(ArgumentError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            simulate_tilted_static(0.5, INST, 10, 10, seed)

    def test_seed_range_edges_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            est = simulate_plain(PolicySpec.plugin_tracking(0.5), INST, 10, 10, seed)
            assert est.seed == seed and type(est.seed) is int
            assert simulate_tilted_static(0.5, INST, 10, 10, seed).seed == seed


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
        from bailab.policies import arm2_count

        x, T, n, seed = 0.5, 60, 10**5, 3
        n2 = arm2_count(x, T)
        n1 = T - n2
        lam = lambda_star(x, INST)
        s1, s2 = static_successes(stream_uniforms(seed, n, 0), stream_uniforms(seed, n, 1),
                                  n1, n2, lam, lam)
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
