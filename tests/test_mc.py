"""Tests for the Monte Carlo engines."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from brute_force import (blocked_moments, replay_counts, replay_pick2, static_mc_reference,
                         static_mc_values, static_successes, stream_draw, stream_uniforms)

from bailab import mc
from bailab.errors import ArgumentError, CapacityError, DomainError
from bailab.exact import _log_factorials, exact_summary, static_counts
from bailab.mc import (
    Estimate,
    _binom_cdf,
    _count_blocks,
    _draw_bits,
    _inverse_cdf_sampler,
    _mix64,
    _stream_states,
    simulate_plain,
    simulate_tilted_static,
)
from bailab.policies import PolicySpec, pick2_mass
from bailab.rates import BanditInstance, g_closed, lambda_star

INST = BanditInstance(0.7, 0.3)


def batch_uniforms(seed: int, reps: np.ndarray, k: int) -> np.ndarray:
    """Draw ``k`` of the streams ``reps`` through the library's in-place kernels."""
    bits, tmp = np.empty((2, 1, reps.size), dtype=np.uint64)
    states = _stream_states(seed, reps, np.empty_like(reps), tmp[0])
    return (_draw_bits(states, k, bits, tmp)[0] >> np.uint64(11)) * 2.0**-53


class TestStreams:
    def test_batch_matches_scalar(self):
        reps = np.arange(200, dtype=np.uint64)
        for seed in (0, 42, 123456789, -17):
            for k in (0, 1, 7):
                batch = batch_uniforms(seed, reps, k)
                for i in (0, 1, 55, 199):
                    assert batch[i] == stream_draw(seed, i, k)

    def test_streams_fill_the_unit_interval(self):
        u = batch_uniforms(7, np.arange(200_000, dtype=np.uint64), 0)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        hist, _ = np.histogram(u, bins=20, range=(0, 1))
        assert hist.min() > 9_000

    def test_mix_is_deterministic(self):
        assert _mix64(0) == _mix64(0)
        assert _mix64(1) != _mix64(2)


def binom_cdf(n: int, p: float) -> np.ndarray:
    """The sampler's CDF of Binomial(n, p), from its own log-factorial table."""
    return _binom_cdf(_log_factorials(n), n, p)


class TestBinomialCdf:
    """The inverse-CDF sampler's table is within a stated absolute bound of
    ``scipy.stats.binom.cdf`` (Boost's incomplete beta), whose bits no sum of
    pmf terms reproduces (measured on these cases: at most 1.7e-13 up to
    n = 2001 and 7.1e-11 at n = 1e5).  ``TestStaticDraws`` pins the draws themselves."""

    @staticmethod
    def bound(n: int) -> float:
        return 1e-12 if n <= 2001 else 1e-10

    @pytest.mark.parametrize("n", [1, 7, 40, 900, 100_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_within_bound_of_scipy_stats(self, n, p):
        cdf = binom_cdf(n, p)
        assert np.max(np.abs(cdf - binom.cdf(np.arange(n + 1), n, p))) <= self.bound(n)
        assert cdf[n] == 1.0 and np.all(np.diff(cdf) >= 0.0)

    def test_within_bound_of_scipy_stats_at_an_oracle_tilt(self):
        oracle = PolicySpec.oracle_static(BanditInstance(0.9, 0.5))
        lam = lambda_star(oracle.schedule_fraction(), INST)
        for n in static_counts(oracle, 2001):
            error = np.max(np.abs(binom_cdf(n, lam) - binom.cdf(np.arange(n + 1), n, lam)))
            assert error <= self.bound(n)


class TestStaticDraws:
    """Static success counts are those of ``searchsorted`` in
    ``scipy.stats.binom.cdf``, stream for stream: the sampler's CDF moves no
    draw of these streams, plain at the instance's means and tilted at an
    oracle schedule's tilt."""

    STREAMS = 2**18

    def assert_same_draws(self, seed, policy, T, p1, p2):
        n1, n2 = static_counts(policy, T)
        counts = []
        for block_n1, s1, s2, _ in _count_blocks(policy, T, seed, self.STREAMS, p1, p2):
            assert block_n1 == n1
            counts.append((s1.copy(), s2.copy()))
        reps = np.arange(self.STREAMS, dtype=np.uint64)
        expected = static_successes(batch_uniforms(seed, reps, 0), batch_uniforms(seed, reps, 1),
                                    n1, n2, p1, p2)
        for got, want in zip((np.concatenate(c) for c in zip(*counts)), expected):
            assert np.array_equal(got, want)

    def test_static_at_the_means(self):
        self.assert_same_draws(31, PolicySpec.static(0.4), 40, INST.mu1, INST.mu2)

    def test_oracle_tilt(self):
        oracle = PolicySpec.oracle_static(BanditInstance(0.9, 0.5))
        lam = lambda_star(oracle.schedule_fraction(), INST)
        self.assert_same_draws(32, oracle, 1000, lam, lam)


class TestInverseCdfSampler:
    """The guide table returns what ``searchsorted`` in the CDF returns, on the
    raw 64-bit draws where a bucket or a threshold begins or ends.  A draw's
    uniform reads its top 53 bits ``b``, so each ``b`` is taken with its low 11
    bits all clear and all set.  At n = 100,000 and 500,000 the tails crowd
    thresholds into single buckets."""

    @staticmethod
    def thresholds(cdf):
        return np.floor(cdf * 2.0**53).astype(np.int64)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 900, 100_000, 500_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_equals_searchsorted_at_every_edge(self, n, p):
        cdf = binom_cdf(n, p)
        thr = self.thresholds(cdf)
        # the first b of buckets 1 .. 2**14 - 1: bucket j holds the words z >> 50 == j
        edges = np.arange(1, 2**14, dtype=np.int64) << 39
        b = np.concatenate([[0, 2**53 - 1], edges - 1, edges, thr - 1, thr, thr + 1])
        b = np.unique(np.clip(b, 0, 2**53 - 1)).astype(np.uint64)
        words = np.concatenate([b << np.uint64(11), (b << np.uint64(11)) | np.uint64(2**11 - 1)])
        assert words[0] == 0 and words[-1] == 2**64 - 1
        expected = np.searchsorted(cdf, (words >> np.uint64(11)) * 2.0**-53, side="left")
        out, bucket = np.empty(words.shape, dtype=np.int64), np.empty_like(words)
        sampled = _inverse_cdf_sampler(cdf)(words, out, bucket, np.empty(words.shape, dtype=bool))
        assert np.array_equal(sampled, expected)

    @pytest.mark.parametrize("n", [100_000, 500_000])
    def test_large_tables_hold_every_bucket_case(self, n):
        # buckets with no threshold, with one, and with more (the searchsorted path)
        thr = self.thresholds(binom_cdf(n, 0.5))
        inside = np.bincount(thr[thr < 2**53] >> 39, minlength=2**14)
        assert inside.min() == 0 and np.any(inside == 1) and inside.max() >= 2


# the tilted estimator's summation group, and the tracking replay's block
BLOCK = 2**16
# a fixed schedule's block in the Monte Carlo block source
SOURCE_BLOCK = 2**15
EDGE_SEED = 2024


@pytest.fixture(scope="module")
def edge_uniforms():
    n = 3 * BLOCK + 7
    return stream_uniforms(EDGE_SEED, n, 0), stream_uniforms(EDGE_SEED, n, 1)


class TestBlockEdges:
    """Blocked estimates equal their references bit for bit, whichever side of
    a block edge the replication count falls.  Plain estimates equal the
    whole-array reference.  Tilted estimates equal the blocked-moments
    reference; up to one block that is also the whole-array ``np.mean``/``np.var``,
    and above it the two sum in other groupings, so they agree to a relative
    ``TILTED_REL_TOL`` (measured: at most 1.9e-16 on these cases)."""

    TILTED_REL_TOL = 1e-14

    def assert_tilted(self, est, u1, u2, x, inst, T):
        values = static_mc_values(u1, u2, x, inst, T, tilted=True)
        assert (est.mean, est.std_err) == blocked_moments(values)
        whole = static_mc_reference(u1, u2, x, inst, T, tilted=True)
        if len(u1) <= BLOCK:
            assert (est.mean, est.std_err) == whole
        else:
            assert (est.mean, est.std_err) == pytest.approx(whole, rel=self.TILTED_REL_TOL, abs=0)

    @pytest.mark.parametrize("n", [1, SOURCE_BLOCK - 1, SOURCE_BLOCK + 1, 3 * SOURCE_BLOCK + 7,
                                   BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("mu", [(0.6, 0.45), (0.45, 0.6)])
    def test_static_estimates_equal_the_whole_array_reference(self, edge_uniforms, n, mu):
        inst = BanditInstance(*mu)
        u1, u2 = (u[:n] for u in edge_uniforms)
        for policy, T in [(PolicySpec.uniform(), 9), (PolicySpec.static(0.3), 10)]:
            est = simulate_plain(policy, inst, T, n, EDGE_SEED)
            assert (est.mean, est.std_err) == static_mc_reference(
                u1, u2, policy.schedule_fraction(), inst, T, tilted=False)
        self.assert_tilted(simulate_tilted_static(PolicySpec.static(0.3), inst, 60, n, EDGE_SEED),
                           u1, u2, 0.3, inst, 60)

    @pytest.mark.parametrize("n", [1, 2, SOURCE_BLOCK - 1, SOURCE_BLOCK + 1, 3 * SOURCE_BLOCK + 7,
                                   BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("x, mu, T", [(0.5, (0.7, 0.45), 200), (0.62, (0.35, 0.6), 333)],
                             ids=["arm1_best", "arm2_best"])
    def test_tilted_estimate_equals_the_per_replication_reference(self, edge_uniforms, n, x,
                                                                  mu, T):
        inst = BanditInstance(*mu)
        u1, u2 = (u[:n] for u in edge_uniforms)
        est = simulate_tilted_static(PolicySpec.static(x), inst, T, n, EDGE_SEED)
        self.assert_tilted(est, u1, u2, x, inst, T)

    def test_adaptive_masses_match_the_scalar_replay_across_block_edges(self):
        policy, inst, T, n = PolicySpec.plugin_tracking(0.5), INST, 4, 2 * BLOCK + 3
        blocks = _count_blocks(policy, T, 8, n, inst.mu1, inst.mu2)
        masses = np.concatenate([pick2_mass(s1, n1, s2, T - n1) for n1, s1, s2, _ in blocks])
        assert masses.size == n
        edges = [i for edge in (SOURCE_BLOCK, BLOCK, 3 * SOURCE_BLOCK, 2 * BLOCK)
                 for i in range(edge - 2, edge + 3)] + [n - 1]
        assert masses[edges].tolist() == [replay_pick2(policy, inst, T, 8, i) for i in edges]
        assert simulate_plain(policy, inst, T, n, 8).mean == float(np.mean(masses))


def _peak_traced_bytes(run) -> int:
    run()  # first call outside the trace: one-time imports and caches
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_tilted_memory_does_not_grow_with_n(self):
        def peak(n):
            return _peak_traced_bytes(
                lambda: simulate_tilted_static(PolicySpec.static(0.5), INST, 200, n, 1))

        assert peak(2**22) - peak(2**16) < 2**20

    # the replay costs about 0.5 us per replication at T = 4, hence its smaller n
    @pytest.mark.parametrize("policy, T, n", [
        (PolicySpec.static(0.4), 40, 2**22),
        (PolicySpec.plugin_tracking(0.5), 4, 2**20),
    ], ids=["static", "plugin"])
    def test_plain_memory_does_not_grow_with_n(self, policy, T, n):
        def peak(n):
            return _peak_traced_bytes(lambda: simulate_plain(policy, INST, T, n, 1))

        assert peak(n) - peak(2**16) < 2**20

    # at n = 2**21 the source's five block rows and its two guide tables take
    # about 1.5 MiB; the tilted call adds its group of 2**16 values, 2.1 MiB
    @pytest.mark.parametrize("policy, T, tilted, bound_mib", [
        (PolicySpec.static(0.4), 40, False, 1.8),
        (PolicySpec.oracle_static(INST), 1000, True, 2.4),
    ], ids=["plain", "tilted"])
    def test_fixed_schedule_peak_is_bounded(self, policy, T, tilted, bound_mib):
        simulate = simulate_tilted_static if tilted else simulate_plain
        assert _peak_traced_bytes(lambda: simulate(policy, INST, T, 2**21, 1)) <= bound_mib * 2**20

    def test_tilted_tables_add_nothing_to_the_source_peak(self):
        # at T = 1e6 each arm's per-count table holds 500,001 floats (3.8 MiB);
        # built after the source's CDF builds (19.3 MiB, a plain call's peak),
        # they and their one temporary fit under that peak
        def run():
            simulate_tilted_static(PolicySpec.uniform(), INST, 10**6, 1000, 1)

        assert _peak_traced_bytes(run) <= 27 * 2**20

    def test_blocks_do_not_hold_the_log_factorials(self):
        # at T = 1e6 the table holds 500,001 entries (3.8 MiB); between blocks the
        # source keeps its two threshold tables (7.6 MiB) and block rows, 9.2 MiB
        def held_after_first_block():
            blocks = _count_blocks(PolicySpec.uniform(), 10**6, 1, 10**5, 0.7, 0.3)
            next(blocks)
            return tracemalloc.get_traced_memory()[0]

        held_after_first_block()  # outside the trace: one-time imports and caches
        tracemalloc.start()
        try:
            assert held_after_first_block() <= 11 * 2**20
        finally:
            tracemalloc.stop()


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
        ((n1, s1, s2, _),) = _count_blocks(policy, T, 21, 64, inst.mu1, inst.mu2)
        masses = pick2_mass(s1, n1, s2, T - n1)
        assert masses.tolist() == [replay_pick2(policy, inst, T, 21, i) for i in range(64)]

    # a block of m replications forms the draws of R = min(T, 2**16 // m) rounds
    # in one pass, as (first draw, rows, m)
    @pytest.mark.parametrize("n, T, passes, reps", [
        # R = 655 < T: two chunks, the second of 45 rounds
        (100, 700, [(0, 1310, 100), (1310, 90, 100)], [0, 1, 50, 98, 99]),
        # R = 21: chunks of 21, 21 and 8 rounds
        (3000, 50, [(0, 42, 3000), (42, 42, 3000), (84, 16, 3000)], [0, 1, 1499, 2998, 2999]),
        # R = 1 for the first block; the last block has m = 1 and R = T
        (BLOCK + 1, 5, [(2 * t, 2, BLOCK) for t in range(5)] + [(0, 10, 1)],
         [0, 1, BLOCK - 1, BLOCK]),
    ], ids=["two_chunks", "short_last_chunk", "last_block_of_one"])
    @pytest.mark.parametrize("rate", [0.3, 1.0])
    def test_chunked_replay_counts_equal_the_per_round_reference(self, monkeypatch, rate, n, T,
                                                                 passes, reps):
        policy, inst = PolicySpec.plugin_tracking(rate), BanditInstance(0.6, 0.45)
        seen, draw_bits = [], mc._draw_bits

        def spy(states, first, bits, tmp):
            seen.append((first, *bits.shape))
            return draw_bits(states, first, bits, tmp)

        monkeypatch.setattr(mc, "_draw_bits", spy)
        blocks = [[c.copy() for c in block[:3]]
                  for block in _count_blocks(policy, T, 17, n, inst.mu1, inst.mu2)]
        assert seen == passes
        n1, s1, s2 = (np.concatenate(c) for c in zip(*blocks))
        assert n1.size == n
        for i in reps:
            assert (n1[i], s1[i], s2[i]) == replay_counts(policy, inst, T, 17, i), i

    def test_tracking_budget_over_the_state_limit_raises_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("the budget is checked before any draw")

        monkeypatch.setenv("BAI_MAX_STATES", "60")
        policy = PolicySpec.plugin_tracking(0.5)
        assert simulate_plain(policy, INST, 60, 10, 0).n_samples == 10
        monkeypatch.setattr(mc, "_count_blocks", no_draw)
        with pytest.raises(CapacityError, match=r"tracking replay needs T=61 rounds, over the "
                                                r"limit of 60; set BAI_MAX_STATES to raise it"):
            simulate_plain(policy, INST, 61, 10, 0)

    def test_fixed_schedule_budget_is_bounded_by_its_tables_only(self, monkeypatch):
        # a T over the limit whose binomial tables (51 entries each) fit under it
        monkeypatch.setenv("BAI_MAX_STATES", "60")
        assert simulate_plain(PolicySpec.uniform(), INST, 100, 10, 0).n_samples == 10

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
            simulate_tilted_static(PolicySpec.static(0.5), INST, 10, 10, seed)

    def test_seed_range_edges_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            est = simulate_plain(PolicySpec.plugin_tracking(0.5), INST, 10, 10, seed)
            assert est.seed == seed and type(est.seed) is int
            assert simulate_tilted_static(PolicySpec.static(0.5), INST, 10, 10, seed).seed == seed


class TestSimulateTiltedStatic:
    def test_agrees_with_exact_fast_path(self):
        exact_p = exact_summary(PolicySpec.static(0.5), INST, 100).p_error
        est = simulate_tilted_static(PolicySpec.static(0.5), INST, 100, 10**5, 13)
        assert est.method == "tilted"
        assert abs(est.mean - exact_p) <= 3 * est.std_err
        assert est.std_err / est.mean <= 0.05

    def test_rate_recovery_at_deep_budget(self):
        # the finite-budget rate carries a (log T)/(2T) prefactor above g,
        # about 6.1% of g at T=600; the estimator must recover the exact
        # rate tightly and therefore sit within 7% of g itself
        from bailab.exact import static_error_log

        est = simulate_tilted_static(PolicySpec.static(0.5), INST, 600, 10**5, 29)
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
        tilted = simulate_tilted_static(PolicySpec.static(0.5), INST, 200, 10**4, 17)
        assert tilted.mean > 0.0
        assert tilted.std_err / tilted.mean <= 0.2

    def test_bit_reproducible(self):
        a = simulate_tilted_static(PolicySpec.static(0.5), INST, 200, 5_000, 23)
        b = simulate_tilted_static(PolicySpec.static(0.5), INST, 200, 5_000, 23)
        assert a == b

    def test_estimates_reported_raw(self):
        est = simulate_tilted_static(PolicySpec.static(0.5), INST, 10, 2_000, 5)
        assert isinstance(est, Estimate)
        assert est.mean >= 0.0  # no clamping applied beyond nonnegativity of weights

    @pytest.mark.parametrize("n", [0, 1, 7, 1000, 500_000])
    def test_log_ratio_table_matches_the_integer_counts(self, n):
        hit, miss = math.log(0.7 / 0.41), math.log(0.3 / 0.59)
        k = np.arange(n + 1)
        expected = k * hit + (n - k) * miss
        assert mc._log_ratios(n, hit, miss).tobytes() == expected.tobytes()

    def test_schedule_validation(self):
        with pytest.raises(ArgumentError):
            simulate_tilted_static(PolicySpec.static(0.0), INST, 10, 100, 0)
        with pytest.raises(DomainError):
            simulate_tilted_static(PolicySpec.static(0.5), BanditInstance(0.3, 0.3), 10, 100, 0)
        with pytest.raises(ArgumentError, match="fixed schedules, not plugin:0.5"):
            simulate_tilted_static(PolicySpec.plugin_tracking(0.5), INST, 10, 100, 0)
