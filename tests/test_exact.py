"""Tests for the exact DP engine and the binomial fast path."""

import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from brute_force import (dict_dp_layers, dict_dp_summary, enumerate_summary,
                         static_error_log_reference)

from bailab import exact
from bailab.errors import ArgumentError, CapacityError, DomainError
from bailab.exact import (
    _binom_logpmf,
    _log_factorials,
    _static_error_log,
    change_of_measure_slack,
    dp_layers,
    exact_summary,
    rate_ratio_scan,
    stability_profile,
    static_counts,
    static_error_exact,
    static_error_log,
)
from bailab.mc import simulate_plain, simulate_tilted_static
from bailab.policies import PolicySpec, arm2_count, schedule_counts
from bailab.rates import BanditInstance, g_closed, kl_bernoulli, pinsker_like_bound_slack

INST = BanditInstance(0.7, 0.3)
INST_REV = BanditInstance(0.35, 0.65)

BUILTINS = [
    PolicySpec.uniform(),
    PolicySpec.static(0.3),
    PolicySpec.static(0.5),
    PolicySpec.static(0.71),
    PolicySpec.oracle_static(BanditInstance(0.9, 0.5)),
    PolicySpec.plugin_tracking(1.0),
    PolicySpec.plugin_tracking(0.3),
]


class TestExactSummaryAgainstEnumeration:
    @pytest.mark.parametrize("policy", BUILTINS, ids=lambda p: p.description)
    @pytest.mark.parametrize("inst", [INST, INST_REV], ids=["best1", "best2"])
    def test_matches_brute_force(self, policy, inst):
        T = 9
        p_err, p_pick2, e_n1 = enumerate_summary(policy, inst, T)
        s = exact_summary(policy, inst, T)
        assert s.p_error == pytest.approx(p_err, abs=1e-12)
        assert s.p_pick2 == pytest.approx(p_pick2, abs=1e-12)
        assert s.e_n1 == pytest.approx(e_n1, abs=1e-12)
        assert s.e_omega2 == (T - s.e_n1) / T

    def test_spec_point_uniform_tiny_budget(self):
        s = exact_summary(PolicySpec.uniform(), BanditInstance(0.9, 0.1), 2)
        assert s.p_error == pytest.approx(0.10, abs=1e-15)

    def test_error_side_follows_the_best_arm(self):
        s = exact_summary(PolicySpec.uniform(), INST_REV, 8)
        assert s.p_error != s.p_pick2
        assert s.p_error + s.p_pick2 == pytest.approx(1.0, abs=1e-12)


class TestExactSummaryValidation:
    def test_budget_too_small(self):
        with pytest.raises(ArgumentError):
            exact_summary(PolicySpec.uniform(), INST, 1)

    def test_diagonal_instance_rejected(self):
        with pytest.raises(DomainError):
            exact_summary(PolicySpec.uniform(), BanditInstance(0.5, 0.5), 4)

    def test_one_sided_static_rejected(self):
        for x in (0.0, 1.0):
            with pytest.raises(ArgumentError):
                exact_summary(PolicySpec.static(x), INST, 10)
        # x small enough that the schedule never reaches arm 2
        with pytest.raises(ArgumentError):
            exact_summary(PolicySpec.static(0.1), INST, 4)

    def test_capacity_error_names_the_limit(self, monkeypatch):
        monkeypatch.setenv("BAI_MAX_STATES", "1000")
        with pytest.raises(CapacityError, match="1000"):
            exact_summary(PolicySpec.plugin_tracking(0.5), INST, 40)
        monkeypatch.setenv("BAI_MAX_STATES", "100000")
        exact_summary(PolicySpec.plugin_tracking(0.5), INST, 40)


class TestDpLayers:
    # the library DP runs plug-in tracking only; the dict DP runs the schedule
    @pytest.mark.parametrize(
        "policy, layers",
        [(PolicySpec.uniform(), dict_dp_layers), (PolicySpec.plugin_tracking(0.4), dp_layers)],
        ids=["uniform", "plugin:0.4"],
    )
    def test_probability_conservation_per_layer(self, policy, layers):
        for t, layer in layers(policy, INST, 30):
            mass = sum(float(np.sum(arr)) for arr in layer.values())
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_fixed_schedule_is_refused(self):
        for policy in BUILTINS[:5]:
            with pytest.raises(ArgumentError, match="binomial log path"):
                next(dp_layers(policy, INST, 20))

    def test_repeated_runs_are_bit_identical(self):
        a = exact_summary(PolicySpec.plugin_tracking(0.3), INST, 15)
        b = exact_summary(PolicySpec.plugin_tracking(0.3), INST, 15)
        assert a == b


def assert_same_layers(policy, inst, T):
    """Every layer of ``dp_layers`` equals the dict DP's on the slices it keeps,
    byte for byte; the kept slices are one range with non-zero end slices,
    and every reference slice outside it is exactly 0.0."""
    last = None
    for (t, layer), (t_ref, ref) in zip(dp_layers(policy, inst, T),
                                        dict_dp_layers(policy, inst, T)):
        assert t == t_ref
        keys = list(layer)
        assert keys == list(range(keys[0], keys[-1] + 1))
        assert layer[keys[0]].any() and layer[keys[-1]].any(), t
        for n1, arr in layer.items():
            assert arr.dtype == ref[n1].dtype and arr.shape == ref[n1].shape
            assert arr.tobytes() == ref[n1].tobytes(), (t, n1)
        for n1, arr in ref.items():
            if n1 not in layer:
                assert not arr.any(), (t, n1)
        last = t
    assert last == T


class TestDpLayersAgainstDictReference:
    """The flat, grouped engine against the dict-of-slices DP it replaced."""

    @pytest.mark.parametrize("T", [2, 3, 17, 48])
    @pytest.mark.parametrize("mu", [(0.6, 0.4), (0.7, 0.3), (0.5, 0.3), (0.4, 0.6)],
                             ids=str)
    @pytest.mark.parametrize("force_rate", [0.01, 0.2, 0.5, 1.0])
    def test_plugin_layers_are_byte_identical(self, force_rate, mu, T):
        assert_same_layers(PolicySpec.plugin_tracking(force_rate), BanditInstance(*mu), T)

    def test_slices_larger_than_a_group(self):
        # at T = 130 the middle slices hold up to 66 * 66 > 2**12 cells
        assert (66 * 66) > exact._GROUP_CELLS
        assert_same_layers(PolicySpec.plugin_tracking(0.01), BanditInstance(0.9, 0.1), 130)


class TestDpSameBits:
    @pytest.mark.parametrize("T", [3, 4, 7, 20, 48])
    @pytest.mark.parametrize("mu", [(0.6, 0.4), (0.9, 0.5), (0.3, 0.55), (0.2, 0.01)],
                             ids=str)
    @pytest.mark.parametrize("force_rate", [0.5, 0.2, 0.01, 1.0])
    def test_summary_equals_the_untrimmed_dict_dp(self, force_rate, mu, T):
        policy, inst = PolicySpec.plugin_tracking(force_rate), BanditInstance(*mu)
        s = exact_summary(policy, inst, T)
        assert (s.p_error, s.p_pick2, s.e_n1) == dict_dp_summary(policy, inst, T)


class TestDpBand:
    """The kept slices depend on the policy, not on the means: the last layer
    keeps 6,765 of 20,727 states at T = 48 and 63,725 of 176,649 at T = 100."""

    @pytest.mark.parametrize("mu", [(0.6, 0.4), (0.9, 0.5), (0.2, 0.01)], ids=str)
    @pytest.mark.parametrize("force_rate", [0.01, 0.2, 0.5])
    @pytest.mark.parametrize("T, lo, hi, states", [(48, 19, 29, 6_765), (100, 38, 62, 63_725)])
    def test_last_layer_band(self, force_rate, mu, T, lo, hi, states):
        for t, layer in dp_layers(PolicySpec.plugin_tracking(force_rate), BanditInstance(*mu), T):
            pass
        assert t == T
        assert list(layer) == list(range(lo, hi + 1))
        assert sum(a.size for a in layer.values()) == states


class TestDpCapacity:
    """The limit is checked on the count each layer allocates: 2 and 4 states
    at layers 1 and 2, then slices ``lo .. hi+1`` before trimming.  Up to
    T = 20, tracking on INST allocates at most 595 states, at layer 20."""

    def test_budget_at_the_limit_runs(self, monkeypatch):
        monkeypatch.setenv("BAI_MAX_STATES", "595")
        layers = [t for t, _ in dp_layers(PolicySpec.plugin_tracking(0.5), INST, 20)]
        assert layers == list(range(21))

    @pytest.mark.parametrize("limit, layer, states", [(594, 20, 595), (3, 2, 4)])
    def test_over_the_limit_raises_at_that_layer(self, monkeypatch, limit, layer, states):
        monkeypatch.setenv("BAI_MAX_STATES", str(limit))
        need = f"layer {layer} needs {states} states, over the limit of {limit};"
        layers = []
        with pytest.raises(CapacityError, match=need):
            for t, _ in dp_layers(PolicySpec.plugin_tracking(0.5), INST, 20):
                layers.append(t)
        assert layers == list(range(layer))

    def test_over_the_limit_layer_is_not_built(self, monkeypatch):
        # the pass to T = 100 allocates at most 64,844 states, at layer 99; one
        # state less stops it there, before that layer's storage exists
        limit = 64_843
        policy = PolicySpec.plugin_tracking(0.5)
        inst = BanditInstance(0.6, 0.4)
        exact_summary(policy, inst, 10)  # warm caches outside the measurement
        monkeypatch.setenv("BAI_MAX_STATES", str(limit))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="layer 99 needs 64844 states"):
                exact_summary(policy, inst, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * limit + 2**20


class TestDpMemory:
    def test_peak_is_two_layers_and_bounded_temporaries(self):
        # layer 100 of tracking keeps 63,725 states (176,649 untrimmed); the
        # current and next layers take 16 B per state of it, group temporaries
        # stay bounded
        policy = PolicySpec.plugin_tracking(0.5)
        inst = BanditInstance(0.6, 0.4)
        exact_summary(policy, inst, 10)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            exact_summary(policy, inst, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 63_725 + 2**20


class TestStaticFastPath:
    def test_spec_point_value(self):
        assert static_error_exact(0.5, BanditInstance(0.9, 0.1), 4) == pytest.approx(
            0.0280, abs=1e-15
        )

    @pytest.mark.parametrize("T", [2, 7, 13, 40, 150])
    @pytest.mark.parametrize("x", [0.5, 0.3, 0.71])
    def test_matches_dp(self, x, T):
        if min(arm2_count(x, T), T - arm2_count(x, T)) < 1:
            pytest.skip("schedule does not cover both arms")
        dp = dict_dp_summary(PolicySpec.static(x), INST, T)[0]
        assert static_error_exact(x, INST, T) == pytest.approx(dp, abs=1e-12)

    def test_uniform_dp_equals_fast_path_at_even_and_odd_budgets(self):
        for T in (13, 40):
            dp = dict_dp_summary(PolicySpec.uniform(), INST, T)[0]
            assert static_error_exact(0.5, INST, T) == pytest.approx(dp, abs=1e-12)

    @pytest.mark.parametrize("policy", BUILTINS[:5], ids=lambda p: p.description)
    @pytest.mark.parametrize("inst", [INST, INST_REV], ids=["best1", "best2"])
    def test_exact_summary_of_a_schedule_never_enters_the_dp(self, monkeypatch, policy, inst):
        def no_dp(*args):
            raise AssertionError("fixed schedules take the log path")

        T = 40
        p_error, p_pick2, e_n1 = dict_dp_summary(policy, inst, T)
        monkeypatch.setattr(exact, "dp_layers", no_dp)
        s = exact_summary(policy, inst, T)
        n2 = arm2_count(policy.schedule_fraction(), T)
        assert (s.e_n1, s.e_omega2) == (T - n2, n2 / T)
        assert s.p_error == pytest.approx(p_error, abs=1e-12)
        assert s.p_pick2 == pytest.approx(p_pick2, abs=1e-12)
        assert s.e_n1 == pytest.approx(e_n1, abs=1e-12)

    def test_exact_summary_validates_a_schedule_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return schedule_counts(*args)

        monkeypatch.setattr(exact, "schedule_counts", counted)
        exact_summary(PolicySpec.static(0.3), INST, 40)
        assert calls == [(0.3, 40, "static:0.3")]

    def test_complement_symmetry(self):
        # flipping every reward label swaps the arms' roles
        a = static_error_exact(0.5, BanditInstance(0.8, 0.45), 30)
        b = static_error_exact(0.5, BanditInstance(0.55, 0.2), 30)
        assert a == pytest.approx(b, abs=1e-15)

    def test_reversed_best_arm(self):
        a = static_error_exact(0.4, BanditInstance(0.7, 0.3), 25)
        b = static_error_exact(0.6, BanditInstance(0.3, 0.7), 25)
        assert a == pytest.approx(b, abs=1e-15)

    def test_log_path_reaches_extreme_budgets(self):
        logp = static_error_log(0.5, INST, 5000)
        assert -460.0 < logp < -400.0
        assert math.isfinite(logp)

    def test_rate_limit_trend(self):
        T = 400
        logp = static_error_log(0.5, INST, T)
        rate = -logp / T
        assert abs(rate - g_closed(0.5, INST)) <= (0.5 * math.log(T) + 5.0) / T

    def test_unsampled_arm_rejected(self):
        with pytest.raises(ArgumentError):
            static_error_exact(0.0, INST, 10)

    def test_unsampled_arm_message_names_the_covering_budget(self):
        with pytest.raises(ArgumentError, match="samples both arms is T=6"):
            static_error_log(0.18930722269290384, INST, 2)
        with pytest.raises(ArgumentError, match="samples both arms is T=6"):
            exact_summary(PolicySpec.static(0.18930722269290384), INST, 5)

    def test_unsampled_arm_message_names_the_policy_label(self):
        oracle = PolicySpec.oracle_static(BanditInstance(0.5, 0.01))  # x* = 0.3798
        with pytest.raises(ArgumentError, match=r"schedule of oracle:0\.5,0\.01 leaves"):
            exact_summary(oracle, INST, 2)


class TestBinomialLogPmf:
    @pytest.mark.parametrize("n", [1, 7, 40, 900, 100_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_equals_scipy_stats_bit_for_bit(self, n, p):
        k = np.arange(n + 1)
        assert np.array_equal(_binom_logpmf(_log_factorials(n), n, p), binom.logpmf(k, n, p))


def _benchmark_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _benchmark_workloads()


class TestStaticErrorLogReference:
    """The log path gives the bits of its reference: three gammaln passes
    per arm, a fresh logarithm per element, and logaddexp over every cell."""

    COUNTS = [(1, 1), (1, 2), (2, 1), (3, 3),
              (40, 40), (1000, 1000), (40, 20), (1000, 500), (20, 40), (500, 1000),
              (59_999, 60_000), (60_000, 59_999), (7, 60_000), (60_000, 7), (1, 60_000)]
    # each pair of 1e-9, 1 - 1e-9 and 1/2, either arm best, and a pair whose
    # numpy log(0.806) and log1p(-0.16) differ from scipy's in the last bit
    EDGE_MEANS = list(itertools.permutations([1e-9, 1.0 - 1e-9, 0.5], 2)) + [
        (0.806, 0.16), (0.16, 0.806)]

    @pytest.mark.parametrize("mu1, mu2", EDGE_MEANS)
    @pytest.mark.parametrize("n1, n2", COUNTS)
    def test_fixed_grid(self, n1, n2, mu1, mu2):
        inst = BanditInstance(mu1, mu2)
        assert _static_error_log(n1, n2, inst) == static_error_log_reference(n1, n2, inst)

    @pytest.mark.parametrize("mu", _WORKLOADS.SCHEDULE_POOL)
    def test_benchmark_scan_at_x_star(self, mu):
        inst = BanditInstance(*(float(v) for v in mu.split(",")))
        x = PolicySpec.oracle_static(inst).schedule_fraction()
        first, last, step = (int(v) for v in _WORKLOADS.SCAN_GRID.split(":"))
        for T in range(first, last + 1, step):
            n1, n2 = static_counts(x, T, f"oracle:{mu}")
            assert _static_error_log(n1, n2, inst) == static_error_log_reference(n1, n2, inst), T


class TestBinomialTableLimit:
    """Each arm's binomial table has n + 1 entries; the log path and static
    Monte Carlo refuse one over the state limit before allocating it."""

    def test_table_at_the_limit_is_allowed(self, monkeypatch):
        monkeypatch.setenv("BAI_MAX_STATES", "51")
        assert static_counts(0.5, 100, "uniform") == (50, 50)
        assert math.isfinite(static_error_log(0.5, INST, 100))

    @pytest.mark.parametrize("run, length", [
        (lambda: static_error_log(0.5, INST, 101), 52),
        (lambda: rate_ratio_scan(PolicySpec.uniform(), INST, [100, 101]), 52),
        (lambda: simulate_plain(PolicySpec.uniform(), INST, 101, 10, 0), 52),
        (lambda: simulate_plain(PolicySpec.static(0.3), INST, 101, 10, 0), 72),
        (lambda: simulate_tilted_static(0.5, INST, 101, 10, 0), 52),
        (lambda: exact_summary(PolicySpec.static(0.3), INST, 101), 72),
    ], ids=["log_path", "scan", "plain_mc", "plain_mc_static", "tilted_mc", "exact_static"])
    def test_over_the_limit_raises_naming_length_and_limit(self, monkeypatch, run, length):
        monkeypatch.setenv("BAI_MAX_STATES", "51")
        limit = f"table of {length} entries, over the limit of 51"
        with pytest.raises(CapacityError, match=limit):
            run()


class TestArmSwapSymmetry:
    @pytest.mark.parametrize("x", [0.25, 0.375, 0.5])
    def test_static_mirror_pairs(self, x):
        # dyadic fractions make the mirrored schedule exact
        for inst in (INST, BanditInstance(0.82, 0.44)):
            a = exact_summary(PolicySpec.static(x), inst, 16).p_error
            b = exact_summary(PolicySpec.static(1.0 - x), inst.swapped(), 16).p_error
            assert abs(a - b) <= 1e-15


class TestChangeOfMeasure:
    def test_same_instance_gives_lhs_only(self):
        res = change_of_measure_slack(PolicySpec.uniform(), INST, INST, 10)
        assert not res.rhs_infinite
        assert res.slack == 0.0  # d(mu, mu) = 0 on both sides

    def test_spec_point_pair(self):
        pi_inst, mu_inst = BanditInstance(0.3, 0.7), BanditInstance(0.7, 0.3)
        res = change_of_measure_slack(PolicySpec.uniform(), pi_inst, mu_inst, 10)
        assert not res.rhs_infinite
        assert res.slack >= 0.0
        assert res.p_pick2_pi == exact_summary(PolicySpec.uniform(), pi_inst, 10).p_pick2
        assert res.p_pick2_mu == exact_summary(PolicySpec.uniform(), mu_inst, 10).p_pick2

    def test_randomized_sweep(self):
        rng = np.random.default_rng(59)
        worst = math.inf
        for _ in range(40):
            policy = [
                PolicySpec.uniform(),
                PolicySpec.static(float(rng.uniform(0.2, 0.8))),
                PolicySpec.plugin_tracking(float(rng.uniform(0.2, 1.0))),
            ][int(rng.integers(0, 3))]
            t_cap = 20 if policy.kind == "plugin_tracking" else 50
            pi2 = float(rng.uniform(0.2, 0.9))
            pi1 = float(rng.uniform(0.05, pi2 - 0.05))
            mu1 = float(rng.uniform(0.2, 0.95))
            mu2 = float(rng.uniform(0.05, mu1 - 0.05))
            T = int(rng.integers(2, t_cap))
            res = change_of_measure_slack(
                policy, BanditInstance(pi1, pi2), BanditInstance(mu1, mu2), T
            )
            if not res.rhs_infinite:
                worst = min(worst, res.slack)
        assert worst >= -1e-10

    def test_chained_bound(self):
        # the divergence side dominates p_pi * log(1/p_mu_error) - log 2
        policy = PolicySpec.uniform()
        pi_inst = BanditInstance(0.25, 0.6)
        mu_inst = BanditInstance(0.75, 0.35)
        for T in (4, 12, 30):
            p = exact_summary(policy, pi_inst, T).p_pick2
            q = exact_summary(policy, mu_inst, T).p_pick2
            assert pinsker_like_bound_slack(p, q) >= 0.0


class TestRateRatioScan:
    def test_structure_and_reference_level(self):
        scan = rate_ratio_scan(PolicySpec.uniform(), INST, [50, 100, 150])
        assert [p.T for p in scan.points] == [50, 100, 150]
        assert scan.inv_g_half == pytest.approx(1.0 / g_closed(0.5, INST), abs=1e-12)
        for point in scan.points:
            assert point.ratio == pytest.approx(
                point.T / -math.log(point.p_error), rel=1e-12
            )

    def test_ratio_approaches_reference_from_below_at_scale(self):
        scan = rate_ratio_scan(PolicySpec.uniform(), INST, [500, 1000, 2000])
        ratios = [p.ratio for p in scan.points]
        assert ratios == sorted(ratios)
        assert ratios[-1] < scan.inv_g_half

    def test_tuned_static_beats_uniform_on_its_instance(self):
        inst = BanditInstance(0.9, 0.5)
        tuned = rate_ratio_scan(PolicySpec.oracle_static(inst), inst, [2000])
        uni = rate_ratio_scan(PolicySpec.uniform(), inst, [2000])
        assert tuned.points[0].ratio < uni.points[0].ratio

    def test_adaptive_policies_use_the_dp(self):
        scan = rate_ratio_scan(PolicySpec.plugin_tracking(0.5), INST, [10, 20])
        assert all(0.0 < p.p_error < 1.0 for p in scan.points)

    def test_empty_grid_rejected(self):
        with pytest.raises(ArgumentError):
            rate_ratio_scan(PolicySpec.uniform(), INST, [])

    @pytest.mark.parametrize("mu", [(0.30000001, 0.3), (0.3, 0.30000000000000004)], ids=str)
    def test_unresolved_reference_level_is_a_domain_error(self, mu):
        # g(1/2) rounds to -0.0 on these separated instances
        with pytest.raises(DomainError, match=r"g\(1/2\).*does not resolve in double precision"):
            rate_ratio_scan(PolicySpec.uniform(), BanditInstance(*mu), [10, 20])


class TestStabilityProfile:
    def test_schedule_policies_ignore_rewards(self):
        prof = stability_profile(
            PolicySpec.uniform(), 0.5, [0.2, 0.1], [4, 9, 16]
        )
        for row in prof.omega2_a + prof.omega2_b:
            for omega2, T in zip(row, prof.budgets):
                assert omega2 == pytest.approx(arm2_count(0.5, T) / T, abs=1e-12)

    def test_static_profile_is_the_schedule_fraction(self):
        prof = stability_profile(PolicySpec.static(0.3), 0.4, [0.1], [10, 20])
        for row in prof.omega2_a + prof.omega2_b:
            for omega2, T in zip(row, prof.budgets):
                assert omega2 == pytest.approx(arm2_count(0.3, T) / T, abs=1e-12)

    def test_plugin_profile_reported_within_bounds(self):
        prof = stability_profile(
            PolicySpec.plugin_tracking(0.25), 0.5, [0.3, 0.1], [8, 16, 24]
        )
        for row in prof.omega2_a + prof.omega2_b:
            assert all(0.0 < v < 1.0 for v in row)
        # drift toward 1/2 with shrinking gap at the largest budget (reported trend)
        drift_wide = abs(prof.omega2_a[0][-1] - 0.5)
        drift_narrow = abs(prof.omega2_a[1][-1] - 0.5)
        assert drift_narrow <= drift_wide + 1e-9

    def test_out_of_range_rejected(self):
        with pytest.raises(ArgumentError):
            stability_profile(PolicySpec.uniform(), 0.05, [0.2], [4])
        with pytest.raises(ArgumentError):
            stability_profile(PolicySpec.uniform(), 0.5, [-0.1], [4])


class TestOnePassPerInstance:
    """Plug-in scans and profiles walk the DP once per instance: layer t of the
    pass to the largest budget is the terminal layer of budget t."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(policy, inst, T):
            calls.append((inst, T))
            return dp_layers(policy, inst, T)

        monkeypatch.setattr(exact, "dp_layers", counted)
        return calls

    @pytest.mark.parametrize("mu, budgets", [((0.6, 0.4), [10, 20, 30, 40]),
                                             ((0.3, 0.7), [40, 20, 40, 3])], ids=str)
    def test_scan_equals_each_budget_in_one_pass(self, passes, mu, budgets):
        policy, inst = PolicySpec.plugin_tracking(0.2), BanditInstance(*mu)
        scan = rate_ratio_scan(policy, inst, budgets)
        assert passes == [(inst, max(budgets))]
        for point, T in zip(scan.points, budgets):
            p_error = exact_summary(policy, inst, T).p_error
            assert (point.T, point.p_error, point.ratio) == (T, p_error, T / -math.log(p_error))

    def test_profile_equals_each_budget_in_one_pass_per_instance(self, passes):
        policy, gaps, budgets = PolicySpec.plugin_tracking(0.25), [0.3, 0.1], [24, 8, 16]
        prof = stability_profile(policy, 0.5, gaps, budgets)
        assert [T for _, T in passes] == [24] * 2 * len(gaps)
        for gap, row_a, row_b in zip(gaps, prof.omega2_a, prof.omega2_b):
            upper = BanditInstance(0.5 + 0.5 * gap, 0.5 - 0.5 * gap)
            assert row_a == tuple(exact_summary(policy, upper, T).e_omega2 for T in budgets)
            assert row_b == tuple(exact_summary(policy, upper.swapped(), T).e_omega2
                                  for T in budgets)

    def test_empty_budget_list_gives_empty_rows_without_a_pass(self, passes):
        prof = stability_profile(PolicySpec.plugin_tracking(0.5), 0.5, [0.2, 0.1], [])
        assert prof.budgets == () and prof.omega2_a == prof.omega2_b == ((), ())
        assert passes == []

    def test_budgets_are_checked_before_the_pass(self, passes):
        with pytest.raises(ArgumentError, match="budget must be at least 2, got 1"):
            rate_ratio_scan(PolicySpec.plugin_tracking(0.5), INST, [20, 1])
        assert passes == []

    @pytest.mark.parametrize("budgets", [[25], [10, 25, 12], [25, 10]], ids=str)
    def test_sweep_over_the_limit_names_the_single_budget_layer(self, monkeypatch, budgets):
        # tracking on INST allocates 595 states at layer 20 (TestDpCapacity)
        monkeypatch.setenv("BAI_MAX_STATES", "594")
        need = "layer 20 needs 595 states, over the limit of 594;"
        with pytest.raises(CapacityError, match=need):
            exact_summary(PolicySpec.plugin_tracking(0.5), INST, 25)
        with pytest.raises(CapacityError, match=need):
            rate_ratio_scan(PolicySpec.plugin_tracking(0.5), INST, budgets)
        with pytest.raises(CapacityError, match=need):
            stability_profile(PolicySpec.plugin_tracking(0.5), 0.5, [0.4], budgets)
