"""Tests for the exact DP engine and the binomial fast path."""

import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, xlog1py, xlogy
from scipy.stats import binom

from brute_force import (_binom_logpmf as reference_logpmf, dict_dp_layers, dict_dp_summary,
                         enumerate_summary, static_error_log_reference)

from bailab import exact
from bailab.errors import ArgumentError, CapacityError, DomainError
from bailab.exact import (
    _binom_logpmf,
    _binom_logpmf_at,
    _lgam,
    _log1p,
    _log_factorials,
    _log_summary,
    _log_window,
    change_of_measure_slack,
    dp_layers,
    exact_summary,
    rate_ratio_scan,
    stability_profile,
    static_counts,
    static_error_log,
)
from bailab.mc import _binom_cdf, simulate_plain, simulate_tilted_static
from bailab.policies import PolicySpec, arm2_count, plugin_actions
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
    """The padded-box engine against the dict-of-slices DP it replaced."""

    @pytest.mark.parametrize("T", [2, 3, 17, 48])
    @pytest.mark.parametrize("mu", [(0.6, 0.4), (0.7, 0.3), (0.5, 0.3), (0.4, 0.6)],
                             ids=str)
    @pytest.mark.parametrize("force_rate", [0.01, 0.2, 0.5, 1.0])
    def test_plugin_layers_are_byte_identical(self, force_rate, mu, T):
        assert_same_layers(PolicySpec.plugin_tracking(force_rate), BanditInstance(*mu), T)

    @pytest.mark.parametrize("T", [2, 3, 17, 48])
    @pytest.mark.parametrize("mu", [(0.6, 0.4), (0.7, 0.3), (0.5, 0.3), (0.4, 0.6)],
                             ids=str)
    @pytest.mark.parametrize("force_rate", [0.01, 0.2, 0.5, 1.0])
    def test_box_padding_is_positive_zero_after_every_step(self, force_rate, mu, T):
        last = None
        for t, lo, box in exact._boxes(PolicySpec.plugin_tracking(force_rate),
                                       BanditInstance(*mu), T, exact.DEFAULT_MAX_STATES):
            planes = len(box)
            assert box.shape == (planes, lo + planes, t - lo + 1), t
            n1 = np.arange(lo, lo + planes)[:, None, None]
            s1 = np.arange(lo + planes)[None, :, None]
            s2 = np.arange(t - lo + 1)[None, None, :]
            padding = box[np.broadcast_to((s1 > n1) | (s2 > t - n1), box.shape)]
            assert padding.tobytes() == bytes(padding.nbytes), t
            last = t
        assert last == T

    def test_kernel_sees_only_cells_with_mass(self, monkeypatch):
        # the step from layer t calls the kernel on layer t's non-zero cells
        # only: 24,541 of the 69,520 states of layers 0..47
        calls = []

        def counting(t, n1, s1, s2, force_rate):
            calls.append(len(n1))
            return plugin_actions(t, n1, s1, s2, force_rate)

        monkeypatch.setattr(exact, "plugin_actions", counting)
        nonzero = states = 0
        for t, layer in dp_layers(PolicySpec.plugin_tracking(0.5), BanditInstance(0.6, 0.4), 48):
            if t <= 47:
                nonzero += sum(int(np.count_nonzero(a)) for a in layer.values())
                states += sum(a.size for a in layer.values())
        assert sum(calls) == nonzero == 24_541
        assert states == 69_520

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

    def test_summary_where_slices_exceed_a_group(self):
        # at T = 130 the middle slices hold up to 66 * 66 > 2**12 cells, so each
        # of their planes is a group of its own, and the summary reads strided views
        assert (66 * 66) > exact._GROUP_CELLS
        policy, inst = PolicySpec.plugin_tracking(0.01), BanditInstance(0.9, 0.1)
        s = exact_summary(policy, inst, 130)
        assert (s.p_error, s.p_pick2, s.e_n1) == dict_dp_summary(policy, inst, 130)

    def test_summary_of_strided_slices_equals_their_contiguous_copies(self):
        # at T = 182 the middle slices hold up to 92 * 92 cells, more than
        # numpy's 8,192-element buffer, past which np.sum of a strided view
        # adds in another order than over a contiguous array
        policy, inst = PolicySpec.plugin_tracking(0.01), BanditInstance(0.9, 0.1)
        for _, layer in dp_layers(policy, inst, 182):
            pass
        assert max(a.size for a in layer.values()) > np.getbufsize()
        copies = {n1: np.ascontiguousarray(a) for n1, a in layer.items()}
        assert exact._dp_summary(layer, inst, 182) == exact._dp_summary(copies, inst, 182)


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
    """The limit is checked on the count each layer allocates, by one rule from
    layer 1 on: the states of slices ``lo .. hi+1`` before trimming, 4 at
    layer 1 and 7 at layer 2.  Up to T = 20, tracking on INST allocates at
    most 595 states, at layer 20."""

    @pytest.mark.parametrize("limit, T", [(595, 20), (7, 2)])
    def test_budget_at_the_limit_runs(self, monkeypatch, limit, T):
        monkeypatch.setenv("BAI_MAX_STATES", str(limit))
        layers = [t for t, _ in dp_layers(PolicySpec.plugin_tracking(0.5), INST, T)]
        assert layers == list(range(T + 1))

    @pytest.mark.parametrize("limit, layer, states", [(594, 20, 595), (3, 1, 4), (6, 2, 7)])
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
        # layer 100 of tracking keeps 63,725 states (176,649 untrimmed) in a
        # padded box of 99,225 cells; the two box buffers, each an eighth
        # larger than the box it was made for, take 28 B per state of it, and
        # group temporaries stay bounded
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
        s = exact_summary(PolicySpec.static(0.5), BanditInstance(0.9, 0.1), 4)
        assert s.p_error == pytest.approx(0.0280, abs=1e-15)

    @pytest.mark.parametrize("T", [2, 7, 13, 40, 150])
    @pytest.mark.parametrize("x", [0.5, 0.3, 0.71])
    def test_matches_dp(self, x, T):
        if min(arm2_count(x, T), T - arm2_count(x, T)) < 1:
            pytest.skip("schedule does not cover both arms")
        dp = dict_dp_summary(PolicySpec.static(x), INST, T)[0]
        assert exact_summary(PolicySpec.static(x), INST, T).p_error == pytest.approx(dp, abs=1e-12)

    def test_uniform_dp_equals_fast_path_at_even_and_odd_budgets(self):
        for T in (13, 40):
            dp = dict_dp_summary(PolicySpec.uniform(), INST, T)[0]
            p_error = exact_summary(PolicySpec.static(0.5), INST, T).p_error
            assert p_error == pytest.approx(dp, abs=1e-12)

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
            return static_counts(*args)

        monkeypatch.setattr(exact, "static_counts", counted)
        exact_summary(PolicySpec.static(0.3), INST, 40)
        assert calls == [(PolicySpec.static(0.3), 40)]

    def test_complement_symmetry(self):
        # flipping every reward label swaps the arms' roles
        a = exact_summary(PolicySpec.static(0.5), BanditInstance(0.8, 0.45), 30).p_error
        b = exact_summary(PolicySpec.static(0.5), BanditInstance(0.55, 0.2), 30).p_error
        assert a == pytest.approx(b, abs=1e-15)

    def test_reversed_best_arm(self):
        a = exact_summary(PolicySpec.static(0.4), BanditInstance(0.7, 0.3), 25).p_error
        b = exact_summary(PolicySpec.static(0.6), BanditInstance(0.3, 0.7), 25).p_error
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
            exact_summary(PolicySpec.static(0.0), INST, 10).p_error

    def test_unsampled_arm_message_names_the_covering_budget(self):
        with pytest.raises(ArgumentError, match="samples both arms is T=6"):
            static_error_log(0.18930722269290384, INST, 2)
        with pytest.raises(ArgumentError, match="samples both arms is T=6"):
            exact_summary(PolicySpec.static(0.18930722269290384), INST, 5)

    def test_static_counts_refuses_an_adaptive_policy(self):
        with pytest.raises(ArgumentError, match="plugin_tracking has no deterministic schedule"):
            static_counts(PolicySpec.plugin_tracking(0.5), 10)

    def test_unsampled_arm_message_names_the_policy_label(self):
        oracle = PolicySpec.oracle_static(BanditInstance(0.5, 0.01))  # x* = 0.3798
        with pytest.raises(ArgumentError, match=r"schedule of oracle:0\.5,0\.01 leaves"):
            exact_summary(oracle, INST, 2)

    @pytest.mark.parametrize("T", [7, 400, 5000])
    @pytest.mark.parametrize("inst", [INST, INST_REV], ids=["best1", "best2"])
    def test_static_error_log_is_the_summary_log(self, inst, T):
        for x in (0.5, 0.3):
            n1, n2 = T - arm2_count(x, T), arm2_count(x, T)
            logp = static_error_log(x, inst, T)
            assert logp == exact_summary(PolicySpec.static(x), inst, T).log_p_error
            lf = _log_factorials(max(n1, n2))
            assert logp == _log_summary(n1, n2, inst, lf).log_p_error

    @pytest.mark.parametrize("ref", [(0.9, 0.5), (0.5, 0.01), (0.2, 0.6)], ids=str)
    def test_static_error_log_at_an_oracle_fraction(self, ref):
        oracle = PolicySpec.oracle_static(BanditInstance(*ref))
        for T in (40, 5000):
            logp = static_error_log(oracle.x, INST, T)
            assert logp == exact_summary(PolicySpec.static(oracle.x), INST, T).log_p_error
            assert logp == exact_summary(oracle, INST, T).log_p_error

    @pytest.mark.parametrize("x", [-0.1, 1.5, math.nan])
    def test_static_error_log_outside_the_unit_interval_names_it(self, x):
        with pytest.raises(ArgumentError, match=r"x in \[0, 1\]"):
            static_error_log(x, INST, 10)

    @pytest.mark.parametrize("inst", [INST, INST_REV], ids=["best1", "best2"])
    def test_plugin_log_p_error_is_the_log_of_p_error(self, inst):
        for T in (2, 9, 30):
            s = exact_summary(PolicySpec.plugin_tracking(0.3), inst, T)
            assert s.log_p_error == math.log(s.p_error)


class TestBinomialLogPmf:
    @pytest.mark.parametrize("n", [1, 7, 40, 900, 100_000])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 0.5, 1.0 - 1e-9])
    def test_equals_scipy_stats_bit_for_bit(self, n, p):
        k = np.arange(n + 1)
        assert np.array_equal(_binom_logpmf(_log_factorials(n), n, p), binom.logpmf(k, n, p))

    @pytest.mark.parametrize("n, lo, hi", [(1, 0, 0), (1, 1, 1), (40, 3, 17), (40, 20, 40),
                                           (100_000, 0, 10), (100_000, 29_000, 31_000)])
    @pytest.mark.parametrize("p", [1e-9, 0.3, 1.0 - 1e-9])
    def test_ranges_and_points_have_the_bits_of_the_full_table(self, n, lo, hi, p):
        lf = _log_factorials(n)
        full = _binom_logpmf(lf, n, p)
        assert np.array_equal(_binom_logpmf(lf, n, p, lo, hi), full[lo:hi + 1])
        k = np.array([hi, lo, n, 0, (lo + hi) // 2])
        assert np.array_equal(_binom_logpmf_at(lf, n, p, k), full[k])


class TestCephesReplicas:
    """The log path's replicas of Cephes ``lgam`` and ``log1p``, and its
    ``math.log``, have the bits of the scipy functions that run them."""

    def test_log_factorials_equal_gammaln_to_the_state_limit_and_past_it(self):
        m = 1_200_001
        assert np.array_equal(_log_factorials(m), gammaln(np.arange(1.0, m + 2.0)))

    def test_lgam_at_its_branch_edges(self):
        # below 13 the exact product, the A[] polynomial below 1000, the
        # three-term series up to 1e8, and no correction above
        x = np.array([1.0, 2.0, 12.0, 13.0, 999.0, 1000.0, 1e8 - 1, 1e8, 1e8 + 1, 2.0**53])
        assert np.array_equal(_lgam(x), gammaln(x))

    @staticmethod
    def sample_means() -> np.ndarray:
        """A seeded sample of p spread over [1e-300, 1 - 1e-16], with the 64
        doubles on each side of the edge where ``log1p(-p)`` changes branch."""
        rng = np.random.default_rng(20231)
        edge = 1.0 - 0.70710678118654752440  # 1 - p = sqrt(1/2)
        near_edge = edge + np.arange(-64, 65) * np.spacing(edge)
        p = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 50_000),
                            rng.uniform(0.0, 1.0, 50_000),
                            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 10_000),
                            near_edge, [1e-300, 1.0 - 1e-16]])
        return p[(p >= 1e-300) & (p <= 1.0 - 1e-16)]

    def test_log1p_equals_xlog1py(self):
        p = self.sample_means()
        assert p.size >= 100_000
        ours = np.array([_log1p(-v) for v in p.tolist()])
        assert np.array_equal(ours, xlog1py(1.0, -p))

    def test_log1p_at_the_upper_branch_edge(self):
        # 1 + x = sqrt(2), reached only by positive x
        edge = 1.41421356237309504880 - 1.0
        x = edge + np.arange(-64, 65) * np.spacing(edge)
        assert np.array_equal(np.array([_log1p(v) for v in x.tolist()]), xlog1py(1.0, x))

    def test_math_log_equals_xlogy(self):
        p = self.sample_means()
        assert np.array_equal(np.array([math.log(v) for v in p.tolist()]), xlogy(1.0, p))


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
        lf = _log_factorials(max(n1, n2))
        assert (_log_summary(n1, n2, inst, lf).log_p_error
                == static_error_log_reference(n1, n2, inst))

    @pytest.mark.parametrize("mu", _WORKLOADS.SCHEDULE_POOL)
    def test_benchmark_scan_at_x_star(self, mu):
        inst = BanditInstance(*(float(v) for v in mu.split(",")))
        oracle = PolicySpec.oracle_static(inst)
        first, last, step = (int(v) for v in _WORKLOADS.SCAN_GRID.split(":"))
        counts = [static_counts(oracle, T) for T in range(first, last + 1, step)]
        # one table for the longest budget, as a scan shares it
        lf = _log_factorials(max(max(c) for c in counts))
        for n1, n2 in counts:
            assert (_log_summary(n1, n2, inst, lf).log_p_error
                    == static_error_log_reference(n1, n2, inst)), (n1, n2)


def _window_cases(count: int, seed: int):
    """``count`` seeded ``(n1, n2, inst)``: T from 4,096 (where the window starts
    to trim) to 200,000; edge means, near-diagonal gaps down to 1e-6 and
    uniform pairs in turn; an arm-2 share near 0 or near 1/2 in turn; either
    arm best."""
    rng = np.random.default_rng(seed)
    edge = [1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-9]
    for i in range(count):
        if i % 3 == 0:
            hi, lo = sorted(rng.choice(edge, 2, replace=False).tolist(), reverse=True)
        elif i % 3 == 1:
            centre, gap = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-6.0, -2.0)
            hi, lo = centre + gap / 2.0, centre - gap / 2.0
        else:
            hi, lo = sorted(rng.uniform(0.0, 1.0, 2).tolist(), reverse=True)
        T = int(10.0 ** rng.uniform(math.log10(4096), math.log10(200_000)))
        share = 10.0 ** rng.uniform(-4.0, -1.0) if i % 2 else rng.uniform(0.4, 0.5)
        n2 = min(max(round(share * T), 1), T - 1)
        if rng.integers(2):
            hi, lo = lo, hi
        yield T - n2, n2, BanditInstance(hi, lo)


def _reference_terms(n1: int, m1: float, n2: int, m2: float):
    """The log-domain terms the log path reduces over, one per arm-1 count
    ``s1 = 0 .. n1``, and the arm-2 log-pmf, both from the scipy reference,
    arm 1 best."""
    s1 = np.arange(n1 + 1)
    lb2 = reference_logpmf(np.arange(n2 + 1), n2, m2)
    logtail = np.append(np.logaddexp.accumulate(lb2[::-1])[::-1], -np.inf)
    tie_at = s1 * n2 // n1
    half = np.where(s1 * n2 % n1 == 0, lb2[tie_at] + math.log(0.5), -np.inf)
    return reference_logpmf(s1, n1, m1) + np.logaddexp(logtail[tie_at + 1], half), lb2


class TestLogWindow:
    """The log path sums only over the window of ``_log_window``, with
    ``GAP = 810`` nats.  Dropping the terms after the window is exact, since
    numpy's ``logaddexp(r, x)`` returns ``r`` bit for bit once ``x < r - 745.2``.
    Dropping those before it, and the arm-2 mass above ``top``, rests on an
    argument, not a proof: these tests check its result, bit for bit."""

    CASES = 240
    SEED = 20_231_031

    def test_bits_of_the_full_sum_on_a_seeded_sample(self):
        # 240 cases, GAP = 810; the same sample passes with GAP = 40
        assert exact._GAP == 810.0
        lf = _log_factorials(200_000)
        trimmed = 0
        for n1, n2, inst in _window_cases(self.CASES, self.SEED):
            assert (_log_summary(n1, n2, inst, lf).log_p_error
                    == static_error_log_reference(n1, n2, inst)), (n1, n2, inst)
            best = ((n1, inst.mu1, n2, inst.mu2) if inst.best_arm == 1
                    else (n2, inst.mu2, n1, inst.mu1))
            trimmed += _log_window(*best, lf) != (0, best[0], best[2])
        # the sample exercises the window: most cases drop terms
        assert trimmed > self.CASES // 2

    @pytest.mark.parametrize("n1, m1, n2, m2", [
        (50_000, 0.7, 50_000, 0.3), (9_000, 0.6, 1, 0.4), (4_000, 1.0 - 1e-9, 4_000, 1e-9),
        (30_000, 0.5 + 1e-6, 90_000, 0.5 - 1e-6), (100_000, 0.2, 37, 0.1),
        (200, 0.9, 9_000, 0.1)], ids=str)
    def test_dropped_terms_lie_a_gap_below(self, n1, m1, n2, m2):
        lf = _log_factorials(max(n1, n2))
        a, b, top = _log_window(n1, m1, n2, m2, lf)
        assert (a, b, top) != (0, n1, n2)
        terms, lb2 = _reference_terms(n1, m1, n2, m2)
        dropped = np.concatenate((terms[:a], terms[b + 1:]))
        assert not dropped.size or dropped.max() < terms.max() - 746.0
        if top < n2:  # the arm-2 mass above top, against the smallest tail read
            assert (np.logaddexp.reduce(lb2[top + 1:])
                    < np.logaddexp.reduce(lb2[b * n2 // n1 + 1:]) - 746.0)

    def test_uniform_at_T_1e5_runs_logaddexp_over_a_quarter_of_the_terms(self):
        n1 = n2 = 50_000
        a, b, top = _log_window(n1, 0.7, n2, 0.3, _log_factorials(n1))
        # the reduce over s1 = a .. b, a tie's half-mass at each of them (n1 = n2,
        # so every s1 ties), and the tail accumulation over tie(a) .. top
        terms = 2 * (b - a + 1) + (top - a * n2 // n1 + 1)
        assert terms <= (n1 + n2 + 2) / 4

    @pytest.mark.parametrize("n1, n2", [(1, 1), (450, 450), (2_046, 2_046), (4_000, 93)])
    def test_below_the_minimum_the_window_is_the_whole_range(self, n1, n2):
        assert n1 + n2 + 2 < exact._WINDOW_MIN_TERMS
        assert _log_window(n1, 0.7, n2, 0.3, _log_factorials(max(n1, n2))) == (0, n1, n2)


class TestBinomialTableLimit:
    """Each arm's binomial table has n + 1 entries; the log path and static
    Monte Carlo refuse one over the state limit before allocating it."""

    def test_table_at_the_limit_is_allowed(self, monkeypatch):
        monkeypatch.setenv("BAI_MAX_STATES", "51")
        assert static_counts(PolicySpec.uniform(), 100) == (50, 50)
        assert math.isfinite(static_error_log(0.5, INST, 100))

    @pytest.mark.parametrize("run, length", [
        (lambda: static_error_log(0.5, INST, 101), 52),
        (lambda: rate_ratio_scan(PolicySpec.uniform(), INST, [100, 101]), 52),
        (lambda: simulate_plain(PolicySpec.uniform(), INST, 101, 10, 0), 52),
        (lambda: simulate_plain(PolicySpec.static(0.3), INST, 101, 10, 0), 72),
        (lambda: simulate_tilted_static(PolicySpec.static(0.5), INST, 101, 10, 0), 52),
        (lambda: exact_summary(PolicySpec.static(0.3), INST, 101), 72),
    ], ids=["log_path", "scan", "plain_mc", "plain_mc_static", "tilted_mc", "exact_static"])
    def test_over_the_limit_raises_naming_length_and_limit(self, monkeypatch, run, length):
        monkeypatch.setenv("BAI_MAX_STATES", "51")
        limit = f"table of {length} entries, over the limit of 51"
        with pytest.raises(CapacityError, match=limit):
            run()


class TestTableScratch:
    """Building a table of 500,001 entries takes a bounded number of tables of
    scratch, traced above its inputs: the log-factorials hold the result, the
    logs (then 1/x²) and the series beside their input (measured: 4.0 tables),
    and the binomial CDF the log-pmf's three tables at its peak (3.0)."""

    M = 500_000
    TABLE = 8 * (M + 1)

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_log_factorials(self):
        assert self.traced_peak(lambda: _log_factorials(self.M)) <= 5 * self.TABLE

    def test_binomial_cdf_above_its_input(self):
        lf = _log_factorials(self.M)
        assert self.traced_peak(lambda: _binom_cdf(lf, self.M, 0.7)) <= 4 * self.TABLE


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

    def test_boundary_mu_side_makes_the_rhs_infinite(self):
        res = change_of_measure_slack(PolicySpec.uniform(), BanditInstance(0.3, 0.7),
                                      BanditInstance(0.7, 0.3), 100_000)
        assert res == (math.inf, True, 1.0, 0.0)

    def test_equal_boundary_probabilities_leave_the_lhs(self):
        pi_inst, mu_inst = BanditInstance(0.9, 0.1), BanditInstance(0.7, 0.3)
        res = change_of_measure_slack(PolicySpec.uniform(), pi_inst, mu_inst, 100_000)
        assert not res.rhs_infinite
        assert res.p_pick2_pi == res.p_pick2_mu == 0.0
        lhs = 50_000 * (kl_bernoulli(0.9, 0.7) + kl_bernoulli(0.1, 0.3))
        assert res.slack == pytest.approx(lhs, rel=1e-12)

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

    @pytest.mark.parametrize("policy, mu, budgets", [
        (PolicySpec.static(0.3), (0.6, 0.4), [400, 7, 120, 7, 4, 5000]),
        (PolicySpec.static(0.7), (0.35, 0.8), [90, 3000, 90, 11]),
        (PolicySpec.uniform(), (0.7, 0.45), [1000, 10, 400, 10, 2]),
    ], ids=["unsorted_duplicates", "arm2_best", "n1_eq_n2_every_cell_ties"])
    def test_fixed_schedule_equals_each_budget_from_one_table(self, monkeypatch, policy, mu,
                                                              budgets):
        tables = []

        def counted(m):
            tables.append(m)
            return _log_factorials(m)

        monkeypatch.setattr(exact, "_log_factorials", counted)
        inst, x = BanditInstance(*mu), policy.schedule_fraction()
        scan = rate_ratio_scan(policy, inst, budgets)
        assert tables == [max(max(static_counts(policy, T)) for T in budgets)]
        for point, T in zip(scan.points, budgets):
            logp = static_error_log(x, inst, T)
            assert (point.T, point.p_error, point.ratio) == (T, math.exp(logp), T / -logp)

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

    @pytest.mark.parametrize("a", [0.0, 1.0, math.nan])
    def test_target_outside_the_open_interval_rejected(self, a):
        with pytest.raises(ArgumentError, match=r"strictly inside \(0, 1\)"):
            stability_profile(PolicySpec.uniform(), a, [0.1], [4])


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
