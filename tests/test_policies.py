"""Tests for the sampling policies and the recommendation rule."""

import numpy as np
import pytest

from brute_force import rational_pick2, schedule_pulls_arm1, textbook_track_arm1

from bailab.errors import ArgumentError
from bailab.policies import (
    PolicySpec,
    arm2_count,
    check_budget,
    covering_budget,
    parse_policy,
    pick2_mass,
    plugin_action_grid,
    plugin_action_prob,
    plugin_actions,
    policy_label,
)
from bailab.rates import BanditInstance, x_star


def roll_schedule(policy, T):
    """Arms pulled by a deterministic-schedule policy under the per-round
    largest-remainder rule, 1-indexed arms."""
    x = policy.schedule_fraction()
    return [1 if schedule_pulls_arm1(x, t) else 2 for t in range(T)]


class TestPolicySpec:
    def test_factories_and_validation(self):
        assert PolicySpec.uniform().kind == "uniform"
        assert PolicySpec.static(0.3).x == 0.3
        assert PolicySpec.oracle_static(BanditInstance(0.9, 0.5)).ref.mu1 == 0.9
        assert PolicySpec.plugin_tracking(0.1).force_rate == 0.1
        with pytest.raises(ArgumentError):
            PolicySpec.static(1.2)
        with pytest.raises(ArgumentError):
            PolicySpec.plugin_tracking(0.0)
        with pytest.raises(ArgumentError):
            PolicySpec.oracle_static(BanditInstance(0.5, 0.5))
        with pytest.raises(ArgumentError):
            PolicySpec(kind="bandit")

    def test_description_is_the_read_only_policy_label(self):
        for policy in (PolicySpec.uniform(), PolicySpec.static(0.3),
                       PolicySpec.oracle_static(BanditInstance(0.9, 0.5)),
                       PolicySpec.plugin_tracking(0.2)):
            assert policy.description == policy_label(policy)
            with pytest.raises(AttributeError):
                policy.description = "other"
        with pytest.raises(TypeError):
            PolicySpec(kind="uniform", description="other")

    def test_schedule_fraction(self):
        assert PolicySpec.uniform().schedule_fraction() == 0.5
        assert PolicySpec.static(0.3).schedule_fraction() == 0.3
        ref = BanditInstance(0.9, 0.5)
        assert PolicySpec.oracle_static(ref).schedule_fraction() == x_star(ref)
        with pytest.raises(ArgumentError):
            PolicySpec.plugin_tracking(0.5).schedule_fraction()

    def test_deterministic_schedule_flag(self):
        assert PolicySpec.uniform().deterministic_schedule
        assert PolicySpec.static(0.25).deterministic_schedule
        assert not PolicySpec.plugin_tracking(0.5).deterministic_schedule


class TestSchedules:
    def test_uniform_alternates_starting_at_arm_one(self):
        assert roll_schedule(PolicySpec.uniform(), 4) == [1, 2, 1, 2]

    def test_static_half_gives_two_pulls_each_at_t4(self):
        arms = roll_schedule(PolicySpec.static(0.5), 4)
        assert arms.count(1) == 2 and arms.count(2) == 2

    def test_static_quarter_schedule(self):
        arms = roll_schedule(PolicySpec.static(0.25), 8)
        assert arms.count(2) == 2
        assert [t for t, a in enumerate(arms) if a == 2] == [3, 7]

    def test_uniform_equals_static_half(self):
        for T in (2, 3, 7, 8, 21):
            assert roll_schedule(PolicySpec.uniform(), T) == roll_schedule(
                PolicySpec.static(0.5), T
            )

    def test_odd_budget_gives_arm_one_the_extra_pull(self):
        arms = roll_schedule(PolicySpec.uniform(), 7)
        assert arms.count(1) == 4 and arms.count(2) == 3

    def test_largest_remainder_count_property(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            x = float(rng.uniform(0, 1))
            T = int(rng.integers(1, 400))
            n2 = arm2_count(x, T)
            assert abs(n2 - x * T) < 1.0
            assert n2 == sum(not schedule_pulls_arm1(x, t) for t in range(T))

    def test_covering_budget_is_the_first_budget_pulling_both_arms(self):
        rng = np.random.default_rng(5)
        fractions = [0.5, 0.18930722269290384, 1.0 / 3.0, 0.999, 0.01]
        for x in fractions + [float(v) for v in rng.uniform(0.005, 1.0, 200)]:
            T = covering_budget(x)
            covered = [1 <= arm2_count(x, t) <= t - 1 for t in range(2, T + 50)]
            assert covered == [t >= T for t in range(2, T + 50)]
        assert covering_budget(0.18930722269290384) == 6

    @pytest.mark.parametrize("x", [0.0, 1.0, 1e-300])
    def test_covering_budget_rejects_one_armed_schedules(self, x):
        with pytest.raises(ArgumentError):
            covering_budget(x)


class TestPluginTracking:
    def test_first_two_rounds_cover_both_arms(self):
        assert plugin_action_prob(0, 0, 0, 0, 0.3) == 1.0
        assert plugin_action_prob(1, 1, 1, 0, 0.3) == 0.0

    def test_full_forcing_degenerates_to_alternation(self):
        rng = np.random.default_rng(5)
        n1 = s1 = s2 = 0
        for t in range(40):
            p1 = plugin_action_prob(t, n1, s1, s2, 1.0)
            assert p1 in (0.0, 1.0)
            assert p1 == (1.0 if t % 2 == 0 else 0.0)
            if p1 == 1.0:
                n1 += 1
                s1 += int(rng.uniform() < 0.6)
            else:
                s2 += int(rng.uniform() < 0.4)

    def test_action_values_come_from_the_two_branches(self):
        fr = 0.3
        vals = set()
        rng = np.random.default_rng(9)
        for _ in range(300):
            t = int(rng.integers(2, 30))
            n1 = int(rng.integers(1, t))
            s1 = int(rng.integers(0, n1 + 1))
            s2 = int(rng.integers(0, t - n1 + 1))
            vals.add(plugin_action_prob(t, n1, s1, s2, fr))
        assert vals <= {0.0, fr, 1.0 - fr, 1.0}

    def test_grid_matches_scalar_bitwise(self):
        fr = 0.35
        for t, n1 in [(2, 1), (7, 3), (12, 5), (20, 11)]:
            grid = plugin_action_grid(t, n1, n1 + 1, t - n1 + 1, fr)
            for s1 in range(n1 + 1):
                for s2 in range(t - n1 + 1):
                    assert grid[s1, s2] == plugin_action_prob(t, n1, s1, s2, fr)

    def test_first_two_rounds_are_floats(self):
        # the exact engine moves a float action's slice without splitting it
        for action, want in [(plugin_action_grid(0, 0, 1, 1, 0.35), 1.0),
                             (plugin_action_grid(1, 1, 2, 1, 0.35), 0.0)]:
            assert isinstance(action, float) and action == want

    def test_kernel_over_count_arrays_matches_scalar_bitwise(self):
        rng = np.random.default_rng(4)
        fr, t = 0.2, 25
        n1 = rng.integers(1, t, size=500)
        s1 = rng.integers(0, n1 + 1)
        s2 = rng.integers(0, t - n1 + 1)
        probs = plugin_actions(t, n1, s1, s2, fr)
        for k in range(n1.size):
            want = plugin_action_prob(t, int(n1[k]), int(s1[k]), int(s2[k]), fr)
            assert probs[k] == want

    @pytest.mark.parametrize("fr", [0.0, 0.35])
    def test_kernel_matches_the_textbook_rule_on_every_state(self, fr):
        # flat count arrays, as Monte Carlo passes them, and the (s1, s2)
        # grids of the exact engine's slices, whose exponent is a broadcast
        for t in range(2, 61):
            n1, s1, s2 = (np.array(column) for column in zip(*[
                (n1, s1, s2)
                for n1 in range(1, t)
                for s1 in range(n1 + 1)
                for s2 in range(t - n1 + 1)
            ]))
            want = fr * (n1 <= t - n1) + (1.0 - fr) * textbook_track_arm1(t, n1, s1, s2)
            assert np.array_equal(plugin_actions(t, n1, s1, s2, fr), want), t
            grids = [plugin_action_grid(t, k, k + 1, t - k + 1, fr).ravel() for k in range(1, t)]
            assert np.array_equal(np.concatenate(grids), want), t
            if t <= 12:
                for k in range(n1.size):
                    got = plugin_action_prob(t, int(n1[k]), int(s1[k]), int(s2[k]), fr)
                    assert got == want[k]

    @pytest.mark.parametrize("state,want", [
        # the slope of exp(-g) at n2/t is -1.5e-14 and +8.3e-14 in 50-digit
        # arithmetic, below what a 34-step bisection for x* resolves
        ((152497, 75518, 69560, 70086), 0.0),
        ((202295, 102407, 81228, 82882), 1.0),
    ])
    def test_sign_of_a_tiny_slope_at_large_t(self, state, want):
        assert plugin_action_prob(*state, 0.0) == want
        t, n1, s1, s2 = state
        assert plugin_actions(t, np.array([n1]), s1, s2, 0.0)[0] == want

    @pytest.mark.parametrize("state", [(3, 0, 0, 0), (3, 3, 1, 0)])
    def test_unreachable_states_name_the_limit(self, state):
        with pytest.raises(ArgumentError, match="after round 2 both arms have at least one pull"):
            plugin_action_prob(*state, 0.5)


class TestRecommend:
    # pick2_mass(s1, n1, s2, n2) is the mass of recommending arm 2
    def test_clear_winner(self):
        assert pick2_mass(1, 1, 0, 1) == 0.0

    def test_exact_tie_splits_fairly(self):
        assert pick2_mass(1, 2, 1, 2) == 0.5

    def test_fraction_comparison_is_exact(self):
        # 1/3 vs 1/2 resolved by integer cross-multiplication
        assert pick2_mass(1, 3, 1, 2) == 1.0

    def test_pick2_mass_matches_recommend_on_every_state(self):
        states = [
            (T, n1, s1, s2)
            for T in range(2, 9)
            for n1 in range(1, T)
            for s1 in range(n1 + 1)
            for s2 in range(T - n1 + 1)
        ]
        T, n1, s1, s2 = (np.array(column) for column in zip(*states))
        mass = pick2_mass(s1, n1, s2, T - n1)
        assert np.any(mass == 0.5)  # ties are among the states
        for k, (T, n1, s1, s2) in enumerate(states):
            d2 = rational_pick2(s1, n1, s2, T - n1)
            assert mass[k] == d2  # error mass when arm 1 is best
            # error mass when arm 2 is best: the arm-1 decision, arms swapped
            assert 1.0 - mass[k] == rational_pick2(s2, T - n1, s1, n1)
            assert pick2_mass(s1, n1, s2, T - n1) == d2


class TestCheckBudget:
    def test_accepts_integers_from_two(self):
        assert check_budget(2) == 2
        assert type(check_budget(np.int64(7))) is int

    @pytest.mark.parametrize("T,message", [
        (1, "at least 2"), (-3, "at least 2"), (2.0, "an integer"), (True, "an integer"),
    ])
    def test_rejections_name_the_rule(self, T, message):
        with pytest.raises(ArgumentError, match=message):
            check_budget(T)


class TestParsePolicy:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("uniform", "uniform"),
            ("static:0.3", "static"),
            ("oracle:0.9,0.5", "oracle_static"),
            ("plugin:0.1", "plugin_tracking"),
        ],
    )
    def test_round_trip(self, text, kind):
        policy = parse_policy(text)
        assert policy.kind == kind
        assert parse_policy(policy_label(policy)) == policy

    @pytest.mark.parametrize(
        "text", ["", "unknown", "static:", "static:x", "oracle:0.9", "plugin:2.0",
                 "uniform:0.5", "static:1.7"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ArgumentError):
            parse_policy(text)
