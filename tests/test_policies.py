"""Tests for the sampling policies and the recommendation rule."""

import numpy as np
import pytest

from bailab.errors import ArgumentError, RecommendationError
from bailab.policies import (
    PolicySpec,
    PolicyState,
    action_distribution,
    arm2_count,
    check_budget,
    covering_budget,
    parse_policy,
    pick2_mass,
    plugin_action_grid,
    plugin_action_prob,
    policy_label,
    pulls_arm2_at,
    recommend,
    schedule_pulls_arm1,
)
from bailab.rates import BanditInstance, x_star


def roll_schedule(policy, T):
    """Arms pulled by a deterministic-schedule policy, 1-indexed arms."""
    arms = []
    for t in range(T):
        arms.append(1 if schedule_pulls_arm1(policy, t) else 2)
    return arms


class TestPolicyState:
    def test_valid_state(self):
        s = PolicyState(t=5, n1=3, s1=2, s2=1)
        assert s.n2 == 2

    @pytest.mark.parametrize(
        "t,n1,s1,s2",
        [(2, 3, 0, 0), (3, 2, 3, 0), (3, 2, 0, 2), (1, -1, 0, 0), (2, 1, -1, 0)],
    )
    def test_invalid_states_rejected(self, t, n1, s1, s2):
        with pytest.raises(ArgumentError):
            PolicyState(t=t, n1=n1, s1=s1, s2=s2)


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
            assert n2 == sum(pulls_arm2_at(x, t) for t in range(T))

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
        policy = PolicySpec.plugin_tracking(1.0)
        rng = np.random.default_rng(5)
        n1 = s1 = s2 = 0
        for t in range(40):
            p1 = action_distribution(policy, PolicyState(t, n1, s1, s2))
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


class TestRecommend:
    def test_clear_winner(self):
        assert recommend(PolicyState(2, 1, 1, 0)) == (1.0, 0.0)

    def test_exact_tie_splits_fairly(self):
        assert recommend(PolicyState(4, 2, 1, 1)) == (0.5, 0.5)

    def test_fraction_comparison_is_exact(self):
        # 1/3 vs 1/2 resolved by integer cross-multiplication
        assert recommend(PolicyState(5, 3, 1, 1)) == (0.0, 1.0)

    def test_unsampled_arm_rejected(self):
        with pytest.raises(RecommendationError):
            recommend(PolicyState(3, 3, 2, 0))
        with pytest.raises(RecommendationError):
            recommend(PolicyState(3, 0, 0, 1))


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
        for k, state in enumerate(states):
            d1, d2 = recommend(PolicyState(*state))
            assert mass[k] == d2  # error mass when arm 1 is best
            assert 1.0 - mass[k] == d1  # error mass when arm 2 is best
            assert pick2_mass(state[2], state[1], state[3], state[0] - state[1]) == d2


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
