"""Exact finite-horizon evaluation: a binomial log path for fixed
schedules and a forward dynamic program for adaptive policies.

The log path works entirely in the log domain and therefore survives
budgets deep into the underflow range of plain probabilities.  Its
binomial log-pmf is ``scipy.special``'s ``gammaln``/``xlogy``/``xlog1py``
in the grouping of ``scipy.stats.binom.logpmf``, so it has the same bits
without importing ``scipy.stats``.

The DP runs over sufficient-statistic states ``(n1, s1, s2)`` with
``n2 = t - n1`` implied.  A layer is stored as a dict mapping ``n1`` to
an array of shape ``(n1+1, t-n1+1)`` holding the probability of each
``(s1, s2)`` cell; randomized policies fan out across keys, while a fixed
schedule (which the tests run through the DP to cross-check the log
path) occupies one key per layer.  Layers are merged in ascending ``n1``
with row-major array updates, i.e. a fixed lexicographic (n1, s1, s2)
order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import ArgumentError, CapacityError, DomainError, RecommendationError
from .policies import (PolicySpec, check_budget, pick2_mass, plugin_action_grid,
                       schedule_counts, schedule_pulls_arm1)
from .rates import BanditInstance, g_closed, kl_bernoulli

__all__ = [
    "ExactSummary",
    "ComSlack",
    "RatePoint",
    "RateScan",
    "StabilityProfile",
    "DEFAULT_MAX_STATES",
    "dp_layers",
    "exact_summary",
    "static_error_exact",
    "static_error_log",
    "change_of_measure_slack",
    "rate_ratio_scan",
    "stability_profile",
]

# State budget: ~T^3/6 DP states per layer cap adaptive budgets near T=150,
# and a fixed schedule's binomial tables (n + 1 entries per arm) near
# T=1.2e6 at x = 1/2.  Override with the BAI_MAX_STATES environment variable.
DEFAULT_MAX_STATES = 600_000

MAX_STATES_ENV = "BAI_MAX_STATES"


def _max_states() -> int:
    raw = os.environ.get(MAX_STATES_ENV)
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        value = int(raw)
    except ValueError:
        raise ArgumentError(f"{MAX_STATES_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ArgumentError(f"{MAX_STATES_ENV} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ExactSummary:
    """Exact evaluation of one policy/instance/budget triple."""

    p_error: float
    p_pick2: float
    e_n1: float
    e_omega2: float


class ComSlack(NamedTuple):
    slack: float
    rhs_infinite: bool
    p_pick2_pi: float
    p_pick2_mu: float


class RatePoint(NamedTuple):
    T: int
    p_error: float
    ratio: float


class RateScan(NamedTuple):
    points: tuple[RatePoint, ...]
    inv_g_half: float


@dataclass(frozen=True)
class StabilityProfile:
    """Exact allocation proportions along shrinking near-diagonal instances.

    ``omega2_a[i][j]`` is E[omega2(T_j)] under the best-arm-first instance
    ``(a + gap_i/2, a - gap_i/2)``; ``omega2_b`` under its reversal.
    """

    a: float
    gaps: tuple[float, ...]
    budgets: tuple[int, ...]
    omega2_a: tuple[tuple[float, ...], ...]
    omega2_b: tuple[tuple[float, ...], ...]


def _slice_action(policy: PolicySpec, t: int, n1: int, shape: tuple[int, int]):
    if policy.deterministic_schedule:
        return 1.0 if schedule_pulls_arm1(policy, t) else 0.0
    return plugin_action_grid(t, n1, shape[0], shape[1], policy.force_rate)


def dp_layers(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> Iterator[tuple[int, dict[int, np.ndarray]]]:
    """Forward DP pass, yielding ``(t, layer)`` for t = 0 .. T.

    Layers are live working arrays: consume each one before advancing the
    iterator if the values must be kept.
    """
    T = check_budget(T)
    limit = _max_states()
    m1, m2 = inst.mu1, inst.mu2
    layer: dict[int, np.ndarray] = {0: np.ones((1, 1))}
    yield 0, layer
    for t in range(T):
        nxt: dict[int, np.ndarray] = {}

        def target(key: int, rows: int, cols: int) -> np.ndarray:
            arr = nxt.get(key)
            if arr is None:
                arr = np.zeros((rows, cols))
                nxt[key] = arr
            return arr

        for n1 in sorted(layer):
            mass = layer[n1]
            rows, cols = mass.shape
            action = _slice_action(policy, t, n1, mass.shape)
            if isinstance(action, float):
                pull1 = mass if action == 1.0 else None
                pull2 = mass if action == 0.0 else None
            else:
                pull1 = mass * action
                pull2 = mass - pull1
            if pull1 is not None:
                tgt = target(n1 + 1, rows + 1, cols)
                tgt[1:, :] += pull1 * m1
                tgt[:-1, :] += pull1 * (1.0 - m1)
            if pull2 is not None:
                tgt = target(n1, rows, cols + 1)
                tgt[:, 1:] += pull2 * m2
                tgt[:, :-1] += pull2 * (1.0 - m2)
        states = sum(arr.size for arr in nxt.values())
        if states > limit:
            raise CapacityError(
                f"layer {t + 1} needs {states} states, over the limit of {limit}; "
                f"set {MAX_STATES_ENV} to raise it"
            )
        layer = dict(sorted(nxt.items()))
        yield t + 1, layer


def _dp_summary(policy: PolicySpec, inst: BanditInstance, T: int) -> ExactSummary:
    """:func:`exact_summary` by the forward DP: the engine of adaptive
    policies, and the cross-check of the log path on fixed schedules."""
    for _, final in dp_layers(policy, inst, T):
        pass  # the last layer yielded is round T's
    p_pick1 = p_pick2 = e_n1 = 0.0
    for n1 in sorted(final):
        mass = final[n1]
        n2 = T - n1
        slice_total = float(np.sum(mass))
        if slice_total == 0.0:
            continue
        if n1 < 1 or n2 < 1:
            raise RecommendationError(
                f"terminal mass {slice_total} on states with an unsampled arm (n1={n1})"
            )
        rows, cols = mass.shape
        pick2 = pick2_mass(np.arange(rows)[:, None], n1, np.arange(cols)[None, :], n2)
        p_pick2 += float(np.sum(mass * pick2))
        p_pick1 += float(np.sum(mass * (1.0 - pick2)))
        e_n1 += slice_total * n1
    p_error = p_pick2 if inst.best_arm == 1 else p_pick1
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=e_n1, e_omega2=(T - e_n1) / T)


def _evaluate(policy: PolicySpec, inst: BanditInstance, T: int) -> tuple[ExactSummary, float]:
    """The summary and ``log p_error``: fixed schedules on the log path, adaptive
    policies on the DP.  The one engine choice in this module."""
    if not policy.deterministic_schedule:
        summary = _dp_summary(policy, inst, T)
        p_error = summary.p_error
        return summary, math.log(p_error) if p_error > 0.0 else -math.inf
    x = policy.schedule_fraction()
    n1, n2 = schedule_counts(x, T, policy.description)  # its errors name the policy
    logp = static_error_log(x, inst, T)
    p_error = math.exp(logp)
    p_pick2 = p_error if inst.best_arm == 1 else 1.0 - p_error
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=float(n1), e_omega2=n2 / T), logp


def exact_summary(policy: PolicySpec, inst: BanditInstance, T: int) -> ExactSummary:
    """Exact error probability, decision probability, and pull counts.

    Fixed schedules take the binomial log path, with the schedule's own
    pull counts; adaptive policies take the DP.  Deterministic given its
    arguments: both engines fix their order of summation.
    """
    T = check_budget(T)
    if not inst.is_separated:
        raise DomainError("exact_summary needs distinct means to define an error")
    return _evaluate(policy, inst, T)[0]


def static_counts(x: float, T: int, label: str) -> tuple[int, int]:
    """:func:`schedule_counts`, raising CapacityError when an arm's binomial
    table of ``n + 1`` entries is over the state limit.

    The log path and static Monte Carlo each build one such table per arm;
    both call this before building either.
    """
    n1, n2 = schedule_counts(x, T, label)
    length = max(n1, n2) + 1
    limit = _max_states()
    if length > limit:
        raise CapacityError(
            f"T={T} needs a binomial table of {length} entries, over the limit of {limit}; "
            f"set {MAX_STATES_ENV} to raise it"
        )
    return n1, n2


def _binom_logpmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """log P[Binomial(n, p) = k], grouped as ``scipy.stats.binom.logpmf`` groups it."""
    combiln = gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
    return combiln + xlogy(k, p) + xlog1py(n - k, -p)


def _error_log_best1(n1: int, m1: float, n2: int, m2: float) -> float:
    """log P[recommend arm 2] for independent binomial counts, arm 1 best.

    Accumulates entirely in the log domain (upper-tail log-cumsums of the
    arm-2 mass), so the result is meaningful far below the smallest
    positive double.
    """
    s1 = np.arange(n1 + 1)
    lb1 = _binom_logpmf(s1, n1, m1)
    lb2 = _binom_logpmf(np.arange(n2 + 1), n2, m2)
    logtail = np.empty(n2 + 2)
    logtail[n2 + 1] = -np.inf
    logtail[: n2 + 1] = np.logaddexp.accumulate(lb2[::-1])[::-1]
    crossings = s1 * n2
    strict_from = crossings // n1 + 1
    tie_at = crossings // n1
    tie_mask = crossings % n1 == 0
    tie_terms = np.where(tie_mask, lb2[tie_at] + math.log(0.5), -np.inf)
    per_s1 = lb1 + np.logaddexp(logtail[strict_from], tie_terms)
    return float(np.logaddexp.reduce(per_s1))


def static_error_log(x: float, inst: BanditInstance, T: int) -> float:
    """log of the exact error probability of the static(x) schedule."""
    T = check_budget(T)
    if not inst.is_separated:
        raise DomainError("the error probability needs distinct means")
    n1, n2 = static_counts(x, T, f"static:{x}")
    if inst.mu1 > inst.mu2:
        return _error_log_best1(n1, inst.mu1, n2, inst.mu2)
    return _error_log_best1(n2, inst.mu2, n1, inst.mu1)


def static_error_exact(x: float, inst: BanditInstance, T: int) -> float:
    """Exact error probability of the static(x) schedule (binomial fast path)."""
    return math.exp(static_error_log(x, inst, T))


def change_of_measure_slack(
    policy: PolicySpec, pi_inst: BanditInstance, mu_inst: BanditInstance, T: int
) -> ComSlack:
    """Slack of the change-of-measure inequality between two instances.

    LHS is the expected-pull-weighted KL cost of moving from ``pi_inst``
    to ``mu_inst`` under the policy run on ``pi_inst``; RHS is the
    divergence of the two decision probabilities.  The slack is their
    difference and is nonnegative up to round-off.  A boundary decision
    probability on the ``mu`` side with an interior one on the ``pi``
    side makes the RHS infinite; that case is reported with the flag set
    and an infinite slack.  Both decision probabilities are returned too.
    """
    s_pi = exact_summary(policy, pi_inst, T)
    s_mu = exact_summary(policy, mu_inst, T)
    lhs = s_pi.e_n1 * kl_bernoulli(pi_inst.mu1, mu_inst.mu1)
    lhs += (T - s_pi.e_n1) * kl_bernoulli(pi_inst.mu2, mu_inst.mu2)
    p, q = s_pi.p_pick2, s_mu.p_pick2
    if 0.0 < q < 1.0:
        return ComSlack(lhs - kl_bernoulli(p, q), False, p, q)
    if p == q:
        return ComSlack(lhs, False, p, q)
    return ComSlack(math.inf, True, p, q)


def rate_ratio_scan(
    policy: PolicySpec, inst: BanditInstance, T_grid: list[int]
) -> RateScan:
    """Exact error series with the normalized ratio ``T / log(1/p)``.

    Deterministic schedules use the log-domain fast path, so the ratio
    stays finite even where the probability itself underflows.  The
    reference level ``1/g(1/2, inst)`` is attached for comparison.
    """
    if not inst.is_separated:
        raise DomainError("rate scans need distinct means")
    if not T_grid:
        raise ArgumentError("empty budget grid")
    points = []
    for T in T_grid:
        T = check_budget(T)
        summary, logp = _evaluate(policy, inst, T)
        points.append(RatePoint(T=T, p_error=summary.p_error, ratio=T / -logp))
    return RateScan(points=tuple(points), inv_g_half=1.0 / g_closed(0.5, inst))


def stability_profile(
    policy: PolicySpec, a: float, gaps: list[float], T_grid: list[int]
) -> StabilityProfile:
    """Exact E[omega2(T)] along instance pairs shrinking onto ``(a, a)``.

    For every gap the policy is evaluated under both orientations of the
    split instance; inspecting the matrix along growing budgets and
    shrinking gaps exhibits the double limit that stability asks about.
    """
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ArgumentError(f"a must lie strictly inside (0, 1), got {a!r}")
    budgets = tuple(check_budget(T) for T in T_grid)
    rows_a = []
    rows_b = []
    for gap in gaps:
        if not gap > 0.0:
            raise ArgumentError(f"gaps must be positive, got {gap!r}")
        lo, hi = a - 0.5 * gap, a + 0.5 * gap
        if not (0.0 < lo and hi < 1.0):
            raise ArgumentError(f"gap {gap} pushes the means out of (0, 1) around a={a}")
        upper = BanditInstance(hi, lo)
        lower = BanditInstance(lo, hi)
        rows_a.append(tuple(exact_summary(policy, upper, T).e_omega2 for T in budgets))
        rows_b.append(tuple(exact_summary(policy, lower, T).e_omega2 for T in budgets))
    return StabilityProfile(
        a=a,
        gaps=tuple(float(g) for g in gaps),
        budgets=budgets,
        omega2_a=tuple(rows_a),
        omega2_b=tuple(rows_b),
    )
