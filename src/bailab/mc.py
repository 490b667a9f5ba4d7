"""Monte Carlo estimation of the misidentification probability.

Plain simulation covers every policy; the replications of an adaptive
policy advance together, one round at a time.  Static schedules
additionally get an exponentially tilted importance sampler that draws
both success counts from the inner minimizer of the rate objective and
reweights by exact likelihood ratios, which keeps the relative error
workable at budgets where the plain estimator sees no error events.

Randomness contract: the stream of replication ``i`` is the splitmix64
sequence whose initial state is ``mix64(mix64(seed) XOR i)``, where
``mix64`` is the splitmix64 finalizer (the seed is mixed first so that
nearby seeds produce unrelated replication sets); draw ``k`` of the
stream is ``mix64(state + (k+1) * GAMMA)`` mapped to [0, 1) through the
top 53 bits; round ``t`` of an adaptive replay reads draw ``2t`` for the
action and ``2t+1`` for the reward.  Streams therefore depend only on
``(seed, i, k)``, never on execution order, and estimates are
bit-reproducible.  Aggregation uses numpy's pairwise summation in
replication-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .errors import ArgumentError, DomainError
# plugin_action_prob is unused here; it stays a module attribute for benchmark tracing
from .policies import (PolicySpec, check_budget, pick2_mass, plugin_action_prob,  # noqa: F401
                       plugin_actions, schedule_counts)
from .rates import BanditInstance, lambda_star

__all__ = ["Estimate", "simulate_plain", "simulate_tilted_static"]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0**-53


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and seed provenance."""

    mean: float
    std_err: float
    n_samples: int
    seed: int
    method: str


def _mix64(z: int) -> int:
    """splitmix64 finalizer on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniform_batch(seed: int, rep_ids: np.ndarray, draw_index: int) -> np.ndarray:
    """Draw ``draw_index`` of every replication stream, as uniforms in [0, 1)."""
    state = _mix64_np(np.uint64(_mix64(seed)) ^ rep_ids)
    step = np.uint64(((draw_index + 1) * _GAMMA) & _MASK64)
    out = _mix64_np(state + step)
    return (out >> np.uint64(11)).astype(np.float64) * _U53


def _binom_cdf(n: int, p: float) -> np.ndarray:
    cdf = binom.cdf(np.arange(n + 1), n, p)
    cdf[-1] = 1.0  # guard the searchsorted upper end against round-off
    return cdf


def _binom_from_uniform(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Inverse-CDF binomial sampling: smallest k with cdf[k] >= u."""
    return np.searchsorted(cdf, u, side="left")


def _check_args(inst: BanditInstance, T: int, n: int) -> tuple[int, int]:
    if not inst.is_separated:
        raise DomainError("simulation needs distinct means to define an error")
    T = check_budget(T)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ArgumentError(f"replication count must be a positive integer, got {n!r}")
    return T, int(n)


def simulate_plain(
    policy: PolicySpec, inst: BanditInstance, T: int, n: int, seed: int
) -> Estimate:
    """Plain Monte Carlo estimate of the error probability.

    Each replication assigns the conditional error mass of its terminal
    counts (1 for a wrong pick, 1/2 for an exact tie), matching the
    fair-tie decision rule of the exact engine in expectation.  The
    standard error is the binomial ``sqrt(p(1-p)/n)``.
    """
    T, n = _check_args(inst, T, n)
    reps = np.arange(n, dtype=np.uint64)
    if policy.deterministic_schedule:
        # counts are schedule-determined; two binomial draws per stream
        n1, n2 = schedule_counts(policy.schedule_fraction(), T, policy.description)
        s1 = _binom_from_uniform(_uniform_batch(seed, reps, 0), _binom_cdf(n1, inst.mu1))
        s2 = _binom_from_uniform(_uniform_batch(seed, reps, 1), _binom_cdf(n2, inst.mu2))
        pick2 = pick2_mass(s1, n1, s2, n2)
    else:
        pick2 = _replay_adaptive(policy, inst, T, seed, reps)
    errors = pick2 if inst.best_arm == 1 else 1.0 - pick2
    mean = float(np.mean(errors))
    std_err = math.sqrt(mean * (1.0 - mean) / n)
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="plain")


def _replay_adaptive(
    policy: PolicySpec, inst: BanditInstance, T: int, seed: int, reps: np.ndarray
) -> np.ndarray:
    """Arm-2 decision mass of every adaptive replication in ``reps``, advanced together."""
    n1, s1, s2 = np.zeros((3, reps.size), dtype=np.int64)
    for t in range(T):
        p1 = plugin_actions(t, n1, s1, s2, policy.force_rate)
        pull1 = _uniform_batch(seed, reps, 2 * t) < p1
        success = _uniform_batch(seed, reps, 2 * t + 1) < np.where(pull1, inst.mu1, inst.mu2)
        n1 += pull1
        s1 += pull1 & success
        s2 += ~pull1 & success
    return pick2_mass(s1, n1, s2, T - n1)


def simulate_tilted_static(
    x: float, inst: BanditInstance, T: int, n: int, seed: int
) -> Estimate:
    """Importance-sampling estimate of the static(x) error probability.

    Both success counts are drawn with success probability equal to the
    inner minimizer of the rate objective, the natural tilt for the error
    event; each replication is weighted by the exact likelihood ratio,
    assembled in the log domain.  The standard error comes from the
    sample variance of the weighted indicators, and estimates are
    reported raw (noise can push them above 1).
    """
    T, n = _check_args(inst, T, n)
    n1, n2 = schedule_counts(x, T, f"static:{x}")
    lam = lambda_star(x, inst)
    reps = np.arange(n, dtype=np.uint64)
    s1 = _binom_from_uniform(_uniform_batch(seed, reps, 0), _binom_cdf(n1, lam))
    s2 = _binom_from_uniform(_uniform_batch(seed, reps, 1), _binom_cdf(n2, lam))
    m1, m2 = inst.mu1, inst.mu2
    log_w = s1 * math.log(m1 / lam) + (n1 - s1) * math.log((1.0 - m1) / (1.0 - lam))
    log_w += s2 * math.log(m2 / lam) + (n2 - s2) * math.log((1.0 - m2) / (1.0 - lam))
    pick2 = pick2_mass(s1, n1, s2, n2)
    values = np.exp(log_w) * (pick2 if inst.best_arm == 1 else 1.0 - pick2)
    mean = float(np.mean(values))
    if n > 1:
        std_err = math.sqrt(float(np.var(values, ddof=1)) / n)
    else:
        std_err = 0.0
    return Estimate(mean=mean, std_err=std_err, n_samples=n, seed=seed, method="tilted")
