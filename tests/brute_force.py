"""Independent brute-force oracles for the exact and Monte Carlo engines.

The enumeration walks the full trajectory tree (actions and rewards),
weighting each path by its probability.  It replays a fixed schedule by the
per-round floor rule, tracking through :func:`plugin_action_prob`, and
decides by comparing the empirical means as exact rationals, so it shares
no code with the dynamic program it checks, with the fair-tie rule
:func:`pick2_mass` or with the count rule :func:`arm2_count`.  The path
weights are summed with ``math.fsum``: a running float sum over the tens of
thousands of leaves at T=12 drifts by ~1e-12, the size of the tolerance the
comparison uses.

The textbook tracking rule solves for the optimal allocation ``x*`` of the
plug-in instance by bisection and compares the arm-1 share with
``1 - x*``; the library's rule, a sign test on the slope at the current
share, must make the same decision.

The scalar replay runs one Monte Carlo replication of a policy draw by
draw, with the same per-state actions and rational decision, each draw
computed from the documented splitmix64 stream formula.

The dict DP is the exact engine's forward pass as it was before the engine
stepped a zero-padded box: a dict of ``(s1, s2)`` arrays, one per ``n1``, with
one :func:`plugin_action_grid` call per slice from t = 0, schedules replayed
by the floor rule, and the last layer decided by :func:`pick2_mass`.  The
engine must yield the same layers of plug-in tracking byte for byte.  The
engine refuses fixed schedules, so the dict DP, which still runs them (one
slice per layer), is also the fixed-schedule reference that the binomial log
path is checked against.

The static log-path reference is the binomial log path as it was before it
shared one log-factorial table between the arms, took each logarithm once and
ran ``logaddexp`` on the tie cells only: a fresh ``gammaln``/``xlogy``/
``xlog1py`` pass per arm, grouped as ``scipy.stats.binom.logpmf`` groups it,
and an elementwise ``logaddexp`` over every cell.  The engine must give the
same bits.

The static Monte Carlo reference holds every replication at once: one
``stream_draw`` per draw, ``searchsorted`` in ``scipy.stats.binom.cdf`` for
the success counts, each tilted replication's log weight formed from its own
counts, and ``np.mean``/``np.var`` over the whole array.  The blocked-moments
reference combines the same whole array's values block by block, as the
tilted estimator sums them; the two agree bit for bit up to one block.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy
from scipy.stats import binom

from bailab.mc import _mix64
from bailab.policies import (PolicySpec, arm2_count, pick2_mass, plugin_action_grid,
                             plugin_action_prob)
from bailab.rates import BanditInstance, lambda_star, x_star_grid


def schedule_pulls_arm1(x: float, t: int) -> bool:
    """Largest-remainder rule, round by round: arm 1 at round ``t`` iff
    ``floor((t+1)·x) == floor(t·x)``."""
    return math.floor((t + 1) * x) == math.floor(t * x)


def state_action(policy: PolicySpec, t: int, n1: int, s1: int, s2: int) -> float:
    """Probability that ``policy`` pulls arm 1 in state ``(t, n1, s1, s2)``."""
    if policy.deterministic_schedule:
        return 1.0 if schedule_pulls_arm1(policy.schedule_fraction(), t) else 0.0
    return plugin_action_prob(t, n1, s1, s2, policy.force_rate)


def rational_pick2(s1: int, n1: int, s2: int, n2: int) -> float:
    """Mass of picking arm 2: 1 if ``s2/n2 > s1/n1`` as exact rationals,
    1/2 on a tie, else 0."""
    m1, m2 = Fraction(s1, n1), Fraction(s2, n2)
    return 1.0 if m2 > m1 else 0.5 if m2 == m1 else 0.0


def enumerate_summary(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> tuple[float, float, float]:
    """(p_error, p_pick2, e_n1) by probability-weighted tree enumeration."""
    m1, m2 = inst.mu1, inst.mu2
    best = inst.best_arm
    terms: tuple[list[float], list[float], list[float]] = ([], [], [])
    # many paths reach each state; the policy is asked once per state
    actions: dict[tuple[int, int, int, int], float] = {}

    def walk(t: int, n1: int, s1: int, s2: int, prob: float) -> None:
        if t == T:
            d2 = rational_pick2(s1, n1, s2, T - n1)
            terms[0].append(prob * (d2 if best == 1 else 1.0 - d2))
            terms[1].append(prob * d2)
            terms[2].append(prob * n1)
            return
        state = (t, n1, s1, s2)
        p1 = actions.get(state)
        if p1 is None:
            p1 = actions[state] = state_action(policy, *state)
        if p1 > 0.0:
            walk(t + 1, n1 + 1, s1 + 1, s2, prob * p1 * m1)
            walk(t + 1, n1 + 1, s1, s2, prob * p1 * (1.0 - m1))
        if p1 < 1.0:
            walk(t + 1, n1, s1, s2 + 1, prob * (1.0 - p1) * m2)
            walk(t + 1, n1, s1, s2, prob * (1.0 - p1) * (1.0 - m2))

    walk(0, 0, 0, 0, 1.0)
    p_error, p_pick2, e_n1 = (math.fsum(column) for column in terms)
    return p_error, p_pick2, e_n1


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


def static_error_log_reference(n1: int, n2: int, inst: BanditInstance) -> float:
    """log of the exact error probability of ``n1`` and ``n2`` fixed pulls."""
    if inst.mu1 > inst.mu2:
        return _error_log_best1(n1, inst.mu1, n2, inst.mu2)
    return _error_log_best1(n2, inst.mu2, n1, inst.mu1)


def _slice_action(policy: PolicySpec, t: int, n1: int, shape: tuple[int, int]):
    if policy.deterministic_schedule:
        return state_action(policy, t, n1, 0, 0)
    return plugin_action_grid(t, n1, shape[0], shape[1], policy.force_rate)


def dict_dp_layers(policy: PolicySpec, inst: BanditInstance, T: int):
    """Forward DP pass over a dict of slices, yielding ``(t, layer)`` for
    t = 0 .. T; it has no state limit."""
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
        layer = dict(sorted(nxt.items()))
        yield t + 1, layer


def dict_dp_summary(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> tuple[float, float, float]:
    """(p_error, p_pick2, e_n1) of the dict DP's last layer, summed slice by
    slice in ascending ``n1`` with the fair-tie decision mass of each cell."""
    for _, final in dict_dp_layers(policy, inst, T):
        pass
    p_pick1 = p_pick2 = e_n1 = 0.0
    for n1, mass in final.items():
        rows, cols = mass.shape
        pick2 = pick2_mass(np.arange(rows)[:, None], n1, np.arange(cols)[None, :], T - n1)
        p_pick2 += float(np.sum(mass * pick2))
        p_pick1 += float(np.sum(mass * (1.0 - pick2)))
        e_n1 += float(np.sum(mass)) * n1
    return (p_pick2 if inst.best_arm == 1 else p_pick1), p_pick2, e_n1


def textbook_track_arm1(t: int, n1, s1, s2) -> np.ndarray:
    """Unforced tracking decision at round ``t >= 2`` over count arrays: pull
    arm 1 iff its share of pulls is below ``1 - x*`` of the plug-in instance,
    whose empirical means are clamped to ``[1/(t+1), 1 - 1/(t+1)]``; equal
    clamped means target 1/2."""
    lo = 1.0 / (t + 1)
    m1 = np.clip(s1 / n1, lo, 1.0 - lo)
    m2 = np.clip(s2 / (t - n1), lo, 1.0 - lo)
    target = np.full(m1.shape, 0.5)
    separated = m1 != m2
    target[separated] = x_star_grid(m1[separated], m2[separated])
    return n1 / t < 1.0 - target


def stream_draw(seed: int, rep: int, k: int) -> float:
    """Draw ``k`` of replication ``rep``'s stream: ``mix64(state + (k+1) * GAMMA)``
    with ``state = mix64(mix64(seed) XOR rep)``, top 53 bits as a uniform in [0, 1)."""
    state = _mix64(_mix64(seed) ^ rep)
    out = _mix64((state + (k + 1) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))
    return (out >> 11) * 2.0**-53


def replay_counts(policy: PolicySpec, inst: BanditInstance, T: int, seed: int,
                  rep: int) -> tuple[int, int, int]:
    """Terminal counts ``(n1, s1, s2)`` of one Monte Carlo replication, replayed
    one round at a time: round ``t`` reads draw ``2t`` for the action and draw
    ``2t+1`` for the reward."""
    n1 = s1 = s2 = 0
    for t in range(T):
        p1 = state_action(policy, t, n1, s1, s2)
        reward = stream_draw(seed, rep, 2 * t + 1)
        if stream_draw(seed, rep, 2 * t) < p1:
            n1 += 1
            s1 += reward < inst.mu1
        else:
            s2 += reward < inst.mu2
    return n1, s1, s2


def replay_pick2(policy: PolicySpec, inst: BanditInstance, T: int, seed: int, rep: int) -> float:
    """Arm-2 decision mass of one Monte Carlo replication (:func:`replay_counts`)."""
    n1, s1, s2 = replay_counts(policy, inst, T, seed, rep)
    return rational_pick2(s1, n1, s2, T - n1)


def stream_uniforms(seed: int, n: int, k: int) -> np.ndarray:
    """Draw ``k`` of replications 0 .. n-1, one :func:`stream_draw` each."""
    return np.array([stream_draw(seed, i, k) for i in range(n)])


def static_successes(u1, u2, n1: int, n2: int, p1: float, p2: float):
    """Success counts of ``n1`` pulls at ``p1`` and ``n2`` at ``p2``, from the
    uniforms of draws 0 and 1: the smallest k with ``cdf[k] >= u``."""
    s1 = np.searchsorted(binom.cdf(np.arange(n1 + 1), n1, p1), u1, side="left")
    s2 = np.searchsorted(binom.cdf(np.arange(n2 + 1), n2, p2), u2, side="left")
    return s1, s2


def static_mc_reference(
    u1, u2, x: float, inst: BanditInstance, T: int, tilted: bool
) -> tuple[float, float]:
    """``(mean, std_err)`` of plain or tilted static(x) Monte Carlo whose
    replications read the uniforms ``u1`` (draw 0) and ``u2`` (draw 1), with
    ``np.mean``/``np.var(ddof=1)`` over all replications at once."""
    n = len(u1)
    errors = static_mc_values(u1, u2, x, inst, T, tilted)
    if not tilted:
        mean = float(np.mean(errors))
        return mean, math.sqrt(mean * (1.0 - mean) / n)
    std_err = math.sqrt(float(np.var(errors, ddof=1)) / n) if n > 1 else 0.0
    return float(np.mean(errors)), std_err


def static_mc_values(u1, u2, x: float, inst: BanditInstance, T: int, tilted: bool) -> np.ndarray:
    """The value of every replication of static(x) Monte Carlo: its error mass,
    times its likelihood ratio when ``tilted``, formed from its own counts."""
    n2 = arm2_count(x, T)
    n1 = T - n2
    m1, m2 = inst.mu1, inst.mu2
    lam = lambda_star(x, inst)
    s1, s2 = static_successes(u1, u2, n1, n2, *((lam, lam) if tilted else (m1, m2)))
    pick2 = pick2_mass(s1, n1, s2, n2)
    errors = pick2 if inst.best_arm == 1 else 1.0 - pick2
    if not tilted:
        return errors
    log_w = s1 * math.log(m1 / lam) + (n1 - s1) * math.log((1.0 - m1) / (1.0 - lam))
    log_w += s2 * math.log(m2 / lam) + (n2 - s2) * math.log((1.0 - m2) / (1.0 - lam))
    return np.exp(log_w) * errors


def blocked_moments(values: np.ndarray, block: int = 2**16) -> tuple[float, float]:
    """``(mean, std_err)`` of ``values`` from the moments of consecutive blocks
    of ``block`` values (Chan, Golub & LeVeque 1983): block ``b`` of ``m_b``
    values gives ``sum_b = np.sum`` and ``dev_b = np.sum((v - sum_b/m_b)**2)``;
    ``mean = Σ sum_b / n`` and ``M2 = Σ [dev_b + m_b·(sum_b/m_b − mean)²]``, each
    sum taken left to right in block order, and ``std_err = sqrt(M2/(n−1)/n)``."""
    n = len(values)
    parts = [values[start:start + block] for start in range(0, n, block)]
    sums = [float(np.sum(part)) for part in parts]
    devs = [float(np.sum((part - total / len(part)) ** 2)) for part, total in zip(parts, sums)]
    mean = functools.reduce(operator.add, sums, 0.0) / n
    m2 = functools.reduce(operator.add, (dev + len(part) * (total / len(part) - mean) ** 2
                                         for part, total, dev in zip(parts, sums, devs)), 0.0)
    return mean, math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
