"""Independent brute-force oracles for the exact and Monte Carlo engines.

The enumeration walks the full trajectory tree (actions and rewards),
weighting each path by its probability and replaying the policy through
its public interface.  It shares no code with the dynamic program it
checks.  The path weights are summed with ``math.fsum``: a running float
sum over the tens of thousands of leaves at T=12 drifts by ~1e-12, the
size of the tolerance the comparison uses.

The textbook tracking rule solves for the optimal allocation ``x*`` of the
plug-in instance by bisection and compares the arm-1 share with
``1 - x*``; the library's rule, a sign test on the slope at the current
share, must make the same decision.

The scalar replay runs one Monte Carlo replication of a policy draw by
draw, through the same public interface, with each draw computed from the
documented splitmix64 stream formula.
"""

from __future__ import annotations

import math

import numpy as np

from bailab.mc import _mix64
from bailab.policies import PolicySpec, PolicyState, action_distribution, recommend
from bailab.rates import BanditInstance, x_star_grid


def enumerate_summary(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> tuple[float, float, float]:
    """(p_error, p_pick2, e_n1) by probability-weighted tree enumeration."""
    m1, m2 = inst.mu1, inst.mu2
    best = inst.best_arm
    terms: tuple[list[float], list[float], list[float]] = ([], [], [])

    def walk(t: int, n1: int, s1: int, s2: int, prob: float) -> None:
        if t == T:
            d1, d2 = recommend(PolicyState(T, n1, s1, s2))
            terms[0].append(prob * (d2 if best == 1 else d1))
            terms[1].append(prob * d2)
            terms[2].append(prob * n1)
            return
        p1 = action_distribution(policy, PolicyState(t, n1, s1, s2))
        if p1 > 0.0:
            walk(t + 1, n1 + 1, s1 + 1, s2, prob * p1 * m1)
            walk(t + 1, n1 + 1, s1, s2, prob * p1 * (1.0 - m1))
        if p1 < 1.0:
            walk(t + 1, n1, s1, s2 + 1, prob * (1.0 - p1) * m2)
            walk(t + 1, n1, s1, s2, prob * (1.0 - p1) * (1.0 - m2))

    walk(0, 0, 0, 0, 1.0)
    p_error, p_pick2, e_n1 = (math.fsum(column) for column in terms)
    return p_error, p_pick2, e_n1


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


def replay_pick2(policy: PolicySpec, inst: BanditInstance, T: int, seed: int, rep: int) -> float:
    """Arm-2 decision mass of one Monte Carlo replication; round ``t`` reads
    draw ``2t`` for the action and draw ``2t+1`` for the reward."""
    n1 = s1 = s2 = 0
    for t in range(T):
        p1 = action_distribution(policy, PolicyState(t, n1, s1, s2))
        reward = stream_draw(seed, rep, 2 * t + 1)
        if stream_draw(seed, rep, 2 * t) < p1:
            n1 += 1
            s1 += reward < inst.mu1
        else:
            s2 += reward < inst.mu2
    return recommend(PolicyState(T, n1, s1, s2))[1]
