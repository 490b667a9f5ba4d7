"""Exact finite-horizon evaluation: a binomial log path for fixed
schedules and a forward dynamic program for plug-in tracking.

The log path works entirely in the log domain and therefore survives
budgets deep into the underflow range of plain probabilities.  Its
binomial log-pmf has the bits of ``scipy.stats.binom.logpmf`` without
importing ``scipy.stats``: the same ``scipy.special`` functions in the same
grouping, with each logarithm taken once.  One call builds one table of
``max(n1, n2) + 1`` log-factorials that both arms read, takes ``log p`` and
``log1p(-p)`` once per arm, and adds the half-mass of a tie by ``logaddexp``
only in the cells that tie; the docstrings of :func:`_binom_logpmf` and
:func:`_error_log_best1` say why each gives the same bits.

The DP runs plug-in tracking, and only it, over sufficient-statistic states
``(n1, s1, s2)`` with ``n2 = t - n1`` implied.  Tracking pulls arm 1, then
arm 2, so layers 0-2 are closed forms.  Every later layer t holds the slices
``n1 = lo .. hi`` that carry mass; the all-zero slices at both ends are
dropped.  Arm 1 moves mass from slice ``n1`` to ``n1+1`` and arm 2 keeps it
in ``n1``, so layer t+1 is built over slices ``lo .. hi+1`` and then trimmed.
The state limit applies to that count, checked before the layer is
allocated: no layer over the limit is built, but an over-limit budget fails
only once the pass reaches the first layer that needs too many states.
Which slices carry mass depends on the policy, not on the means (every
reward sequence has positive probability).  From layer 2 on a layer is one
flat float64 array holding slice ``n1``'s ``(n1+1) x (t-n1+1)`` cells
``(s1, s2)`` in row-major order after the kept slices below it, a fixed
lexicographic ``(n1, s1, s2)`` order.

A step walks the layer in groups of consecutive whole slices holding at
least ``_GROUP_CELLS`` cells (a larger slice is a group of its own, and the
last group may hold fewer), with one call of the tracking kernel per group.
Each cell of the next layer starts from 0.0 and receives its contributions
in one order: arm-1 success, arm-1 failure, arm-2 success, arm-2 failure,
so repeated runs are bit-identical.  A dropped slice holds only 0.0 and
would add only +0.0, so dropping it moves no bit.  :func:`dp_layers` yields
each layer as a dict of 2-D views; its storage is overwritten when the
iterator advances.

Layer t of a pass is the terminal layer of budget t, bit for bit, so one
pass to the largest budget serves a list of budgets: :func:`_evaluate`,
behind every exact entry point, walks the DP once per instance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import ArgumentError, CapacityError, DomainError
# plugin_action_grid is unused here; it stays a module attribute for benchmark tracing
from .policies import (PolicySpec, check_budget, pick2_mass, plugin_action_grid,  # noqa: F401
                       plugin_actions, schedule_counts)
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
    "inv_g_half",
    "rate_ratio_scan",
    "stability_profile",
]

# State limit: no engine allocates more states than this.  Tracking builds
# each layer over the band of slices that carry mass (at most 569,560 states
# up to T = 200), which caps adaptive budgets at T = 203; a fixed schedule's
# binomial tables (max(n1, n2) + 1 log-factorials, n + 1 log-pmf entries per
# arm) cap it near T = 1.2e6 at x = 1/2.  Override with the BAI_MAX_STATES
# environment variable.
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


def _check_states(count: int, limit: int, need: str) -> None:
    """Raise CapacityError when ``count`` states are over ``limit``; ``need``
    opens the message, which ends with the limit and how to raise it."""
    if count > limit:
        raise CapacityError(
            f"{need}, over the limit of {limit}; set {MAX_STATES_ENV} to raise it"
        )


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


# Slices are walked in groups of at least this many cells, one tracking-kernel
# call per group: large enough to amortise numpy's per-call cost, small enough
# that a group's temporaries stay in cache.
_GROUP_CELLS = 1 << 12


def _slice_sizes(t: int, lo: int, hi: int) -> np.ndarray:
    """Cells of slices ``n1 = lo .. hi`` of layer ``t``: ``(n1+1)(t-n1+1)`` each."""
    n1 = np.arange(lo, hi + 1)
    return (n1 + 1) * (t - n1 + 1)


def _groups(sizes: list[int]) -> Iterator[tuple[int, int]]:
    """``[first, stop)`` slice indices of consecutive groups of at least
    :data:`_GROUP_CELLS` cells (the last may hold fewer); a slice that large
    is a group of its own."""
    first = cells = 0
    for i, size in enumerate(sizes):
        if size >= _GROUP_CELLS and cells:
            yield first, i
            first, cells = i, 0
        cells += size
        if cells >= _GROUP_CELLS:
            yield first, i + 1
            first, cells = i + 1, 0
    if cells:
        yield first, len(sizes)


def _group_counts(t: int, n1s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(n1, s1, s2)`` counts of the cells of slices ``n1s`` of layer ``t``,
    slice after slice, each in row-major ``(s1, s2)`` order."""
    rows = n1s + 1
    row_len = np.repeat(t - n1s + 1, rows)
    row_end = np.cumsum(row_len)
    s1_of_row = np.arange(row_end.size) - np.repeat(np.cumsum(rows) - rows, rows)
    n1 = np.repeat(np.repeat(n1s, rows), row_len)
    s1 = np.repeat(s1_of_row, row_len)
    s2 = np.arange(row_end[-1]) - np.repeat(row_end - row_len, row_len)
    return n1, s1, s2


def _next_layer(
    mass: np.ndarray, t: int, lo: int, hi: int, force_rate: float, inst: BanditInstance,
    limit: int,
) -> tuple[np.ndarray, int, int]:
    """Layer ``t + 1`` from layer ``t >= 2``, whose slices ``lo .. hi`` are
    ``mass``, both flat; ``mass`` is overwritten.  Returns ``(nxt, lo, hi)``:
    layer t+1 is built over slices ``lo .. hi+1``, unless that count is over
    ``limit`` (CapacityError), and its all-zero end slices are dropped."""
    m1, m2 = inst.mu1, inst.mu2
    sizes = _slice_sizes(t, lo, hi)
    starts = (np.cumsum(sizes) - sizes).tolist()
    nsizes = _slice_sizes(t + 1, lo, hi + 1)
    nstarts = (np.cumsum(nsizes) - nsizes).tolist()
    states = int(np.sum(nsizes))
    _check_states(states, limit, f"layer {t + 1} needs {states} states")
    nxt = np.zeros(states)
    sizes = sizes.tolist()
    for first, stop in _groups(sizes):
        a = starts[first]
        pull2 = mass[a:starts[stop - 1] + sizes[stop - 1]]
        pull1 = plugin_actions(t, *_group_counts(t, np.arange(lo + first, lo + stop)), force_rate)
        # in place: the action buffer becomes pull1, the group's mass pull2
        np.multiply(pull2, pull1, out=pull1)
        np.subtract(pull2, pull1, out=pull2)
        win1, lose1 = pull1 * m1, pull1 * (1.0 - m1)
        win2, lose2 = pull2 * m2, pull2 * (1.0 - m2)
        for i in range(first, stop):
            n1 = lo + i
            rows, cols = n1 + 1, t - n1 + 1
            o, n = starts[i] - a, sizes[i]
            # arm 1: slice n1 + 1, whose rows are one longer; a success is one row down
            s = nstarts[i + 1]
            np.add(nxt[s + cols:s + cols + n], win1[o:o + n], out=nxt[s + cols:s + cols + n])
            np.add(nxt[s:s + n], lose1[o:o + n], out=nxt[s:s + n])
            # arm 2: slice n1, one column wider; a success is one column right
            s = nstarts[i]
            tgt = nxt[s:s + rows * (cols + 1)].reshape(rows, cols + 1)
            np.add(tgt[:, 1:], win2[o:o + n].reshape(rows, cols), out=tgt[:, 1:])
            np.add(tgt[:, :-1], lose2[o:o + n].reshape(rows, cols), out=tgt[:, :-1])
    nsizes = nsizes.tolist()
    first, last = 0, len(nsizes) - 1
    # the layer's mass sums to 1, so some slice is non-zero and both walks stop
    while not nxt[nstarts[first]:nstarts[first] + nsizes[first]].any():
        first += 1
    while not nxt[nstarts[last]:nstarts[last] + nsizes[last]].any():
        last -= 1
    return nxt[nstarts[first]:nstarts[last] + nsizes[last]], lo + first, lo + last


def _slices(mass: np.ndarray, t: int, lo: int, hi: int) -> dict[int, np.ndarray]:
    """``{n1: (s1, s2) view}`` of flat layer ``t >= 2``, whose slices are
    ``n1 = lo .. hi`` ascending."""
    layer = {}
    start = 0
    for n1, size in enumerate(_slice_sizes(t, lo, hi).tolist(), start=lo):
        layer[n1] = mass[start:start + size].reshape(n1 + 1, t - n1 + 1)
        start += size
    return layer


def dp_layers(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> Iterator[tuple[int, dict[int, np.ndarray]]]:
    """Forward DP pass of plug-in tracking, yielding ``(t, layer)`` for t = 0 .. T.

    A layer maps each ``n1`` to a 2-D ``(s1, s2)`` array: ``{0: [[1]]}``,
    ``{1: [[1-mu1], [mu1]]}``, ``{1: outer([1-mu1, mu1], [1-mu2, mu2])}``,
    then at layer t the slices ``n1 = lo .. hi`` that carry mass (the
    all-zero slices at both ends are dropped).  From layer 2 on the arrays
    are views of flat storage, overwritten when the iterator advances:
    consume each layer first if its values must be kept.  Raises
    ArgumentError at once on a fixed schedule (its exact path is the binomial
    log path), and CapacityError in place of the first layer whose count
    (2 and 4 states at layers 1 and 2, then slices ``lo .. hi+1`` before
    trimming) is over the state limit: no such layer is allocated.
    """
    T = check_budget(T)
    if policy.deterministic_schedule:
        raise ArgumentError(
            f"dp_layers evaluates plug-in tracking only; the fixed schedule "
            f"{policy.description} takes the binomial log path (static_error_log)"
        )
    limit = _max_states()
    m1, m2 = inst.mu1, inst.mu2
    yield 0, {0: np.ones((1, 1))}
    _check_states(2, limit, "layer 1 needs 2 states")
    yield 1, {1: np.array([[1.0 - m1], [m1]])}
    _check_states(4, limit, "layer 2 needs 4 states")
    mass = np.outer([1.0 - m1, m1], [1.0 - m2, m2]).ravel()
    lo = hi = 1
    yield 2, _slices(mass, 2, lo, hi)
    for t in range(2, T):
        mass, lo, hi = _next_layer(mass, t, lo, hi, policy.force_rate, inst, limit)
        yield t + 1, _slices(mass, t + 1, lo, hi)


def _dp_summary(layer: dict[int, np.ndarray], inst: BanditInstance, T: int) -> ExactSummary:
    """:func:`exact_summary` of plug-in tracking from ``layer``, the DP's layer
    ``T``, summed over its kept slices in ascending ``n1``; each has
    ``1 <= n1 <= T-1``."""
    p_pick1 = p_pick2 = e_n1 = 0.0
    for n1, mass in layer.items():
        rows, cols = mass.shape
        pick2 = pick2_mass(np.arange(rows)[:, None], n1, np.arange(cols)[None, :], T - n1)
        p_pick2 += float(np.sum(mass * pick2))
        p_pick1 += float(np.sum(mass * (1.0 - pick2)))
        e_n1 += float(np.sum(mass)) * n1
    p_error = p_pick2 if inst.best_arm == 1 else p_pick1
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=e_n1, e_omega2=(T - e_n1) / T)


def _log_path(policy: PolicySpec, inst: BanditInstance, T: int) -> tuple[ExactSummary, float]:
    """The summary and ``log p_error`` of a fixed schedule on the binomial log path."""
    n1, n2 = static_counts(policy.schedule_fraction(), T, policy.description)
    logp = _static_error_log(n1, n2, inst)
    p_error = math.exp(logp)
    p_pick2 = p_error if inst.best_arm == 1 else 1.0 - p_error
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=float(n1), e_omega2=n2 / T), logp


def _evaluate(
    policy: PolicySpec, inst: BanditInstance, budgets: list[int]
) -> list[tuple[ExactSummary, float]]:
    """The summary and ``log p_error`` of each budget, in the order given with
    duplicates kept, after checking the instance and every budget.  Fixed
    schedules take the log path per budget; plug-in tracking takes one DP pass
    to the largest budget, whose layer t is budget t's terminal layer, bit for
    bit.  The one engine choice in this module."""
    if not inst.is_separated:
        raise DomainError("exact evaluation needs distinct means to define an error")
    budgets = [check_budget(T) for T in budgets]
    if policy.deterministic_schedule:
        return [_log_path(policy, inst, T) for T in budgets]
    layers = dp_layers(policy, inst, max(budgets)) if budgets else ()
    found = {t: _dp_summary(layer, inst, t) for t, layer in layers if t in budgets}
    return [(s, math.log(s.p_error) if s.p_error > 0.0 else -math.inf)
            for s in (found[T] for T in budgets)]


def exact_summary(policy: PolicySpec, inst: BanditInstance, T: int) -> ExactSummary:
    """Exact error probability, decision probability, and pull counts.

    Fixed schedules take the binomial log path, with the schedule's own
    pull counts; adaptive policies take the DP.  Deterministic given its
    arguments: both engines fix their order of summation.
    """
    return _evaluate(policy, inst, [T])[0][0]


def static_counts(x: float, T: int, label: str) -> tuple[int, int]:
    """:func:`schedule_counts`, raising CapacityError when a binomial table
    of ``max(n1, n2) + 1`` entries is over the state limit.

    The log path builds one log-factorial table that long and a log-pmf
    table of ``n + 1`` entries per arm; static Monte Carlo builds one table
    per arm.  Both call this before building any.
    """
    n1, n2 = schedule_counts(x, T, label)
    length = max(n1, n2) + 1
    _check_states(length, _max_states(), f"T={T} needs a binomial table of {length} entries")
    return n1, n2


def _log_factorials(m: int) -> np.ndarray:
    """``log k!`` for k = 0 .. m, as ``gammaln(k + 1)``."""
    return gammaln(np.arange(1.0, m + 2.0))


def _binom_logpmf(lf: np.ndarray, n: int, p: float) -> np.ndarray:
    """log P[Binomial(n, p) = k] for k = 0 .. n, from the table ``lf`` of
    :func:`_log_factorials` (``n + 1`` entries or more), with the bits of
    ``scipy.stats.binom.logpmf``.

    That function computes ``gammaln(n+1) - (gammaln(k+1) + gammaln(n-k+1))``,
    adds ``xlogy(k, p)`` and then ``xlog1py(n-k, -p)``.  The same grouping
    here reads ``gammaln(n+1)`` as ``lf[n]``, ``gammaln(k+1)`` and
    ``gammaln(n-k+1)`` as ``lf`` forwards and backwards, and multiplies
    ``log p = xlogy(1.0, p)`` and ``log1p(-p) = xlog1py(1.0, -p)``, taken
    once, by the counts: ``xlogy`` and ``xlog1py`` are ``x * log(y)`` and
    ``x * log1p(y)`` for ``x != 0``.
    At ``x == 0`` they give +0.0 where the product gives -0.0; that happens
    at ``k = 0``, whose ``combiln`` is ``lf[n] - (0.0 + lf[n]) = +0.0``, and
    at ``k = n``, after a non-zero ``n·log p``; adding either zero to those
    gives the same bits.
    """
    counts = np.arange(n + 1.0)  # k, and reversed n - k
    out = np.add(lf[:n + 1], lf[n::-1])
    np.subtract(lf[n], out, out=out)
    term = np.multiply(counts, xlogy(1.0, p))
    out += term
    np.multiply(counts[::-1], xlog1py(1.0, -p), out=term)
    out += term
    return out


def _error_log_best1(n1: int, m1: float, n2: int, m2: float) -> float:
    """log P[recommend arm 2] for independent binomial counts, arm 1 best.

    Accumulates entirely in the log domain (upper-tail log-cumsums of the
    arm-2 mass), so the result is meaningful far below the smallest
    positive double.  Success count ``s1`` loses to every ``s2`` above
    ``tie_at = s1·n2 // n1`` and ties at ``tie_at`` when ``n1`` divides
    ``s1·n2``, that is when ``s1`` is a multiple of ``n1 / gcd(n1, n2)``.
    Only those cells add half the tie's mass by ``logaddexp``; the others
    take the strict tail as it is, the same bits as ``logaddexp(tail, -inf)``,
    which is ``tail + log1p(0.0)``: no tail is -0.0, since no log-pmf is and
    a sum that cancels rounds to +0.0.
    """
    lf = _log_factorials(max(n1, n2))
    lb1 = _binom_logpmf(lf, n1, m1)
    lb2 = _binom_logpmf(lf, n2, m2)
    del lf  # freed before the tail's arrays are built
    logtail = np.empty(n2 + 2)
    logtail[n2 + 1] = -np.inf
    logtail[: n2 + 1] = np.logaddexp.accumulate(lb2[::-1])[::-1]
    tie_at = np.arange(n1 + 1)
    tie_at *= n2
    tie_at //= n1
    per_s1 = logtail[tie_at + 1]
    ties = slice(None, None, n1 // math.gcd(n1, n2))
    per_s1[ties] = np.logaddexp(per_s1[ties], lb2[tie_at[ties]] + math.log(0.5))
    per_s1 += lb1
    return float(np.logaddexp.reduce(per_s1))


def _static_error_log(n1: int, n2: int, inst: BanditInstance) -> float:
    """log of the exact error probability of ``n1`` and ``n2`` fixed pulls."""
    if inst.mu1 > inst.mu2:
        return _error_log_best1(n1, inst.mu1, n2, inst.mu2)
    return _error_log_best1(n2, inst.mu2, n1, inst.mu1)


def static_error_log(x: float, inst: BanditInstance, T: int) -> float:
    """log of the exact error probability of the static(x) schedule."""
    T = check_budget(T)
    if not inst.is_separated:
        raise DomainError("the error probability needs distinct means")
    return _static_error_log(*static_counts(x, T, f"static:{x}"), inst)


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


def inv_g_half(inst: BanditInstance) -> float:
    """``1/g(1/2, inst)``, the reference level of a rate scan.  Raises
    DomainError when ``g(1/2)`` is not positive: the means are too close for
    double precision to resolve an exponent."""
    g = g_closed(0.5, inst)
    if not g > 0.0:
        raise DomainError(
            f"g(1/2) of the instance ({inst.mu1!r}, {inst.mu2!r}) does not resolve in "
            f"double precision (got {g!r}); the means are too close"
        )
    return 1.0 / g


def rate_ratio_scan(
    policy: PolicySpec, inst: BanditInstance, T_grid: list[int]
) -> RateScan:
    """Exact error series with the normalized ratio ``T / log(1/p)``.

    Deterministic schedules use the log-domain fast path, so the ratio
    stays finite even where the probability itself underflows.  Plug-in
    tracking takes one DP pass to the largest budget for the whole grid.
    The reference level ``1/g(1/2, inst)`` is attached for comparison.
    """
    evaluated = _evaluate(policy, inst, T_grid)
    if not evaluated:
        raise ArgumentError("empty budget grid")
    reference = inv_g_half(inst)
    points = tuple(RatePoint(T=T, p_error=summary.p_error, ratio=T / -logp)
                   for T, (summary, logp) in zip(map(int, T_grid), evaluated))
    return RateScan(points=points, inv_g_half=reference)


def stability_profile(
    policy: PolicySpec, a: float, gaps: list[float], T_grid: list[int]
) -> StabilityProfile:
    """Exact E[omega2(T)] along instance pairs shrinking onto ``(a, a)``.

    For every gap the policy is evaluated under both orientations of the
    split instance; inspecting the matrix along growing budgets and
    shrinking gaps exhibits the double limit that stability asks about.
    Each instance is evaluated once for all budgets: plug-in tracking takes
    one DP pass per instance, two per gap.
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
        rows_a.append(tuple(s.e_omega2 for s, _ in _evaluate(policy, upper, budgets)))
        rows_b.append(tuple(s.e_omega2 for s, _ in _evaluate(policy, lower, budgets)))
    return StabilityProfile(
        a=a,
        gaps=tuple(float(g) for g in gaps),
        budgets=budgets,
        omega2_a=tuple(rows_a),
        omega2_b=tuple(rows_b),
    )
