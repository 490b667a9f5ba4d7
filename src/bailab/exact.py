"""Exact finite-horizon evaluation: a binomial log path for fixed
schedules and a forward dynamic program for plug-in tracking.

The log path works entirely in the log domain and therefore survives
budgets deep into the underflow range of plain probabilities.  Its
binomial log-pmf has the bits of ``scipy.stats.binom.logpmf`` without
importing scipy: it runs, in the same grouping, the Cephes routines
(Moshier 1989) behind scipy's ``gammaln`` and ``xlog1py``, and takes each
logarithm once.  Their logarithms are libm's, as Cephes' are: a scalar's
through ``math.log``, and a table's through ``rates._libm``, which runs
``np.log`` on a reversed view, where numpy calls libm once per entry instead
of its SIMD loop (that loop differs from libm in the last bit on some
integers).  One list of budgets builds one table of log-factorials, as long
as its longest budget's ``max(n1, n2) + 1``, that both arms of every budget
read (the table is built elementwise, so a prefix of a long table has the
bits of a short one).  Each budget takes
``log p`` and ``log1p(-p)`` once per arm, and adds the half-mass of a tie by
``logaddexp`` only in the cells that tie; the docstrings of
:func:`_binom_logpmf` and :func:`_error_log_best1` say why each gives the
same bits.

A budget's error mass sits within O(sqrt(T)) counts of the Chernoff tilt
(Bahadur & Rao 1960), so the log path sums only a window of its terms
(:func:`_log_window`).  Blocks of 64 arm-1 counts are bounded above and below
from a few log-pmf points, each bound with 1 nat of slack for rounding, and
the blocks at either end whose upper bound lies more than GAP = 810 nats
below the largest lower bound are dropped: 746 nats, past which
``logaddexp(r, x) = r + log1p(exp(x - r))`` returns ``r`` bit for bit since
``exp`` rounds to 0, plus a margin of 64.  The arm-2 tails start where the
mass above lies GAP below the smallest tail the window reads.  Dropping the
terms after the window is exact by that rule: proven.  Dropping those before
it, and the arm-2 mass above it, moves the running sums where they start, by
a relative ``e^-(GAP - log n)`` that they later absorb: an argument, not a
proof, which ``tests/test_exact.py`` checks bit for bit against a reference
that sums every term, on a seeded sample of 240 budgets up to T = 2e5.  At
T = 1e5, uniform on (0.7, 0.3), 13,976 of the 100,002 terms remain.  Below
4,096 terms the bounds cost more than they save, and the window is the
whole range.

The DP runs plug-in tracking, and only it, over sufficient-statistic states
``(n1, s1, s2)`` with ``n2 = t - n1`` implied, one step of the rule per
layer from layer 0, the empty history.  Layer t holds the slices
``n1 = lo .. hi`` that carry mass; the all-zero slices at both ends are
dropped.  Arm 1 moves mass from slice ``n1`` to ``n1+1`` and arm 2 keeps it
in ``n1``, so layer t+1 is built over slices ``lo .. hi+1`` and then trimmed.
The state limit applies to the states of those slices, ``(n1+1)(t-n1+1)``
each, checked before the layer is allocated: no layer over the limit is
built, but an over-limit budget fails only once the pass reaches the first
layer that needs too many states.  Which slices carry mass depends on the
policy, not on the means (every reward sequence has positive probability).

A layer is a zero-padded box of shape ``(hi-lo+1, hi+1, t-lo+1)``: plane
``n1 - lo`` holds slice ``n1``'s ``(s1, s2)`` cells in its top-left
``(n1+1) x (t-n1+1)`` corner, and the other cells (``s1 > n1`` or
``s2 > t-n1``) are padding.  The box of layer t+1 is built over slices
``lo .. hi+1`` in one of two flat buffers, which swap each layer and are
replaced, an eighth larger than needed, only when a box does not fit; the
trimmed layer is a view of that box, keeping its strides.

A step walks the box in groups of whole planes holding at least
``_GROUP_CELLS`` cells (the last group may hold fewer).  In each group it
takes the cells that hold mass (``flatnonzero``), recovers their
``(n1, s1, s2)`` by ``divmod`` and calls the tracking kernel on those flat
counts only: about 35 % of the states of a pass hold mass (24,541 of 69,520
in layers 0-47 of ``plugin:0.5`` at T = 48).  The group's mass is split
into its arm-1 and arm-2 pulls, and four shifted adds over the group's
planes move them into the next box, which starts from 0.0: arm-1 success
(one plane up, one row down), arm-1 failure (one plane up), arm-2 success
(one column right), arm-2 failure (in place).  Each cell receives its
contributions in that order, so repeated runs are bit-identical.  A cell
with no mass, a real state or padding, adds +0.0 whatever its action, and
padding only ever receives padding, so it stays +0.0 and neither it nor a
dropped slice moves a bit.  :func:`dp_layers` yields each layer as a dict of
strided 2-D views of its box, overwritten when the iterator advances.

Layer t of a pass is the terminal layer of budget t, bit for bit, so one
pass to the largest budget serves a list of budgets: :func:`_evaluate`, behind
every exact entry point and the ``exact`` and ``scan`` commands, walks the DP
once per policy and instance for the whole list.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ArgumentError, CapacityError, DomainError
# plugin_action_grid is unused here; it stays a module attribute for benchmark tracing
from .policies import (PolicySpec, arm2_count, check_budget, covering_budget,  # noqa: F401
                       pick2_mass, plugin_action_grid, plugin_actions)
from .rates import BanditInstance, _libm, g_closed, kl_bernoulli

__all__ = [
    "ExactSummary",
    "ComSlack",
    "RatePoint",
    "RateScan",
    "StabilityProfile",
    "DEFAULT_MAX_STATES",
    "dp_layers",
    "exact_summary",
    "static_error_log",
    "change_of_measure_slack",
    "inv_g_half",
    "rate_ratio_scan",
    "stability_profile",
]

# State limit: no engine allocates more states than this.  Tracking builds
# each layer over the band of slices that carry mass (at most 569,560 states
# up to T = 200), which caps adaptive budgets at T = 203.  The limit counts
# those states, not the cells of the padded box that stores them: the box
# holds 1.56 cells per state at T = 100 and 1.68 at T = 200.  A fixed schedule's
# binomial tables (max(n1, n2) + 1 log-factorials, and in static Monte Carlo
# n + 1 log-pmf entries per arm) cap it near T = 1.2e6 at x = 1/2.  Override
# with the BAI_MAX_STATES environment variable.
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
    """Exact evaluation of one policy/instance/budget triple.  ``log_p_error`` is
    the log path's own value for a fixed schedule, finite where ``p_error``
    underflows, and ``math.log(p_error)`` for tracking (-inf at 0)."""

    p_error: float
    p_pick2: float
    e_n1: float
    e_omega2: float
    log_p_error: float


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


# Planes are stepped in groups of whole planes holding at least this many box
# cells, one tracking-kernel call per group: large enough to amortise numpy's
# per-call cost, small enough that a group's temporaries stay in cache.
_GROUP_CELLS = 1 << 12


def _states(t: int, lo: int, hi: int) -> int:
    """States of slices ``n1 = lo .. hi`` of layer ``t``: ``(n1+1)(t-n1+1)`` each."""
    return sum((n1 + 1) * (t - n1 + 1) for n1 in range(lo, hi + 1))


def _next_box(
    box: np.ndarray, t: int, lo: int, force_rate: float, inst: BanditInstance, buf: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Layer ``t + 1`` from layer ``t``, whose box ``box`` holds slices
    ``lo .. lo+len(box)-1`` and is overwritten.  Layer t+1 is built in ``buf``
    (flat, at least as long as the new box) over slices ``lo .. hi+1``;
    returns its view without the all-zero end planes, and its first slice."""
    m1, m2 = inst.mu1, inst.mu2
    planes, rows, cols = box.shape
    nxt = buf[:(planes + 1) * (rows + 1) * (cols + 1)].reshape(planes + 1, rows + 1, cols + 1)
    nxt.fill(0.0)
    plane = rows * cols
    per_group = -(-_GROUP_CELLS // plane)
    for p in range(0, planes, per_group):
        mass = box[p:p + per_group]
        q = p + len(mass)
        # the kernel runs only on the cells that hold mass; the others pull nothing
        nz = np.flatnonzero(mass)
        n1, cell = np.divmod(nz, plane)
        n1 += lo + p
        s1, s2 = np.divmod(cell, cols)
        pull1 = np.zeros(mass.shape)
        pull1.reshape(-1)[nz] = plugin_actions(t, n1, s1, s2, force_rate)
        # in place: the action buffer becomes pull1, the group's mass pull2
        np.multiply(mass, pull1, out=pull1)
        np.subtract(mass, pull1, out=mass)
        # arm 1: one plane up, and a success is one row down
        nxt[p + 1:q + 1, 1:, :-1] += pull1 * m1
        nxt[p + 1:q + 1, :-1, :-1] += np.multiply(pull1, 1.0 - m1, out=pull1)
        # arm 2: the same plane, and a success is one column right
        nxt[p:q, :-1, 1:] += mass * m2
        nxt[p:q, :-1, :-1] += np.multiply(mass, 1.0 - m2, out=mass)
    first, last = 0, planes
    # the layer's mass sums to 1, so some plane is non-zero and both walks stop
    while not nxt[first].any():
        first += 1
    while not nxt[last].any():
        last -= 1
    lo += first
    hi = lo + last - first
    return nxt[first:last + 1, :hi + 1, :t + 2 - lo], lo


def _boxes(
    policy: PolicySpec, inst: BanditInstance, T: int, limit: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(t, lo, box)`` for the layers t = 0 .. T of plug-in tracking: ``box`` is
    the zero-padded 3-D box of slices ``lo .. lo+len(box)-1``, a view of one
    of two flat buffers that swap each layer, overwritten when the iterator
    advances.  Layer 0 is ``[[[1.0]]]`` with ``lo = 0``; each later layer is
    :func:`_next_box` of the one before.  Every layer's states are counted one
    way, over slices ``lo .. hi+1`` before trimming; raises CapacityError in
    place of the first layer whose count is over ``limit``, before its
    buffer is replaced."""
    box, lo = np.ones((1, 1, 1)), 0
    yield 0, lo, box
    bufs = [box.reshape(-1), np.empty(0)]  # layer t lives in bufs[t % 2]
    for t in range(T):
        planes, rows, cols = box.shape
        states = _states(t + 1, lo, lo + planes)
        _check_states(states, limit, f"layer {t + 1} needs {states} states")
        need = (planes + 1) * (rows + 1) * (cols + 1)
        i = (t + 1) % 2
        if bufs[i].size < need:
            bufs[i] = None  # free layer t-1 before its larger successor is allocated
            bufs[i] = np.empty(need + need // 8)
        box, lo = _next_box(box, t, lo, policy.force_rate, inst, bufs[i])
        yield t + 1, lo, box


def dp_layers(
    policy: PolicySpec, inst: BanditInstance, T: int
) -> Iterator[tuple[int, dict[int, np.ndarray]]]:
    """Forward DP pass of plug-in tracking, yielding ``(t, layer)`` for t = 0 .. T.

    A layer maps each ``n1`` of the slices ``lo .. hi`` that carry mass (the
    all-zero slices at both ends are dropped) to its 2-D ``(s1, s2)`` array;
    layer 0 is ``{0: [[1.0]]}``.  Every array is a strided view of the
    layer's box from :func:`_boxes`, overwritten when the iterator advances:
    consume each layer first if its values must be kept.  Raises
    ArgumentError at once on a fixed schedule (its exact path is the binomial
    log path), and CapacityError in place of the first layer whose count,
    the states of slices ``lo .. hi+1`` before trimming, is over the state
    limit: no such layer is allocated.
    """
    T = check_budget(T)
    if policy.deterministic_schedule:
        raise ArgumentError(
            f"dp_layers evaluates plug-in tracking only; the fixed schedule "
            f"{policy.description} takes the binomial log path (static_error_log)"
        )
    for t, lo, box in _boxes(policy, inst, T, _max_states()):
        yield t, {n1: box[n1 - lo, :n1 + 1, :t - n1 + 1] for n1 in range(lo, lo + len(box))}


def _dp_summary(layer: dict[int, np.ndarray], inst: BanditInstance, T: int) -> ExactSummary:
    """:func:`exact_summary` of plug-in tracking from ``layer``, the DP's layer
    ``T``, summed over its kept slices in ascending ``n1``; each has
    ``1 <= n1 <= T-1``.

    Each sum over a slice is numpy's pairwise sum of its cells in row-major
    order, as over a contiguous array.  The slices are strided views, which
    ``np.sum`` would add row by row, in another order and so with other
    bits; the products are new contiguous arrays, and the slice's own mass
    is summed from a contiguous copy."""
    p_pick1 = p_pick2 = e_n1 = 0.0
    for n1, mass in layer.items():
        rows, cols = mass.shape
        pick2 = pick2_mass(np.arange(rows)[:, None], n1, np.arange(cols)[None, :], T - n1)
        p_pick2 += float(np.sum(mass * pick2))
        p_pick1 += float(np.sum(mass * (1.0 - pick2)))
        e_n1 += float(np.sum(np.ascontiguousarray(mass))) * n1
    p_error = p_pick2 if inst.best_arm == 1 else p_pick1
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=e_n1, e_omega2=(T - e_n1) / T,
                        log_p_error=math.log(p_error) if p_error > 0.0 else -math.inf)


def _log_summary(n1: int, n2: int, inst: BanditInstance, lf: np.ndarray) -> ExactSummary:
    """:func:`exact_summary` of ``n1`` and ``n2`` fixed pulls on the binomial log
    path, from the log-factorial table ``lf`` (``max(n1, n2) + 1`` entries or more).
    The best arm is picked here, once: its pulls and mean go first to
    :func:`_error_log_best1`."""
    best1 = inst.best_arm == 1
    best_first = (n1, inst.mu1, n2, inst.mu2) if best1 else (n2, inst.mu2, n1, inst.mu1)
    logp = _error_log_best1(*best_first, lf)
    p_error = math.exp(logp)
    p_pick2 = p_error if best1 else 1.0 - p_error
    return ExactSummary(p_error=p_error, p_pick2=p_pick2, e_n1=float(n1),
                        e_omega2=n2 / (n1 + n2), log_p_error=logp)


def _evaluate(policy: PolicySpec, inst: BanditInstance, budgets: list[int]) -> list[ExactSummary]:
    """The summary of each budget, in the order given with duplicates kept,
    after checking the instance and every budget.  Fixed schedules take the
    log path: every budget's counts are checked, then one log-factorial table,
    as long as the longest budget needs, serves them all.  Plug-in tracking
    takes one DP pass to the largest budget, whose layer t is budget t's
    terminal layer, bit for bit.  The one engine choice in this module."""
    if not inst.is_separated:
        raise DomainError("exact evaluation needs distinct means to define an error")
    budgets = [check_budget(T) for T in budgets]
    if policy.deterministic_schedule:
        counts = [static_counts(policy, T) for T in budgets]
        lf = _log_factorials(max((max(c) for c in counts), default=0))
        return [_log_summary(n1, n2, inst, lf) for n1, n2 in counts]
    layers = dp_layers(policy, inst, max(budgets)) if budgets else ()
    found = {t: _dp_summary(layer, inst, t) for t, layer in layers if t in budgets}
    return [found[T] for T in budgets]


def exact_summary(policy: PolicySpec, inst: BanditInstance, T: int) -> ExactSummary:
    """Exact error probability, its log, decision probability, and pull counts.

    Fixed schedules take the binomial log path, with the schedule's own
    pull counts; adaptive policies take the DP.  Deterministic given its
    arguments: both engines fix their order of summation.
    """
    return _evaluate(policy, inst, [T])[0]


def static_counts(policy: PolicySpec, T: int) -> tuple[int, int]:
    """``(n1, n2)`` pulls of the fixed schedule ``policy`` over ``T`` rounds,
    ``n2`` by :func:`arm2_count`.  Raises ArgumentError on an adaptive policy;
    ArgumentError naming the policy and ``T`` when either count is zero, with
    the smallest budget that samples both arms or why none up to ``2**53``
    does; and CapacityError when a binomial table of ``max(n1, n2) + 1``
    entries is over the state limit.  The log path (one log-factorial table
    that long, and log-pmfs over a window of each arm's ``n + 1`` counts) and
    static Monte Carlo (one table per arm) call this before building any table.
    """
    x = policy.schedule_fraction()
    n2 = arm2_count(x, T)
    if not 1 <= n2 <= T - 1:
        try:
            cover = f"the smallest budget that samples both arms is T={covering_budget(x)}"
        except ArgumentError as exc:
            cover = str(exc)
        raise ArgumentError(
            f"schedule of {policy.description} leaves an arm unsampled at T={T}; {cover}")
    n1 = T - n2
    length = max(n1, n2) + 1
    _check_states(length, _max_states(), f"T={T} needs a binomial table of {length} entries")
    return n1, n2


# Cephes lgam (Moshier 1989), the routine behind scipy.special.gammaln:
# log(sqrt(2*pi)) and the Stirling-series coefficients below x = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4, 7.93650340457716943945E-4,
           -2.77777777730099687205E-3, 8.33333333333331927722E-2)
# Cephes log1p, the routine behind scipy.special.xlog1py: the interval where it
# runs its rational function, and that function's numerator and denominator
_SQRTH, _SQRT2 = 0.70710678118654752440, 1.41421356237309504880
_LOG1P_P = (4.5270000862445199635215E-5, 4.9854102823193375972212E-1, 6.5787325942061044846969E0,
            2.9911919328553073277375E1, 6.0949667980987787057556E1, 5.7112963590585538103336E1,
            2.0039553499201281259648E1)
_LOG1P_Q = (1.0, 1.5062909083469192043167E1, 8.3047565967967209469464E1, 2.2176239823732856465394E2,
            3.0909872225312059774938E2, 2.1642788614495947685003E2, 6.0118660497603843919306E1)


def _polevl(x, coefs):
    """The polynomial with coefficients ``coefs`` (highest degree first) at ``x``,
    by Horner's rule as Cephes ``polevl`` runs it; a leading 1.0 gives ``p1evl``,
    since ``1.0 * x`` is exact."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: np.ndarray) -> np.ndarray:
    """``log Γ(x)`` at a nondecreasing 1-D array of positive integers ``x``
    (float64), elementwise, with the bits of Cephes ``lgam`` and so of
    ``scipy.special.gammaln``.

    Below 13 Cephes takes the log of the product ``(x-1)!``, exact there.
    From 13 on it takes ``q = (x - 0.5)·log(x) - x + log(sqrt(2π))`` and adds
    ``polevl(1/x², A)/x`` below 1000, the three-term series in ``1/x²`` over
    ``x`` up to 1e8, and nothing above.  Each log is libm's, taken by
    :func:`~bailab.rates._libm` in one ``np.log`` call on a reversed view of
    ``x``: numpy's SIMD loop, which a forward view would take, moves the last
    bit of some entries.  The arithmetic around the logs runs in numpy, in
    Cephes' order, one rounding per step.

    Each branch runs only on the entries it serves, the slices of ``x`` where
    it holds: the product on ``[1, 13)``, the log and ``q`` on ``[13, ∞)``,
    ``polevl`` on ``[13, 1000)`` and the series on ``[1000, 1e8]``.  ``q`` is
    formed in the result and ``1/x²`` in the logs' array, so the scratch is
    that array and the series, one table each.
    """
    x = np.asarray(x, dtype=np.float64)
    small, mid = np.searchsorted(x, [13.0, 1000.0])
    big = np.searchsorted(x, 1e8, side="right")
    out = np.subtract(x, 0.5)
    out[:small] = [math.log(math.factorial(int(k) - 1)) for k in x[:small]]
    q, log_x = out[small:], _libm(np.log, x[small:])
    q *= log_x
    q -= x[small:]
    q += _LS2PI
    p = log_x[:big - small]  # 1/x², up to 1e8
    np.multiply(x[small:big], x[small:big], out=p)
    np.divide(1.0, p, out=p)
    low, high = p[:mid - small], p[mid - small:]
    out[small:mid] += _polevl(low, _LGAM_A) / x[small:mid]
    series = np.multiply(high, 7.9365079365079365079365e-4)
    series -= 2.7777777777777777777778e-3
    series *= high
    series += 0.0833333333333333333333
    series /= x[mid:big]
    out[mid:big] += series
    return out


def _log1p(x: float) -> float:
    """``log(1 + x)`` with the bits of Cephes ``log1p``, and so of
    ``scipy.special.xlog1py(1.0, x)``: libm's log of ``1 + x`` outside
    [sqrt(1/2), sqrt(2)], a rational function of ``x`` inside.  ``math.log1p``
    is libm's own routine and differs from Cephes in the last bit on some ``x``."""
    z = 1.0 + x
    if z < _SQRTH or z > _SQRT2:
        return math.log(z)
    z = x * x
    z = -0.5 * z + x * (z * _polevl(x, _LOG1P_P) / _polevl(x, _LOG1P_Q))
    return x + z


def _log_factorials(m: int) -> np.ndarray:
    """``log k!`` for k = 0 .. m, as :func:`_lgam` at k + 1, which keeps the bits
    of ``scipy.special.gammaln(k + 1)``: its logs are libm's, as Cephes' are,
    through :func:`~bailab.rates._libm`'s reversed view, where ``np.log`` on
    the forward table would move the last bit of some entries."""
    return _lgam(np.arange(1.0, m + 2.0))


def _binom_logpmf(
    lf: np.ndarray, n: int, p: float, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """log P[Binomial(n, p) = k] for k = lo .. hi (default 0 .. n), from the
    table ``lf`` of :func:`_log_factorials` (``n + 1`` entries or more), with
    the bits of ``scipy.stats.binom.logpmf``.

    That function computes ``gammaln(n+1) - (gammaln(k+1) + gammaln(n-k+1))``,
    adds ``xlogy(k, p)`` and then ``xlog1py(n-k, -p)``.  The same grouping
    here reads ``gammaln(n+1)`` as ``lf[n]``, ``gammaln(k+1)`` and
    ``gammaln(n-k+1)`` as ``lf`` forwards and backwards, and multiplies
    ``log p`` and ``log1p(-p)``, taken once, by the counts: ``xlogy`` and
    ``xlog1py`` are ``x * log(y)`` and ``x * log1p(y)`` for ``x != 0``, with
    libm's ``log`` (here ``math.log``) and Cephes' ``log1p`` (here
    :func:`_log1p`).
    At ``x == 0`` they give +0.0 where the product gives -0.0; that happens
    at ``k = 0``, whose ``combiln`` is ``lf[n] - (0.0 + lf[n]) = +0.0``, and
    at ``k = n``, after a non-zero ``n·log p``; adding either zero to those
    gives the same bits.  Each entry is computed on its own, so a range has
    the bits of the same entries of the full table.
    """
    hi = n if hi is None else hi
    counts = np.arange(lo, hi + 1.0)  # k
    # n - k, reversed: the same array when the range is symmetric, as the full table is
    rest = counts if lo + hi == n else np.arange(n - hi, n - lo + 1.0)
    out = np.add(lf[lo:hi + 1], lf[n - hi:n - lo + 1][::-1])
    np.subtract(lf[n], out, out=out)
    term = np.multiply(counts, math.log(p))
    out += term
    np.multiply(rest[::-1], _log1p(-p), out=term)
    out += term
    return out


def _binom_logpmf_at(lf: np.ndarray, n: int, p: float, k: np.ndarray) -> np.ndarray:
    """:func:`_binom_logpmf` at the integer array of counts ``k``, entry by
    entry the same arithmetic, read from ``lf`` by gathers instead of slices."""
    out = lf[k] + lf[n - k]
    np.subtract(lf[n], out, out=out)
    out += k * math.log(p)
    out += (n - k) * _log1p(-p)
    return out


# The log path's window (:func:`_log_window`): arm-1 counts are bounded in
# blocks of _BLOCK, every bound gets _SLACK nats for the rounding of the
# log-pmfs it reads, and terms more than _GAP nats below the largest lower
# bound are dropped: 746 nats, past which exp underflows to 0, plus a margin
# of 64.  Below _WINDOW_MIN_TERMS terms (n1 + n2 + 2) the bounds cost more than
# the terms they could drop, and the whole range is taken.
_BLOCK = 64
_SLACK = 1.0
_GAP = 746.0 + 64.0
_WINDOW_MIN_TERMS = 4096


def _log_window(n1: int, m1: float, n2: int, m2: float, lf: np.ndarray) -> tuple[int, int, int]:
    """``(a, b, top)``: the arm-1 counts ``a .. b`` and the arm-2 counts up to
    ``top`` that :func:`_error_log_best1` sums over, arm 1 best; the whole
    range ``(0, n1, n2)`` below ``_WINDOW_MIN_TERMS`` terms.

    A block of arm-1 counts ``s .. e`` gets an upper bound and a lower bound,
    from log-pmfs at a few points, all of each arm in one call.  Both
    log-pmfs are unimodal, with their modes at ``floor((n+1)p)``, so the
    largest ``lb1`` of the block is at the arm-1 mode clipped into it, and a
    tail from ``tie(s)`` on holds fewer than ``n2 + 2`` entries, none above
    ``lb2[max(tie(s), mode2)]``.  The upper bound is their sum plus
    ``log(n2 + 2)``; the lower bound, at that same clipped mode ``c``, is
    ``lb1[c] + lb2[clip(tie(c) + 1, mode2, n2)]``, one entry of its tail.
    The window keeps the blocks from the first to the last whose upper bound
    comes within ``_GAP`` of the largest lower bound.

    Its tails are accumulated down from ``top``.  On a grid of arm-2 counts
    every ``_BLOCK`` from the arm-2 mode, ``g`` is the first point at or past
    ``tie(b) + 1``, so ``lb2[g]`` is one entry of every tail the window reads,
    and ``top + 1`` is the first later point ``h`` where ``lb2[h] + log(n2 + 2)``
    lies more than ``_GAP`` below ``lb2[g]``: past the mode, that bounds all
    the mass from ``h`` on.  Every bound has ``_SLACK`` added for rounding.
    """
    if n1 + n2 + 2 < _WINDOW_MIN_TERMS:
        return 0, n1, n2
    starts = np.arange(0, n1 + 1, _BLOCK)
    # the arm-1 mode, clipped into each block
    peaks = np.maximum(starts, int((n1 + 1) * m1))
    np.minimum(peaks, starts + (_BLOCK - 1), out=peaks)
    np.minimum(peaks, n1, out=peaks)
    mode2 = int((n2 + 1) * m2)
    # arm-2 points: each block's tail bound, each peak's lower bound, the grid
    k2 = np.concatenate((starts * n2 // n1, peaks * n2 // n1 + 1,
                         np.arange(mode2, n2 + _BLOCK, _BLOCK)))
    np.clip(k2, mode2, n2, out=k2)
    v1 = _binom_logpmf_at(lf, n1, m1, peaks)
    v2 = _binom_logpmf_at(lf, n2, m2, k2)
    room = math.log(n2 + 2.0) + _SLACK
    blocks = len(starts)
    lower = v1 + v2[blocks:2 * blocks]
    if peaks[-1] == n1:  # its tail past tie(n1) = n2 is empty
        lower[-1] = -np.inf
    keep = np.flatnonzero(v1 + v2[:blocks] + room >= lower.max() - _GAP)
    a = int(starts[keep[0]])
    b = min(int(starts[keep[-1]]) + _BLOCK - 1, n1)
    k0 = b * n2 // n1 + 1  # the smallest tail the window reads starts here
    if k0 >= n2:
        return a, b, n2
    grid, at_grid = k2[2 * blocks:], v2[2 * blocks:]
    i = int(np.searchsorted(grid, k0))
    beyond = np.flatnonzero(at_grid[i + 1:] + room < at_grid[i] - _GAP)
    top = int(grid[i + 1 + beyond[0]]) - 1 if beyond.size else n2
    return a, b, top


def _error_log_best1(n1: int, m1: float, n2: int, m2: float, lf: np.ndarray) -> float:
    """log P[recommend arm 2] for independent binomial counts, arm 1 best, read
    from the log-factorial table ``lf`` (``max(n1, n2) + 1`` entries or more).

    Accumulates entirely in the log domain (upper-tail log-cumsums of the
    arm-2 mass), so the result is meaningful far below the smallest
    positive double.  Success count ``s1`` loses to every ``s2`` above
    ``tie_at = s1·n2 // n1`` and ties at ``tie_at`` when ``n1`` divides
    ``s1·n2``, that is when ``s1`` is a multiple of ``n1 / gcd(n1, n2)``.
    Only those cells add half the tie's mass by ``logaddexp``; the others
    take the strict tail as it is, the same bits as ``logaddexp(tail, -inf)``,
    which is ``tail + log1p(0.0)``: no tail is -0.0, since no log-pmf is and
    a sum that cancels rounds to +0.0.

    The sums run only over the window of :func:`_log_window`: arm-1 counts
    ``a .. b``, and arm-2 tails accumulated down from ``top``.  numpy's
    ``logaddexp(r, x)`` is ``r + log1p(exp(x - r))``, which is ``r`` bit for
    bit once ``x < r - 745.2``, where ``exp`` rounds to 0.  The reduce over
    ``s1`` runs upwards, and by the window's bounds every term after ``b``
    lies more than 746 nats below a term before it, so dropping them is
    exact: proven.  Dropping the terms before ``a``, and the arm-2 terms above
    ``top``, changes the running sum where it starts, by a mass
    ``e^-(_GAP - log n)`` times a term the sum later reaches, far below one
    ulp of the result: an argument, not a proof.  ``tests/test_exact.py``
    checks the result against the reference that sums every term, bit for
    bit, on a seeded sample.
    """
    a, b, top = _log_window(n1, m1, n2, m2, lf)
    tie_at = np.arange(a, b + 1)
    tie_at *= n2
    tie_at //= n1
    lo2 = int(tie_at[0])
    lb2 = _binom_logpmf(lf, n2, m2, lo2, top)
    logtail = np.empty(top - lo2 + 2)  # logtail[k - lo2] for k = lo2 .. top + 1
    logtail[-1] = -np.inf  # read only when top = n2
    logtail[:-1] = np.logaddexp.accumulate(lb2[::-1])[::-1]
    if lo2:
        tie_at -= lo2  # as indices into lb2 and logtail
    per_s1 = logtail[tie_at + 1]
    step = n1 // math.gcd(n1, n2)
    ties = slice(-a % step, None, step)
    per_s1[ties] = np.logaddexp(per_s1[ties], lb2[tie_at[ties]] + math.log(0.5))
    per_s1 += _binom_logpmf(lf, n1, m1, a, b)
    return float(np.logaddexp.reduce(per_s1))


def static_error_log(x: float, inst: BanditInstance, T: int) -> float:
    """log of the exact error probability of the static(x) schedule, finite where
    it underflows: ``exact_summary(PolicySpec.static(x), inst, T).log_p_error``."""
    return exact_summary(PolicySpec.static(x), inst, T).log_p_error


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
    points = tuple(RatePoint(T=T, p_error=s.p_error, ratio=T / -s.log_p_error)
                   for T, s in zip(map(int, T_grid), evaluated))
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
        rows_a.append(tuple(s.e_omega2 for s in _evaluate(policy, upper, budgets)))
        rows_b.append(tuple(s.e_omega2 for s in _evaluate(policy, lower, budgets)))
    return StabilityProfile(
        a=a,
        gaps=tuple(float(g) for g in gaps),
        budgets=budgets,
        omega2_a=tuple(rows_a),
        omega2_b=tuple(rows_b),
    )
