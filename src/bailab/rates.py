"""Primal rate machinery for two-armed Bernoulli bandits.

The central object is the error exponent ``g(x, inst)`` of a static
sampling schedule that spends a fraction ``x`` of the budget on arm 2:
the minimum over ``lam`` of ``(1-x) d(lam, mu1) + x d(lam, mu2)``, a
mixture of Bernoulli KL divergences.  This module holds closed forms
only: ``g``, its inner minimizer, the slope of ``exp(-g)`` that the
optimal allocation and the tracking rule both test, and the elementary
inequalities the rest of the package builds on.  The optimal allocation
:func:`x_star` is a bisection on that slope, kept in Python floats with the
bits of its array form :func:`x_star_grid`.  The iterative oracles that
check these closed forms live in :mod:`bailab.verification`.  This is also
the home of the checked logit pair :func:`mean_to_natural` /
:func:`natural_to_mean` (log-odds and logistic map), which
:mod:`bailab.dual` re-exports.

Allocations are plain floats in [0, 1] (fraction of the budget on
arm 2); instances are :class:`BanditInstance` pairs of means strictly
inside (0, 1), none below the smallest normal double.  All logs are
natural, so rates are in nats per round.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError

__all__ = [
    "BanditInstance",
    "RateProfile",
    "kl_bernoulli",
    "mean_to_natural",
    "natural_to_mean",
    "g_closed",
    "g_closed_grid",
    "lambda_star",
    "exp_neg_g_slope",
    "x_star",
    "x_star_grid",
    "stationarity_residual",
    "pinsker_like_bound_slack",
    "rate_profile",
]

_LOG2 = math.log(2.0)


def _check_allocation(x: float) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ArgumentError(f"allocation must be a real number, got {x!r}")
    x = float(x)
    if math.isnan(x) or not 0.0 <= x <= 1.0:
        raise ArgumentError(f"allocation must lie in [0, 1], got {x!r}")
    return x


def _mean_rule(m) -> str | None:
    """The rule that the mean ``m``, a real number (an int of any length
    included), breaks, or None.  A mean lies strictly inside (0, 1) and is not
    subnormal: a mean below the smallest normal double overflows the ratio of
    means in :func:`exp_neg_g_slope`."""
    if not 0.0 < m < 1.0:  # NaN fails both comparisons
        return "must lie strictly inside (0, 1)"
    if m < sys.float_info.min:
        return f"must be at least the smallest normal double {sys.float_info.min!r}"
    return None


def _check_mean(m: float, name: str) -> float:
    """``m`` if it breaks no rule of :func:`_mean_rule`; else DomainError naming it ``name``."""
    rule = _mean_rule(m)
    if rule is not None:
        raise DomainError(f"{name} {rule}, got {m!r}")
    return m


def _check_means(means) -> np.ndarray:
    """``means`` as a 1-D float64 array if each breaks no rule of
    :func:`_mean_rule`.  Else ArgumentError naming a shape that is not 1-D, or
    DomainError naming the first bad mean as a Python float."""
    m = np.asarray(means, dtype=np.float64)
    if m.ndim != 1:
        raise ArgumentError(f"means must be a 1-D list, got shape {m.shape}")
    bad = ~((m >= sys.float_info.min) & (m < 1.0))  # _mean_rule's; NaN is bad
    if bad.any():
        _check_mean(float(m[bad.argmax()]), "means")
    return m


def _libm(ufunc, *arrays) -> np.ndarray:
    """``ufunc`` (``np.log`` or ``np.power``) over equal-length 1-D float64
    ``arrays``, with the bits of libm's ``log`` and ``pow`` (``math.log`` and
    ``**``) in every entry.

    numpy's SIMD loops for ``log`` and ``power`` differ from libm in the last
    bit of some entries (34 of the integers 1 .. 600,001).  numpy 2.4.6 runs
    those SIMD loops only on inputs that step forwards; on a reversed view it
    runs its scalar loop, which calls libm once per entry.  So the ufunc takes
    reversed views, and its result is reversed back.  The output must not be a
    reversed view too, since numpy then flips all strides to forwards.  Pass an
    exponent as a full array: a scalar exponent of 0.5 or 2.0 is taken as
    ``sqrt`` or ``square``, reversed or not.  Tests pin the bits, and fail if a
    later numpy vectorises backward-stepping inputs.
    """
    return ufunc(*(a[::-1] for a in arrays))[::-1]


# Bisection steps of x*: halvings of [0, 1] to a bracket of width 2**-34,
# below 1e-10.
_X_STAR_STEPS = 34


@dataclass(frozen=True)
class BanditInstance:
    """A pair of Bernoulli mean rewards, each strictly inside (0, 1) and not
    below the smallest normal double."""

    mu1: float
    mu2: float

    def __post_init__(self) -> None:
        for name in ("mu1", "mu2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float, np.floating)):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            object.__setattr__(self, name, _check_mean(float(v), name))

    @property
    def is_separated(self) -> bool:
        """Whether the means differ, i.e. a unique best arm exists."""
        return self.mu1 != self.mu2

    @property
    def best_arm(self) -> int:
        """Index (1 or 2) of the arm with the larger mean."""
        if not self.is_separated:
            raise DomainError("equal means: the best arm is undefined")
        return 1 if self.mu1 > self.mu2 else 2

    def swapped(self) -> "BanditInstance":
        return BanditInstance(self.mu2, self.mu1)


@dataclass(frozen=True)
class RateProfile:
    """Rate summary of one instance: g, its inner minimizer, and the optimum."""

    g_value: float
    lambda_min: float
    x_star: float


def mean_to_natural(p: float) -> float:
    """Log-odds of a mean in (0, 1); inverse of :func:`natural_to_mean`."""
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise DomainError(f"mean must lie strictly inside (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


def natural_to_mean(xi: float) -> float:
    """Logistic map from a natural parameter back to the mean."""
    if not math.isfinite(xi):
        raise DomainError(f"natural parameter must be finite, got {xi!r}")
    if xi >= 0.0:
        return 1.0 / (1.0 + math.exp(-xi))
    e = math.exp(xi)
    return e / (1.0 + e)


def kl_bernoulli(a: float, b: float) -> float:
    """KL divergence d(a, b) between Bernoulli distributions with means a, b.

    The first argument may sit on the boundary of [0, 1] under the
    convention 0 log 0 = 0.  The second argument must be interior,
    otherwise the divergence is infinite and a DomainError is raised.
    """
    if math.isnan(a) or math.isnan(b):
        raise DomainError("kl_bernoulli: NaN input")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"first argument must lie in [0, 1], got {a!r}")
    if not 0.0 < b < 1.0:
        raise DomainError(f"second argument must lie in (0, 1), got {b!r}")
    total = 0.0
    if a > 0.0:
        total += a * math.log(a / b)
    if a < 1.0:
        total += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return total


def g_closed(x: float, inst: BanditInstance) -> float:
    """Closed form of the static error exponent at allocation ``x``.

    Equals ``-log((1-mu1)^(1-x) (1-mu2)^x + mu1^(1-x) mu2^x)``; both
    products telescope to 1 at the boundary allocations, where the
    exponent vanishes.
    """
    x = _check_allocation(x)
    if x == 0.0 or x == 1.0:
        return 0.0
    m1, m2 = inst.mu1, inst.mu2
    tail = (1.0 - m1) ** (1.0 - x) * (1.0 - m2) ** x
    head = m1 ** (1.0 - x) * m2 ** x
    return -math.log(tail + head)


def g_closed_grid(x: float, mu1s, mu2s) -> np.ndarray:
    """:func:`g_closed` at ``x`` on every pair of means from two 1-D lists.

    Entry ``[i, j]`` is ``g_closed(x, BanditInstance(mu1s[i], mu2s[j]))`` bit
    for bit.  The two powers of each mean are C ``pow``'s, as in
    :func:`g_closed`, taken in one :func:`_libm` call; the cells are formed
    with :func:`g_closed`'s grouping, and their logs are libm's, in a second
    :func:`_libm` call over the raveled cells.  :func:`_libm` reverses its
    inputs because numpy's SIMD ``power`` and ``log`` round some entries
    differently.
    """
    x = _check_allocation(x)
    mu1s, mu2s = _check_means(mu1s), _check_means(mu2s)
    n1, n2 = mu1s.size, mu2s.size
    if x == 0.0 or x == 1.0:
        return np.zeros((n1, n2))
    bases = np.concatenate([1.0 - mu1s, mu1s, 1.0 - mu2s, mu2s])
    exponents = np.concatenate([np.full(2 * n1, 1.0 - x), np.full(2 * n2, x)])
    tail1, head1, tail2, head2 = np.split(_libm(np.power, bases, exponents),
                                          [n1, 2 * n1, 2 * n1 + n2])
    cells = tail1[:, None] * tail2 + head1[:, None] * head2
    return -_libm(np.log, cells.ravel()).reshape(cells.shape)


def lambda_star(x: float, inst: BanditInstance) -> float:
    """Unique minimizer of the KL-mixture objective: odds interpolation.

    Interpolates the log-odds of the two means linearly with weight ``x``
    on arm 2 and maps back through the logistic function, which keeps the
    value strictly inside (0, 1).
    """
    x = _check_allocation(x)
    s = (1.0 - x) * mean_to_natural(inst.mu1) + x * mean_to_natural(inst.mu2)
    return natural_to_mean(s)


def exp_neg_g_slope(m1, m2, y):
    """Derivative in the arm-2 share ``y`` of ``exp(-g)``, over arrays.

    ``exp(-g) = (1-m1)^(1-y) (1-m2)^y + m1^(1-y) m2^y`` is strictly convex
    in ``y``, so ``g`` increases exactly where this slope is negative.
    Pass ``y`` as a full array of the result's shape: numpy computes a
    float or broadcast exponent of 0.5 as ``sqrt``, which can differ from
    the array power in the last bit.
    """
    tail1, tail2, y1 = 1.0 - m1, 1.0 - m2, 1.0 - y
    slope = tail1 ** y1 * tail2 ** y * np.log(tail2 / tail1)
    return slope + m1 ** y1 * m2 ** y * np.log(m2 / m1)


def x_star_grid(mu1, mu2) -> np.ndarray:
    """Vectorized :func:`x_star` over arrays of means.

    Every pair must be separated.  Runs the same fixed number of bisection
    steps on the x-derivative of the closed form, through
    :func:`exp_neg_g_slope`, so each pair gives the bits of :func:`x_star`.
    """
    m1 = np.asarray(mu1, dtype=float)
    m2 = np.asarray(mu2, dtype=float)
    if np.any(m1 == m2):
        raise DomainError("x_star needs distinct means: g is identically zero")
    shape = np.broadcast_shapes(m1.shape, m2.shape)
    lo = np.zeros(shape)
    hi = np.ones(shape)
    for _ in range(_X_STAR_STEPS):
        mid = 0.5 * (lo + hi)
        go_right = exp_neg_g_slope(m1, m2, mid) < 0.0
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def x_star(inst: BanditInstance) -> float:
    """Unique maximizer of ``g(., inst)`` over (0, 1).

    Located by bisection on the analytic x-derivative of the closed form,
    which is strictly decreasing, so the bracket always contains the
    optimum.  Requires distinct means.

    Bit for bit the result of :func:`x_star_grid` on the pair, at a fraction
    of its cost: the bracket is kept in Python floats, and the only numpy
    calls are one ``np.log`` of both log-ratios before the loop and one
    ``np.power`` per step, over the four bases ``[1-m1, 1-m2, m1, m2]`` with
    a full exponent array ``[1-y, y, 1-y, y]``.  numpy's ``log`` and
    ``power`` can differ from ``math.log`` and ``**`` in the last bit, so
    both stay numpy calls on arrays, whose results do not depend on the
    array's length; a float or broadcast exponent of 0.5 would be taken as
    ``sqrt`` (see :func:`exp_neg_g_slope`).  The slope is formed with
    :func:`exp_neg_g_slope`'s grouping, and the midpoints, products, sums
    and comparisons are IEEE operations, the same in Python as in numpy.
    """
    if not inst.is_separated:
        raise DomainError("x_star needs distinct means: g is identically zero")
    m1, m2 = inst.mu1, inst.mu2
    bases = np.array([1.0 - m1, 1.0 - m2, m1, m2])
    log_tail, log_head = np.log(np.array([(1.0 - m2) / (1.0 - m1), m2 / m1])).tolist()
    lo, hi = 0.0, 1.0
    for _ in range(_X_STAR_STEPS):
        mid = 0.5 * (lo + hi)
        a, b, c, d = np.power(bases, np.array([1.0 - mid, mid, 1.0 - mid, mid])).tolist()
        if (a * b) * log_tail + (c * d) * log_head < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def stationarity_residual(x: float, inst: BanditInstance) -> float:
    """First-order optimality residual of the inner minimization at lambda_star.

    Evaluates ``(1-x) d'(lam, mu1) + x d'(lam, mu2)`` (derivatives in the
    first KL slot) at the odds-interpolated minimizer; the result is zero
    up to round-off for every interior allocation.
    """
    x = _check_allocation(x)
    if x == 0.0 or x == 1.0:
        raise ArgumentError("boundary allocations have no interior stationarity condition")
    lam = lambda_star(x, inst)
    lam_logit = mean_to_natural(lam)
    d1 = lam_logit - mean_to_natural(inst.mu1)
    d2 = lam_logit - mean_to_natural(inst.mu2)
    return (1.0 - x) * d1 + x * d2


def pinsker_like_bound_slack(p: float, q: float) -> float:
    """Slack of the bound ``d(p, q) >= p log(1/q) - log 2`` (never negative)."""
    return kl_bernoulli(p, q) - (p * math.log(1.0 / q) - _LOG2)


def rate_profile(inst: BanditInstance, x: float | None = None) -> RateProfile:
    """Bundle g, the inner minimizer, and the optimal allocation.

    When ``x`` is omitted the profile is evaluated at the optimum itself.
    """
    xs = x_star(inst)
    at = xs if x is None else _check_allocation(x)
    return RateProfile(
        g_value=g_closed(at, inst),
        lambda_min=lambda_star(at, inst),
        x_star=xs,
    )
