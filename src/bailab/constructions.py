"""Constructive instance builders and the inequalities behind them.

Two constructors produce certified instances: :func:`construct_dual_instance`
pins the inner minimizer at a requested value while pulling the optimal
allocation strictly below the midpoint between 1/2 and the requested
allocation, and :func:`construct_beating_instance` extends it (by a
complement-and-swap mirror) to every non-uniform allocation, delivering an
instance where that allocation is strictly beaten by uniform sampling.
Certificates carry the numbers needed to re-verify them with the primal
rate functions alone.

The remaining operations quantify why the constructions work: the
asymmetry of the rate function around its maximizer on the upper
half-region, and the odds inequality it rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .dual import mean_to_natural, natural_to_mean, phi_second, phi_second_range
from .errors import ArgumentError, ConstructionError
from .rates import BanditInstance, _check_allocation, g_closed, lambda_star, x_star

__all__ = [
    "ConstructionCase",
    "ConstructionCertificate",
    "AsymmetryGap",
    "construct_dual_instance",
    "construct_beating_instance",
    "find_halfdisk_delta",
    "asymmetry_gap",
    "check_odds_inequality",
]

# Certificate tolerances: the minimizer must hit its target to 1e-9; the
# sum-of-means condition holds exactly in real arithmetic and is checked
# with one representation-rounding allowance.
RESIDUAL_TOL = 1e-9
SUM_TOL = 1e-12

# Log-odds of the largest double below 1: natural_to_mean rounds every
# larger natural parameter to a mean of exactly 1.
_MAX_LOG_ODDS = mean_to_natural(math.nextafter(1.0, 0.0))


class ConstructionCase(str, Enum):
    NEGATIVE_ALPHA = "negative_alpha"
    HALF_DISK = "half_disk"
    MIRRORED = "mirrored"


@dataclass(frozen=True)
class ConstructionCertificate:
    """A constructed instance together with its verification numbers.

    ``x_star_value`` and ``x_tilde`` always refer to the canonical
    (unmirrored) orientation; ``delta`` and ``s`` are present for
    half-disk constructions only.  ``unmirrored`` is set for mirrored
    constructions only: it is the canonical instance that was built and
    verified, and it is left out of :meth:`to_json_dict`.
    """

    instance: BanditInstance
    a_target: float
    x_input: float
    case_used: ConstructionCase
    residual_lambda: float
    x_star_value: float
    x_tilde: float
    delta: float | None = None
    s: float | None = None
    unmirrored: BanditInstance | None = None

    def canonical(self) -> tuple[BanditInstance, float, float]:
        """Instance, allocation, and target in the unmirrored orientation.

        For a mirrored certificate the instance is the one that was built
        and verified, not a complement of the delivered instance: the
        complement of a mean near 0 loses its tail in floating point.
        """
        if self.case_used is ConstructionCase.MIRRORED:
            return self.unmirrored, 1.0 - self.x_input, 1.0 - self.a_target
        return self.instance, self.x_input, self.a_target

    def to_json_dict(self) -> dict:
        return {
            "instance": {"mu1": self.instance.mu1, "mu2": self.instance.mu2},
            "a_target": self.a_target,
            "x_input": self.x_input,
            "case_used": self.case_used.value,
            "residual_lambda": self.residual_lambda,
            "x_star_value": self.x_star_value,
            "x_tilde": self.x_tilde,
            "delta": self.delta,
            "s": self.s,
        }


class AsymmetryGap(NamedTuple):
    gap: float
    m_value: float
    f_value: float
    f_prime: float


def _check_target(a: float) -> float:
    if math.isnan(a) or not 0.0 < a < 1.0:
        raise ArgumentError(f"target must lie strictly inside (0, 1), got {a!r}")
    return float(a)


def find_halfdisk_delta(alpha: float, x_tilde: float, resolution: float = 1e-6) -> float:
    """Radius of a half-disk on which the dual dominance inequality holds.

    Returns the largest ``delta`` found at the given resolution such that
    ``phi''`` stays strictly inside the band
    ``(phi''(alpha)/(4 x_tilde^2), phi''(alpha)/(4 (1-x_tilde)^2))``
    on ``[alpha - delta, alpha + delta]``.  On any interval inside that
    band, ``min phi'' * x_tilde^2 > max phi'' * (1-x_tilde)^2``, which is
    the sufficient condition the half-disk case needs.  No maximality is
    claimed beyond the bisection resolution.
    """
    if not 0.5 < x_tilde < 1.0:
        raise ArgumentError(f"x_tilde must lie in (1/2, 1), got {x_tilde!r}")
    if math.isnan(alpha) or alpha < 0.0:
        raise ArgumentError(f"alpha must be nonnegative, got {alpha!r}")
    center = phi_second(alpha)
    band_lo = center / (4.0 * x_tilde * x_tilde)
    band_hi = center / (4.0 * (1.0 - x_tilde) * (1.0 - x_tilde))

    def ok(delta: float) -> bool:
        mn, mx = phi_second_range(alpha - delta, alpha + delta)
        return band_lo < mn and mx < band_hi

    lo, hi = 0.0, 1.0
    while ok(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0**40:
            return lo
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    if lo <= 0.0:
        # band narrower than the resolution; fall back to geometric shrink
        delta = hi
        while delta > 0.0 and not ok(delta):
            delta *= 0.5
        if delta <= 0.0:
            raise ConstructionError("no positive half-disk radius found")
        lo = delta
    return lo


def _solve_arm2(a: float, x: float, mu1: float) -> float:
    """Arm-2 mean that puts the inner minimizer at allocation ``x`` on ``a``
    given the stored arm-1 mean, solved against its exact log-odds."""
    return natural_to_mean((mean_to_natural(a) - (1.0 - x) * mean_to_natural(mu1)) / x)


def _certify(
    inst: BanditInstance,
    a: float,
    x: float,
    case: ConstructionCase,
    x_tilde: float,
    delta: float | None,
    s: float | None,
) -> ConstructionCertificate:
    # independent primal re-verification of conditions (i)-(iii)
    if not inst.mu1 > inst.mu2:
        raise ConstructionError(f"constructed instance is not best-arm-first: {inst}")
    if inst.mu1 + inst.mu2 < 1.0 - SUM_TOL:
        raise ConstructionError(f"constructed instance left the upper half-region: {inst}")
    residual = abs(lambda_star(x, inst) - a)
    if residual > RESIDUAL_TOL:
        raise ConstructionError(f"minimizer missed its target by {residual:.3e}")
    xs = x_star(inst)
    if not xs < x_tilde:
        raise ConstructionError(f"optimal allocation {xs} not below {x_tilde}")
    return ConstructionCertificate(
        instance=inst,
        a_target=a,
        x_input=x,
        case_used=case,
        residual_lambda=residual,
        x_star_value=xs,
        x_tilde=x_tilde,
        delta=delta,
        s=s,
    )


def construct_dual_instance(a: float, x: float) -> ConstructionCertificate:
    """Build a best-arm-first instance in the upper half-region whose inner
    minimizer at allocation ``x`` equals ``a`` and whose optimal allocation
    lies strictly below ``(1/2 + x)/2``.

    The instance is built in natural parameters: an antisymmetric pair
    when the target's log-odds ``alpha`` is negative, and a point of the
    half-disk around ``(alpha, alpha)`` intersected with the constraint
    line otherwise (offset fixed at ``s = delta/(2x)`` for determinism).
    The pair's ``xi1 = |alpha|/(2x-1)`` grows as ``x`` nears 1/2, and
    ``mu1`` then keeps too few digits of its distance to 1 for the
    minimizer to hit ``a``.  Where the pair misses ``RESIDUAL_TOL`` the
    stored ``mu1`` is kept and ``mu2`` is solved against its exact
    log-odds ("snap then solve").  Where ``mu1`` rounds to 1 no instance
    exists in floating point, and an ArgumentError names the smallest
    ``|x - 1/2|`` that the target admits.  The certificate is verified
    with the primal rate functions before it is returned.
    """
    a = _check_target(a)
    if math.isnan(x) or not 0.5 < x <= 1.0:
        raise ArgumentError(f"allocation must lie in (1/2, 1], got {x!r}")
    alpha = mean_to_natural(a)
    x_tilde = 0.5 * (0.5 + x)
    if alpha < 0.0:
        spread = alpha / (2.0 * x - 1.0)
        xi1, xi2 = -spread, spread
        case, delta, s = ConstructionCase.NEGATIVE_ALPHA, None, None
        if natural_to_mean(xi1) == 1.0:
            raise ArgumentError(
                f"|x - 1/2| = {abs(x - 0.5):.6g} leaves no representable instance for "
                f"a target with log-odds of magnitude {-alpha:.6g}: mu1 rounds to 1; "
                f"|x - 1/2| must exceed {-alpha / (2.0 * _MAX_LOG_ODDS):.6g}"
            )
    else:
        delta = find_halfdisk_delta(alpha, x_tilde)
        s = delta / (2.0 * x)
        xi1 = alpha + x * s
        xi2 = alpha - (1.0 - x) * s
        case = ConstructionCase.HALF_DISK
    inst = BanditInstance(natural_to_mean(xi1), natural_to_mean(xi2))
    if abs(lambda_star(x, inst) - a) > RESIDUAL_TOL:
        inst = BanditInstance(inst.mu1, _solve_arm2(a, x, inst.mu1))
    return _certify(inst, a, x, case, x_tilde, delta, s)


def construct_beating_instance(a: float, x: float) -> ConstructionCertificate:
    """Instance on which allocation ``x`` is strictly beaten by uniform
    sampling while the inner minimizer at ``x`` is pinned to ``a``.

    Allocations above 1/2 delegate to :func:`construct_dual_instance`.
    Allocations below 1/2 build the mirror problem ``(1-a, 1-x)`` and map
    the result through the complement-and-swap transformation
    ``mu -> (1-mu2, 1-mu1)``, which preserves the best-arm-first
    orientation and carries the rate function across symmetrically.  The
    complement of a mean within ~1e-8 of 0 loses its tail; where the
    mirrored minimizer then misses ``RESIDUAL_TOL``, the small mean is
    solved again against the stored large one.  The certificate keeps the
    verified mirror-problem instance for :meth:`ConstructionCertificate.canonical`.
    Allocations too close to 1/2 for any representable instance raise the
    ArgumentError of :func:`construct_dual_instance`.
    """
    a = _check_target(a)
    x = _check_allocation(x)
    if x == 0.5:
        raise ArgumentError("no beating instance exists at the uniform allocation")
    if x > 0.5:
        cert = construct_dual_instance(a, x)
    else:
        base = construct_dual_instance(1.0 - a, 1.0 - x)
        nu = base.instance
        mirrored = BanditInstance(1.0 - nu.mu2, 1.0 - nu.mu1)
        if abs(lambda_star(x, mirrored) - a) > RESIDUAL_TOL:
            mirrored = BanditInstance(mirrored.mu1, _solve_arm2(a, x, mirrored.mu1))
        residual = abs(lambda_star(x, mirrored) - a)
        if residual > RESIDUAL_TOL:
            raise ConstructionError(f"mirrored minimizer missed its target by {residual:.3e}")
        cert = replace(
            base,
            instance=mirrored,
            a_target=a,
            x_input=x,
            case_used=ConstructionCase.MIRRORED,
            residual_lambda=residual,
            unmirrored=nu,
        )
    gap = g_closed(0.5, cert.instance) - g_closed(x, cert.instance)
    if gap == 0.0:
        raise ArgumentError(f"the gap g(1/2) - g(x) at a={a}, |x - 1/2|={abs(x - 0.5):.6g} "
                            "is not representable: both rates round to the same double")
    if not gap > 0.0:
        raise ConstructionError(f"uniform does not strictly beat x={x}: gap={gap:.3e}")
    return cert


def asymmetry_gap(inst: BanditInstance, delta: float) -> AsymmetryGap:
    """Asymmetry of the rate function around its maximizer on the upper
    half-region, together with the quantities proving it one-sided.

    For ``mu1 > mu2`` with ``mu1 + mu2 >= 1`` returns the nonnegative gap
    ``g(x*-delta) - g(x*+delta)``, the shared value ``M`` of the two
    stationarity expressions at the maximizer (both are evaluated and must
    agree to 1e-9), and the difference ``f`` of ``exp(-g)`` across the
    maximizer with its closed-form derivative, both nonnegative.
    """
    m1, m2 = inst.mu1, inst.mu2
    if not (m1 > m2 and m1 + m2 >= 1.0):
        raise ArgumentError(
            f"instance must satisfy mu1 > mu2 and mu1 + mu2 >= 1, got ({m1}, {m2})"
        )
    if not delta > 0.0:
        raise ArgumentError(f"delta must be positive, got {delta!r}")
    xs = x_star(inst, tol=1e-12)
    if delta > min(xs, 1.0 - xs) + 1e-12:
        raise ArgumentError(
            f"delta={delta} exceeds min(x*, 1-x*)={min(xs, 1.0 - xs)} for {inst}"
        )
    x_lo = max(0.0, xs - delta)
    x_hi = min(1.0, xs + delta)
    gap = g_closed(x_lo, inst) - g_closed(x_hi, inst)

    log_head = math.log(m1 / m2)
    log_tail = math.log((1.0 - m2) / (1.0 - m1))
    tail = (1.0 - m1) ** (1.0 - xs) * (1.0 - m2) ** xs
    head = m1 ** (1.0 - xs) * m2 ** xs
    m_first = tail / log_head
    m_second = head / log_tail
    if abs(m_first - m_second) > 1e-9:
        raise ConstructionError(
            f"stationarity expressions disagree: {m_first!r} vs {m_second!r}"
        )
    m_value = 0.5 * (m_first + m_second)

    f_value = math.exp(-g_closed(x_hi, inst)) - math.exp(-g_closed(x_lo, inst))
    ratio_tail = (1.0 - m2) / (1.0 - m1)
    ratio_head = m1 / m2
    f_prime = (
        m_value
        * log_head
        * log_tail
        * (
            ratio_tail**delta
            + ratio_tail**-delta
            - ratio_head**delta
            - ratio_head**-delta
        )
    )
    return AsymmetryGap(gap, m_value, f_value, f_prime)


def check_odds_inequality(inst: BanditInstance) -> bool:
    """Whether ``(1-mu2)/(1-mu1) >= mu1/mu2``, evaluated exactly.

    The comparison is done in rational arithmetic on the binary values of
    the means, so the answer is the mathematical truth for the instance as
    stored; it is guaranteed on the exact region ``mu1 > mu2``,
    ``mu1 + mu2 >= 1``.
    """
    m1 = Fraction(inst.mu1)
    m2 = Fraction(inst.mu2)
    return (1 - m2) * m2 >= (1 - m1) * m1
