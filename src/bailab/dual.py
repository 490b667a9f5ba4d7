"""Natural-parameter (dual) geometry of Bernoulli instances.

A Bernoulli mean ``p`` corresponds to the natural parameter
``xi = log(p/(1-p))`` through the cumulant potential
``phi(xi) = log(1 + e^xi)``.  In these coordinates the KL divergence
becomes the Bregman divergence of ``phi``, the inner minimizer of the
rate objective becomes a linear interpolation, and the optimal
allocation has a closed form through the chord slope of ``phi``.  This
module supplies the potential, its Bregman divergence, the dual rate
objects and the Taylor bracket used by the half-disk construction.  The
conversions :func:`mean_to_natural` and :func:`natural_to_mean` are
defined in :mod:`bailab.rates` and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArgumentError, DomainError
from .rates import BanditInstance, _check_allocation, mean_to_natural, natural_to_mean

__all__ = [
    "NaturalInstance",
    "Potential",
    "DualRateObjects",
    "TaylorBracket",
    "mean_to_natural",
    "natural_to_mean",
    "potential",
    "phi_second",
    "phi_second_range",
    "bregman",
    "dual_rate_objects",
    "taylor_bracket_check",
]


class Potential(NamedTuple):
    phi: float
    phi_prime: float
    phi_second: float


class DualRateObjects(NamedTuple):
    lambda_bar: float
    eta: float
    x_star_dual: float


class TaylorBracket(NamedTuple):
    ratio: float
    lo: float
    hi: float


@dataclass(frozen=True)
class NaturalInstance:
    """A pair of natural parameters (log-odds of the means)."""

    xi1: float
    xi2: float

    def __post_init__(self) -> None:
        for name in ("xi1", "xi2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            v = float(v)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def is_separated(self) -> bool:
        return self.xi1 != self.xi2

    @classmethod
    def from_means(cls, inst: BanditInstance) -> "NaturalInstance":
        return cls(mean_to_natural(inst.mu1), mean_to_natural(inst.mu2))

    def to_means(self) -> BanditInstance:
        return BanditInstance(natural_to_mean(self.xi1), natural_to_mean(self.xi2))


def phi_second(xi: float) -> float:
    """Second derivative of the potential, written symmetrically.

    ``e^xi / (1+e^xi)^2`` equals ``(1/2 / cosh(xi/2))^2``, which is even
    in ``xi`` by construction.  It underflows to exactly 0.0 from |xi|
    of about 745.13 on, and is returned as 0.0 for |xi| > 1000, where
    ``cosh`` would overflow (from about 1420.95).
    """
    if abs(xi) > 1000.0:
        return 0.0
    t = 0.5 / math.cosh(0.5 * xi)
    return t * t


def potential(xi: float) -> Potential:
    """The potential ``log(1 + e^xi)`` with its first two derivatives.

    Overflow-safe: for positive arguments the potential is computed as
    ``xi + log1p(e^-xi))``.  The second derivative lies in (0, 1/4].
    """
    if not math.isfinite(xi):
        raise DomainError(f"natural parameter must be finite, got {xi!r}")
    if xi >= 0.0:
        phi = xi + math.log1p(math.exp(-xi))
    else:
        phi = math.log1p(math.exp(xi))
    return Potential(phi, natural_to_mean(xi), phi_second(xi))


def phi_second_range(lo: float, hi: float) -> tuple[float, float]:
    """Exact min and max of ``phi''`` over the closed interval [lo, hi].

    Uses the shape of the logistic variance: increasing on the negative
    axis, decreasing on the positive axis, peak 1/4 at zero.  No grids.
    """
    if lo > hi:
        raise ArgumentError(f"empty interval [{lo}, {hi}]")
    at_lo, at_hi = phi_second(lo), phi_second(hi)
    minimum = min(at_lo, at_hi)
    maximum = 0.25 if lo <= 0.0 <= hi else max(at_lo, at_hi)
    return minimum, maximum


def bregman(alpha: float, beta: float) -> float:
    """Bregman divergence of the potential: ``phi(a) - phi(b) - (a-b) phi'(b)``.

    Nonnegative by convexity and zero exactly on the diagonal; for
    natural parameters of means it reproduces the Bernoulli KL divergence
    with swapped arguments.
    """
    pa = potential(alpha)
    pb = potential(beta)
    return pa.phi - pb.phi - (alpha - beta) * pb.phi_prime


def dual_rate_objects(x: float, nat: NaturalInstance) -> DualRateObjects:
    """Inner minimizer, chord-slope parameter, and optimal allocation in dual form.

    ``lambda_bar`` is the linear interpolation of the natural parameters,
    ``eta`` the natural parameter whose mean equals the chord slope of the
    potential between them, and ``x_star_dual = (xi1 - eta)/(xi1 - xi2)``,
    always strictly inside (0, 1).
    """
    x = _check_allocation(x)
    if not nat.is_separated:
        raise DomainError("dual-degenerate instance: xi1 == xi2")
    xi1, xi2 = nat.xi1, nat.xi2
    lambda_bar = (1.0 - x) * xi1 + x * xi2
    slope = (potential(xi1).phi - potential(xi2).phi) / (xi1 - xi2)
    if not 0.0 < slope < 1.0:
        raise DomainError(
            f"chord slope {slope!r} left (0, 1); the natural parameters are too extreme"
        )
    eta = mean_to_natural(slope)
    return DualRateObjects(lambda_bar, eta, (xi1 - eta) / (xi1 - xi2))


def taylor_bracket_check(alpha: float, beta: float) -> TaylorBracket:
    """Second-order Taylor bracket on the Bregman divergence.

    Returns ``ratio = 2 bregman(alpha, beta) / (alpha - beta)^2`` together
    with the exact extremes of ``phi''`` over the interval between the
    arguments; the mean-value form of the divergence pins the ratio
    between them.
    """
    if alpha == beta:
        raise ArgumentError("ratio undefined for equal arguments")
    ratio = 2.0 * bregman(alpha, beta) / (alpha - beta) ** 2
    lo, hi = phi_second_range(min(alpha, beta), max(alpha, beta))
    return TaylorBracket(ratio, lo, hi)
