"""Sampling policies and the rules the engines share, over arrays of counts.

Built-in policies: deterministic alternation (``uniform``), the
largest-remainder schedule of a fixed arm-2 fraction (``static``), the
schedule tuned to the optimal allocation of a reference instance
(``oracle_static``), and an adaptive tracking rule with forced
exploration (``plugin_tracking``).  The final recommendation picks the
larger empirical mean and splits exact ties fairly.

Each rule has one implementation, used by the exact engine and Monte Carlo
alike: :func:`pick2_mass` is the fair-tie decision, :func:`arm2_count` the
arm-2 pulls of a fixed schedule (``exact.static_counts`` applies it), and
:func:`plugin_actions` the tracking rule; the package validates budgets with
:func:`check_budget`.
:func:`plugin_action_prob` and :func:`plugin_action_grid` call the tracking
rule for one state and one ``n1`` slice.  Tracking solves for no ``x*``:
``exp(-g)`` is strictly convex in the arm-2 share, so arm 1 is pulled iff
its slope at the share ``n2/t`` is ``>= 0`` (0 included).  Equal clamped
means pull the arm with fewer pulls, arm 2 on equal counts; forcing pulls
the arm with fewer pulls, arm 1 on equal counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
# x_star_grid is unused here; it stays a module attribute for benchmark tracing
from .rates import BanditInstance, exp_neg_g_slope, x_star, x_star_grid  # noqa: F401

__all__ = [
    "PolicySpec",
    "plugin_action_prob",
    "plugin_actions",
    "plugin_action_grid",
    "pick2_mass",
    "check_budget",
    "arm2_count",
    "covering_budget",
    "parse_policy",
]

POLICY_KINDS = ("uniform", "static", "oracle_static", "plugin_tracking")


@dataclass(frozen=True)
class PolicySpec:
    """Immutable description of a sampling policy; ``oracle_static`` sets ``x`` to ``x*(ref)``."""

    kind: str
    x: float | None = None
    ref: BanditInstance | None = None
    force_rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ArgumentError(f"unknown policy kind {self.kind!r}")
        if self.kind == "static":
            if self.x is None or math.isnan(self.x) or not 0.0 <= self.x <= 1.0:
                raise ArgumentError(f"static policy needs x in [0, 1], got {self.x!r}")
        if self.kind == "oracle_static":
            if self.ref is None or not self.ref.is_separated:
                raise ArgumentError("oracle_static needs a reference instance with distinct means")
            object.__setattr__(self, "x", x_star(self.ref))
        if self.kind == "plugin_tracking":
            fr = self.force_rate
            if fr is None or math.isnan(fr) or not 0.0 < fr <= 1.0:
                raise ArgumentError(f"plugin_tracking needs force_rate in (0, 1], got {fr!r}")

    @classmethod
    def uniform(cls) -> "PolicySpec":
        return cls(kind="uniform")

    @classmethod
    def static(cls, x: float) -> "PolicySpec":
        return cls(kind="static", x=float(x))

    @classmethod
    def oracle_static(cls, ref: BanditInstance) -> "PolicySpec":
        return cls(kind="oracle_static", ref=ref)

    @classmethod
    def plugin_tracking(cls, force_rate: float) -> "PolicySpec":
        return cls(kind="plugin_tracking", force_rate=float(force_rate))

    @property
    def description(self) -> str:
        """Round-trippable text form of the policy (the CLI syntax)."""
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "static":
            return f"static:{self.x}"
        if self.kind == "oracle_static":
            return f"oracle:{self.ref.mu1},{self.ref.mu2}"
        return f"plugin:{self.force_rate}"

    @property
    def deterministic_schedule(self) -> bool:
        """Whether the pull sequence depends only on the round index."""
        return self.kind != "plugin_tracking"

    def schedule_fraction(self) -> float:
        """Arm-2 fraction of the deterministic schedule."""
        if self.kind == "uniform":
            return 0.5
        if self.kind in ("static", "oracle_static"):
            return self.x
        raise ArgumentError(f"{self.kind} has no deterministic schedule")


def check_budget(T: int) -> int:
    """The budget as an int; it must be an integer of at least 2 and at most
    ``2**53``, the horizon of :func:`covering_budget`, past which budgets stop
    being exact in floating point."""
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)):
        raise ArgumentError(f"budget must be an integer, got {T!r}")
    if T < 2:
        raise ArgumentError(f"budget must be at least 2, got {T}")
    if T > 2**53:
        raise ArgumentError(f"budget must be at most 2**53, past which budgets stop being "
                            f"exact in floating point, got {T}")
    return int(T)


def arm2_count(x: float, T: int) -> int:
    """Total arm-2 pulls of the largest-remainder schedule over T rounds."""
    return math.floor(T * x)


def covering_budget(x: float) -> int:
    """Smallest budget at which the largest-remainder schedule of ``x``
    pulls both arms; every larger budget pulls both as well.

    Fractions outside ``[2**-53, 1)`` get no such budget up to ``2**53``,
    past which budgets stop being exact in floating point.
    """
    if not 2.0**-53 <= x < 1.0:
        raise ArgumentError(f"schedule x={x} samples both arms at no budget up to 2**53")
    # arm 1 is pulled at every budget >= 2; arm 2 first near T = 1/x
    T = max(2, math.ceil(1.0 / x) - 1)
    while arm2_count(x, T) < 1:
        T += 1
    return T


def plugin_action_prob(t: int, n1: int, s1: int, s2: int, force_rate: float) -> float:
    """:func:`plugin_actions` for one state.

    Raises ArgumentError on a state no run reaches: after round 2 both
    arms have at least one pull.
    """
    if t >= 2 and not 1 <= n1 <= t - 1:
        raise ArgumentError(f"tracking state t={t}, n1={n1} is unreachable: "
                            "after round 2 both arms have at least one pull")
    # a one-element array, so that the powers take numpy's array power (see plugin_actions)
    return float(np.ravel(plugin_actions(t, np.array([n1]), s1, s2, force_rate))[0])


def plugin_actions(t: int, n1, s1, s2, force_rate: float) -> np.ndarray | float:
    """Probability that the tracking rule pulls arm 1 in round ``t``, over
    integer count arrays: ``n1`` has the result's shape, and ``s1`` and ``s2``
    broadcast against it.

    Rounds 0 and 1 return the float 1.0 or 0.0: each arm is pulled once.
    Afterwards the arm with fewer pulls (arm 1 on equal counts) is forced
    with probability ``force_rate``.  Otherwise the empirical means are
    clamped to ``[1/(t+1), 1 - 1/(t+1)]`` and arm 1 is pulled iff the slope
    of ``exp(-g)`` of the clamped instance at the arm-2 share ``y = n2/t``
    is ``>= 0``, i.e. iff ``y >= x*``, a slope of exactly 0 included; equal
    clamped means pull the arm with fewer pulls, arm 2 on equal counts.
    """
    if t == 0:
        return 1.0
    if t == 1:
        return 0.0
    n2 = t - n1
    lo = 1.0 / (t + 1)
    hi = 1.0 - lo
    m1 = np.minimum(np.maximum(s1 / n1, lo), hi)
    m2 = np.minimum(np.maximum(s2 / n2, lo), hi)
    # The exponent y = n2/t is a full array, since n1 is: numpy takes a float or
    # broadcast exponent 0.5 as sqrt and numpy scalars to the C library's pow;
    # both can differ from the array power in the last bit and flip a slope
    # that is 0 up to rounding.
    track_arm1 = np.where(m1 == m2, n1 < n2, exp_neg_g_slope(m1, m2, n2 / t) >= 0.0)
    forced_arm1 = n1 <= n2
    return force_rate * forced_arm1 + (1.0 - force_rate) * track_arm1


def plugin_action_grid(
    t: int, n1: int, n_s1: int, n_s2: int, force_rate: float
) -> np.ndarray | float:
    """:func:`plugin_actions` over the full (s1, s2) grid of one ``n1`` slice.

    The exact engine calls :func:`plugin_actions` once per group of slices on
    flat counts; this per-slice form serves the tests' reference DP and
    benchmark tracing, which counts its calls by grid size."""
    return plugin_actions(t, np.full((n_s1, n_s2), n1), np.arange(n_s1)[:, None],
                          np.arange(n_s2)[None, :], force_rate)


def pick2_mass(s1, n1, s2, n2, out=None) -> np.ndarray:
    """The fair-tie decision over count arrays: mass of picking arm 2, by int64
    cross-multiplication of the empirical means.

    1 where ``s2/n2 > s1/n1``, 1/2 on an exact tie, else 0.  This is the error
    mass when arm 1 is best; one minus it is the error mass when arm 2 is best.

    Without ``out`` the counts broadcast against each other and are left as
    they are.  With ``out``, a float64 array that receives the masses, ``s1``
    and ``s2`` must be int64 arrays of its shape, which serve as scratch and
    are overwritten; nothing is allocated.  ``out`` may share ``s1``'s memory
    (a float64 view of it), since ``s1`` is last read before ``out`` is
    written.  The in-place form takes the sign of the cross-product difference
    ``s2·n1 − s1·n2`` and maps -1, 0, 1 to 0, 1/2, 1 as ``(sign + 1) * 0.5``,
    exactly the same values.  Both products are non-negative int64, so their
    difference cannot overflow.
    """
    if out is None:
        lhs = np.asarray(s1, dtype=np.int64) * n2
        rhs = np.asarray(s2, dtype=np.int64) * n1
        return (rhs > lhs) + 0.5 * (rhs == lhs)
    s1 *= n2
    s2 *= n1
    s2 -= s1
    # the sign in int64, then one cast copy: a sign written straight to float64
    # would cast through a buffer of numpy's own
    np.sign(s2, out=s2)
    np.copyto(out, s2)
    out += 1.0
    out *= 0.5
    return out


def parse_policy(text: str) -> PolicySpec:
    """Parse the CLI policy syntax.

    ``uniform`` | ``static:0.3`` | ``oracle:0.9,0.5`` | ``plugin:0.1``
    """
    name, _, arg = text.strip().partition(":")
    try:
        if name == "uniform":
            if arg:
                raise ArgumentError("uniform takes no parameter")
            return PolicySpec.uniform()
        if name == "static":
            return PolicySpec.static(float(arg))
        if name == "oracle":
            mu1, mu2 = (float(v) for v in arg.split(","))
            return PolicySpec.oracle_static(BanditInstance(mu1, mu2))
        if name == "plugin":
            return PolicySpec.plugin_tracking(float(arg))
    except (ValueError, TypeError) as exc:
        raise ArgumentError(f"malformed policy {text!r}: {exc}") from None
    raise ArgumentError(
        f"unknown policy {text!r}; expected uniform | static:X | oracle:MU1,MU2 | plugin:RATE"
    )
