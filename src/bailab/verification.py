"""Randomized property suites behind the ``verify`` command.

Each suite re-checks the numeric guarantees of one module on freshly
sampled inputs and reports the worst case it saw.  The suites are
deliberately independent of the code paths they check: closed forms are
compared against direct minimization, dual quantities against primal
ones, certificates against primal re-verification, and the
change-of-measure inequality against exact evaluation on both sides.

The iterative oracles of :mod:`bailab.rates` live here, apart from the
library: :func:`minimize_rate_objective` (golden section) and
:func:`fd_argmin` (sign bisection), both over broadcastable arrays of
allocations and means.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import constructions, dual, exact, rates
from .errors import ArgumentError
from .policies import PolicySpec, covering_budget

__all__ = ["PropertyResult", "SUITES", "fd_argmin", "minimize_rate_objective", "run_suites"]


@dataclass
class PropertyResult:
    """Outcome of one property check over a sample sweep."""

    name: str
    samples: int
    worst: float
    bound: float
    passed: bool
    witness: dict = field(default_factory=dict)


_RULES = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


class _Check:
    """One property over a sample sweep: its name, its pass rule ``worst <rule> bound``,
    and the worst value seen with the inputs that hit it.  Under ``<=`` or ``<`` the
    largest value is the worst; under ``>=`` or ``>``, the smallest.  A NaN is worse
    than any number and stays the worst, with the first NaN's inputs, so the check
    fails: no rule holds for a NaN."""

    def __init__(self, name: str, rule: str, bound: float):
        self.name, self.rule, self.bound = name, rule, bound
        self.largest = rule in ("<=", "<")
        self.value = -math.inf if self.largest else math.inf
        self.witness: dict = {}

    def update(self, value: float, **witness) -> None:
        if math.isnan(self.value):
            return
        if math.isnan(value) or ((value > self.value) if self.largest else (value < self.value)):
            self.value = value
            self.witness = witness

    def result(self, samples: int) -> PropertyResult:
        return PropertyResult(
            name=self.name, samples=samples, worst=self.value, bound=self.bound,
            passed=_RULES[self.rule](self.value, self.bound), witness=self.witness,
        )


def _random_instance(rng, lo=0.05, hi=0.95, min_gap=0.01) -> rates.BanditInstance:
    while True:
        m1, m2 = rng.uniform(lo, hi, size=2)
        if abs(m1 - m2) >= min_gap:
            return rates.BanditInstance(m1, m2)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_WIDTH = 1e-10  # bracket width at which the golden section stops
_FD_STEP = 1e-7  # half-step of fd_argmin's centered difference


def _oracle_inputs(x, mu1, mu2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, mu1, mu2)`` as float arrays of one shape; allocations must lie in [0, 1]."""
    x, m1, m2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, mu1, mu2)))
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ArgumentError("allocations must lie in [0, 1]")
    return x, m1, m2


def _kl_mixture(lam, x, m1, m2):
    """``(1-x) d(lam, m1) + x d(lam, m2)``, unchecked: the oracles keep ``lam`` inside (0, 1)."""
    rest = 1.0 - lam
    d1 = lam * np.log(lam / m1) + rest * np.log(rest / (1.0 - m1))
    d2 = lam * np.log(lam / m2) + rest * np.log(rest / (1.0 - m2))
    return (1.0 - x) * d1 + x * d2


def minimize_rate_objective(x, mu1, mu2) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minimization of the KL-mixture objective in lambda, over
    broadcastable arrays: ``(lambda_min, value)``, the value being the oracle
    for :func:`rates.g_closed`.

    Each KL term is monotone in lambda outside the two means, so the search
    bracket is ``[min(mu), max(mu)]``.  Each element stops once its bracket
    is at most ``_GOLDEN_WIDTH`` wide; one that starts so narrow returns its
    midpoint.
    """
    x, m1, m2 = _oracle_inputs(x, mu1, mu2)
    a, b = np.minimum(m1, m2), np.maximum(m1, m2)
    h = b - a
    c, d = b - _INV_PHI * h, a + _INV_PHI * h
    active = h > _GOLDEN_WIDTH
    while np.any(active):
        lower = _kl_mixture(c, x, m1, m2) < _kl_mixture(d, x, m1, m2)  # minimum in [a, d]
        b = np.where(active & lower, d, b)
        a = np.where(active & ~lower, c, a)
        h = b - a
        c, d = np.where(lower, b - _INV_PHI * h, d), np.where(lower, c, a + _INV_PHI * h)
        active = h > _GOLDEN_WIDTH
    lam = 0.5 * (a + b)
    return lam, _kl_mixture(lam, x, m1, m2)


def fd_argmin(x, mu1, mu2) -> np.ndarray:
    """Inner argmin by sign bisection on the centered difference of the
    mixture objective, over broadcastable arrays.

    Value-comparison minimizers (golden section) cannot resolve an argmin
    below ~sqrt(eps/curvature), about 1.5e-8 here; the sign of
    ``F(lam+h) - F(lam-h)`` stays informative down to ~1e-9, which the
    1e-8 comparisons need.  Boundary allocations pin the minimizer at the
    sampled mean, and means closer than ``2h`` give their midpoint.
    """
    x, m1, m2 = _oracle_inputs(x, mu1, mu2)
    lo = np.minimum(m1, m2) + _FD_STEP
    hi = np.maximum(m1, m2) - _FD_STEP
    collapsed = lo >= hi
    # collapsed brackets are replaced below; bisect them at 1/2, inside (0, 1)
    lo, hi = np.where(collapsed, 0.5, lo), np.where(collapsed, 0.5, hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        up = _kl_mixture(mid + _FD_STEP, x, m1, m2) - _kl_mixture(mid - _FD_STEP, x, m1, m2)
        lo, hi = np.where(up < 0.0, mid, lo), np.where(up < 0.0, hi, mid)
    lam = np.where(collapsed, 0.5 * (m1 + m2), 0.5 * (lo + hi))
    return np.where(x == 0.0, m1, np.where(x == 1.0, m2, lam))


def suite_rates(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    closed_vs_min = _Check("g closed form vs direct minimization", "<=", 1e-6)
    argmin_vs_lambda = _Check("inner argmin vs lambda_star", "<=", 1e-8)
    stationarity = _Check("stationarity residual at lambda_star", "<=", 1e-8)
    cases = [(_random_instance(rng, min_gap=0.0), float(rng.uniform(0.0, 1.0)))
             for _ in range(samples)]
    xs, m1, m2 = np.array([(x, inst.mu1, inst.mu2) for inst, x in cases]).T
    g_min = minimize_rate_objective(xs, m1, m2)[1].tolist()
    lam_fd = fd_argmin(xs, m1, m2).tolist()
    for (inst, x), gm, lam in zip(cases, g_min, lam_fd):
        closed_vs_min.update(abs(rates.g_closed(x, inst) - gm), mu1=inst.mu1, mu2=inst.mu2, x=x)
        argmin_vs_lambda.update(abs(lam - rates.lambda_star(x, inst)),
                                mu1=inst.mu1, mu2=inst.mu2, x=x)
        if 0.0 < x < 1.0:
            stationarity.update(
                abs(rates.stationarity_residual(x, inst)), mu1=inst.mu1, mu2=inst.mu2, x=x
            )
    out += [c.result(samples) for c in (closed_vs_min, argmin_vs_lambda, stationarity)]

    concavity = _Check("strict concavity (central second differences)", "<", 0.0)
    positivity = _Check("positivity of g on interior allocations", ">", 0.0)
    h = 1e-4
    for _ in range(samples):
        inst = _random_instance(rng)
        x = float(rng.uniform(0.05, 0.95))
        second = (
            rates.g_closed(x + h, inst)
            - 2.0 * rates.g_closed(x, inst)
            + rates.g_closed(x - h, inst)
        ) / (h * h)
        concavity.update(second, mu1=inst.mu1, mu2=inst.mu2, x=x)
        positivity.update(rates.g_closed(x, inst), mu1=inst.mu1, mu2=inst.mu2, x=x)
    out += [concavity.result(samples), positivity.result(samples)]

    swap = _Check("swap symmetry on dyadic allocations (exact)", "<=", 0.0)
    dyadic = [k / 32.0 for k in range(33)]
    for _ in range(max(1, samples // 8)):
        inst = _random_instance(rng, min_gap=0.0)
        swapped = inst.swapped()
        for x in dyadic:
            swap.update(
                abs(rates.g_closed(x, inst) - rates.g_closed(1.0 - x, swapped)),
                mu1=inst.mu1, mu2=inst.mu2, x=x, quantity="g",
            )
            swap.update(
                abs(rates.lambda_star(x, inst) - rates.lambda_star(1.0 - x, swapped)),
                mu1=inst.mu1, mu2=inst.mu2, x=x, quantity="lambda",
            )
    out.append(swap.result(max(1, samples // 8) * len(dyadic)))

    pinsker = _Check("lower-bound slack d(p,q) - (p log(1/q) - log 2)", ">=", 0.0)
    for _ in range(samples):
        p = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.01, 0.99))
        pinsker.update(rates.pinsker_like_bound_slack(p, q), p=p, q=q)
    out.append(pinsker.result(samples))
    return out


def suite_dual(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    kl_breg = _Check("KL vs Bregman identity", "<=", 1e-10)
    lam_pair = _Check("inner minimizer: dual line vs odds interpolation", "<=", 1e-10)
    xstar_pair = _Check("optimal allocation: dual form vs bisection", "<=", 1e-8)
    for _ in range(samples):
        inst = _random_instance(rng)
        nat = dual.NaturalInstance.from_means(inst)
        x = float(rng.uniform(0.0, 1.0))
        kl_breg.update(
            abs(rates.kl_bernoulli(inst.mu1, inst.mu2) - dual.bregman(nat.xi2, nat.xi1)),
            mu1=inst.mu1, mu2=inst.mu2,
        )
        objs = dual.dual_rate_objects(x, nat)
        lam_pair.update(
            abs(dual.natural_to_mean(objs.lambda_bar) - rates.lambda_star(x, inst)),
            mu1=inst.mu1, mu2=inst.mu2, x=x,
        )
        xstar_pair.update(
            abs(objs.x_star_dual - rates.x_star(inst)), mu1=inst.mu1, mu2=inst.mu2
        )
    out += [c.result(samples) for c in (kl_breg, lam_pair, xstar_pair)]

    taylor = _Check("Taylor bracket on the Bregman divergence", ">=", 0.0)
    for _ in range(samples):
        alpha = float(rng.uniform(-6.0, 6.0))
        gap = float(rng.uniform(1e-3, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        beta = alpha + gap
        ratio, lo, hi = dual.taylor_bracket_check(alpha, beta)
        taylor.update(min(ratio - lo, hi - ratio), alpha=alpha, beta=beta)
    out.append(taylor.result(samples))

    mismatches = _Check("half-region condition: primal vs dual form", "<=", 0.0)
    mismatches.update(0.0)
    for _ in range(samples):
        inst = _random_instance(rng, min_gap=0.0)
        nat = dual.NaturalInstance.from_means(inst)
        primal = inst.mu1 > inst.mu2 and inst.mu1 + inst.mu2 >= 1.0
        dual_side = nat.xi1 > nat.xi2 and nat.xi1 >= -nat.xi2
        if primal != dual_side:
            mismatches.update(1.0, mu1=inst.mu1, mu2=inst.mu2)
    out.append(mismatches.result(samples))
    return out


def _reverify_certificate(cert: constructions.ConstructionCertificate) -> dict[str, float]:
    """Primal-only re-verification; returns the margins of every condition."""
    inst, x, a = cert.canonical()
    x_tilde = 0.5 * (0.5 + x)
    final_inst, final_x, final_a = cert.instance, cert.x_input, cert.a_target
    return {
        "residual": max(abs(rates.lambda_star(final_x, final_inst) - final_a),
                        abs(rates.lambda_star(x, inst) - a)),
        "orientation": inst.mu1 - inst.mu2,
        "half_region": inst.mu1 + inst.mu2 - 1.0,
        "x_star_margin": x_tilde - rates.x_star(inst),
        "gap": rates.g_closed(0.5, final_inst) - rates.g_closed(final_x, final_inst),
    }


def suite_constructions(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    checks = {
        "residual": _Check("certificate minimizer residual", "<=", 1e-9),
        "orientation": _Check("certificate orientation mu1 > mu2 (canonical)", ">", 0.0),
        "half_region": _Check("certificate half-region mu1 + mu2 >= 1 (canonical)", ">=", -1e-12),
        "x_star_margin": _Check("certificate optimum below the midpoint allocation", ">", 0.0),
        "gap": _Check("uniform strictly beats the constructed allocation", ">", 0.0),
    }
    for k in range(samples):
        a = float(rng.uniform(0.05, 0.95))
        if k % 2 == 0:
            x = float(rng.uniform(0.55, 1.0))
            cert = constructions.construct_dual_instance(a, x)
        else:
            x = float(rng.uniform(0.05, 0.45))
            if rng.uniform() < 0.5:
                x = 1.0 - x
            cert = constructions.construct_beating_instance(a, x)
        margins = _reverify_certificate(cert)
        where = {"a": a, "x": x, "case": cert.case_used.value}
        for key, check in checks.items():
            check.update(margins[key], **where)
    return [check.result(samples) for check in checks.values()]


def suite_asymmetry(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    gap = _Check("one-sided gap across the optimum", ">=", -1e-12)
    f_value = _Check("nonnegative f across the optimum", ">=", -1e-12)
    f_prime = _Check("nonnegative f' (closed form)", ">=", -1e-12)
    m_agree = _Check("agreement of the two stationarity expressions", "<=", 1e-9)
    count = 0
    while count < samples:
        m1 = float(rng.uniform(0.52, 0.97))
        m2 = float(rng.uniform(1.0 - m1, m1 - 0.01))
        inst = rates.BanditInstance(m1, m2)
        if not (inst.mu1 > inst.mu2 and inst.mu1 + inst.mu2 >= 1.0):
            continue
        count += 1
        xs = rates.x_star(inst)
        delta = float(rng.uniform(0.05, 1.0)) * min(xs, 1.0 - xs)
        res = constructions.asymmetry_gap(inst, delta)
        where = {"mu1": m1, "mu2": m2, "delta": delta}
        gap.update(res.gap, **where)
        f_value.update(res.f_value, **where)
        f_prime.update(res.f_prime, **where)
        # the two stationarity expressions, recomputed outside asymmetry_gap
        tail = (1.0 - m1) ** (1.0 - xs) * (1.0 - m2) ** xs
        head = m1 ** (1.0 - xs) * m2 ** xs
        m_first = tail / math.log(m1 / m2)
        m_second = head / math.log((1.0 - m2) / (1.0 - m1))
        m_agree.update(abs(m_first - m_second), **where)
    results = [c.result(samples) for c in (gap, f_value, f_prime, m_agree)]

    grid = np.linspace(0.0025, 0.9975, 200)
    failures = _Check("odds inequality on the half-region grid", "<=", 0.0)
    failures.update(0.0)
    checked = 0
    for m1 in grid:
        f1 = Fraction(float(m1))
        for m2 in grid:
            f2 = Fraction(float(m2))
            if f1 > f2 and f1 + f2 >= 1:
                checked += 1
                if not constructions.check_odds_inequality(
                    rates.BanditInstance(float(m1), float(m2))
                ):
                    failures.update(1.0, mu1=float(m1), mu2=float(m2))
    results.append(failures.result(checked))
    return results


def _random_policy(rng) -> tuple[PolicySpec, int]:
    """A random built-in policy and the largest budget to draw for it: 24 for
    plug-in tracking, whose exact DP grows with the budget, and 60 for a fixed
    schedule, which takes the binomial log path at any budget; the caps keep
    each seed's draws as they are."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return PolicySpec.uniform(), 60
    if kind == 1:
        return PolicySpec.static(float(rng.uniform(0.15, 0.85))), 60
    if kind == 2:
        m1 = float(rng.uniform(0.2, 0.9))
        m2 = float(rng.uniform(0.05, m1 - 0.05))
        return PolicySpec.oracle_static(rates.BanditInstance(m1, m2)), 60
    return PolicySpec.plugin_tracking(float(rng.uniform(0.1, 1.0))), 24


def suite_com(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    slack = _Check("change-of-measure slack", ">=", -1e-10)
    chained = _Check("chained lower bound on the divergence side", ">=", 0.0)
    for _ in range(samples):
        policy, t_cap = _random_policy(rng)
        pi2 = float(rng.uniform(0.1, 0.9))
        pi1 = float(rng.uniform(0.05, pi2 - 0.02))
        mu1 = float(rng.uniform(0.15, 0.95))
        mu2 = float(rng.uniform(0.05, mu1 - 0.02))
        pi_inst = rates.BanditInstance(pi1, pi2)
        mu_inst = rates.BanditInstance(mu1, mu2)
        T = int(rng.integers(2, t_cap + 1))
        if policy.deterministic_schedule:
            T = max(T, covering_budget(policy.schedule_fraction()))
        res = exact.change_of_measure_slack(policy, pi_inst, mu_inst, T)
        where = {
            "policy": policy.description, "pi": (pi1, pi2), "mu": (mu1, mu2), "T": T,
        }
        if not res.rhs_infinite:
            slack.update(res.slack, **where)
        if 0.0 < res.p_pick2_mu < 1.0:
            chained.update(rates.pinsker_like_bound_slack(res.p_pick2_pi, res.p_pick2_mu), **where)
    return [slack.result(samples), chained.result(samples)]


SUITES = {
    "rates": suite_rates,
    "dual": suite_dual,
    "constructions": suite_constructions,
    "asymmetry": suite_asymmetry,
    "com": suite_com,
}


def run_suites(names: list[str], samples: int, seed: int) -> list[PropertyResult]:
    """Run the named suites; ``all`` expands to every suite in order.

    Raises ArgumentError on fewer than 1 sample or a negative seed.  A
    suite that raises becomes one failed result whose witness names the
    suite, its seed, its sample count and the exception; the other suites
    still run.
    """
    if samples < 1:
        raise ArgumentError(f"verify needs at least 1 sample, got {samples}")
    if seed < 0:
        raise ArgumentError(f"verify needs a seed of at least 0, got {seed}")
    if names == ["all"]:
        names = list(SUITES)
    results = []
    for offset, name in enumerate(names):
        suite_seed = seed + offset
        try:
            results.extend(SUITES[name](samples, suite_seed))
        except Exception as exc:
            results.append(PropertyResult(
                name=f"suite {name} raised", samples=samples, worst=math.nan,
                bound=math.nan, passed=False,
                witness={"suite": name, "seed": suite_seed, "samples": samples,
                         "error": f"{type(exc).__name__}: {exc}"},
            ))
    return results
