"""Randomized property suites behind the ``verify`` command.

Each suite re-checks the numeric guarantees of one module on freshly
sampled inputs and reports the worst case it saw.  The suites are
deliberately independent of the code paths they check: closed forms are
compared against direct minimization, dual quantities against primal
ones, certificates against primal re-verification, and the
change-of-measure inequality against exact dynamic programming on both
sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import constructions, dual, exact, rates
from .policies import PolicySpec, covering_budget

__all__ = ["PropertyResult", "SUITES", "fd_argmin", "run_suites"]


@dataclass
class PropertyResult:
    """Outcome of one property check over a sample sweep."""

    name: str
    samples: int
    worst: float
    bound: float
    passed: bool
    witness: dict = field(default_factory=dict)


class _Extremum:
    """Track the worst value of a sweep together with the inputs that hit it."""

    def __init__(self, largest: bool):
        self.largest = largest
        self.value = -math.inf if largest else math.inf
        self.witness: dict = {}

    def update(self, value: float, **witness) -> None:
        if (value > self.value) if self.largest else (value < self.value):
            self.value = value
            self.witness = witness


def _result(name, samples, ext: _Extremum, bound, passed) -> PropertyResult:
    return PropertyResult(
        name=name, samples=samples, worst=ext.value, bound=bound, passed=passed,
        witness=ext.witness,
    )


def _random_instance(rng, lo=0.05, hi=0.95, min_gap=0.01) -> rates.BanditInstance:
    while True:
        m1, m2 = rng.uniform(lo, hi, size=2)
        if abs(m1 - m2) >= min_gap:
            return rates.BanditInstance(m1, m2)


def fd_argmin(x: float, inst: rates.BanditInstance, h: float = 1e-7) -> float:
    """Inner argmin located by sign bisection on the centered difference of
    the mixture objective.

    Value-comparison minimizers (golden section) cannot resolve an argmin
    below ~sqrt(eps/curvature), about 1.5e-8 here; the sign of
    ``F(lam+h) - F(lam-h)`` stays informative down to ~1e-9, which the
    1e-8 comparisons need.  Boundary allocations pin the minimizer at the
    sampled mean, no search required.
    """
    if x == 0.0:
        return inst.mu1
    if x == 1.0:
        return inst.mu2

    m1, m2 = inst.mu1, inst.mu2
    objective = rates._kl_mixture
    lo = min(m1, m2) + h
    hi = max(m1, m2) - h
    if lo >= hi:
        return 0.5 * (m1 + m2)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if objective(mid + h, x, m1, m2) - objective(mid - h, x, m1, m2) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def suite_rates(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    closed_vs_min = _Extremum(largest=True)
    argmin_vs_lambda = _Extremum(largest=True)
    stationarity = _Extremum(largest=True)
    for _ in range(samples):
        inst = _random_instance(rng, min_gap=0.0)
        x = float(rng.uniform(0.0, 1.0))
        gc = rates.g_closed(x, inst)
        gm = rates.g_by_minimization(x, inst)
        closed_vs_min.update(abs(gc - gm), mu1=inst.mu1, mu2=inst.mu2, x=x)
        argmin_vs_lambda.update(
            abs(fd_argmin(x, inst) - rates.lambda_star(x, inst)),
            mu1=inst.mu1, mu2=inst.mu2, x=x,
        )
        if 0.0 < x < 1.0:
            stationarity.update(
                abs(rates.stationarity_residual(x, inst)), mu1=inst.mu1, mu2=inst.mu2, x=x
            )
    out.append(_result("g closed form vs direct minimization", samples,
                       closed_vs_min, 1e-6, closed_vs_min.value <= 1e-6))
    out.append(_result("inner argmin vs lambda_star", samples,
                       argmin_vs_lambda, 1e-8, argmin_vs_lambda.value <= 1e-8))
    out.append(_result("stationarity residual at lambda_star", samples,
                       stationarity, 1e-8, stationarity.value <= 1e-8))

    concavity = _Extremum(largest=True)
    positivity = _Extremum(largest=False)
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
    out.append(_result("strict concavity (central second differences)", samples,
                       concavity, 0.0, concavity.value < 0.0))
    out.append(_result("positivity of g on interior allocations", samples,
                       positivity, 0.0, positivity.value > 0.0))

    swap = _Extremum(largest=True)
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
    out.append(_result("swap symmetry on dyadic allocations (exact)",
                       max(1, samples // 8) * len(dyadic), swap, 0.0, swap.value == 0.0))

    pinsker = _Extremum(largest=False)
    for _ in range(samples):
        p = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.01, 0.99))
        pinsker.update(rates.pinsker_like_bound_slack(p, q), p=p, q=q)
    out.append(_result("lower-bound slack d(p,q) - (p log(1/q) - log 2)", samples,
                       pinsker, 0.0, pinsker.value >= 0.0))
    return out


def suite_dual(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    out = []

    kl_breg = _Extremum(largest=True)
    lam_pair = _Extremum(largest=True)
    xstar_pair = _Extremum(largest=True)
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
    out.append(_result("KL vs Bregman identity", samples, kl_breg, 1e-10,
                       kl_breg.value <= 1e-10))
    out.append(_result("inner minimizer: dual line vs odds interpolation", samples,
                       lam_pair, 1e-10, lam_pair.value <= 1e-10))
    out.append(_result("optimal allocation: dual form vs bisection", samples,
                       xstar_pair, 1e-8, xstar_pair.value <= 1e-8))

    taylor = _Extremum(largest=False)
    for _ in range(samples):
        alpha = float(rng.uniform(-6.0, 6.0))
        gap = float(rng.uniform(1e-3, 10.0)) * (1 if rng.uniform() < 0.5 else -1)
        beta = alpha + gap
        ratio, lo, hi = dual.taylor_bracket_check(alpha, beta)
        taylor.update(min(ratio - lo, hi - ratio), alpha=alpha, beta=beta)
    out.append(_result("Taylor bracket on the Bregman divergence", samples, taylor,
                       0.0, taylor.value >= 0.0))

    mismatches = _Extremum(largest=True)
    mismatches.update(0.0)
    for _ in range(samples):
        inst = _random_instance(rng, min_gap=0.0)
        nat = dual.NaturalInstance.from_means(inst)
        primal = inst.mu1 > inst.mu2 and inst.mu1 + inst.mu2 >= 1.0
        dual_side = nat.xi1 > nat.xi2 and nat.xi1 >= -nat.xi2
        if primal != dual_side:
            mismatches.update(1.0, mu1=inst.mu1, mu2=inst.mu2)
    out.append(_result("half-region condition: primal vs dual form", samples,
                       mismatches, 0.0, mismatches.value == 0.0))
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
    residual = _Extremum(largest=True)
    orientation = _Extremum(largest=False)
    half_region = _Extremum(largest=False)
    xstar_margin = _Extremum(largest=False)
    gap = _Extremum(largest=False)
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
        residual.update(margins["residual"], **where)
        orientation.update(margins["orientation"], **where)
        half_region.update(margins["half_region"], **where)
        xstar_margin.update(margins["x_star_margin"], **where)
        gap.update(margins["gap"], **where)
    return [
        _result("certificate minimizer residual", samples, residual, 1e-9,
                residual.value <= 1e-9),
        _result("certificate orientation mu1 > mu2 (canonical)", samples, orientation,
                0.0, orientation.value > 0.0),
        _result("certificate half-region mu1 + mu2 >= 1 (canonical)", samples,
                half_region, -1e-12, half_region.value >= -1e-12),
        _result("certificate optimum below the midpoint allocation", samples,
                xstar_margin, 0.0, xstar_margin.value > 0.0),
        _result("uniform strictly beats the constructed allocation", samples, gap,
                0.0, gap.value > 0.0),
    ]


def suite_asymmetry(samples: int, seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    gap = _Extremum(largest=False)
    f_value = _Extremum(largest=False)
    f_prime = _Extremum(largest=False)
    m_agree = _Extremum(largest=True)
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
        # independent recomputation of the two stationarity expressions
        xs12 = rates.x_star(inst, tol=1e-12)
        tail = (1.0 - m1) ** (1.0 - xs12) * (1.0 - m2) ** xs12
        head = m1 ** (1.0 - xs12) * m2 ** xs12
        m_first = tail / math.log(m1 / m2)
        m_second = head / math.log((1.0 - m2) / (1.0 - m1))
        m_agree.update(abs(m_first - m_second), **where)
    results = [
        _result("one-sided gap across the optimum", samples, gap, -1e-12,
                gap.value >= -1e-12),
        _result("nonnegative f across the optimum", samples, f_value, -1e-12,
                f_value.value >= -1e-12),
        _result("nonnegative f' (closed form)", samples, f_prime, -1e-12,
                f_prime.value >= -1e-12),
        _result("agreement of the two stationarity expressions", samples, m_agree,
                1e-9, m_agree.value <= 1e-9),
    ]

    grid = np.linspace(0.0025, 0.9975, 200)
    failures = _Extremum(largest=True)
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
    results.append(_result("odds inequality on the half-region grid", checked,
                           failures, 0.0, failures.value == 0.0))
    return results


def _random_policy(rng) -> tuple[PolicySpec, int]:
    """A random built-in policy and a budget cap suited to its DP cost."""
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
    slack = _Extremum(largest=False)
    chained = _Extremum(largest=False)
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
    return [
        _result("change-of-measure slack", samples, slack, -1e-10,
                slack.value >= -1e-10),
        _result("chained lower bound on the divergence side", samples, chained, 0.0,
                chained.value >= 0.0),
    ]


SUITES = {
    "rates": suite_rates,
    "dual": suite_dual,
    "constructions": suite_constructions,
    "asymmetry": suite_asymmetry,
    "com": suite_com,
}


def run_suites(names: list[str], samples: int, seed: int) -> list[PropertyResult]:
    """Run the named suites; ``all`` expands to every suite in order."""
    if names == ["all"]:
        names = list(SUITES)
    results = []
    for offset, name in enumerate(names):
        results.extend(SUITES[name](samples, seed + offset))
    return results
