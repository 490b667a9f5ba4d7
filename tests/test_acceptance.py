"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line (visible under ``pytest -s``
or in the captured output of a failing run).  Oracles are independent of
the code paths they check: dense grids, brute-force enumeration,
first-order sign bisection, and exact summaries on both sides of every
inequality.  Criteria 4, 5 and 7 run the ``verify`` suites that define
those properties, at fixed seeds and sample counts.
"""

import json
import math
import time

import numpy as np
import pytest

from brute_force import dict_dp_layers, dict_dp_summary, enumerate_summary

from bailab.cli import main
from bailab.dual import (
    NaturalInstance,
    bregman,
    natural_to_mean,
    potential,
    taylor_bracket_check,
)
from bailab.exact import (
    dp_layers,
    exact_summary,
    static_error_log,
)
from bailab.mc import simulate_plain, simulate_tilted_static
from bailab.policies import PolicySpec
from bailab.rates import (
    BanditInstance,
    g_closed,
    kl_bernoulli,
    lambda_star,
    x_star,
)
from bailab.verification import (
    fd_argmin,
    minimize_rate_objective,
    suite_asymmetry,
    suite_com,
    suite_constructions,
)

MU_GRID = np.linspace(0.02, 0.98, 50)
X_GRID = np.linspace(0.0, 1.0, 21)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def report_suite(number: int, results, passed: bool = True, detail: str = "") -> None:
    """Report a ``verify`` suite as one criterion: every property must pass."""
    lines = [
        f"{r.name}: worst={r.worst:.2e} (bound {r.bound:g}, {r.samples} samples)"
        for r in results
    ]
    passed = passed and all(r.passed for r in results)
    report(number, passed, "; ".join(lines + ([detail] if detail else [])))


def test_criterion_01_closed_form_oracle_equivalence():
    start = time.perf_counter()
    # the oracles run once over the whole (mu1, mu2, x) grid
    mu1, mu2 = MU_GRID[:, None, None], MU_GRID[None, :, None]
    g_min = minimize_rate_objective(X_GRID, mu1, mu2)[1].tolist()
    lam_fd = fd_argmin(X_GRID, mu1, mu2).tolist()
    worst_g = 0.0
    worst_lam = 0.0
    for i, m1 in enumerate(MU_GRID):
        for j, m2 in enumerate(MU_GRID):
            inst = BanditInstance(float(m1), float(m2))
            for k, x in enumerate(X_GRID):
                x = float(x)
                worst_g = max(worst_g, abs(g_closed(x, inst) - g_min[i][j][k]))
                worst_lam = max(worst_lam, abs(lam_fd[i][j][k] - lambda_star(x, inst)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_g <= 1e-6 and worst_lam <= 1e-8 and elapsed <= 10.0,
        f"50x50x21 grid: max|g_closed - minimize_rate_objective|={worst_g:.2e} (<=1e-6), "
        f"max|argmin - lambda_star|={worst_lam:.2e} (<=1e-8), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_02_concavity_and_optimizer():
    h = 1e-4
    worst_fd = -math.inf
    for m1 in MU_GRID:
        for m2 in MU_GRID:
            if m1 == m2:
                continue
            inst = BanditInstance(float(m1), float(m2))
            for x in X_GRID[1:-1]:
                x = float(x)
                second = (
                    g_closed(x + h, inst)
                    - 2.0 * g_closed(x, inst)
                    + g_closed(x - h, inst)
                ) / (h * h)
                worst_fd = max(worst_fd, second)

    worst_argmax = 0.0
    grid = np.linspace(0.0, 1.0, 1_000_001)
    for inst in (
        BanditInstance(0.9, 0.5),
        BanditInstance(0.3, 0.8),
        BanditInstance(0.85, 0.15),
        BanditInstance(0.6, 0.35),
    ):
        m1, m2 = inst.mu1, inst.mu2
        vals = -np.log(
            (1 - m1) ** (1 - grid) * (1 - m2) ** grid + m1 ** (1 - grid) * m2**grid
        )
        worst_argmax = max(
            worst_argmax, abs(x_star(inst) - float(grid[np.argmax(vals)]))
        )

    worst_sym = max(
        abs(x_star(BanditInstance(p, 1.0 - p)) - 0.5) for p in (0.55, 0.7, 0.9, 0.99)
    )
    report(
        2,
        worst_fd < 0.0 and worst_argmax <= 1e-5 and worst_sym <= 1e-10,
        f"max second difference={worst_fd:.3e} (<0), "
        f"x_star vs 1e-6-grid argmax={worst_argmax:.2e} (<=1e-5), "
        f"symmetric |x_star - 1/2|={worst_sym:.2e} (<=1e-10)",
    )


def test_criterion_03_duality():
    rng = np.random.default_rng(2024)
    worst_breg = worst_lam = worst_xs = worst_eta = 0.0
    worst_taylor = math.inf
    n = 1000
    count = 0
    while count < n:
        m1, m2 = rng.uniform(0.05, 0.95, 2)
        if abs(m1 - m2) < 0.01:
            continue
        count += 1
        inst = BanditInstance(float(m1), float(m2))
        nat = NaturalInstance.from_means(inst)
        x = float(rng.uniform(0.0, 1.0))
        worst_breg = max(
            worst_breg,
            abs(kl_bernoulli(inst.mu1, inst.mu2) - bregman(nat.xi2, nat.xi1)),
        )
        from bailab.dual import dual_rate_objects

        objs = dual_rate_objects(x, nat)
        worst_lam = max(
            worst_lam, abs(natural_to_mean(objs.lambda_bar) - lambda_star(x, inst))
        )
        worst_xs = max(worst_xs, abs(objs.x_star_dual - x_star(inst)))
        chord = (potential(nat.xi1).phi - potential(nat.xi2).phi) / (nat.xi1 - nat.xi2)
        worst_eta = max(worst_eta, abs(natural_to_mean(objs.eta) - chord))
    for _ in range(1000):
        alpha = float(rng.uniform(-6.0, 6.0))
        gap = float(rng.uniform(1e-3, 10.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        ratio, lo, hi = taylor_bracket_check(alpha, alpha + gap)
        worst_taylor = min(worst_taylor, ratio - lo, hi - ratio)
    report(
        3,
        worst_breg <= 1e-10
        and worst_lam <= 1e-8
        and worst_xs <= 1e-8
        and worst_eta <= 1e-8
        and worst_taylor >= 0.0,
        f"KL-Bregman={worst_breg:.2e} (<=1e-10), lambda={worst_lam:.2e} (<=1e-8), "
        f"x_star={worst_xs:.2e} (<=1e-8), eta-slope={worst_eta:.2e} (<=1e-8), "
        f"taylor margin={worst_taylor:.2e} (>=0), n={n}",
    )


def test_criterion_04_constructions():
    start = time.perf_counter()
    results = suite_constructions(200, 404)
    elapsed = time.perf_counter() - start
    report_suite(4, results, elapsed <= 30.0, f"{elapsed:.1f}s (<=30s)")


def test_criterion_05_asymmetry_and_entropy():
    report_suite(5, suite_asymmetry(1000, 505))


def test_criterion_06_exact_engine_correctness():
    policies = [
        PolicySpec.uniform(),
        PolicySpec.static(0.3),
        PolicySpec.static(0.5),
        PolicySpec.static(0.71),
        PolicySpec.oracle_static(BanditInstance(0.9, 0.5)),
        PolicySpec.plugin_tracking(1.0),
        PolicySpec.plugin_tracking(0.3),
    ]
    worst_enum = 0.0
    for inst in (BanditInstance(0.7, 0.3), BanditInstance(0.35, 0.65)):
        for policy in policies:
            for T in (5, 12):
                p_err, p_pick2, e_n1 = enumerate_summary(policy, inst, T)
                s = exact_summary(policy, inst, T)
                worst_enum = max(
                    worst_enum,
                    abs(s.p_error - p_err),
                    abs(s.p_pick2 - p_pick2),
                    abs(s.e_n1 - e_n1),
                )

    worst_fast = 0.0
    inst = BanditInstance(0.7, 0.3)
    for x in (0.3, 0.5, 0.71):
        for T in (7, 25, 60, 101, 150):
            dp = dict_dp_summary(PolicySpec.static(x), inst, T)[0]
            p_error = exact_summary(PolicySpec.static(x), inst, T).p_error
            worst_fast = max(worst_fast, abs(dp - p_error))

    worst_mass = 0.0
    # the library DP runs plug-in tracking only; the dict DP runs the schedule
    for policy, layers in ((PolicySpec.uniform(), dict_dp_layers),
                           (PolicySpec.plugin_tracking(0.4), dp_layers)):
        for t, layer in layers(policy, inst, 40):
            mass = sum(float(np.sum(arr)) for arr in layer.values())
            worst_mass = max(worst_mass, abs(mass - 1.0))
    report(
        6,
        worst_enum <= 1e-12 and worst_fast <= 1e-12 and worst_mass <= 1e-12,
        f"exact_summary vs 2^T enumeration (T<=12, all built-ins)={worst_enum:.2e} (<=1e-12), "
        f"DP vs binomial fast path (T<=150)={worst_fast:.2e} (<=1e-12), "
        f"layer mass defect={worst_mass:.2e} (<=1e-12)",
    )


def test_criterion_07_change_of_measure():
    report_suite(7, suite_com(200, 707))


def test_criterion_08_rate_reproduction():
    start = time.perf_counter()
    inst = BanditInstance(0.7, 0.3)
    budgets = np.arange(100, 1001, 100)
    neglogp = np.array([-static_error_log(0.5, inst, int(T)) for T in budgets])
    slope = float(np.polyfit(budgets, neglogp, 1)[0])
    reference = g_closed(0.5, inst)
    rel = abs(slope - reference) / reference
    elapsed = time.perf_counter() - start
    report(
        8,
        rel <= 0.02 and elapsed <= 60.0,
        f"uniform on (0.7,0.3): fitted slope={slope:.6f} vs g(1/2)={reference:.6f}, "
        f"relative error={rel:.4f} (<=0.02), {elapsed:.1f}s (<=60s)",
    )


def test_criterion_09_no_free_lunch_demo(capsys):
    code = main(["demo", "--mu0", "0.9,0.5", "--T", "2000"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    losing = payload["exact_confirmation"]["losing_instance"]
    winning = payload["exact_confirmation"]["winning_instance"]
    ok = (
        code == 0
        and payload["rate_gap"] >= 1e-3
        and payload["confirmed"] is True
        and losing["log_p_error_tuned"] > losing["log_p_error_uniform"]
        and winning["log_p_error_tuned"] < winning["log_p_error_uniform"]
    )
    with capsys.disabled():
        report(
            9,
            ok,
            f"tuned x={payload['x_tuned']:.4f}: certified witness rate gap="
            f"{payload['rate_gap']:.3e} (>=1e-3), exact ordering at T=2000 "
            f"confirmed={payload['confirmed']}",
        )


def test_criterion_10_monte_carlo():
    cases = []
    for T in (10, 25, 40, 60):
        cases.append((PolicySpec.uniform(), BanditInstance(0.7, 0.3), T))
    for T in (15, 30, 45, 60):
        cases.append((PolicySpec.static(0.3), BanditInstance(0.8, 0.4), T))
    for T in (12, 24, 36, 48):
        cases.append((PolicySpec.static(0.65), BanditInstance(0.35, 0.7), T))
    for T in (20, 40, 60):
        cases.append(
            (PolicySpec.oracle_static(BanditInstance(0.9, 0.5)), BanditInstance(0.9, 0.5), T)
        )
    for T in (30, 60):
        cases.append((PolicySpec.uniform(), BanditInstance(0.55, 0.45), T))
    for T in (10, 16, 20):
        cases.append((PolicySpec.plugin_tracking(0.5), BanditInstance(0.75, 0.35), T))
    assert len(cases) == 20

    worst_z = 0.0
    reproducible = True
    for offset, (policy, inst, T) in enumerate(cases):
        exact_p = exact_summary(policy, inst, T).p_error
        est = simulate_plain(policy, inst, T, 10**5, 1000 + offset)
        worst_z = max(worst_z, abs(est.mean - exact_p) / est.std_err)
        if offset in (0, 7, 19):
            reproducible &= est == simulate_plain(policy, inst, T, 10**5, 1000 + offset)

    inst = BanditInstance(0.7, 0.3)
    plain = simulate_plain(PolicySpec.static(0.5), inst, 200, 10**4, 99)
    tilted = simulate_tilted_static(PolicySpec.static(0.5), inst, 200, 10**4, 99)
    tilted_again = simulate_tilted_static(PolicySpec.static(0.5), inst, 200, 10**4, 99)
    reproducible &= tilted == tilted_again
    rel_se = tilted.std_err / tilted.mean
    report(
        10,
        worst_z <= 4.0 and plain.mean == 0.0 and rel_se <= 0.2 and reproducible,
        f"20-case suite worst z={worst_z:.2f} (<=4); at T=200/n=1e4: plain events="
        f"{plain.mean} (==0), tilted relative std err={rel_se:.3f} (<=0.2); "
        f"bit-reproducible={reproducible}",
    )
