"""Command-line surface.

Subcommands: ``rates`` (rate queries), ``verify`` (randomized property
suites), ``exact`` / ``mc`` / ``scan`` (evaluation runs emitting CSV),
``construct`` (certified instance construction, JSON), and ``demo``
(the no-free-lunch demonstration for a tuned static policy).

Exit codes: 0 success, 1 verification failure, 2 usage, 3 domain,
4 capacity, 5 search resolution.  All output is deterministic given the
flags; floats are written with 17 significant digits so files
round-trip losslessly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .constructions import construct_beating_instance
from .errors import ArgumentError, BaiLabError, CapacityError, DomainError
from .exact import exact_summary, rate_ratio_scan, static_error_log
from .mc import simulate_plain, simulate_tilted_static
from .policies import PolicySpec, parse_policy, policy_label
from .rates import BanditInstance, g_closed, lambda_star, x_star
from .verification import run_suites

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CAPACITY = 4
EXIT_RESOLUTION = 5

EXACT_HEADER = ["policy", "mu1", "mu2", "T", "p_error", "p_pick2", "e_n1", "e_omega2"]
MC_HEADER = ["method", "policy", "mu1", "mu2", "T", "n", "seed", "estimate", "std_err"]
SCAN_HEADER = ["T", "p_error", "ratio", "inv_g_half"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return format(value, ".17g")
    return str(value)


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits (stdlib json hardwires repr)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_dumps(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{inner}{_json_dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _mu_pair(text: str) -> tuple[float, float]:
    try:
        parts = [float(v) for v in text.split(",")]
        if len(parts) != 2:
            raise ValueError("expected two comma-separated values")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed instance {text!r}: {exc}") from None
    return parts[0], parts[1]


def _budget_list(text: str) -> list[int]:
    try:
        if ":" in text:
            parts = [int(v) for v in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError("expected START:STOP[:STEP]")
            if step < 1 or stop < start:
                raise ValueError("need STOP >= START and STEP >= 1")
            return list(range(start, stop + 1, step))
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed budget list {text!r}: {exc}") from None


def _write_rows(path: str | None, header: list[str], rows: list[list]) -> None:
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as handle:
            emit(handle)


@dataclass(frozen=True)
class SweepConfig:
    instances: list[BanditInstance]
    policies: list[PolicySpec]
    budgets: list[int]
    output_path: str | None  # None writes to stdout
    seed: int


def load_sweep_config(path: str) -> SweepConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"cannot read sweep config {path!r}: {exc}") from None
    try:
        instances = [BanditInstance(float(a), float(b)) for a, b in raw["instances"]]
        policies = [parse_policy(p) for p in raw["policies"]]
        budgets = [int(t) for t in raw["budgets"]]
        output_path = str(raw["output_path"])
        seed = int(raw.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed sweep config {path!r}: {exc}") from None
    if not instances or not policies or not budgets:
        raise ArgumentError("sweep config needs non-empty instances, policies, budgets")
    return SweepConfig(instances, policies, budgets, output_path, seed)


def cmd_rates(args) -> int:
    inst = BanditInstance(*args.mu)
    xs = x_star(inst)
    at = xs if args.x is None else args.x
    payload = {
        "mu1": inst.mu1,
        "mu2": inst.mu2,
        "x": at,
        "g": g_closed(at, inst),
        "lambda": lambda_star(at, inst),
        "x_star": xs,
        "inv_g_half": 1.0 / g_closed(0.5, inst),
    }
    print(_json_dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites([args.suite], args.samples, args.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: worst={_fmt(r.worst)} bound={_fmt(r.bound)} "
              f"samples={r.samples}")
    if failed:
        print("failing witnesses:")
        for r in failed:
            print(_json_dumps({"property": r.name, "worst": r.worst,
                               "witness": r.witness}))
        return EXIT_VERIFY
    return EXIT_OK


def _exact_row(policy: PolicySpec, inst: BanditInstance, T: int) -> list:
    summary = exact_summary(policy, inst, T)
    return [policy_label(policy), inst.mu1, inst.mu2, T, summary.p_error,
            summary.p_pick2, summary.e_n1, summary.e_omega2]


def _run_sweep(args, header: list[str], row) -> int:
    """Write ``row(policy, inst, T, seed)`` for every run of ``--config``, or
    of ``--policy``/``--mu`` over ``--T`` (with ``--seed`` where the command has one)."""
    if args.config is not None:
        config = load_sweep_config(args.config)
    elif args.policy is None or args.mu is None or args.T is None:
        raise ArgumentError(f"{args.command} needs --policy, --mu and --T (or --config)")
    else:
        policy = parse_policy(args.policy)
        config = SweepConfig([BanditInstance(*args.mu)], [policy], args.T, args.out,
                             getattr(args, "seed", 0))
    rows = [
        row(policy, inst, T, config.seed)
        for policy in config.policies
        for inst in config.instances
        for T in config.budgets
    ]
    _write_rows(config.output_path, header, rows)
    return EXIT_OK


def cmd_exact(args) -> int:
    return _run_sweep(args, EXACT_HEADER,
                      lambda policy, inst, T, seed: _exact_row(policy, inst, T))


def _mc_row(policy: PolicySpec, inst: BanditInstance, T: int, n: int, seed: int,
            tilted: bool) -> list:
    if tilted:
        if not policy.deterministic_schedule:
            raise ArgumentError("tilted estimation is only defined for static schedules")
        est = simulate_tilted_static(policy.schedule_fraction(), inst, T, n, seed)
    else:
        est = simulate_plain(policy, inst, T, n, seed)
    return [est.method, policy_label(policy), inst.mu1, inst.mu2, T, n, est.seed,
            est.mean, est.std_err]


def cmd_mc(args) -> int:
    return _run_sweep(args, MC_HEADER, lambda policy, inst, T, seed: _mc_row(
        policy, inst, T, args.n, seed, args.tilted))


def cmd_scan(args) -> int:
    policy = parse_policy(args.policy)
    inst = BanditInstance(*args.mu)
    scan = rate_ratio_scan(policy, inst, args.T)
    rows = [[p.T, p.p_error, p.ratio, scan.inv_g_half] for p in scan.points]
    _write_rows(args.out, SCAN_HEADER, rows)
    return EXIT_OK


def cmd_construct(args) -> int:
    cert = construct_beating_instance(args.a, args.x)
    text = _json_dumps(cert.to_json_dict())
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    return EXIT_OK


def cmd_demo(args) -> int:
    if not 0.0 < args.grid < 0.4:
        raise ArgumentError(f"--grid must lie in (0, 0.4) to scan two means, got {args.grid!r}")
    mu0 = BanditInstance(*args.mu0)
    x_tuned = x_star(mu0)
    if abs(x_tuned - 0.5) < 1e-9:
        print(_json_dumps({
            "x_tuned": x_tuned,
            "message": "policy coincides with uniform; no witness exists",
        }))
        return EXIT_OK

    # certified witness, independent of the grid resolution
    best_cert = None
    best_cert_gap = -math.inf
    for a in (0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8):
        try:
            cert = construct_beating_instance(a, x_tuned)
        except ArgumentError:  # x_tuned too close to 1/2 for this target; never a = 0.5
            continue
        gap = g_closed(0.5, cert.instance) - g_closed(x_tuned, cert.instance)
        if gap > best_cert_gap:
            best_cert, best_cert_gap = cert, gap

    # grid scan for the largest rate gap at the requested resolution
    best_grid = None
    best_grid_gap = -math.inf
    steps = int(round(1.0 / args.grid)) - 1
    values = [args.grid * k for k in range(1, steps + 1)]
    for m1 in values:
        for m2 in values:
            if m1 == m2:
                continue
            inst = BanditInstance(m1, m2)
            gap = g_closed(0.5, inst) - g_closed(x_tuned, inst)
            if gap > best_grid_gap:
                best_grid, best_grid_gap = inst, gap

    if best_cert_gap >= args.min_gap:
        witness, witness_gap = best_cert.instance, best_cert_gap
    elif best_grid_gap >= args.min_gap:
        witness, witness_gap = best_grid, best_grid_gap
    else:
        print(_json_dumps({
            "x_tuned": x_tuned,
            "best_gap_found": max(best_cert_gap, best_grid_gap),
            "message": "no witness at this resolution; retry with a finer --grid",
        }))
        return EXIT_RESOLUTION

    # exact error ordering compared in the log domain: the probabilities
    # themselves underflow doubles at budgets this deep
    log_tuned_on_witness = static_error_log(x_tuned, witness, args.T)
    log_uniform_on_witness = static_error_log(0.5, witness, args.T)
    log_tuned_at_home = static_error_log(x_tuned, mu0, args.T)
    log_uniform_at_home = static_error_log(0.5, mu0, args.T)
    confirmed = (
        log_tuned_on_witness > log_uniform_on_witness
        and log_tuned_at_home < log_uniform_at_home
    )
    payload = {
        "x_tuned": x_tuned,
        "witness": {"mu1": witness.mu1, "mu2": witness.mu2},
        "rate_gap": witness_gap,
        "certificate": best_cert.to_json_dict(),
        "grid_best": {"mu1": best_grid.mu1, "mu2": best_grid.mu2,
                      "rate_gap": best_grid_gap},
        "exact_confirmation": {
            "T": args.T,
            "losing_instance": {
                "mu1": witness.mu1, "mu2": witness.mu2,
                "p_error_tuned": math.exp(log_tuned_on_witness),
                "p_error_uniform": math.exp(log_uniform_on_witness),
                "log_p_error_tuned": log_tuned_on_witness,
                "log_p_error_uniform": log_uniform_on_witness,
            },
            "winning_instance": {
                "mu1": mu0.mu1, "mu2": mu0.mu2,
                "p_error_tuned": math.exp(log_tuned_at_home),
                "p_error_uniform": math.exp(log_uniform_at_home),
                "log_p_error_tuned": log_tuned_at_home,
                "log_p_error_uniform": log_uniform_at_home,
            },
        },
        "confirmed": confirmed,
    }
    print(_json_dumps(payload))
    if not confirmed:
        return EXIT_RESOLUTION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bailab",
        description="Numerical laboratory for fixed-budget best-arm "
                    "identification in two-armed Bernoulli bandits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="rate profile of an instance")
    p.add_argument("--mu", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--x", type=float, default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("suite", choices=["rates", "dual", "constructions", "asymmetry",
                                     "com", "all"])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact evaluation (CSV)")
    p.add_argument("--policy")
    p.add_argument("--mu", type=_mu_pair, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, metavar="T|START:STOP[:STEP]")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON sweep config")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("mc", help="Monte Carlo estimation (CSV)")
    p.add_argument("--policy")
    p.add_argument("--mu", type=_mu_pair, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, metavar="T|START:STOP[:STEP]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tilted", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON sweep config")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("scan", help="error-rate scan over budgets (CSV)")
    p.add_argument("--policy", required=True)
    p.add_argument("--mu", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, required=True,
                   metavar="START:STOP[:STEP]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("construct", help="build a certified beating instance (JSON)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("demo", help="no-free-lunch demonstration for a tuned policy")
    p.add_argument("--mu0", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--grid", type=float, default=0.05)
    p.add_argument("--min-gap", dest="min_gap", type=float, default=1e-3)
    p.add_argument("--T", type=int, default=2000)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except BaiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
