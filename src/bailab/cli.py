"""Command-line surface.

Subcommands: ``rates`` (rate queries), ``verify`` (randomized property
suites), ``exact`` / ``mc`` / ``scan`` (evaluation runs emitting CSV),
``construct`` (certified instance construction, JSON), and ``demo``
(the no-free-lunch demonstration for a tuned static policy).

Exit codes: 0 success, 1 verification failure or any other library error
(an internal defect such as a ``ConstructionError``, printed as
"error: ..."), 2 usage, 3 domain, 4 capacity, 5 search resolution, 141
stdout closed by its reader (a pipe into ``head``), as a shell reports a
process that SIGPIPE ended.  All output is deterministic given the flags;
floats are written with 17 significant digits so files round-trip
losslessly.

``main(argv)`` reads ``sys.argv[1:]`` when ``argv`` is None.  When the first
argument names a command, it parses with a parser that holds that command's
subparser only; anything else (``--help``, ``--version``, no arguments, an
unknown command, a leading ``--``) goes to the parser of every command, which
prints the same help and errors.  Each of these trees is built on first use
and kept for the life of the process, and none at import.

Importing this module loads the layers that ``rates``, ``exact``, ``mc`` and
``scan`` run (``errors``, ``rates``, ``policies``, ``exact`` and ``mc``) and no
other.  ``construct`` and ``demo`` import ``constructions``, and through it
``dual``, on their first call of :func:`construct_beating_instance`; ``verify``
imports ``verification`` when it runs, and so does the parser that lists its
suites (the ``verify`` subparser and the tree of every command).  The
evaluation commands, which a sweep runs many times, thus load none of the
construction and verification code, nor ``fractions`` and ``decimal``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ArgumentError, BaiLabError, CapacityError, DomainError
# exact_summary is unused here; it stays a module attribute for benchmark tracing
from .exact import (MAX_STATES_ENV, _check_states, _evaluate, _max_states,  # noqa: F401
                    exact_summary, inv_g_half, rate_ratio_scan, static_counts, static_error_log)
from .mc import simulate_plain, simulate_tilted_static
from .policies import PolicySpec, check_budget, parse_policy
from .rates import BanditInstance, _mean_rule, g_closed, g_closed_grid, rate_profile, x_star

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CAPACITY = 4
EXIT_RESOLUTION = 5
EXIT_PIPE = 141  # 128 + SIGPIPE

EXACT_HEADER = ["policy", "mu1", "mu2", "T", "p_error", "p_pick2", "e_n1", "e_omega2"]
MC_HEADER = ["method", "policy", "mu1", "mu2", "T", "n", "seed", "estimate", "std_err"]
SCAN_HEADER = ["T", "p_error", "ratio", "inv_g_half"]
_DEMO_GRID_CELLS = 2**16  # cells of the demo grid evaluated at once


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


def _budget_list(text: str) -> list[int] | range:
    """The budgets of ``--T``: a comma-separated list, or ``START:STOP[:STEP]``
    as a lazy range, whose length a command checks before it evaluates one."""
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
            if stop > 2**53:  # the largest budget
                raise ValueError("STOP must be at most 2**53")
            return range(start, stop + 1, step)
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed budget list {text!r}: {exc}") from None


def _write_out(path: str | None, emit, newline: str | None = None) -> None:
    """``emit(handle)`` on stdout when ``path`` is None, else on ``path`` opened
    for writing with ``newline``; a path that cannot be written is a usage error."""
    if path is None:
        return emit(sys.stdout)
    try:
        with open(path, "w", newline=newline) as handle:
            emit(handle)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _write_rows(path: str | None, header: list[str], rows: list[list]) -> None:
    def emit(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    _write_out(path, emit, newline="")


@dataclass(frozen=True)
class SweepConfig:
    instances: list[BanditInstance]
    policies: list[PolicySpec]
    budgets: list[int] | range
    output_path: str | None  # None writes to stdout
    seed: int


class _JsonFloat(float):
    """A JSON number read as a float that keeps its text, to be quoted as written."""

    def __new__(cls, text: str):
        number = super().__new__(cls, text)
        number.text = text
        return number


def _config_mean(value, field: str) -> float:
    """A mean read from a sweep config: a JSON number, checked as ``field``
    before it is converted, since no integer lies inside (0, 1) and a long one
    does not fit a float.  A refused mean is quoted as written."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ArgumentError(f"{field} must be a JSON number, got {json.dumps(value)}")
    rule = _mean_rule(value)
    if rule is not None:
        written = getattr(value, "text", None) or json.dumps(value)
        raise DomainError(f"{field} {rule}, got {written}")
    return float(value)


def load_sweep_config(path: str) -> SweepConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle, parse_float=_JsonFloat)
    # ValueError covers JSONDecodeError and an integer past Python's digit limit
    except (OSError, ValueError) as exc:
        raise ArgumentError(f"cannot read sweep config {path!r}: {exc}") from None
    try:
        if not isinstance(raw, dict):
            raise ArgumentError(f"the top level must be a JSON object, got {json.dumps(raw)}")
        for key in raw:
            if key not in SweepConfig.__dataclass_fields__:
                raise ArgumentError(f"unknown key {json.dumps(key)}; the keys are "
                                    f"{', '.join(SweepConfig.__dataclass_fields__)}")
        for key in ("instances", "policies", "budgets"):
            if not isinstance(raw[key], list):
                raise ArgumentError(f"{key!r} must be a JSON list, got {json.dumps(raw[key])}")
        instances = []
        for i, pair in enumerate(raw["instances"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ArgumentError(f"instances[{i}] must be a pair of means, "
                                    f"got {json.dumps(pair)}")
            instances.append(BanditInstance(*(_config_mean(m, f"instances[{i}][{j}]")
                                              for j, m in enumerate(pair))))
        policies = []
        for i, text in enumerate(raw["policies"]):
            if not isinstance(text, str):
                raise ArgumentError(f"policies[{i}] must be a JSON string, got {json.dumps(text)}")
            policies.append(parse_policy(text))
        budgets = []
        for i, t in enumerate(raw["budgets"]):
            try:
                budgets.append(check_budget(t))
            except ArgumentError:
                too_large = isinstance(t, int) and t > 2**53
                rule = "at most 2**53" if too_large else "an integer of at least 2"
                raise ArgumentError(f"'budgets' entry {i} must be {rule}, "
                                    f"got {json.dumps(t)}") from None
        output_path = raw.get("output_path")
        if output_path is not None and not isinstance(output_path, str):
            raise ArgumentError(f"'output_path' must be a string or null, "
                                f"got {json.dumps(output_path)}")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ArgumentError(f"'seed' must be an integer, got {json.dumps(seed)}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed sweep config {path!r}: {exc}") from None
    if not instances or not policies or not budgets:
        raise ArgumentError("sweep config needs non-empty instances, policies, budgets")
    return SweepConfig(instances, policies, budgets, output_path, seed)


def cmd_rates(args) -> int:
    inst = BanditInstance(*args.mu)
    profile = rate_profile(inst, args.x)
    payload = {
        "mu1": inst.mu1,
        "mu2": inst.mu2,
        "x": profile.x_star if args.x is None else args.x,
        "g": profile.g_value,
        "lambda": profile.lambda_min,
        "x_star": profile.x_star,
        "inv_g_half": inv_g_half(inst),
    }
    print(_json_dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_suites

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


def _check_budget_count(budgets: list[int] | range) -> None:
    """Refuse more budgets than the state limit, before any is evaluated."""
    _check_states(len(budgets), _max_states(), f"the budget list holds {len(budgets)} budgets")


def _run_sweep(args, header: list[str], rows) -> int:
    """Write ``rows(policy, inst, budgets, seed)``, one row per budget, for each
    policy and instance of ``--config``, or of ``--policy``/``--mu``, each pair
    with its whole budget list ``--T`` in one call (``exact`` takes one engine call
    for the list, ``mc`` one estimate per budget), with ``--seed`` where it exists.

    The config sets what those flags and ``--out`` would, so a flag given
    next to ``--config`` is refused rather than ignored."""
    if args.config is not None:
        for flag in ("policy", "mu", "T", "out", "seed"):
            if getattr(args, flag, None) is not None:
                raise ArgumentError(f"--{flag} conflicts with --config, which sets it")
        config = load_sweep_config(args.config)
    elif args.policy is None or args.mu is None or args.T is None:
        raise ArgumentError(f"{args.command} needs --policy, --mu and --T (or --config)")
    else:
        policy = parse_policy(args.policy)
        config = SweepConfig([BanditInstance(*args.mu)], [policy], args.T, args.out,
                             getattr(args, "seed", None) or 0)
    _check_budget_count(config.budgets)
    table = [row for policy in config.policies for inst in config.instances
             for row in rows(policy, inst, config.budgets, config.seed)]
    _write_rows(config.output_path, header, table)
    return EXIT_OK


def cmd_exact(args) -> int:
    return _run_sweep(args, EXACT_HEADER, lambda policy, inst, budgets, seed: [
        [policy.description, inst.mu1, inst.mu2, T, s.p_error, s.p_pick2, s.e_n1, s.e_omega2]
        for T, s in zip(budgets, _evaluate(policy, inst, budgets))])


def _mc_row(policy: PolicySpec, inst: BanditInstance, T: int, n: int, seed: int,
            tilted: bool) -> list:
    est = (simulate_tilted_static if tilted else simulate_plain)(policy, inst, T, n, seed)
    return [est.method, policy.description, inst.mu1, inst.mu2, T, n, est.seed,
            est.mean, est.std_err]


def cmd_mc(args) -> int:
    return _run_sweep(args, MC_HEADER, lambda policy, inst, budgets, seed: [
        _mc_row(policy, inst, T, args.n, seed, args.tilted) for T in budgets])


def cmd_scan(args) -> int:
    policy = parse_policy(args.policy)
    inst = BanditInstance(*args.mu)
    _check_budget_count(args.T)
    scan = rate_ratio_scan(policy, inst, args.T)
    rows = [[p.T, p.p_error, p.ratio, scan.inv_g_half] for p in scan.points]
    _write_rows(args.out, SCAN_HEADER, rows)
    return EXIT_OK


def construct_beating_instance(a: float, x: float):
    """:func:`bailab.constructions.construct_beating_instance`, imported on the
    first call, so that only ``construct`` and ``demo`` load ``constructions``
    and ``dual``; both commands call it through this module attribute."""
    from .constructions import construct_beating_instance

    return construct_beating_instance(a, x)


def cmd_construct(args) -> int:
    cert = construct_beating_instance(args.a, args.x)
    text = _json_dumps(cert.to_json_dict())
    _write_out(args.out, lambda handle: print(text, file=handle))
    return EXIT_OK


def cmd_demo(args) -> int:
    if not 0.0 < args.grid < 0.4:
        raise ArgumentError(f"--grid must lie in (0, 0.4) to scan two means, got {args.grid!r}")
    # the grid holds round(1/grid) - 1 means per side; 1/grid overflows below ~5.6e-309
    side = 1.0 / args.grid
    steps = int(round(side)) - 1 if math.isfinite(side) else math.inf
    limit = _max_states()
    if steps > limit:
        raise ArgumentError(f"--grid {args.grid!r} needs {steps} means per side, over the "
                            f"state limit of {limit}; set {MAX_STATES_ENV} to raise it")
    if not 0.0 <= args.min_gap < math.inf:
        raise ArgumentError(f"--min-gap must lie in [0, inf), got {args.min_gap!r}")
    check_budget(args.T)
    mu0 = BanditInstance(*args.mu0)
    x_tuned = x_star(mu0)
    if abs(x_tuned - 0.5) < 1e-9:
        print(_json_dumps({
            "x_tuned": x_tuned,
            "message": "policy coincides with uniform; no witness exists",
        }))
        return EXIT_OK
    # both schedules of the exact confirmation, checked before any search
    for schedule in (PolicySpec.static(x_tuned), PolicySpec.uniform()):
        static_counts(schedule, args.T)

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

    # grid scan for the largest rate gap at the requested resolution, a band of
    # whole rows at a time: as many as fit in _DEMO_GRID_CELLS cells, and at least
    # one; the first largest cell in row-major order wins, as in a scan that keeps
    # a strict maximum
    best_grid = None
    best_grid_gap = -math.inf
    values = [args.grid * k for k in range(1, steps + 1)]
    band_rows = max(1, _DEMO_GRID_CELLS // steps)
    for start in range(0, steps, band_rows):
        rows = values[start:start + band_rows]
        gaps = g_closed_grid(0.5, rows, values) - g_closed_grid(x_tuned, rows, values)
        band = np.arange(len(rows))
        gaps[band, start + band] = -math.inf  # equal means have no best arm
        i, j = np.unravel_index(np.argmax(gaps), gaps.shape)
        if gaps[i, j] > best_grid_gap:
            best_grid, best_grid_gap = BanditInstance(rows[i], values[j]), float(gaps[i, j])

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
    instances = []
    for inst in (witness, mu0):
        logs = {name: static_error_log(x, inst, args.T)
                for name, x in (("tuned", x_tuned), ("uniform", 0.5))}
        instances.append({"mu1": inst.mu1, "mu2": inst.mu2,
                          **{f"p_error_{name}": math.exp(v) for name, v in logs.items()},
                          **{f"log_p_error_{name}": v for name, v in logs.items()}})
    losing_instance, winning_instance = instances
    confirmed = (
        losing_instance["log_p_error_tuned"] > losing_instance["log_p_error_uniform"]
        and winning_instance["log_p_error_tuned"] < winning_instance["log_p_error_uniform"]
    )
    payload = {
        "x_tuned": x_tuned,
        "witness": {"mu1": witness.mu1, "mu2": witness.mu2},
        "rate_gap": witness_gap,
        "certificate": best_cert.to_json_dict(),
        "grid_best": {"mu1": best_grid.mu1, "mu2": best_grid.mu2,
                      "rate_gap": best_grid_gap},
        "exact_confirmation": {"T": args.T, "losing_instance": losing_instance,
                               "winning_instance": winning_instance},
        "confirmed": confirmed,
    }
    print(_json_dumps(payload))
    if not confirmed:
        return EXIT_RESOLUTION
    return EXIT_OK


def _rates_arguments(p) -> None:
    p.add_argument("--mu", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--x", type=float, default=None)


def _verify_arguments(p) -> None:
    from .verification import SUITES

    p.add_argument("suite", choices=[*SUITES, "all"])
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)


def _exact_arguments(p) -> None:
    p.add_argument("--policy")
    p.add_argument("--mu", type=_mu_pair, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, metavar="T|START:STOP[:STEP]")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON sweep config")


def _mc_arguments(p) -> None:
    p.add_argument("--policy")
    p.add_argument("--mu", type=_mu_pair, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, metavar="T|START:STOP[:STEP]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--tilted", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON sweep config")


def _scan_arguments(p) -> None:
    p.add_argument("--policy", required=True)
    p.add_argument("--mu", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--T", type=_budget_list, required=True,
                   metavar="START:STOP[:STEP]")
    p.add_argument("--out", default=None)


def _construct_arguments(p) -> None:
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--out", default=None)


def _demo_arguments(p) -> None:
    p.add_argument("--mu0", type=_mu_pair, required=True, metavar="MU1,MU2")
    p.add_argument("--grid", type=float, default=0.05)
    p.add_argument("--min-gap", dest="min_gap", type=float, default=1e-3)
    p.add_argument("--T", type=int, default=2000)


# each command's help, handler and arguments, in the order the usage lists them
_COMMANDS = {
    "rates": ("rate profile of an instance", cmd_rates, _rates_arguments),
    "verify": ("run randomized property suites", cmd_verify, _verify_arguments),
    "exact": ("exact evaluation (CSV)", cmd_exact, _exact_arguments),
    "mc": ("Monte Carlo estimation (CSV)", cmd_mc, _mc_arguments),
    "scan": ("error-rate scan over budgets (CSV)", cmd_scan, _scan_arguments),
    "construct": ("build a certified beating instance (JSON)", cmd_construct,
                  _construct_arguments),
    "demo": ("no-free-lunch demonstration for a tuned policy", cmd_demo, _demo_arguments),
}


@functools.cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` only, or of every command
    when it is None; built once per process for each."""
    parser = argparse.ArgumentParser(
        prog="bailab",
        description="Numerical laboratory for fixed-budget best-arm "
                    "identification in two-armed Bernoulli bandits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # a one-command tree names every command in the top-level usage, which
    # argparse prints for arguments the subparser leaves over
    every = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in _COMMANDS if command is None else (command,):
        help_text, func, add_arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit writes to devnull, quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
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
