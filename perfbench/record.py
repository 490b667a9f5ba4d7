"""Regenerate ``reference.json``: the recorded outputs the workload checks use.

Run from the repository root: ``python3 perfbench/record.py``.  It evaluates
every pool instance of every workload command in-process and takes a few
minutes.  The committed file was recorded at the commit that introduced the
benchmark; regenerate it only on purpose, and say which numbers moved.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as w  # noqa: E402
from bailab.cli import main  # noqa: E402
from bailab.exact import static_error_log  # noqa: E402
from bailab.policies import parse_policy  # noqa: E402
from bailab.rates import BanditInstance  # noqa: E402


def cli(argv: list[str], may_fail: bool = False) -> str | None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        if may_fail:
            return None
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return buf.getvalue()


def exact_row(policy: str, mu: str, T: int) -> dict:
    (row,) = csv.DictReader(io.StringIO(cli(["exact", "--policy", policy, "--mu", mu,
                                               "--T", str(T)])))
    return {k: float(row[k]) for k in ("p_error", "p_pick2", "e_n1", "e_omega2")}


def static_log_p(policy: str, mu: str, T: int) -> float:
    inst = BanditInstance(*(float(v) for v in mu.split(",")))
    return static_error_log(parse_policy(policy).schedule_fraction(), inst, T)


def main_record() -> None:
    ref = {"exact": {}, "static_log_p": {}, "scan": {}, "demo": {}}
    plugin_runs = [(p, mu, T) for p, T in w.PLUGIN_EXACT_RUNS for mu in w.PLUGIN_EXACT_POOL]
    plugin_runs += w.PLUGIN_MC_RUNS
    for policy, mu, T in plugin_runs:
        ref["exact"][w.exact_key(policy, mu, T)] = exact_row(policy, mu, T)
        print(policy, mu, T, file=sys.stderr)
    for mu in w.SCHEDULE_POOL:
        oracle = f"oracle:{mu}"
        for policy, T in (("uniform", w.UNIFORM_T), w.PLAIN_STATIC, (oracle, w.TILTED_T)):
            ref["static_log_p"][w.exact_key(policy, mu, T)] = static_log_p(policy, mu, T)
        text = cli(["scan", "--policy", oracle, "--mu", mu, "--T", w.SCAN_GRID])
        ref["scan"][w.exact_key(oracle, mu, w.SCAN_GRID)] = [
            [int(r["T"]), float(r["p_error"]), float(r["ratio"]), float(r["inv_g_half"])]
            for r in csv.DictReader(io.StringIO(text))]
    for mu0 in w.DEMO_POOL:
        # demo fails on some pool instances (ROADMAP item 0): recorded as null
        text = cli(["demo", "--mu0", mu0, "--grid", w.DEMO_GRID], may_fail=True)
        ref["demo"][f"{mu0}|{w.DEMO_GRID}"] = None if text is None else json.loads(text)
    with open(w.REFERENCE_PATH, "w") as handle:
        json.dump(ref, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main_record()
