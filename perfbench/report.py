"""Print every end-to-end and per-layer metric of the benchmark, by name, with
its unit and sample count.

Usage, from the repository root::

    python3 perfbench/report.py [--workload NAME ...] [--seed 1] [--seconds 20]

Each workload gets one untraced run (end-to-end metrics) and one traced run
(per-layer metrics).  Exits 1 if any op produced a wrong answer or a traced
count did not repeat; ops whose command failed are listed and counted.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    print(json.dumps({"environment": run.environment()}, indent=1))
    ok = True
    for workload in args.workload or workloads.WORKLOADS:
        for trace in (False, True):
            try:
                outcome = run.measure(workload, args.seed, args.seconds, trace)
            except run.BenchError as exc:
                print(f"{workload}: benchmark error: {exc}", file=sys.stderr)
                return 2
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"\n{workload} — {kind}: {outcome.attempted} ops, {outcome.failed} failed, "
                  f"{outcome.wrong} wrong answers")
            for message in dict.fromkeys(outcome.messages):
                print(f"  ! {message}")
            print(f"  {'metric':50s} {'value':>16s} {'unit':8s} samples")
            for name, (value, unit, samples) in outcome.metrics.items():
                shown = f"{value:16d}" if unit == "count" else f"{value:16.6g}"
                print(f"  {name:50s} {shown} {unit:8s} {samples}")
            ok = ok and outcome.correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
