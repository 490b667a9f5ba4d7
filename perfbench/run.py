"""Benchmark of the ``bailab`` CLI: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload plugin_exact --seed 1 --seconds 20 --trace 0

A run repeats the workload's command list until ``--seconds`` have passed.
Each repetition is a fresh interpreter (``worker.py``) that imports
``bailab.cli`` and calls ``bailab.cli.main(argv)`` once per command, so every
repetition pays the imports and cold caches a real CLI call pays.  Only one
repetition runs at a time.  Every op's output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, with the tracing overhead.  The last line of stdout is the
result as one JSON object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

MIN_REPS = 3  # per kind of repetition
DEADLINE_S = 150.0  # no batch starts that would end after this; runs end by 180 s
REP_TIMEOUT_S = 170.0

LIMITS = ("Times only this benchmark's own processes, one repetition at a time. "
          "Pins no CPUs, drops no caches, sets no BAI_MAX_STATES (an inherited one "
          "is removed) and changes no machine setting; other load on the machine "
          "shows in the times.")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mib": "MiB", "ops_ok_share": "share"}
COUNT_SUFFIXES = (".calls", ".cells", ".layers", ".slices", ".states",
                  ".peak_layer_states", ".replications", ".draws", ".terms")


class BenchError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed op)."""


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed ops whose command exited 0: a wrong answer
    unstable_counts: int = 0  # traced counts that differ between repetitions
    messages: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """No op produced a wrong answer and every traced count repeated.

        Ops whose command raised or exited non-zero are failed, not wrong.
        """
        return self.wrong == 0 and self.unstable_counts == 0


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        with open("/proc/loadavg") as handle:
            loadavg = handle.read().strip()
    except OSError:
        loadavg = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "loadavg_at_start": loadavg,
        "limits": LIMITS,
    }


def import_times(stderr: str) -> dict[str, float]:
    """Set-up split from ``-X importtime``: numpy, scipy, and bailab itself.

    Each module's own import time goes to the package it belongs to, and a
    module of any other package (the standard library, say) to the nearest
    numpy, scipy or bailab module that imported it.  The three parts add up
    to the import of ``bailab.cli``.
    """
    stack: list[tuple[int, str, float, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, _, raw = line[len("import time:"):].split("|", 2)
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        stack.append((level, raw.strip(), int(own) / 1e6, children))

    sums = {"numpy": 0.0, "scipy": 0.0, "bailab": 0.0}

    def walk(node, owner: str | None) -> None:
        _, name, own, children = node
        top = name.split(".", 1)[0]
        owner = top if top in sums else owner
        if owner is not None:
            sums[owner] += own
        for child in children:
            walk(child, owner)

    for node in stack:
        walk(node, None)
    return {f"setup.{name}_s": value for name, value in sums.items()}


def run_repetition(commands: list[workloads.Command], trace: bool, budget_s: float) -> dict:
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + \
        [str(WORKER), str(SRC), "1" if trace else "0"]
    env = dict(os.environ)
    env.pop("BAI_MAX_STATES", None)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(argv, input=json.dumps([c.argv for c in commands]),
                              capture_output=True, text=True, env=env,
                              timeout=min(REP_TIMEOUT_S, budget_s))
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from None
    # perf_counter is CLOCK_MONOTONIC, shared by both processes
    doc["setup_s"] = doc["imported"] - spawned
    if trace:
        doc["imports"] = import_times(proc.stderr)
    return doc


def check_ops(commands: list[workloads.Command], doc: dict, outcome: Outcome) -> None:
    for cmd, result in zip(commands, doc["commands"]):
        attempted, failed, messages = workloads.check(cmd, result["rc"], result["stdout"])
        outcome.attempted += attempted
        outcome.failed += failed
        if result["rc"] == 0:
            outcome.wrong += failed
        elif result["stderr"]:
            messages = [m + " | " + result["stderr"].strip().splitlines()[-1] for m in messages]
        outcome.messages.extend(messages)


def traced_metrics(docs: list[dict], outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics over traced repetitions: medians of times, and counts,
    which must repeat exactly."""
    per_rep = []
    for doc in docs:
        values = dict(doc["imports"])
        values.update(tracing.layer_metrics(doc["trace"]))
        values["trace.wall_s"] = doc["wall_s"]
        per_rep.append(values)
    out = {}
    for name in per_rep[0]:
        series = [values[name] for values in per_rep]
        if unit_of(name) == "count":
            if len(set(series)) != 1:
                outcome.unstable_counts += 1
                outcome.messages.append(f"counts differ across repetitions: {name} {series}")
            out[name] = series[0]
        else:
            out[name] = statistics.median(series)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if not (SRC / "bailab" / "cli.py").is_file():
        raise BenchError(f"no bailab sources under {SRC}")
    commands = workloads.build(workload, seed, workloads.load_reference())
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "bailab")],
                   check=True, capture_output=True)
    outcome = Outcome()
    kinds = [False, True] if trace else [False]
    docs: dict[bool, list[dict]] = {k: [] for k in kinds}
    start = time.perf_counter()
    batch_s = 0.0  # duration of the last batch (one repetition of each kind)
    while True:
        elapsed = time.perf_counter() - start
        done = min(len(v) for v in docs.values()) >= MIN_REPS and elapsed >= seconds
        if done or (batch_s and elapsed + batch_s > DEADLINE_S):
            break
        for kind in kinds:
            budget = REP_TIMEOUT_S - (time.perf_counter() - start)
            doc = run_repetition(commands, kind, max(1.0, budget))
            check_ops(commands, doc, outcome)
            docs[kind].append(doc)
        batch_s = time.perf_counter() - start - elapsed
    plain = docs[False]
    if trace:
        layer = traced_metrics(docs[True], outcome)
        untraced_wall = statistics.median([d["wall_s"] for d in plain])
        layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced_wall
        for name, value in layer.items():
            outcome.metrics[name] = (value, unit_of(name), len(docs[True]))
    else:
        for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mib"):
            values = [d[name] for d in plain]
            outcome.metrics[name] = (statistics.median(values), unit_of(name), len(values))
        outcome.metrics["ops_ok_share"] = (
            1.0 - outcome.failed / outcome.attempted, "share", outcome.attempted)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    env = environment()
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for message in dict.fromkeys(outcome.messages):
        print(message, file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
