"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SRC_DIR TRACE`` with the commands as a
JSON list of argv lists on stdin.  Prints one JSON document on stdout.

Nothing but ``sys`` and ``time`` is imported before ``bailab.cli``, so the
parent's set-up time (spawn until ``imported``) is interpreter start plus
the package import and nothing of the benchmark's own.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import bailab.cli  # noqa: E402

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_command(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = bailab.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = None
            traceback.print_exc(file=err)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:], "wall_s": time.perf_counter() - start}


def main() -> None:
    trace = sys.argv[2] == "1"
    commands = json.load(sys.stdin)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0 = _cpu_s()
    start = time.perf_counter()
    results = [run_command(argv) for argv in commands]
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    doc = {
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": results,
        "trace": tracing.aggregate(tracer) if trace else None,
    }
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
