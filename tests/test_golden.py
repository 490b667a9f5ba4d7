"""Golden outputs: the stdout of fixed CLI commands, pinned by SHA-256, and
the argparse surface (help, version and usage errors) pinned as text.

A refactor that must not change numbers keeps every digest.  A change
that moves numbers on purpose re-records the files and says which
commands changed and why:

    PYTHONPATH=src python tests/test_golden.py --record

Re-recording prints each command whose recorded result moved (a command
new to a file counts as moved), one a line, and nothing else.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from bailab.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_stdout.json")
ARGPARSE_PATH = Path(__file__).with_name("golden_argparse.json")

COMMANDS = [
    "rates --mu 0.9,0.5",
    "exact --policy plugin:0.5 --mu 0.7,0.3 --T 24",
    "exact --policy uniform --mu 0.7,0.3 --T 200",
    "exact --policy oracle:0.9,0.5 --mu 0.6,0.4 --T 60",
    "mc --policy plugin:0.5 --mu 0.75,0.35 --T 20 --n 200 --seed 3",
    "mc --policy static:0.3 --mu 0.8,0.4 --T 45 --n 100000 --seed 1",
    "mc --policy static:0.5 --mu 0.7,0.3 --T 200 --n 100000 --seed 99 --tilted",
    "scan --policy oracle:0.6,0.4 --mu 0.6,0.4 --T 4000:40000:4000",
    "construct --a 0.3 --x 0.7",
    "construct --a 0.6 --x 0.3",
    "construct --a 0.0856 --x 0.5519",
    "demo --mu0 0.9,0.5 --grid 0.05",
    "verify rates --samples 60 --seed 7",
    "verify dual --samples 60 --seed 3",
    "mc --policy plugin:0.5 --mu 0.6,0.4 --T 60 --n 100 --seed 1",
    "mc --policy plugin:0.2 --mu 0.45,0.65 --T 48 --n 100 --seed 2",
    "mc --policy plugin:0.5 --mu 0.5,0.3 --T 60 --n 100 --seed 3",
    "mc --policy plugin:0.2 --mu 0.4,0.58 --T 48 --n 100 --seed 4",
    # block edges (200001 = 3 * 2**16 + 3393, 131073 = 2 * 2**16 + 1),
    # arm 2 best, and a fine demo grid
    "mc --policy uniform --mu 0.4,0.6 --T 30 --n 200001 --seed 5",
    "mc --policy static:0.3 --mu 0.2,0.25 --T 300 --n 131073 --seed 9 --tilted",
    "demo --mu0 0.7,0.2 --grid 0.003",
    # the plug-in DP at the benchmark's shape on a knife edge, with arm 2
    # best, and at a budget whose largest slices exceed one group of cells
    "exact --policy plugin:0.5 --mu 0.6,0.4 --T 48",
    "exact --policy plugin:0.2 --mu 0.4,0.6 --T 40",
    "exact --policy plugin:0.01 --mu 0.9,0.1 --T 130",
    # a budget whose untrimmed layers pass the state limit while the kept
    # band (at most 278,036 states) fits under it
    "exact --policy plugin:0.01 --mu 0.9,0.5 --T 160",
    # the binomial log path's edges: arm 2 best with a tie cell at every
    # budget, and an error probability of 4.7e-302
    "scan --policy static:0.5 --mu 0.3,0.7 --T 3:60",
    "exact --policy static:0.25 --mu 0.999999999,0.5 --T 4000",
    # plug-in scans: one DP pass serves every budget of the grid, also with
    # arm 2 best, unsorted budgets and a duplicate
    "scan --policy plugin:0.2 --mu 0.6,0.4 --T 10:60:10",
    "scan --policy plugin:0.5 --mu 0.3,0.7 --T 40,20,40",
    # tilted MC on schedules that are not `static:`: an oracle tilt, and
    # uniform sampling with arm 2 best over more than one block
    "mc --policy oracle:0.9,0.5 --mu 0.6,0.4 --T 1000 --n 1000 --seed 7 --tilted",
    "mc --policy uniform --mu 0.3,0.7 --T 300 --n 70000 --seed 11 --tilted",
    # plug-in tracking over three blocks (131073 = 2 * 2**16 + 1), arm 2 best
    "mc --policy plugin:0.2 --mu 0.45,0.6 --T 12 --n 131073 --seed 5",
    # the DP's opening layers: a budget of 2, and a scan starting there
    "exact --policy plugin:0.5 --mu 0.7,0.3 --T 2",
    "scan --policy plugin:0.2 --mu 0.3,0.7 --T 2:4",
    # the log path with arm 2 best: a demo whose home instance has it, and an
    # oracle schedule evaluated on such an instance
    "demo --mu0 0.3,0.8 --grid 0.05",
    "exact --policy oracle:0.3,0.8 --mu 0.35,0.75 --T 500",
    # plug-in replays whose draws take more than one chunk of rounds: 100
    # replications in chunks of 655 rounds, and 3,000 in chunks of 21, 21 and 8
    "mc --policy plugin:0.3 --mu 0.6,0.45 --T 700 --n 100 --seed 6",
    "mc --policy plugin:1 --mu 0.35,0.5 --T 50 --n 3000 --seed 7",
    # at scale: log-factorial tables of 550,001 entries on the all-ties path,
    # and a demo grid of 999 means a side in 16 bands
    "scan --policy uniform --mu 0.6,0.4 --T 100000:1100000:100000",
    "demo --mu0 0.85,0.55 --grid 0.001",
    # a mirrored construction whose complemented small mean misses the
    # target, so arm 2's mean is solved again
    "construct --a 0.9 --x 0.45",
    # exact over a budget list, one engine call per policy and instance: a
    # plug-in range, plug-in with arm 2 best, unsorted budgets and a repeat,
    # and a fixed schedule with a repeat
    "exact --policy plugin:0.2 --mu 0.6,0.4 --T 10:60:10",
    "exact --policy plugin:0.5 --mu 0.3,0.7 --T 40,20,40",
    "exact --policy oracle:0.9,0.5 --mu 0.6,0.4 --T 500,60,500",
    # fixed-schedule MC at T = 1e5, where the inverse-CDF tables crowd some
    # buckets with thresholds: plain and tilted, each also with arm 2 best
    "mc --policy uniform --mu 0.501,0.499 --T 100000 --n 70000 --seed 13",
    "mc --policy static:0.4 --mu 0.499,0.501 --T 100000 --n 70000 --seed 16",
    "mc --policy uniform --mu 0.51,0.49 --T 100000 --n 70000 --seed 14 --tilted",
    "mc --policy oracle:0.49,0.51 --mu 0.49,0.51 --T 100000 --n 70000 --seed 15 --tilted",
]


# argv whose handling argparse decides: help, version, missing and unknown
# commands, and errors that a subcommand's parser or the top-level one reports
ARGPARSE_COMMANDS = [
    "--help",
    "--version",
    "",
    "bogus",
    "-- exact",
    *(f"{command} --help" for command in
      ("rates", "verify", "exact", "mc", "scan", "construct", "demo")),
    "exact --bogus 1",
    "exact --version",
    "mc --policy uniform --mu 0.7,0.3 --T 10",
    "rates --mu 0.7;0.3",
    "verify bogus",
]


def run_command(command: str) -> dict:
    """Exit code and stdout digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run_argparse(command: str) -> dict:
    """Exit status, stdout and stderr of one in-process CLI run, at a fixed
    terminal width, with argparse's ``SystemExit`` read as the exit status."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(command.split())
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_command(command) == golden[command]


@pytest.mark.parametrize("command", ARGPARSE_COMMANDS)
def test_argparse_surface_matches_golden(command):
    golden = json.loads(ARGPARSE_PATH.read_text())
    assert run_argparse(command) == golden[command]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    for path, commands, run in ((GOLDEN_PATH, COMMANDS, run_command),
                                (ARGPARSE_PATH, ARGPARSE_COMMANDS, run_argparse)):
        before = json.loads(path.read_text()) if path.exists() else {}
        record = {command: run(command) for command in commands}
        path.write_text(json.dumps(record, indent=2) + "\n")
        for command, result in record.items():
            if before.get(command) != result:
                print(command)
