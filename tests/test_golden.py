"""Golden outputs: the stdout of fixed CLI commands, pinned by SHA-256.

A refactor that must not change numbers keeps every digest.  A change
that moves numbers on purpose re-records the file and says which
commands changed and why:

    PYTHONPATH=src python tests/test_golden.py --record

Re-recording prints each command whose exit code or digest moved (a command
new to the file counts as moved), one a line, and nothing else.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from bailab.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_stdout.json")

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
]


def run_command(command: str) -> dict:
    """Exit code and stdout digest of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_golden(command):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_command(command) == golden[command]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    before = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    record = {command: run_command(command) for command in COMMANDS}
    GOLDEN_PATH.write_text(json.dumps(record, indent=2) + "\n")
    for command, result in record.items():
        if before.get(command) != result:
            print(command)
