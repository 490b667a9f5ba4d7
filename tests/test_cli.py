"""End-to-end tests of the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bailab
from bailab import verification
from bailab.cli import main
from bailab.exact import exact_summary
from bailab.policies import PolicySpec, parse_policy
from bailab.rates import BanditInstance, g_closed, lambda_star, x_star


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRatesCommand:
    def test_rate_profile_json(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--mu", "0.7,0.3", "--x", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["g"] == pytest.approx(0.08717669357238887, abs=1e-15)
        assert payload["lambda"] == pytest.approx(0.5, abs=1e-15)
        assert payload["x_star"] == pytest.approx(0.5, abs=1e-10)
        assert payload["inv_g_half"] == pytest.approx(1.0 / 0.08717669357238887, rel=1e-12)

    def test_defaults_to_the_optimum(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--mu", "0.9,0.5")
        payload = json.loads(out)
        inst = BanditInstance(0.9, 0.5)
        assert code == 0
        assert payload["x"] == payload["x_star"] == pytest.approx(x_star(inst), abs=1e-12)
        assert payload["g"] == pytest.approx(g_closed(x_star(inst), inst), abs=1e-15)

    def test_degenerate_instance_exits_domain(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--mu", "0.7,0.7")
        assert code == 3
        assert "domain error" in err

    def test_malformed_floats_exit_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--mu", "0.7;0.3"])
        assert exc.value.code == 2

    def test_out_of_range_mean_exits_domain(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--mu", "1.5,0.3")
        assert code == 3

    def test_subnormal_mean_exits_domain(self, capsys):
        code, out, err = run_cli(capsys, "rates", "--mu", "1e-320,0.5")
        assert code == 3 and out == ""
        assert "mu1 must be at least the smallest normal double 2.2250738585072014e-308" in err


# separated means whose g(1/2) rounds to -0.0
NEAR_DIAGONAL = ["0.30000001,0.3", "0.3,0.30000000000000004"]


@pytest.mark.parametrize("mu", NEAR_DIAGONAL)
@pytest.mark.parametrize("argv", [["rates"], ["scan", "--policy", "uniform", "--T", "10:20:10"]],
                         ids=["rates", "scan"])
def test_unresolved_g_half_exits_domain(capsys, argv, mu):
    code, out, err = run_cli(capsys, *argv, "--mu", mu)
    assert code == 3 and out == ""
    assert "g(1/2)" in err and "does not resolve in double precision" in err
    assert mu.split(",")[0] in err


class TestExactCommand:
    def test_csv_row_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--policy", "uniform",
                               "--mu", "0.9,0.1", "--T", "2")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 1
        row = rows[0]
        assert row["policy"] == "uniform"
        assert float(row["p_error"]) == pytest.approx(0.1, abs=1e-15)
        ref = exact_summary(PolicySpec.uniform(), BanditInstance(0.9, 0.1), 2)
        assert float(row["e_n1"]) == ref.e_n1
        assert float(row["e_omega2"]) == ref.e_omega2

    def test_output_files_are_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run_cli(capsys, "exact", "--policy", "plugin:0.4",
                                 "--mu", "0.7,0.3", "--T", "12", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_capacity_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("BAI_MAX_STATES", "594")
        code, _, err = run_cli(capsys, "exact", "--policy", "plugin:0.5",
                               "--mu", "0.7,0.3", "--T", "200")
        assert code == 4
        assert "layer 20 needs 595 states" in err
        assert "BAI_MAX_STATES" in err

    def test_kept_band_under_the_limit_runs(self, capsys):
        # its untrimmed layers pass the default limit from layer 152 on
        code, out, _ = run_cli(capsys, "exact", "--policy", "plugin:0.01",
                               "--mu", "0.9,0.5", "--T", "160")
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        assert row["T"] == "160"

    def test_fixed_schedule_capacity_is_the_binomial_table(self, capsys):
        # the log path's limit: far past T = 1547, where the uniform DP stopped
        code, out, _ = run_cli(capsys, "exact", "--policy", "uniform",
                               "--mu", "0.7,0.3", "--T", "2000")
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        assert row["e_n1"] == "1000"
        assert row["e_omega2"] == "0.5"

    def test_sweep_config(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        config = {
            "instances": [[0.7, 0.3], [0.8, 0.4]],
            "policies": ["uniform", "static:0.25"],
            "budgets": [4, 8],
            "output_path": str(out_path),
            "seed": 0,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "exact", "--config", str(cfg))
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 8
        policies = {row["policy"] for row in rows}
        assert policies == {"uniform", "static:0.25"}

    def test_missing_flags_exit_usage(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--policy", "uniform")
        assert code == 2

    @pytest.mark.parametrize("output_path", [None, "absent"])
    def test_sweep_config_without_output_path_writes_stdout(
            self, capsys, tmp_path, monkeypatch, output_path):
        config = {"instances": [[0.7, 0.3]], "policies": ["uniform"], "budgets": [4, 8]}
        if output_path is None:
            config["output_path"] = None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "exact", "--config", str(cfg))
        assert code == 0
        assert [row["T"] for row in csv.DictReader(out.splitlines())] == ["4", "8"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


SWEEP_CONFIG = {"instances": [[0.7, 0.3]], "policies": ["static:0.4"], "budgets": [40],
                "output_path": None}


@pytest.mark.parametrize("command, flag, value", [
    ("exact", "--policy", "uniform"),
    ("exact", "--mu", "0.6,0.4"),
    ("exact", "--T", "12"),
    ("exact", "--out", "ignored.csv"),
    ("mc", "--seed", "5"),
    ("mc", "--seed", "0"),
    ("mc", "--out", "ignored.csv"),
])
def test_flag_next_to_config_exits_usage(capsys, tmp_path, monkeypatch, command, flag, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    monkeypatch.chdir(tmp_path)
    extra = ["--n", "100"] if command == "mc" else []
    code, out, err = run_cli(capsys, command, "--config", str(cfg), flag, value, *extra)
    assert code == 2 and out == ""
    assert f"{flag} conflicts with --config" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


class TestMcCommand:
    def test_runs_and_is_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run_cli(capsys, "mc", "--policy", "static:0.5",
                                 "--mu", "0.7,0.3", "--T", "60", "--n", "2000",
                                 "--tilted", "--seed", "42", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()
        row = next(csv.DictReader(f1.read_text().splitlines()))
        assert row["method"] == "tilted"
        assert row["seed"] == "42"
        assert float(row["estimate"]) > 0.0

    def test_tilted_rejects_adaptive_policies(self, capsys):
        code, _, err = run_cli(capsys, "mc", "--policy", "plugin:0.5",
                               "--mu", "0.7,0.3", "--T", "20", "--n", "100",
                               "--tilted")
        assert code == 2

    @pytest.mark.parametrize("seed", ["18446744073709551621", "-18446744073709551611", "-1"])
    @pytest.mark.parametrize("tilted", [[], ["--tilted"]], ids=["plain", "tilted"])
    def test_seed_outside_64_bits_exits_usage(self, capsys, seed, tilted):
        code, out, err = run_cli(capsys, "mc", "--policy", "uniform", "--mu", "0.7,0.3",
                                 "--T", "10", "--n", "10", "--seed", seed, *tilted)
        assert code == 2 and out == ""
        assert f"seed must be an integer in [0, 2**64), got {seed}" in err

    def test_plain_row(self, capsys):
        code, out, _ = run_cli(capsys, "mc", "--policy", "uniform",
                               "--mu", "0.9,0.1", "--T", "2", "--n", "50000",
                               "--seed", "7")
        assert code == 0
        row = next(csv.DictReader(out.splitlines()))
        assert row["method"] == "plain"
        assert float(row["estimate"]) == pytest.approx(0.1, abs=0.01)


class TestScanCommand:
    def test_headers_and_reference_column(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--policy", "uniform",
                               "--mu", "0.7,0.3", "--T", "100:300:100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "T,p_error,ratio,inv_g_half"
        rows = list(csv.DictReader(lines))
        assert [row["T"] for row in rows] == ["100", "200", "300"]
        ref = {row["inv_g_half"] for row in rows}
        assert len(ref) == 1
        inst = BanditInstance(0.7, 0.3)
        assert float(ref.pop()) == pytest.approx(1.0 / g_closed(0.5, inst), rel=1e-12)

    def test_ratio_column_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--policy", "static:0.4",
                               "--mu", "0.8,0.4", "--T", "50,100")
        rows = list(csv.DictReader(out.splitlines()))
        for row in rows:
            expect = int(row["T"]) / -math.log(float(row["p_error"]))
            assert float(row["ratio"]) == pytest.approx(expect, rel=1e-10)


class TestConstructCommand:
    def test_certificate_json(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--a", "0.3", "--x", "0.8")
        assert code == 0
        payload = json.loads(out)
        inst = BanditInstance(payload["instance"]["mu1"], payload["instance"]["mu2"])
        assert payload["case_used"] == "negative_alpha"
        assert abs(lambda_star(0.8, inst) - 0.3) <= 1e-9
        assert g_closed(0.8, inst) < g_closed(0.5, inst)
        assert payload["residual_lambda"] <= 1e-9

    def test_mirrored_certificate_to_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "construct", "--a", "0.4", "--x", "0.2",
                             "--out", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["case_used"] == "mirrored"

    def test_invalid_allocation_exits_usage(self, capsys):
        code, _, _ = run_cli(capsys, "construct", "--a", "0.3", "--x", "0.5")
        assert code == 2

    @pytest.mark.parametrize("a, x", [("0.999999", "0.500001"), ("1e-15", "0.1")])
    def test_unrepresentable_gap_exits_usage(self, capsys, a, x):
        # g(1/2) and g(x) round to the same double on the constructed instance
        code, _, err = run_cli(capsys, "construct", "--a", a, "--x", x)
        assert code == 2
        assert "g(1/2)" in err and "|x - 1/2|" in err and "not representable" in err


class TestVerifyCommand:
    def test_rates_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "rates", "--samples", "60",
                               "--seed", "7")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("suite, samples", [("rates", "0"), ("com", "-3")])
    def test_fewer_than_one_sample_exits_usage(self, capsys, suite, samples):
        code, out, err = run_cli(capsys, "verify", suite, "--samples", samples)
        assert code == 2
        assert "PASS" not in out
        assert "at least 1 sample" in err

    @pytest.mark.parametrize("suite", ["rates", "all"])
    def test_negative_seed_exits_usage(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", suite, "--samples", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed of at least 0, got -1" in err

    def test_dual_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dual", "--samples", "60",
                               "--seed", "3")
        assert code == 0

    def test_a_suite_that_raises_is_a_reported_fail(self, capsys, monkeypatch):
        def boom(samples, seed):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setitem(verification.SUITES, "rates", boom)
        code, out, err = run_cli(capsys, "verify", "all", "--samples", "3", "--seed", "11")
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "FAIL suite rates raised: worst=NaN bound=NaN samples=3"
        # the next suite, dual, still runs: its first property is the KL identity
        assert lines[1].startswith("PASS KL vs Bregman identity:")
        witness = json.loads(out.split("failing witnesses:\n", 1)[1])
        assert witness["property"] == "suite rates raised"
        assert witness["witness"] == {"suite": "rates", "seed": 11, "samples": 3,
                                      "error": "ZeroDivisionError: float division by zero"}


class TestDemoCommand:
    def test_finds_certified_witness(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--T", "400")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate_gap"] >= 1e-3
        assert payload["confirmed"] is True
        losing = payload["exact_confirmation"]["losing_instance"]
        assert losing["log_p_error_tuned"] > losing["log_p_error_uniform"]
        winning = payload["exact_confirmation"]["winning_instance"]
        assert winning["log_p_error_tuned"] < winning["log_p_error_uniform"]
        assert winning["p_error_tuned"] < winning["p_error_uniform"]

    def test_skips_targets_without_a_representable_instance(self, capsys):
        # x* = 0.4889 is too close to 1/2 for the targets a = 0.2 and 0.3
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.7,0.2")
        assert code == 0
        payload = json.loads(out)
        assert payload["confirmed"] is True
        assert payload["certificate"]["a_target"] == 0.6

    @pytest.mark.parametrize("grid", ["0", "nan", "-0.1", "0.4", "0.45", "1", "inf"])
    def test_grid_outside_its_range_exits_usage(self, capsys, grid):
        code, out, err = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", grid)
        assert code == 2 and out == ""
        assert "(0, 0.4)" in err

    @pytest.mark.parametrize("min_gap", ["nan", "inf", "-inf", "-0.001"])
    def test_min_gap_outside_its_range_exits_usage(self, capsys, min_gap):
        # the '=' form: argparse reads a bare "-inf" as an option
        code, out, err = run_cli(capsys, "demo", "--mu0", "0.9,0.5", f"--min-gap={min_gap}")
        assert code == 2 and out == ""
        assert "[0, inf)" in err

    def test_zero_min_gap_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", "0.1",
                               "--min-gap", "0")
        assert code == 0 and json.loads(out)["confirmed"] is True

    @pytest.mark.parametrize("grid, plant, first", [
        # one band: the diagonal's larger value is no instance
        (0.05, {(3, 3): 2.0, (5, 2): 1.0, (2, 7): 1.0, (2, 9): 1.0}, (2, 7)),
        # two bands of rows: a tie in the later band does not replace the first
        (0.003, {(300, 4): 1.0, (10, 200): 1.0, (10, 9): 0.5, (300, 300): 3.0}, (10, 200)),
    ])
    def test_grid_tie_goes_to_the_first_cell_in_row_major_order(
            self, capsys, monkeypatch, grid, plant, first):
        index = {grid * k: k - 1 for k in range(1, int(round(1.0 / grid)))}

        def planted(x, mu1s, mu2s):
            gaps = np.zeros((len(mu1s), len(mu2s)))
            if x == 0.5:
                for i, m1 in enumerate(mu1s):
                    for j, m2 in enumerate(mu2s):
                        gaps[i, j] = plant.get((index[m1], index[m2]), 0.0)
            return gaps

        monkeypatch.setattr("bailab.cli.g_closed_grid", planted)
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", str(grid))
        assert code == 0
        i, j = first
        assert json.loads(out)["grid_best"] == {"mu1": grid * (i + 1), "mu2": grid * (j + 1),
                                                "rate_gap": 1.0}

    def test_symmetric_reference_has_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.7,0.3")
        assert code == 0
        payload = json.loads(out)
        assert "no witness" in payload["message"]


# One command of each benchmark shape.
IMPORT_PATH_COMMANDS = [
    ["exact", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "40"],
    ["exact", "--policy", "plugin:0.5", "--mu", "0.7,0.3", "--T", "12"],
    ["scan", "--policy", "oracle:0.9,0.5", "--mu", "0.7,0.3", "--T", "100,1000"],
    ["mc", "--policy", "static:0.4", "--mu", "0.7,0.3", "--T", "50", "--n", "1000",
     "--seed", "1"],
    ["mc", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "200", "--n", "1000",
     "--seed", "1", "--tilted"],
    ["demo", "--mu0", "0.9,0.5", "--grid", "0.1"],
]

IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
import bailab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bailab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "stats": sorted(m for m in sys.modules if m.startswith("scipy.stats"))}))
"""


def test_cli_never_imports_scipy_stats():
    """``scipy.stats`` costs about 1 s to import and the library needs none of
    it; a lazy import inside a command would hide that cost in its run time."""
    env = dict(os.environ)
    src = str(Path(bailab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, json.dumps(IMPORT_PATH_COMMANDS)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(IMPORT_PATH_COMMANDS)
    assert result["stats"] == []
