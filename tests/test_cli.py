"""End-to-end tests of the command-line interface."""

import csv
import json
import math

import pytest

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

    def test_capacity_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--policy", "plugin:0.5",
                               "--mu", "0.7,0.3", "--T", "200")
        assert code == 4
        assert "BAI_MAX_STATES" in err

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

    def test_dual_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dual", "--samples", "60",
                               "--seed", "3")
        assert code == 0


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

    def test_symmetric_reference_has_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.7,0.3")
        assert code == 0
        payload = json.loads(out)
        assert "no witness" in payload["message"]
