"""End-to-end tests of the command-line interface."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bailab
from bailab import cli, verification
from bailab.cli import main
from bailab.errors import ConstructionError
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


@pytest.mark.parametrize("command, field, value", [
    ("exact", "budgets", [40.9]),
    ("mc", "seed", 3.7),
    ("exact", "budgets", [True]),
    ("exact", "policies", "static:0.4"),
], ids=["fractional_budget", "fractional_seed", "boolean_budget", "policies_not_a_list"])
def test_sweep_config_refuses_a_value_it_would_truncate(capsys, tmp_path, command, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, field: value}))
    extra = ["--n", "100"] if command == "mc" else []
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra)
    assert code == 2 and out == ""
    assert f"'{field}'" in err


@pytest.mark.parametrize("instances, field", [
    ([["0.7", "0.3"]], "instances[0][0]"),
    ([[0.7, 0.3], [0.6, True]], "instances[1][1]"),
    ([[False, 0.3]], "instances[0][0]"),
], ids=["string_mean", "boolean_mean", "boolean_false_mean"])
def test_sweep_config_refuses_a_mean_that_is_not_a_number(capsys, tmp_path, instances, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "instances": instances}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"{field} must be a JSON number" in err


@pytest.mark.parametrize("instances, message", [
    ([[0.7, 1.0]], "instances[0][1] must lie strictly inside (0, 1), got 1.0"),
    ([[0.7, 0.3], [0.0, 0.3]], "instances[1][0] must lie strictly inside (0, 1), got 0.0"),
    ([[0.7, 1e-310]], "instances[0][1] must be at least the smallest normal double"),
    ([[0.7]], "instances[0] must be a pair of means, got [0.7]"),
    ([[0.7, 0.3], [0.7, 0.3, 0.1]], "instances[1] must be a pair of means"),
    ([0.7], "instances[0] must be a pair of means, got 0.7"),
], ids=["mean_of_one", "mean_of_zero", "subnormal_mean", "one_mean", "three_means",
        "bare_number"])
def test_sweep_config_names_the_instance_it_refuses(capsys, tmp_path, instances, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "instances": instances}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("policies, field", [
    ([5], "policies[0]"),
    (["uniform", None], "policies[1]"),
    ([["uniform"]], "policies[0]"),
], ids=["number", "null", "list"])
def test_sweep_config_policy_must_be_a_string(capsys, tmp_path, policies, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "policies": policies}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"{field} must be a JSON string" in err


@pytest.mark.parametrize("raw", [[1, 2], "sweep", 3, None], ids=str)
def test_sweep_config_top_level_must_be_an_object(capsys, tmp_path, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "the top level must be a JSON object" in err


@pytest.mark.parametrize("value", [5, ["out.csv"], True])
def test_sweep_config_output_path_must_be_a_string_or_null(capsys, tmp_path, monkeypatch, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "output_path": value}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "'output_path' must be a string or null" in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


def test_sweep_config_string_output_path_is_written(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    out_file = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "output_path": str(out_file)}))
    code, out, _ = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 0 and out_file.exists()


@pytest.mark.parametrize("config, message", [
    ({**SWEEP_CONFIG, "policies": [None]}, "policies[0] must be a JSON string, got null"),
    ({**SWEEP_CONFIG, "seed": True}, "'seed' must be an integer, got true"),
    ({**SWEEP_CONFIG, "instances": [[0.7, "0.3"]]},
     'instances[0][1] must be a JSON number, got "0.3"'),
    ({**SWEEP_CONFIG, "instances": [["0.7"]]},
     'instances[0] must be a pair of means, got ["0.7"]'),
    ({**SWEEP_CONFIG, "budgets": [40, True]},
     "'budgets' entry 1 must be an integer of at least 2, got true"),
    ({**SWEEP_CONFIG, "budgets": [None]},
     "'budgets' entry 0 must be an integer of at least 2, got null"),
    ({**SWEEP_CONFIG, "output_path": False}, "'output_path' must be a string or null, got false"),
    ({**SWEEP_CONFIG, "budgets": {"T": 40}}, """'budgets' must be a JSON list, got {"T": 40}"""),
    ("sweep", 'the top level must be a JSON object, got "sweep"'),
], ids=["null_policy", "boolean_seed", "string_mean", "string_pair", "boolean_budget",
        "null_budget", "boolean_output_path", "budgets_object", "string_top_level"])
def test_sweep_config_quotes_the_value_it_refuses_as_json(capsys, tmp_path, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("mean, written", [
    (1, "1"), (10**400, str(10**400)), ("1e400", "1e400"), ("-2.50E+3", "-2.50E+3"),
    ("NaN", "NaN"), ("1e-400", "1e-400"),
], ids=["integer_one", "integer_of_401_digits", "float_past_range", "exponent_as_written",
        "nan", "float_below_range"])
def test_sweep_config_quotes_a_mean_out_of_range_as_written(capsys, tmp_path, mean, written):
    # the file holds the number's own text: json.dumps would write 1e400 as Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"instances": [[0.7, 0.3], [%s, 0.3]], "policies": ["uniform"], '
                   '"budgets": [10]}' % mean)
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.endswith(f"instances[1][0] must lie strictly inside (0, 1), got {written}\n")


@pytest.mark.parametrize("T", [2**53 + 1, 10**400], ids=["past_2_53", "401_digits"])
@pytest.mark.parametrize("command", [
    ["exact", "--policy", "uniform"], ["exact", "--policy", "plugin:0.5"],
    ["mc", "--n", "10", "--policy", "uniform"],
    ["mc", "--n", "10", "--policy", "uniform", "--tilted"], ["scan", "--policy", "uniform"],
], ids=["exact", "exact_plugin", "mc", "mc_tilted", "scan"])
def test_budget_past_2_53_is_refused_naming_the_cap(capsys, command, T):
    code, out, err = run_cli(capsys, *command, "--mu", "0.7,0.3", "--T", str(T))
    assert code == 2 and out == ""
    assert (f"budget must be at most 2**53, past which budgets stop being exact in "
            f"floating point, got {T}") in err


def test_budget_range_past_2_53_is_refused_naming_the_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--policy", "uniform", "--mu", "0.7,0.3", "--T", f"2:{10**400}"])
    assert exc.value.code == 2
    assert "STOP must be at most 2**53" in capsys.readouterr().err


def no_evaluation(*args):
    raise AssertionError("the budget count is checked before any evaluation")


BUDGET_COMMANDS = [
    ["exact", "--policy", "uniform"], ["mc", "--n", "10", "--policy", "uniform"],
    ["mc", "--n", "10", "--policy", "uniform", "--tilted"], ["scan", "--policy", "uniform"],
]
BUDGET_COMMAND_IDS = ["exact", "mc", "mc_tilted", "scan"]


@pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=BUDGET_COMMAND_IDS)
def test_budget_range_over_the_state_limit_exits_capacity(capsys, monkeypatch, command):
    for name in ("exact_summary", "simulate_plain", "simulate_tilted_static", "rate_ratio_scan"):
        monkeypatch.setattr(f"bailab.cli.{name}", no_evaluation)
    code, out, err = run_cli(capsys, *command, "--mu", "0.7,0.3", "--T", f"2:{2**53}")
    assert code == 4 and out == ""
    assert err == (f"capacity error: the budget list holds {2**53 - 1} budgets, over the limit "
                   f"of 600000; set BAI_MAX_STATES to raise it\n")


@pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=BUDGET_COMMAND_IDS)
def test_budget_count_at_the_state_limit_runs(capsys, monkeypatch, command):
    # 50 budgets; the largest, T = 59, needs binomial tables of 31 entries
    monkeypatch.setenv("BAI_MAX_STATES", "50")
    code, out, _ = run_cli(capsys, *command, "--mu", "0.7,0.3", "--T", "10:59")
    assert code == 0 and len(out.splitlines()) == 51
    code, out, err = run_cli(capsys, *command, "--mu", "0.7,0.3", "--T", "10:60")
    assert code == 4 and out == ""
    assert "the budget list holds 51 budgets, over the limit of 50" in err


def test_sweep_config_budgets_over_the_state_limit_exit_capacity(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BAI_MAX_STATES", "50")
    monkeypatch.setattr("bailab.cli.exact_summary", no_evaluation)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "budgets": list(range(10, 61))}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 4 and out == ""
    assert "the budget list holds 51 budgets, over the limit of 50" in err


def test_plugin_mc_budget_over_the_state_limit_exits_capacity_at_once(capsys, monkeypatch):
    # the replay would run 2**53 rounds; it is refused before any draw
    monkeypatch.setattr("bailab.mc._count_blocks", no_evaluation)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "mc", "--policy", "plugin:0.5", "--mu", "0.7,0.3",
                             "--T", str(2**53), "--n", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert err == (f"capacity error: tracking replay needs T={2**53} rounds, over the limit of "
                   f"600000; set BAI_MAX_STATES to raise it\n")


@pytest.mark.parametrize("T", [2**53 + 1, 10**400], ids=["past_2_53", "401_digits"])
def test_sweep_config_budget_past_2_53_is_refused_naming_the_cap(capsys, tmp_path, T):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "budgets": [40, T]}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"'budgets' entry 1 must be at most 2**53, got {T}" in err


@pytest.mark.parametrize("command", ["exact", "mc"])
def test_sweep_config_refuses_an_unknown_key(capsys, tmp_path, monkeypatch, command):
    # misspelt "seed" and "output_path" would otherwise run at seed 0 to stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": 5, "output": "x.csv", **SWEEP_CONFIG}))
    monkeypatch.chdir(tmp_path)
    extra = ["--n", "100"] if command == "mc" else []
    code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra)
    assert code == 2 and out == ""
    assert ('unknown key "seeds"; the keys are instances, policies, budgets, output_path, seed'
            in err)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("policy", ["static:1", "static:0", "static:1e-300"])
@pytest.mark.parametrize("command", [["exact"], ["mc", "--n", "10"],
                                     ["mc", "--n", "10", "--tilted"], ["scan"]],
                         ids=["exact", "mc", "mc_tilted", "scan"])
def test_schedule_no_budget_covers_names_the_policy_and_budget(capsys, command, policy):
    code, out, err = run_cli(capsys, *command, "--policy", policy, "--mu", "0.7,0.3",
                             "--T", "10")
    assert code == 2 and out == ""
    label = parse_policy(policy).description
    assert f"schedule of {label} leaves an arm unsampled at T=10" in err
    assert "samples both arms at no budget up to 2**53" in err


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``bailab.exact.<name>`` so that each call appends its arguments."""
    calls = []
    original = getattr(bailab.exact, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(f"bailab.exact.{name}", wrapper)
    return calls


class TestExactBudgetLists:
    """``exact`` hands each policy and instance its whole budget list at once."""

    def write_config(self, tmp_path, policies) -> Path:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [[0.7, 0.3], [0.4, 0.6]], "policies": policies,
                                   "budgets": [20, 10, 30], "output_path": None}))
        return cfg

    def test_config_sweep_takes_one_dp_pass_per_instance(self, capsys, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "dp_layers")
        code, out, _ = run_cli(capsys, "exact", "--config",
                               str(self.write_config(tmp_path, ["plugin:0.2"])))
        assert code == 0
        assert [T for *_, T in calls] == [30, 30]
        assert [row["T"] for row in csv.DictReader(out.splitlines())] == ["20", "10", "30"] * 2

    def test_fixed_schedules_build_one_table_per_policy_and_instance(
            self, capsys, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, "_log_factorials")
        code, out, _ = run_cli(capsys, "exact", "--config",
                               str(self.write_config(tmp_path, ["uniform", "static:0.25"])))
        assert code == 0 and len(out.splitlines()) == 13
        # each table reaches max(n1, n2) of the longest budget, T = 30: (15, 15) pulls
        # under uniform and (23, 7) under static:0.25
        assert calls == [(15,), (15,), (23,), (23,)]

    def test_every_budget_is_checked_before_any_is_evaluated(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "dp_layers")
        code, out, err = run_cli(capsys, "exact", "--policy", "plugin:0.5", "--mu", "0.7,0.3",
                                 "--T", "300,1")
        assert code == 2 and out == "" and calls == []
        assert err == "usage error: budget must be at least 2, got 1\n"

    def test_budget_count_is_checked_before_any_evaluation(self, capsys, monkeypatch):
        monkeypatch.setattr("bailab.cli._evaluate", no_evaluation)
        code, out, err = run_cli(capsys, "exact", "--policy", "plugin:0.5", "--mu", "0.7,0.3",
                                 "--T", f"2:{2**53}")
        assert code == 4 and out == ""
        assert f"the budget list holds {2**53 - 1} budgets" in err

    @pytest.mark.parametrize("policy, mu, budgets", [
        ("plugin:0.2", "0.6,0.4", ["40", "20", "40", "2", "33"]),
        ("plugin:0.5", "0.3,0.7", ["12", "3", "25"]),
        ("uniform", "0.7,0.3", ["500", "61", "2", "500", "1999"]),
        ("uniform", "0.35,0.65", ["3", "300", "40"]),
    ], ids=["plugin_arm1_best", "plugin_arm2_best", "uniform_arm1_best", "uniform_arm2_best"])
    def test_a_list_prints_the_rows_of_its_single_budget_runs(self, capsys, policy, mu, budgets):
        code, out, _ = run_cli(capsys, "exact", "--policy", policy, "--mu", mu,
                               "--T", ",".join(budgets))
        assert code == 0
        header = ",".join(cli.EXACT_HEADER) + "\n"
        singles = []
        for T in budgets:
            single_code, single_out, _ = run_cli(capsys, "exact", "--policy", policy, "--mu", mu,
                                                 "--T", T)
            assert single_code == 0 and single_out.startswith(header)
            singles.append(single_out[len(header):])
        assert out == header + "".join(singles)


UNWRITABLE_COMMANDS = {
    "exact": ["exact", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "10,20"],
    "mc": ["mc", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "10", "--n", "100"],
    "scan": ["scan", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "10:20"],
    "construct": ["construct", "--a", "0.3", "--x", "0.7"],
}


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
@pytest.mark.parametrize("command", list(UNWRITABLE_COMMANDS))
def test_unwritable_out_exits_usage_naming_the_path(capsys, tmp_path, command, target):
    if target == "directory":
        path, reason = tmp_path, "Is a directory"
    else:
        path, reason = tmp_path / "absent" / "out.txt", "No such file or directory"
    code, out, err = run_cli(capsys, *UNWRITABLE_COMMANDS[command], "--out", str(path))
    assert code == 2 and out == ""
    assert err == f"usage error: cannot write {str(path)!r}: {reason}\n"


def test_sweep_config_output_path_that_is_a_directory_exits_usage(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_CONFIG, "output_path": str(tmp_path)}))
    code, out, err = run_cli(capsys, "exact", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"usage error: cannot write {str(tmp_path)!r}: Is a directory\n"


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
        assert "fixed schedules, not plugin:0.5" in err

    @pytest.mark.parametrize("tilted", [[], ["--tilted"]], ids=["plain", "tilted"])
    def test_unsampled_arm_names_the_oracle_policy(self, capsys, tilted):
        # x* of (0.5, 0.01) is 0.3798: no arm-2 pull at T = 2
        code, out, err = run_cli(capsys, "mc", "--policy", "oracle:0.5,0.01", "--mu", "0.6,0.4",
                                 "--T", "2", "--n", "10", *tilted)
        assert code == 2 and out == ""
        assert "schedule of oracle:0.5,0.01 leaves an arm unsampled at T=2" in err

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

    def test_unknown_suite_lists_every_suite_then_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2
        assert "{rates,dual,constructions,asymmetry,com,all}" in capsys.readouterr().err

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


def test_any_other_library_error_exits_one(capsys, monkeypatch):
    def defect(a, x):
        raise ConstructionError("planted defect")

    monkeypatch.setattr("bailab.cli.construct_beating_instance", defect)
    code, out, err = run_cli(capsys, "construct", "--a", "0.3", "--x", "0.7")
    assert (code, out, err) == (1, "", "error: planted defect\n")


@pytest.mark.parametrize("raw, message", [
    ("abc", "BAI_MAX_STATES must be an integer, got 'abc'"),
    ("0", "BAI_MAX_STATES must be positive, got 0"),
])
def test_malformed_state_limit_exits_usage(capsys, monkeypatch, raw, message):
    monkeypatch.setenv("BAI_MAX_STATES", raw)
    code, out, err = run_cli(capsys, "exact", "--policy", "uniform", "--mu", "0.7,0.3",
                             "--T", "20")
    assert (code, out) == (2, "")
    assert message in err


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

    @pytest.mark.parametrize("grid, limit, steps", [
        # 1/grid overflows, a side of ~1e9 means, and a side one over a set limit
        ("1e-320", "600000", "inf"), ("1e-9", "600000", "999999999"), ("0.05", "18", "19")])
    def test_grid_side_over_the_state_limit_exits_usage(self, capsys, monkeypatch, grid, limit,
                                                        steps):
        monkeypatch.setenv("BAI_MAX_STATES", limit)
        code, out, err = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", grid)
        assert code == 2 and out == ""
        assert f"needs {steps} means per side, over the state limit of {limit};" in err
        assert "Traceback" not in err

    def test_grid_side_at_the_state_limit_runs(self, capsys, monkeypatch):
        # 19 means per side; T = 30 keeps the confirmation's tables under 19 entries
        monkeypatch.setenv("BAI_MAX_STATES", "19")
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", "0.05", "--T", "30")
        assert code == 0 and json.loads(out)["confirmed"] is True

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

    @pytest.mark.parametrize("mu0, T, message", [
        ("0.9,0.5", "1", "budget must be at least 2, got 1"),
        # x* = 0.4889 leaves arm 2 unsampled at T = 2
        ("0.7,0.2", "2", "schedule of static:0.4889013425272424 leaves an arm unsampled at T=2"),
    ], ids=["budget", "tuned_schedule"])
    def test_budget_is_checked_before_any_search(self, capsys, monkeypatch, mu0, T, message):
        def no_search(*args):
            raise AssertionError("the budget is checked before any search")

        monkeypatch.setattr("bailab.cli.g_closed_grid", no_search)
        monkeypatch.setattr("bailab.cli.construct_beating_instance", no_search)
        code, out, err = run_cli(capsys, "demo", "--mu0", mu0, "--grid", "0.001", "--T", T)
        assert code == 2 and out == ""
        assert message in err

    def test_table_over_the_limit_is_refused_before_any_search(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("the tables are checked before any search")

        monkeypatch.setattr("bailab.cli.g_closed_grid", no_search)
        monkeypatch.setenv("BAI_MAX_STATES", "500")
        code, out, err = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--grid", "0.01")
        assert code == 4 and out == ""
        assert "over the limit of 500" in err

    def test_grid_scan_memory_is_bounded_by_its_band(self, capsys):
        # 999 means per side scan in bands of 65 rows (64,935 cells); measured
        # 5.6 MiB at peak
        argv = ["demo", "--mu0", "0.9,0.5", "--grid", "0.001"]
        assert main(argv) == 0  # first call outside the trace: imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 128 * 2**16

    def test_min_gap_past_every_witness_exits_resolution(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--min-gap", "1")
        assert code == 5
        payload = json.loads(out)
        assert 0.0 < payload["best_gap_found"] < 1.0
        assert payload["message"] == "no witness at this resolution; retry with a finer --grid"

    def test_budget_too_small_to_confirm_exits_resolution(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "--mu0", "0.9,0.5", "--T", "2")
        assert code == 5
        assert json.loads(out)["confirmed"] is False

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

@pytest.fixture
def parser_builds(monkeypatch):
    """The prog of every ``argparse.ArgumentParser`` built from here on, with
    the CLI's cached parsers dropped first."""
    builds, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.prog)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return builds


class TestParserBuilds:
    def run_and_count(self, parser_builds, argv) -> int:
        before = len(parser_builds)
        try:
            main(argv)
        except SystemExit:  # --version
            pass
        return len(parser_builds) - before

    @pytest.mark.parametrize("argv, first_builds", [
        (["rates", "--mu", "0.9,0.5"], ["bailab", "bailab rates"]),
        (["--version"], ["bailab", *(f"bailab {c}" for c in
                                     ("rates", "verify", "exact", "mc", "scan", "construct",
                                      "demo"))]),
    ], ids=["one_command", "every_command"])
    def test_each_tree_is_built_once(self, capsys, parser_builds, argv, first_builds):
        counts = [self.run_and_count(parser_builds, argv) for _ in range(3)]
        assert counts == [len(first_builds), 0, 0]
        assert parser_builds == first_builds

    def test_console_script_dispatches_on_sys_argv(self, capsys, monkeypatch, parser_builds):
        monkeypatch.setattr(sys, "argv", ["bailab", "rates", "--mu", "0.9,0.5"])
        code = main()
        out = capsys.readouterr().out
        assert parser_builds == ["bailab", "bailab rates"]
        assert (code, out) == run_cli(capsys, "rates", "--mu", "0.9,0.5")[:2]

    def test_import_builds_no_parser(self):
        env = dict(os.environ)
        src = str(Path(bailab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c",
             "import bailab.cli; print(bailab.cli._build_parser.cache_info().currsize)"],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head -1`` does, ends the
    command with EXIT_PIPE and nothing on stderr: no traceback from the
    write that meets the closed pipe, nor from the flush at exit."""

    @staticmethod
    def start(*argv):
        env = dict(os.environ)
        src = str(Path(bailab.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.Popen([sys.executable, "-m", "bailab.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def test_head_one_line_of_a_long_scan(self):
        # about 180 kB of rows, more than the pipe holds, so a write meets the close
        proc = self.start("scan", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "2:3000")
        assert proc.stdout.readline() == b"T,p_error,ratio,inv_g_half\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (cli.EXIT_PIPE, b"")

    def test_pipe_closed_before_the_first_write(self):
        # one short row, held in the buffer until the flush
        proc = self.start("exact", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "100")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (cli.EXIT_PIPE, b"")


IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
import bailab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bailab.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_never_imports_scipy():
    """No command imports scipy: ``scipy.special`` alone costs about 0.3 s of
    start-up, and the library runs its own replicas of the routines it needs.
    A lazy import inside a command would hide that cost in its run time."""
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
    assert result["scipy"] == []


COMMAND_MODULES_SCRIPT = """
import contextlib, io, json, sys
import bailab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bailab.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
# the layers and stdlib modules that only some commands need
ON_DEMAND = {"bailab.constructions", "bailab.dual", "bailab.verification", "fractions"}
CONSTRUCTIONS = {"bailab.constructions", "bailab.dual"}


@pytest.mark.parametrize("argv, loaded", [
    (["exact", "--policy", "plugin:0.5", "--mu", "0.7,0.3", "--T", "24"], set()),
    (["exact", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "24,100"], set()),
    (["mc", "--policy", "plugin:0.5", "--mu", "0.7,0.3", "--T", "24", "--n", "100"], set()),
    (["mc", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "24", "--n", "100", "--tilted"],
     set()),
    (["scan", "--policy", "uniform", "--mu", "0.7,0.3", "--T", "2:30"], set()),
    (["rates", "--mu", "0.9,0.5"], set()),
    (["construct", "--a", "0.3", "--x", "0.7"], CONSTRUCTIONS),
    (["demo", "--mu0", "0.9,0.5", "--grid", "0.05"], CONSTRUCTIONS),
    (["verify", "rates", "--samples", "3"], ON_DEMAND),
], ids=["exact_plugin", "exact_uniform", "mc_plugin", "mc_tilted", "scan", "rates",
        "construct", "demo", "verify"])
def test_each_command_loads_only_the_layers_it_runs(argv, loaded):
    """The evaluation commands load no construction or verification code:
    ``construct`` and ``demo`` import ``constructions`` and ``dual`` when they
    run, and ``verify`` imports ``verification``, which loads them and
    ``fractions``."""
    env = dict(os.environ)
    src = str(Path(bailab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES_SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert ON_DEMAND & set(result["modules"]) == loaded


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_import_starts_no_blas_threads():
    """The library calls no BLAS routine, so importing it leaves one thread:
    no OpenBLAS server thread spins beside the first command."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(bailab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", "import os, bailab.cli; print(len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"
