"""Tests of the benchmark's own code.  Run: ``python3 -m pytest perfbench/tests -q``."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


# ---------------------------------------------------------------- self time

def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0)


def test_tracer_nesting_and_aggregate():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0]))
    outer = tracer.open("exact.exact_summary")
    for _ in range(3):
        inner = tracer.open("exact.dp_layers")
        tracer.close(inner)
    tracer.close(outer)
    agg = tracing.aggregate(tracer)
    assert agg["spans"]["exact.dp_layers"]["calls"] == 3
    assert agg["spans"]["exact.dp_layers"]["total_s"] == pytest.approx(4.0)
    assert agg["spans"]["exact.exact_summary"]["self_s"] == pytest.approx(6.0)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0]


def test_generator_spans_cover_each_next():
    import numpy as np

    def layers():
        yield 0, {0: np.ones((1, 1))}
        yield 1, {0: np.ones((1, 2)), 1: np.ones((2, 1))}

    tracer = tracing.Tracer()
    wrapped = tracing._generator_wrapper(tracer, layers, "exact.dp_layers")
    assert [t for t, _ in wrapped()] == [0, 1]
    counts = tracer.counts
    assert counts["exact.dp_layers.layers"] == 2
    assert counts["exact.dp_layers.slices"] == 3
    assert counts["exact.dp_layers.states"] == 5
    assert counts["exact.dp_layers.peak_layer_states"] == 4
    # two yields plus the final StopIteration
    assert len(tracer.spans) == 3 and not tracer.stack


# ---------------------------------------------------------------- derived ratios

def _agg(spans, counts):
    return {"spans": {name: {"calls": calls, "total_s": self_s, "self_s": self_s}
                      for name, (calls, self_s) in spans.items()},
            "counts": counts}


def test_hit_ratio_replay_round_and_draw_rate():
    agg = _agg(
        {"mc.simulate_plain.adaptive": (2, 3.0), "mc.simulate_plain": (1, 0.5),
         "mc.simulate_tilted_static": (1, 0.5), "policies.plugin_action_prob": (100, 1.0),
         "rates.x_star": (30, 2.0)},
        {"rates.x_star.tracking_calls": 20, "policies.plugin_action_prob.separated_calls": 80,
         "mc.simulate_plain.adaptive_rounds": 1000, "mc.simulate_plain.draws": 4000,
         "mc.simulate_tilted_static.draws": 2000})
    m = tracing.layer_metrics(agg)
    assert m["policies.tracking_cache_hit_ratio"] == pytest.approx(0.75)
    assert m["mc.replay_round_us"] == pytest.approx(3000.0)
    assert m["mc.simulate_plain.self_s"] == pytest.approx(3.5)
    assert m["mc.simulate_plain.calls"] == 3
    assert m["mc.draws_per_s"] == pytest.approx(6000 / 4.0)
    assert m["layer.mc.self_s"] == pytest.approx(4.0)
    assert m["layer.rates.self_s"] == pytest.approx(2.0)


def test_ratios_with_zero_base_read_zero():
    m = tracing.layer_metrics(_agg({}, {}))
    assert m["policies.tracking_cache_hit_ratio"] == 0.0
    assert m["mc.replay_round_us"] == 0.0
    assert m["mc.draws_per_s"] == 0.0


def test_separated_state_uses_clamped_plugin_means():
    assert not tracing._separated_state({"t": 1, "n1": 1, "s1": 1, "s2": 0})
    # both empirical means clamp to 1 - 1/(t+1)
    assert not tracing._separated_state({"t": 4, "n1": 2, "s1": 2, "s2": 2})
    assert tracing._separated_state({"t": 4, "n1": 2, "s1": 2, "s2": 1})


def test_import_times_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        20 |         20 |           json",
        "import time:       100 |        120 |         numpy.core",
        "import time:       200 |        320 |       numpy",
        "import time:        30 |         30 |           numpy.linalg",
        "import time:        50 |         80 |         scipy",
        "import time:       400 |        480 |       scipy.stats",
        "import time:       250 |       1050 |     bailab.rates",
        "import time:        10 |       1060 |   bailab",
        "import time:        90 |       1150 | bailab.cli",
        "import time:         5 |          5 | json",
    ])
    times = run.import_times(stderr)
    assert times["setup.numpy_s"] == pytest.approx(350e-6)
    assert times["setup.scipy_s"] == pytest.approx(450e-6)
    assert times["setup.bailab_s"] == pytest.approx(350e-6)
    assert sum(times.values()) == pytest.approx(1150e-6)


# ---------------------------------------------------------------- op counting

def _exact_cmd():
    return workloads.Command(
        ["exact", "--policy", "plugin:0.5", "--mu", "0.6,0.4", "--T", "4"], "exact",
        {"ops": 1, "policy": "plugin:0.5", "mu": "0.6,0.4", "T": 4,
         "row": {"p_error": 0.2, "p_pick2": 0.2, "e_n1": 2.0, "e_omega2": 0.5}})


HEADER = "policy,mu1,mu2,T,p_error,p_pick2,e_n1,e_omega2\n"


def test_matching_row_passes():
    out = HEADER + "plugin:0.5,0.6,0.4,4,0.2,0.2,2.00001,0.4999975\n"
    assert workloads.check(_exact_cmd(), 0, out) == (1, 0, [])


def test_row_beyond_tolerance_fails():
    out = HEADER + "plugin:0.5,0.6,0.4,4,0.2,0.2,2.0001,0.499975\n"
    attempted, failed, messages = workloads.check(_exact_cmd(), 0, out)
    assert (attempted, failed) == (1, 1) and messages


def test_nonzero_exit_fails_every_op():
    scan = workloads.Command(["scan"], "scan", {"ops": 3, "rows": [[1, 0.1, 1.0, 1.0]] * 3})
    attempted, failed, messages = workloads.check(scan, 3, "")
    assert (attempted, failed) == (3, 3)
    assert "exit 3" in messages[0]


def test_missing_rows_fail_every_op():
    scan = workloads.Command(["scan"], "scan", {"ops": 2, "rows": [[1, 0.1, 1.0, 1.0]] * 2})
    out = "T,p_error,ratio,inv_g_half\n1,0.1,1.0,1.0\n"
    assert workloads.check(scan, 0, out)[:2] == (2, 2)


def test_mc_estimate_is_checked_against_exact_probability():
    cmd = workloads.Command(["mc"], "mc", {"ops": 1, "p": 0.1, "n": 10000, "seed": 7,
                                           "T": 10, "tilted": False})
    head = "method,policy,mu1,mu2,T,n,seed,estimate,std_err\n"
    good = head + "plain,uniform,0.6,0.4,10,10000,7,0.101,0.003\n"
    bad = head + "plain,uniform,0.6,0.4,10,10000,7,0.2,0.004\n"
    assert workloads.check(cmd, 0, good)[1] == 0
    assert workloads.check(cmd, 0, bad)[1] == 1
    sd = math.sqrt(0.1 * 0.9 / 10000)
    assert abs(0.2 - 0.1) / sd > workloads.Z_LIMIT


def test_outcome_counts_errors_as_failed_but_not_wrong():
    cmd = _exact_cmd()
    outcome = run.Outcome()
    doc = {"commands": [{"rc": 3, "stdout": "", "stderr": "domain error: x\n"},
                        {"rc": 0, "stdout": HEADER + "plugin:0.5,0.6,0.4,4,0.3,0.3,2,0.5\n",
                         "stderr": ""}]}
    run.check_ops([cmd, cmd], doc, outcome)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 2, 1)
    assert not outcome.correct
    assert "domain error" in outcome.messages[0]


@pytest.mark.skipif(not (run.SRC / "bailab").is_dir(), reason="needs the bailab sources")
def test_worker_reports_nonzero_exit_as_failed_op():
    cmds = [workloads.Command(["exact", "--policy", "uniform", "--mu", "0.5,0.5", "--T", "10"],
                              "exact", {"ops": 1}),
            workloads.Command(["exact", "--no-such-flag"], "exact", {"ops": 1})]
    doc = run.run_repetition(cmds, trace=False, budget_s=60.0)
    assert [c["rc"] for c in doc["commands"]] == [3, 2]
    outcome = run.Outcome()
    run.check_ops(cmds, doc, outcome)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 2, 0)
    assert outcome.correct
    assert doc["setup_s"] > 0 and doc["peak_rss_mib"] > 0
