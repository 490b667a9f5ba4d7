"""In-memory spans around the public ``bailab`` functions, and the per-layer
metrics derived from them.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Spans stay in memory and are reduced once,
after the commands of a repetition have run.  A span's self time is its
duration minus the part of its interval covered by its child spans.

Only public names are wrapped, at the module attribute through which the
caller looks them up (``bailab.exact.plugin_action_grid``, not
``bailab.policies.plugin_action_grid``): private helpers get renamed and
merged, so their cost shows in the self time of the public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# Module attributes to wrap: (module, attribute, span name).  The span name
# is "<layer>.<function>", where the layer is the module that defines it.
SPAN_TARGETS = [
    ("bailab.cli", "main", "cli.main"),
    ("bailab.cli", "exact_summary", "exact.exact_summary"),
    ("bailab.cli", "rate_ratio_scan", "exact.rate_ratio_scan"),
    ("bailab.cli", "static_error_log", "exact.static_error_log"),
    ("bailab.exact", "static_error_log", "exact.static_error_log"),
    ("bailab.exact", "plugin_action_grid", "policies.plugin_action_grid"),
    ("bailab.policies", "x_star_grid", "rates.x_star_grid"),
    ("bailab.policies", "x_star", "rates.x_star"),
    ("bailab.cli", "x_star", "rates.x_star"),
    ("bailab.constructions", "x_star", "rates.x_star"),
    ("bailab.mc", "plugin_action_prob", "policies.plugin_action_prob"),
    ("bailab.cli", "simulate_plain", "mc.simulate_plain"),
    ("bailab.cli", "simulate_tilted_static", "mc.simulate_tilted_static"),
    ("bailab.cli", "construct_beating_instance",
     "constructions.construct_beating_instance"),
]
# Generators: one span per ``next``.
GENERATOR_TARGETS = [("bailab.exact", "dp_layers", "exact.dp_layers")]
# Called too often, and too cheaply, for a span: counted only.
COUNT_TARGETS = [
    ("bailab.cli", "g_closed", "rates.g_closed"),
    ("bailab.constructions", "g_closed", "rates.g_closed"),
    ("bailab.exact", "g_closed", "rates.g_closed"),
]

LAYERS = ("cli", "rates", "policies", "exact", "mc", "constructions")


class Tracer:
    """Span stack and event counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds; plus the raw counters."""
    by_name: dict[str, dict] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = by_name.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return {"spans": by_name, "counts": dict(tracer.counts)}


def _arguments(params: list[str], args: tuple, kwargs: dict) -> dict:
    bound = dict(zip(params, args))
    bound.update(kwargs)
    return bound


def _separated_state(a: dict) -> bool:
    """Whether the tracking rule needs x* here: t >= 2 and the plug-in means,
    clamped to [1/(t+1), 1 - 1/(t+1)], differ (as documented on
    ``plugin_action_prob``)."""
    t, n1 = a["t"], a["n1"]
    if t < 2:
        return False
    lo = 1.0 / (t + 1)
    hi = 1.0 - lo
    m1 = min(max(a["s1"] / n1, lo), hi)
    m2 = min(max(a["s2"] / (t - n1), lo), hi)
    return m1 != m2


def _count_call(tracer: Tracer, name: str, a: dict) -> str:
    """Record the work counters of one call, from its arguments, and return
    the name of its span (adaptive simulations get their own)."""
    if name == "policies.plugin_action_grid":
        tracer.add(name + ".cells", a["n_s1"] * a["n_s2"])
    elif name == "rates.x_star_grid":
        tracer.add(name + ".cells", int(getattr(a["mu1"], "size", 1)))
    elif name == "rates.x_star":
        if tracer.current() == "policies.plugin_action_prob":
            tracer.add("rates.x_star.tracking_calls")
    elif name == "policies.plugin_action_prob":
        if _separated_state(a):
            tracer.add(name + ".separated_calls")
    elif name == "exact.static_error_log":
        tracer.add(name + ".terms", int(a["T"]) + 2)
    elif name == "mc.simulate_plain":
        n, T = int(a["n"]), int(a["T"])
        tracer.add(name + ".replications", n)
        if a["policy"].deterministic_schedule:
            tracer.add(name + ".draws", 2 * n)
        else:
            tracer.add(name + ".draws", 2 * n * T)
            tracer.add(name + ".adaptive_rounds", n * T)
            return name + ".adaptive"
    elif name == "mc.simulate_tilted_static":
        tracer.add(name + ".draws", 2 * int(a["n"]))
    return name


def _span_wrapper(tracer: Tracer, func, name: str):
    params = list(inspect.signature(func).parameters)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = tracer.open(_count_call(tracer, name, _arguments(params, args, kwargs)))
        try:
            return func(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _generator_wrapper(tracer: Tracer, func, name: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        gen = func(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            layer = item[1]
            states = sum(arr.size for arr in layer.values())
            tracer.add(name + ".layers")
            tracer.add(name + ".slices", len(layer))
            tracer.add(name + ".states", states)
            key = name + ".peak_layer_states"
            tracer.counts[key] = max(tracer.counts[key], states)
            yield item

    return wrapper


def _count_wrapper(tracer: Tracer, func, name: str):
    key = name + ".calls"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return func(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every target attribute with its traced wrapper."""
    for targets, make in ((SPAN_TARGETS, _span_wrapper),
                          (GENERATOR_TARGETS, _generator_wrapper),
                          (COUNT_TARGETS, _count_wrapper)):
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            setattr(module, attr, make(tracer, getattr(module, attr), name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metric values of one traced repetition.

    Ratios with a zero base (no such call in the workload) read 0.
    """
    spans, counts = agg["spans"], agg["counts"]

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def count(key: str) -> int:
        return counts.get(key, 0)

    plain_self = span("mc.simulate_plain", "self_s")
    adaptive_self = span("mc.simulate_plain.adaptive", "self_s")
    tilted_self = span("mc.simulate_tilted_static", "self_s")
    plain_draws = count("mc.simulate_plain.draws")
    tilted_draws = count("mc.simulate_tilted_static.draws")
    separated = count("policies.plugin_action_prob.separated_calls")
    out = {
        "rates.x_star_grid.calls": span("rates.x_star_grid", "calls"),
        "rates.x_star_grid.cells": count("rates.x_star_grid.cells"),
        "rates.x_star_grid.self_s": span("rates.x_star_grid", "self_s"),
        "policies.plugin_action_grid.calls": span("policies.plugin_action_grid", "calls"),
        "policies.plugin_action_grid.cells": count("policies.plugin_action_grid.cells"),
        "policies.plugin_action_grid.self_s": span("policies.plugin_action_grid", "self_s"),
        "exact.dp_layers.layers": count("exact.dp_layers.layers"),
        "exact.dp_layers.slices": count("exact.dp_layers.slices"),
        "exact.dp_layers.states": count("exact.dp_layers.states"),
        "exact.dp_layers.peak_layer_states": count("exact.dp_layers.peak_layer_states"),
        "exact.dp_layers.self_s": span("exact.dp_layers", "self_s"),
        "exact.final_decision_s": span("exact.exact_summary", "self_s"),
        "exact.static_error_log.calls": span("exact.static_error_log", "calls"),
        "exact.static_error_log.terms": count("exact.static_error_log.terms"),
        "exact.static_error_log.self_s": span("exact.static_error_log", "self_s"),
        "policies.plugin_action_prob.calls": span("policies.plugin_action_prob", "calls"),
        "policies.plugin_action_prob.self_s": span("policies.plugin_action_prob", "self_s"),
        "rates.x_star.calls": span("rates.x_star", "calls"),
        "rates.x_star.self_s": span("rates.x_star", "self_s"),
        "policies.tracking_cache_hit_ratio": _ratio(
            separated - count("rates.x_star.tracking_calls"), separated),
        "mc.simulate_plain.calls": span("mc.simulate_plain", "calls")
        + span("mc.simulate_plain.adaptive", "calls"),
        "mc.simulate_plain.replications": count("mc.simulate_plain.replications"),
        "mc.simulate_plain.draws": plain_draws,
        "mc.simulate_plain.self_s": plain_self + adaptive_self,
        "mc.replay_round_us": 1e6 * _ratio(adaptive_self,
                                           count("mc.simulate_plain.adaptive_rounds")),
        "mc.simulate_tilted_static.calls": span("mc.simulate_tilted_static", "calls"),
        "mc.simulate_tilted_static.draws": tilted_draws,
        "mc.simulate_tilted_static.self_s": tilted_self,
        "mc.draws_per_s": _ratio(plain_draws + tilted_draws,
                                 plain_self + adaptive_self + tilted_self),
        "constructions.construct_beating_instance.calls":
            span("constructions.construct_beating_instance", "calls"),
        "constructions.construct_beating_instance.self_s":
            span("constructions.construct_beating_instance", "self_s"),
        "rates.g_closed.calls": count("rates.g_closed.calls"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in spans.items()
            if name.split(".", 1)[0] == layer)
    return out
