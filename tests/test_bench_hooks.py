"""The benchmark's tracing wraps ``bailab`` module attributes by name; each
of them must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    """The tracing module, loaded from its file; no tracer is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()
TARGETS = sorted({(module, attr) for module, attr, _ in
                  _TRACING.SPAN_TARGETS + _TRACING.GENERATOR_TARGETS + _TRACING.COUNT_TARGETS})


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
