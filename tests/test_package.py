"""The package root resolves its public names, and its submodules as
attributes, on first access, without importing every layer up front."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bailab

# every name the package root re-exports, by the submodule that defines it
PUBLIC = {
    "constructions": ["AsymmetryGap", "ConstructionCase", "ConstructionCertificate",
                      "asymmetry_gap", "check_odds_inequality", "construct_beating_instance",
                      "construct_dual_instance", "find_halfdisk_delta"],
    "dual": ["DualRateObjects", "NaturalInstance", "Potential", "TaylorBracket", "bregman",
             "dual_rate_objects", "mean_to_natural", "natural_to_mean", "potential",
             "taylor_bracket_check"],
    "errors": ["ArgumentError", "BaiLabError", "CapacityError", "ConstructionError",
               "DomainError"],
    "exact": ["ComSlack", "ExactSummary", "RateScan", "StabilityProfile",
              "change_of_measure_slack", "exact_summary", "rate_ratio_scan",
              "stability_profile", "static_error_log"],
    "mc": ["Estimate", "simulate_plain", "simulate_tilted_static"],
    "policies": ["PolicySpec", "parse_policy"],
    "rates": ["BanditInstance", "RateProfile", "g_closed", "kl_bernoulli", "lambda_star",
              "pinsker_like_bound_slack", "rate_profile", "stationarity_residual", "x_star"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
SUBMODULES = [*PUBLIC, "cli", "verification"]


def run_fresh(script: str) -> str:
    """stdout of ``script`` in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(bailab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_resolves_to_its_definition(module, name):
    home = importlib.import_module(f"bailab.{module}")
    assert getattr(bailab, name) is getattr(home, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from bailab import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(getattr(bailab, module), name)
    assert sorted(bailab.__all__) == sorted(name for _, name in NAMES)


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(bailab)
    assert listed == sorted(listed)
    assert {name for _, name in NAMES} | set(SUBMODULES) | {"__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'bailab' has no attribute 'no_such_name'"):
        bailab.no_such_name
    # a submodule's own name is no package attribute
    with pytest.raises(AttributeError):
        bailab.x_star_grid
    assert not hasattr(bailab, "no_such_name")


def test_import_loads_no_submodule():
    out = run_fresh("import json, sys, bailab; print(json.dumps([bailab.__version__, "
                    "sorted(m for m in sys.modules if m.startswith('bailab'))]))")
    assert json.loads(out) == ["0.1.0", ["bailab"]]


def test_submodules_resolve_as_attributes_after_import():
    out = run_fresh(f"import json, bailab; print(json.dumps([getattr(bailab, m).__name__ "
                    f"for m in {SUBMODULES!r}]))")
    assert json.loads(out) == [f"bailab.{m}" for m in SUBMODULES]
