"""Numerical laboratory for fixed-budget best-arm identification in
two-armed Bernoulli bandits: rate functions and optimal allocations,
machine checks of the constructive results behind the no-free-lunch
phenomenon, and exact plus Monte Carlo evaluation of sampling policies.

Importing the package loads none of its submodules.  Each public name below,
and each submodule as an attribute (``bailab.exact``), is imported on first
access (PEP 562), so a caller pays only for the layers it uses: ``bailab.cli``
loads ``errors``, ``rates``, ``policies``, ``exact`` and ``mc``, and its
``construct``, ``demo`` and ``verify`` commands load ``constructions``,
``dual`` and ``verification`` when they run.  ``from bailab import *`` and
``dir(bailab)`` still see every public name.
"""

import importlib
import os

# The library calls no BLAS routine.  The OpenBLAS that numpy loads starts one
# server thread per further CPU, and each spins for about 60 ms of CPU at
# start-up, beside the import and the first command (2 CPUs: 0.29 -> 0.23 s of
# CPU to import bailab.cli).  One thread starts none.  An explicit setting is
# kept, and once numpy is loaded the variable has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "constructions": (
        "AsymmetryGap", "ConstructionCase", "ConstructionCertificate", "asymmetry_gap",
        "check_odds_inequality", "construct_beating_instance", "construct_dual_instance",
        "find_halfdisk_delta",
    ),
    "dual": (
        "DualRateObjects", "NaturalInstance", "Potential", "TaylorBracket", "bregman",
        "dual_rate_objects", "mean_to_natural", "natural_to_mean", "potential",
        "taylor_bracket_check",
    ),
    "errors": (
        "ArgumentError", "BaiLabError", "CapacityError", "ConstructionError", "DomainError",
    ),
    "exact": (
        "ComSlack", "ExactSummary", "RateScan", "StabilityProfile", "change_of_measure_slack",
        "exact_summary", "rate_ratio_scan", "stability_profile", "static_error_log",
    ),
    "mc": ("Estimate", "simulate_plain", "simulate_tilted_static"),
    "policies": ("PolicySpec", "parse_policy"),
    "rates": (
        "BanditInstance", "RateProfile", "g_closed", "kl_bernoulli", "lambda_star",
        "pinsker_like_bound_slack", "rate_profile", "stationarity_residual", "x_star",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "verification")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
