"""Numerical laboratory for fixed-budget best-arm identification in
two-armed Bernoulli bandits: rate functions and optimal allocations,
machine checks of the constructive results behind the no-free-lunch
phenomenon, and exact plus Monte Carlo evaluation of sampling policies.
"""

import os

# The library calls no BLAS routine.  The OpenBLAS that numpy loads starts one
# server thread per further CPU, and each spins for about 60 ms of CPU at
# start-up, beside the import and the first command (2 CPUs: 0.29 -> 0.23 s of
# CPU to import bailab.cli).  One thread starts none.  An explicit setting is
# kept, and once numpy is loaded the variable has no effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constructions import (  # noqa: E402
    AsymmetryGap,
    ConstructionCase,
    ConstructionCertificate,
    asymmetry_gap,
    check_odds_inequality,
    construct_beating_instance,
    construct_dual_instance,
    find_halfdisk_delta,
)
from .dual import (  # noqa: E402
    DualRateObjects,
    NaturalInstance,
    Potential,
    TaylorBracket,
    bregman,
    dual_rate_objects,
    mean_to_natural,
    natural_to_mean,
    potential,
    taylor_bracket_check,
)
from .errors import (  # noqa: E402
    ArgumentError,
    BaiLabError,
    CapacityError,
    ConstructionError,
    DomainError,
)
from .exact import (  # noqa: E402
    ComSlack,
    ExactSummary,
    RateScan,
    StabilityProfile,
    change_of_measure_slack,
    exact_summary,
    rate_ratio_scan,
    stability_profile,
    static_error_log,
)
from .mc import Estimate, simulate_plain, simulate_tilted_static  # noqa: E402
from .policies import PolicySpec, parse_policy  # noqa: E402
from .rates import (  # noqa: E402
    BanditInstance,
    RateProfile,
    g_closed,
    kl_bernoulli,
    lambda_star,
    pinsker_like_bound_slack,
    rate_profile,
    stationarity_residual,
    x_star,
)

__version__ = "0.1.0"
