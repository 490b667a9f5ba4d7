"""Numerical laboratory for fixed-budget best-arm identification in
two-armed Bernoulli bandits: rate functions and optimal allocations,
machine checks of the constructive results behind the no-free-lunch
phenomenon, and exact plus Monte Carlo evaluation of sampling policies.
"""

from .constructions import (
    AsymmetryGap,
    ConstructionCase,
    ConstructionCertificate,
    asymmetry_gap,
    check_odds_inequality,
    construct_beating_instance,
    construct_dual_instance,
    find_halfdisk_delta,
)
from .dual import (
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
from .errors import (
    ArgumentError,
    BaiLabError,
    CapacityError,
    ConstructionError,
    DomainError,
)
from .exact import (
    ComSlack,
    ExactSummary,
    RateScan,
    StabilityProfile,
    change_of_measure_slack,
    exact_summary,
    rate_ratio_scan,
    stability_profile,
    static_error_exact,
    static_error_log,
)
from .mc import Estimate, simulate_plain, simulate_tilted_static
from .policies import PolicySpec, parse_policy
from .rates import (
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
