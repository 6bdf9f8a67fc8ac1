"""Revenue-curve toolkit for auction agents with non-linear utility.

Builds price-posting and ex-ante revenue curves for linear, budgeted, and
capacitated buyers, evaluates anonymous pricing and the ex-ante relaxation,
and measures how far price posting sits from the ex-ante optimum.
"""

from .distributions import (
    Distribution,
    regularity_report,
    mhr_report,
    discretize,
)
from .curves import (
    Agent,
    OfferCurve,
    RevenueCurve,
    offer_curve,
    price_posting_curve,
    concave_hull,
    quantiles_at_prices,
    synthetic_curve,
)
from .oracle import (
    SimplexSolution,
    simplex_solve,
    ex_ante_curve_oracle,
)
from .mechanisms import (
    ApResult,
    EarResult,
    TwoPricedBound,
    ap_revenue,
    ap_optimize,
    ear_optimize,
    random_price_revenue_public,
    myerson_reserve,
    risk_two_priced_bound,
)
from .closeness import (
    ClosenessReport,
    OracleConfig,
    alpha_for_beta,
    zeta,
    eta,
    transfer_bounds,
    table1_bound,
    verify_instance,
    RHO,
)
from .fixtures import fixtures, get_fixture, random_concave_curve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
