"""The exact ex-ante revenue curve of the discretized single-agent LP, and a
generic LP solve that the tests use to cross-check it.

The curve is built from the LP's own structure (per budget level, the upper
hull of the LP's vertices; the levels merged by slope).  The generic solve
shares no code path with it: it hands the LP to HiGHS through scipy, which
is imported on the first solve, so `import anonpricing` loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import RevenueCurve, _collapse, _slope_merge, _upper_hull_indices
from .distributions import Distribution


@dataclass(frozen=True)
class SimplexSolution:
    status: str               # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None


def simplex_solve(
    objective: Sequence[float],
    constraints: Sequence[Sequence[float]],
    senses: Sequence[str],
    rhs: Sequence[float],
    upper: Sequence[float] | None = None,
    maximize: bool = True,
) -> SimplexSolution:
    """Solve max/min c'x s.t. A x (<=|=|>=) b, 0 <= x <= upper with HiGHS.

    An `upper` entry of None or +inf leaves its variable unbounded above.
    A solver outcome other than optimal, infeasible or unbounded (a time or
    iteration limit, an undecided status) raises RuntimeError.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    c = np.asarray(objective, dtype=float)
    A = np.asarray(constraints, dtype=float).reshape(len(senses), -1) if len(senses) else np.zeros((0, len(c)))
    b = np.asarray(rhs, dtype=float)
    if A.shape[1] != len(c):
        raise ValueError("objective/constraint dimension mismatch")
    sense = np.asarray(senses, dtype=object)
    if len(b) != len(sense) or not np.isin(sense, ("<=", "=", ">=")).all():
        raise ValueError("need one rhs and one of '<=', '=', '>=' per constraint row")
    ub = np.inf if upper is None else np.array([np.inf if u is None else u for u in upper], dtype=float)
    # HiGHS reads a NaN bound as a model error and a NaN coefficient as absent
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()) or np.isnan(ub).any():
        raise ValueError("LP data must be finite")
    # the row bounds lo <= A x <= hi take all three senses without sign flips
    rows = LinearConstraint(A, np.where(sense == "<=", -np.inf, b), np.where(sense == ">=", np.inf, b))
    res = milp(-c if maximize else c, constraints=rows, bounds=Bounds(0.0, ub))
    if res.status == 0:
        return SimplexSolution("optimal", res.x, float(c @ res.x))
    if res.status in (2, 3):
        return SimplexSolution("infeasible" if res.status == 2 else "unbounded", None, None)
    raise RuntimeError(f"LP solve failed: {res.message}")


# -- discretized ex-ante revenue maximization ---------------------------------


def _level_hull(s: np.ndarray, prices: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper hull, in the (mass, revenue) plane, of one budget level's LP.

    Slab k sells mass s[k] at marginal price prices[k]; the level's menu is
    x >= 0 with sum(x) <= 1 and prices @ x <= w.  The vertices of that
    polytope are the origin, each slab alone at min(1, w / price), and each
    pair with price_a < w < price_b on which both rows are tight.  The
    level's feasible (mass, revenue) set is the convex hull of their
    images, so its upper hull is exactly the level's ex-ante revenue curve.
    """
    x = np.minimum(1.0, np.divide(w, prices, out=np.ones_like(prices), where=prices > w))
    below, above = prices < w, prices > w
    pa, sa = prices[below][:, None], s[below][:, None]
    pb, sb = prices[above][None, :], s[above][None, :]
    xb = (w - pa) / (pb - pa)
    mass, rev = _collapse(np.concatenate([[0.0], s * x, (sa * (1.0 - xb) + sb * xb).ravel()]),
                          np.concatenate([[0.0], s * prices * x, (sa * pa * (1.0 - xb) + sb * pb * xb).ravel()]))
    # every upper-hull vertex is a strict prefix or suffix maximum of revenue
    ahead = np.concatenate([[-np.inf], np.maximum.accumulate(rev)[:-1]])
    behind = np.concatenate([np.maximum.accumulate(rev[::-1])[::-1][1:], [-np.inf]])
    keep = (rev > ahead) | (rev > behind)
    mass, rev = mass[keep], rev[keep]
    idx = _upper_hull_indices(mass, rev)
    return mass[idx], rev[idx]


def _knots_from_segments(dq: np.ndarray, dr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knots of the curve that takes the water-fill segments in order.

    The running sum of the masses ends at 1 only within PROB_ATOL, on either
    side: a tiny segment can vanish in it (the later knot is kept), and
    knots can land at or past 1 before the last one.  Those are dropped, and
    the last knot is set to exactly 1.
    """
    qs = np.concatenate([[0.0], np.cumsum(dq)])
    vals = np.concatenate([[0.0], np.cumsum(dr)])
    keep = np.append((np.diff(qs) > 0.0) & (qs[:-1] < 1.0), True)
    qs, vals = qs[keep], vals[keep]
    qs[-1] = 1.0
    return qs, vals


def ex_ante_curve_oracle(values: Distribution, budgets: Distribution) -> RevenueCurve:
    """Exact ex-ante revenue curve of the discrete value-IC relaxation over
    the product of two discrete laws, values and budgets.

    A public budget w is the one-atom law `Distribution.point_mass(w)`; a
    budget atom at +inf is a level with no budget, so the one-atom law at
    +inf gives a linear buyer.  A law that is not discrete raises: pass it
    through `discretize` first.

    Per budget level the mechanism is a convex nondecreasing menu: slab k
    (values >= v_k, mass s_k) is sold at marginal price v_{k-1} (v_0 = 0)
    or v_k, the ends of the local incentive bracket, so mixing them spans
    every menu rate and in particular every posted price; the level's top
    payment respects its budget.  Levels couple only through the total
    ex-ante mass, so Rbar is the water-fill of the per-level hulls: their
    segments, scaled by the level masses, taken in order of decreasing
    slope.  For private budgets this upper-bounds the true ex-ante revenue
    because incentive constraints across budget levels are dropped.

    Only m + 1 of the 2m bracket slabs are built: the price-0 giveaway of
    the bottom slab (mass s_1), which makes every mass in [0, 1] reachable,
    and each slab at its upper price.  Slab k at its lower price v_{k-1}
    (k >= 2) adds no vertex to any level's (mass, revenue) hull.  At amount
    x it gives mass s_k x, revenue s_k v_{k-1} x and payment v_{k-1} x.
    Slab k - 1 at its upper price v_{k-1} and amount (s_k / s_{k-1}) x
    gives the same mass and the same revenue, with amount (s_k / s_{k-1}) x
    <= x and payment v_{k-1} (s_k / s_{k-1}) x <= v_{k-1} x, as
    s_k <= s_{k-1}.  So moving every lower-slab amount onto the slab below
    keeps each menu point's mass and revenue and stays within the unit and
    the budget: a level's feasible (mass, revenue) set is unchanged.
    """
    for axis, law in (("value", values), ("budget", budgets)):
        if law.kind != "discrete":
            raise ValueError(f"the {axis} law is {law.kind}, not discrete: discretize it first")
    v = values.params["values"]
    s = values.mass_above[:-1]   # s_k = mass of values >= v_k
    prices = np.concatenate([[0.0], v])
    s = np.concatenate([s[:1], s])
    levels = [_level_hull(s, prices, float(w)) for w in budgets.params["values"]]
    _, _, dq, dr = _slope_merge(levels, budgets.params["probs"])
    qs, vals = _knots_from_segments(dq, dr)
    return RevenueCurve(qs, vals, name="Rbar")
