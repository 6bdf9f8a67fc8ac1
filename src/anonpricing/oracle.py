"""Optimization oracles: a dense simplex solver, the exact ex-ante curve of
the discretized single-agent revenue LP, and grid-search ex-ante relaxation.

The simplex and the grid EAR exist to cross-check the analytic machinery,
so they avoid sharing code paths with it: the simplex is self-contained
(two-phase, Bland's anti-cycling rule) and the grid EAR is plain
enumeration.  The ex-ante curve is built from the LP's own structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import RevenueCurve, _collapse, _slope_merge, _upper_hull_indices
from .distributions import Distribution, PROB_ATOL

_TOL = 1e-10


@dataclass(frozen=True)
class SimplexSolution:
    status: str               # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective: float | None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _run_simplex(T, basis, allowed):
    """Iterate a tableau whose last row holds reduced costs.

    Entering column: most negative reduced cost (Dantzig) while the
    objective is moving; after a stretch of degenerate pivots the rule
    drops to Bland's smallest-index choice, whose termination guarantee
    rules out cycling.  Leaving row: min ratio, ties to the smallest basis
    index.  Returns 'optimal' or 'unbounded'.
    """
    m = T.shape[0] - 1
    basis_arr = basis
    stall = 0
    last_obj = T[-1, -1]
    while True:
        red = T[-1, :-1]
        cand = allowed & (red < -_TOL)
        if not cand.any():
            return "optimal"
        if stall <= 64:
            masked = np.where(cand, red, np.inf)
            col = int(np.argmin(masked))
        else:
            col = int(np.argmax(cand))
        colvec = T[:m, col]
        pos = colvec > _TOL
        if not pos.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / colvec[pos]
        rmin = ratios.min()
        near = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        row = int(min(near, key=lambda r: basis_arr[r]))
        _pivot(T, basis_arr, row, col)
        obj = T[-1, -1]
        if obj > last_obj + 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
        else:
            stall += 1
        last_obj = obj


def simplex_solve(
    objective: Sequence[float],
    constraints: Sequence[Sequence[float]],
    senses: Sequence[str],
    rhs: Sequence[float],
    upper: Sequence[float] | None = None,
    maximize: bool = True,
) -> SimplexSolution:
    """Dense two-phase simplex for max/min c'x s.t. A x (<=|=|>=) b, 0 <= x <= upper.

    Finite upper bounds become extra rows.  Bland's rule guarantees
    termination; intended for desk-scale problems (~1e4 nonzeros).
    """
    c = np.asarray(objective, dtype=float)
    A = np.asarray(constraints, dtype=float).reshape(len(senses), -1) if len(senses) else np.zeros((0, len(c)))
    b = np.asarray(rhs, dtype=float)
    if A.shape[1] != len(c):
        raise ValueError("objective/constraint dimension mismatch")
    if not maximize:
        c = -c
    senses = list(senses)
    rows = [A[i].copy() for i in range(A.shape[0])]
    bs = list(b)
    if upper is not None:
        for j, ub in enumerate(upper):
            if ub is not None and np.isfinite(ub):
                row = np.zeros(len(c))
                row[j] = 1.0
                rows.append(row)
                senses.append("<=")
                bs.append(float(ub))
    m, n = len(rows), len(c)
    # orient every row so the rhs is nonnegative
    for i in range(m):
        if bs[i] < 0:
            rows[i] = -rows[i]
            bs[i] = -bs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]
    n_slack = sum(1 for s in senses if s in ("<=", ">="))
    n_art = sum(1 for s in senses if s in ("=", ">="))
    ncols = n + n_slack + n_art
    T = np.zeros((m + 1, ncols + 1))
    basis = [-1] * m
    art_cols = []
    si = n
    ai = n + n_slack
    for i, (row, sense, bi) in enumerate(zip(rows, senses, bs)):
        T[i, :n] = row
        T[i, -1] = bi
        if sense == "<=":
            T[i, si] = 1.0
            basis[i] = si
            si += 1
        elif sense == ">=":
            T[i, si] = -1.0
            si += 1
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
        else:
            T[i, ai] = 1.0
            basis[i] = ai
            art_cols.append(ai)
            ai += 1
    art_set = set(art_cols)
    allowed = np.ones(ncols, dtype=bool)
    if art_cols:
        # phase 1: minimize artificial mass
        for i in range(m):
            if basis[i] in art_set:
                T[-1, :-1] -= T[i, :-1]
                T[-1, -1] -= T[i, -1]
        for j in art_cols:
            T[-1, j] = 0.0
        _run_simplex(T, basis, allowed)
        if T[-1, -1] < -1e-7:
            return SimplexSolution("infeasible", None, None)
        # force leftover artificial basics out (or drop redundant rows)
        drop = []
        for r in range(m):
            if basis[r] in art_set:
                piv = next((j for j in range(n + n_slack) if abs(T[r, j]) > _TOL), None)
                if piv is None:
                    drop.append(r)
                else:
                    _pivot(T, basis, r, piv)
        if drop:
            keep = [r for r in range(m) if r not in drop] + [m]
            T = T[keep]
            basis = [basis[r] for r in range(m) if r not in drop]
            m = len(basis)
        allowed[list(art_set)] = False
    # phase 2 objective row: reduced costs for the real objective
    full_c = np.zeros(ncols)
    full_c[:n] = c
    T[-1, :-1] = -full_c
    T[-1, -1] = 0.0
    for r in range(m):
        if full_c[basis[r]] != 0.0:
            T[-1, :-1] += full_c[basis[r]] * T[r, :-1]
            T[-1, -1] += full_c[basis[r]] * T[r, -1]
    status = _run_simplex(T, basis, allowed)
    if status == "unbounded":
        return SimplexSolution("unbounded", None, None)
    x = np.zeros(ncols)
    for r in range(m):
        x[basis[r]] = T[r, -1]
    obj = float(full_c @ x)
    if not maximize:
        obj = -obj
    return SimplexSolution("optimal", x[:n].copy(), obj)


# -- discretized ex-ante revenue maximization ---------------------------------


@dataclass(frozen=True)
class DiscreteTypeSpace:
    """Product law of discrete values and budgets for one agent.

    The linear model carries a single infinite sentinel budget so the same
    LP covers all three models.
    """

    values: np.ndarray
    value_probs: np.ndarray
    budgets: np.ndarray
    budget_probs: np.ndarray
    model: str

    def __post_init__(self):
        for name, vals, probs in (
            ("value", self.values, self.value_probs),
            ("budget", self.budgets, self.budget_probs),
        ):
            if len(vals) != len(probs) or len(vals) == 0:
                raise ValueError(f"{name} axis needs matching nonempty arrays")
            if np.any(np.diff(vals) <= 0):
                raise ValueError(f"{name}s must be strictly increasing")
            if np.any(probs <= 0) or abs(probs.sum() - 1.0) > PROB_ATOL:
                raise ValueError(f"{name} masses must be positive and sum to 1")
        if self.model not in ("linear", "public-budget", "private-budget"):
            raise ValueError(f"unsupported model {self.model!r}")
        if self.model == "linear" and not (len(self.budgets) == 1 and math.isinf(self.budgets[0])):
            raise ValueError("linear spaces use the single +inf budget sentinel")

    @classmethod
    def public_budget(cls, F: Distribution, n_values: int, w: float) -> "DiscreteTypeSpace":
        from .distributions import discretize

        d = F if F.kind == "discrete" else discretize(F, n_values)
        return cls(d.params["values"], d.params["probs"], np.array([float(w)]), np.array([1.0]), "public-budget")

    @classmethod
    def private_budget(cls, F: Distribution, n_values: int, G: Distribution, n_budgets: int) -> "DiscreteTypeSpace":
        from .distributions import discretize

        dv = F if F.kind == "discrete" else discretize(F, n_values)
        dw = G if G.kind == "discrete" else discretize(G, n_budgets)
        return cls(dv.params["values"], dv.params["probs"], dw.params["values"], dw.params["probs"], "private-budget")


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


def ex_ante_curve_oracle(space: DiscreteTypeSpace) -> RevenueCurve:
    """Exact ex-ante revenue curve of the discrete value-IC relaxation.

    Per budget level the mechanism is a convex nondecreasing menu: slab k
    (values >= v_k) is sold at marginal price v_{k-1} (v_0 = 0) or v_k,
    the ends of the local incentive bracket, so mixing them spans every
    menu rate and in particular every posted price; the level's top
    payment respects its budget.  The price-0 bottom slab covers
    giveaways, so every mass in [0, 1] is reachable.  Levels couple only
    through the total ex-ante mass, so Rbar is the water-fill of the
    per-level hulls: their segments, scaled by the level masses, taken in
    order of decreasing slope.  For private budgets this upper-bounds the
    true ex-ante revenue because incentive constraints across budget
    levels are dropped.
    """
    v = space.values
    s = np.cumsum(space.value_probs[::-1])[::-1]   # s_k = mass of values >= v_k
    prices = np.concatenate([[0.0], v[:-1], v])
    s = np.concatenate([s, s])
    levels = [_level_hull(s, prices, float(w)) for w in space.budgets]
    _, _, dq, dr = _slope_merge(levels, space.budget_probs)
    qs = np.concatenate([[0.0], np.cumsum(dq)])
    vals = np.concatenate([[0.0], np.cumsum(dr)])
    # a tiny segment can vanish in the running sum; keep the later knot
    keep = np.append(np.diff(qs) > 0.0, True)
    qs, vals = qs[keep], vals[keep]
    qs[-1] = 1.0   # the level masses sum to 1 only within PROB_ATOL
    return RevenueCurve(qs, vals, name="Rbar")

