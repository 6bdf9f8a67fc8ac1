"""Independent cross-check oracles used by the tests.

These deliberately avoid the library's solution paths: LP optima come from
explicit vertex enumeration, expectations from generic quadrature, hulls
from a monotone chain on numpy scalars, the section search one bracket
at a time, batched evaluators one element at a time.
The non-concave curves that more than one test module draws are here too.
"""

import importlib.util
import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy import integrate

from anonpricing import mechanisms
from anonpricing.curves import CONCAVITY_SLOPE_TOL, OfferCurve, _chord_reach, synthetic_curve
from anonpricing.distributions import PROB_ATOL, Distribution


def survival_quadrature_mean(dist) -> float:
    """Mean via the survival-function integral, independent of closed forms."""
    body, _ = integrate.quad(lambda x: 1.0 - dist.cdf(x), min(dist.lo, 0.0), dist.hi, limit=400)
    return body + min(dist.lo, 0.0)


def expected_min_quadrature(dist, p: float) -> float:
    if p <= 0:
        return max(p, 0.0) if dist.lo >= 0 else p
    hi = min(p, dist.hi)
    body, _ = integrate.quad(lambda x: 1.0 - dist.cdf(x), 0.0, hi, limit=400)
    return body + max(0.0, p - dist.hi) * 0.0


def enumerate_lp_max(c, a_ub, b_ub, a_eq, b_eq, tol=1e-9):
    """Exhaustive vertex enumeration for max c'x, A_ub x <= b_ub,
    A_eq x = b_eq, x >= 0.  Exponential; for tiny LPs only."""
    c = np.asarray(c, float)
    a_ub = np.asarray(a_ub, float).reshape(-1, len(c))
    b_ub = np.asarray(b_ub, float)
    a_eq = np.asarray(a_eq, float).reshape(-1, len(c))
    b_eq = np.asarray(b_eq, float)
    n = len(c)
    rows = [("ub", i) for i in range(len(b_ub))] + [("eq", i) for i in range(len(b_eq))] + [
        ("nn", j) for j in range(n)
    ]
    best = None
    n_eq = len(b_eq)
    for combo in itertools.combinations(rows, n):
        # equalities must always be active; only combos containing them count
        if sum(1 for kind, _ in combo if kind == "eq") != n_eq:
            continue
        A = np.zeros((n, n))
        b = np.zeros(n)
        for r, (kind, i) in enumerate(combo):
            if kind == "ub":
                A[r] = a_ub[i]
                b[r] = b_ub[i]
            elif kind == "eq":
                A[r] = a_eq[i]
                b[r] = b_eq[i]
            else:
                A[r, i] = 1.0
                b[r] = 0.0
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < -tol):
            continue
        if np.any(a_ub @ x > b_ub + tol):
            continue
        if np.any(np.abs(a_eq @ x - b_eq) > tol):
            continue
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def ex_ante_lp_matrices(F, G, q):
    """The slab-menu LP for the discrete ex-ante problem over the discrete
    value law F and budget law G, rebuilt from scratch so vertex
    enumeration is a genuinely independent route.

    Variable layout (mirroring the math, not the library's code): for each
    budget level j, m slabs priced at the bracket bottom (v_{k-1}, with
    v_0 = 0) followed by m slabs priced at the bracket top v_k.
    """
    values, f = F.params["values"], F.params["probs"]
    budgets, g = G.params["values"], G.params["probs"]
    m, n = len(values), len(budgets)
    s = np.cumsum(f[::-1])[::-1]
    v_lo = np.concatenate([[0.0], values[:-1]])
    nvar = 2 * m * n
    c = np.zeros(nvar)
    mass = np.zeros(nvar)
    a_ub, b_ub = [], []
    for j in range(n):
        base = j * 2 * m
        c[base : base + m] = g[j] * s * v_lo
        c[base + m : base + 2 * m] = g[j] * s * values
        mass[base : base + m] = g[j] * s
        mass[base + m : base + 2 * m] = g[j] * s
        unit = np.zeros(nvar)
        unit[base : base + 2 * m] = 1.0
        a_ub.append(unit)
        b_ub.append(1.0)
        if not math.isinf(budgets[j]):
            pay = np.zeros(nvar)
            pay[base : base + m] = v_lo
            pay[base + m : base + 2 * m] = values
            a_ub.append(pay)
            b_ub.append(budgets[j])
    return c, a_ub, b_ub, [mass], [q]


def dense_quantiles_at_prices(prices, qs, vals):
    """Largest q whose chord from the origin has slope p, by testing every
    knot against every price (a prices x knots matrix).  The reference for
    the library's threshold search; valid for non-concave curves."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    qs = np.asarray(qs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    K = len(qs)
    tol = max(1e-12 * float(np.max(np.abs(vals))), np.finfo(float).tiny)
    g = vals[None, :] - prices[:, None] * qs[None, :]
    # knot k is affordable up to (v_k + tol) / q_k: tested as g >= -tol, a
    # subnormal p * q_k that rounds to 0 would sell a curve of zeros at p > 0
    ok = prices[:, None] <= (vals + tol)[None, :] / np.where(qs > 0.0, qs, 1.0)[None, :]
    ok[:, qs <= 0.0] = False
    has = ok.any(axis=1)
    last = K - 1 - np.argmax(ok[:, ::-1], axis=1)
    out = np.zeros(len(prices))
    out[has & (last == K - 1)] = 1.0
    inner = has & (last < K - 1)
    if np.any(inner):
        k = last[inner]
        g0 = g[inner, k]
        g1 = g[inner, k + 1]
        flat = g1 >= -tol
        t = np.where(flat, 0.0, g0 / np.where(flat, 1.0, g0 - g1))
        # never below the affordable knot k, as the library's lookup reads
        out[inner] = np.maximum(qs[k], qs[k] + t * (qs[k + 1] - qs[k]))
    return out


def brute_force_ear(curves, step: float = 0.01) -> float:
    """Grid enumeration of max sum_i curve_i(q_i) with sum q_i <= 1.

    Within Lipschitz * step of the optimum; restricted to at most three
    curves on purpose, to stay a dumb cross-check of water-filling.
    """
    if len(curves) == 0 or len(curves) > 3:
        raise ValueError("brute force handles 1 to 3 curves")
    if step > 0.01 + 1e-12:
        raise ValueError("step must be at most 0.01")
    grid = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    G = len(grid)
    vals = [np.asarray(c.eval(grid)) for c in curves]
    if len(curves) == 1:
        return float(np.max(vals[0]))
    # best_k(r) = max over grid points <= r, exact on the grid
    best_last = np.maximum.accumulate(vals[-1])
    if len(curves) == 2:
        totals = vals[0] + best_last[::-1]
        return float(np.max(totals))
    best = -np.inf
    for i in range(G):
        rem = G - 1 - i
        inner = vals[1][: rem + 1] + best_last[rem::-1]
        best = max(best, vals[0][i] + float(np.max(inner)))
    return float(best)


def loop_collapse(q, v):
    """Sort by q, then walk the points one by one: a q within 1e-15 of the
    current run's first q joins that run and the run keeps its largest
    value.  The per-element reference for `curves._collapse`, which splits
    runs where consecutive gaps exceed 1e-15; the two agree whenever every
    gap is 0 or at least 1e-12."""
    order = np.argsort(q, kind="stable")
    q, v = np.asarray(q)[order], np.asarray(v)[order]
    keep_q, keep_v = [q[0]], [v[0]]
    for qi, vi in zip(q[1:], v[1:]):
        if qi - keep_q[-1] <= 1e-15:
            keep_v[-1] = max(keep_v[-1], vi)
        else:
            keep_q.append(qi)
            keep_v.append(vi)
    return np.array(keep_q), np.array(keep_v)


def numpy_scalar_hull_indices(qs, vals) -> list[int]:
    """Knot indices of the upper convex hull by a monotone chain that reads
    the arrays one numpy scalar at a time (collinear knots dropped).  On a
    curve's strict records it is the reference for
    `curves._upper_hull_indices` (see `record_hull_indices`)."""
    idx = [0]
    for i in range(1, len(qs)):
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            cross = (qs[i1] - qs[i0]) * (vals[i] - vals[i0]) - (qs[i] - qs[i0]) * (vals[i1] - vals[i0])
            if cross >= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def strict_records(vals) -> list[int]:
    """Indices of the knots whose value is a strict prefix maximum or a
    strict suffix maximum, read one knot at a time; the first and last
    knots always are."""
    keep = set()
    for order in (range(len(vals)), reversed(range(len(vals)))):
        best = -math.inf
        for i in order:
            if vals[i] > best:
                keep.add(i)
                best = vals[i]
    return sorted(keep)


def record_hull_indices(qs, vals) -> list[int]:
    """`numpy_scalar_hull_indices` on the strict records only, as knot
    indices of the whole curve: the reference for
    `curves._upper_hull_indices`, which must keep exactly these knots."""
    rec = strict_records(vals)
    return [rec[k] for k in numpy_scalar_hull_indices(np.asarray(qs)[rec], np.asarray(vals)[rec])]


def exact_hull_indices(qs, vals) -> list[int]:
    """Knot indices of the upper convex hull of the knots' doubles, by the
    monotone chain in exact rational arithmetic: the true strict vertices,
    free of any rounding of the cross products."""
    q = [Fraction(float(x)) for x in qs]
    v = [Fraction(float(x)) for x in vals]
    idx = [0]
    for i in range(1, len(q)):
        while len(idx) >= 2 and (q[idx[-1]] - q[idx[-2]]) * (v[i] - v[idx[-2]]) >= \
                (q[i] - q[idx[-2]]) * (v[idx[-1]] - v[idx[-2]]):
            idx.pop()
        idx.append(i)
    return idx


def scalar_sections(fn, lo, hi):
    """Section search for a maximizer in one bracket, on Python floats;
    `fn` maps a list of prices to a list of values.  The reference for
    `mechanisms._section_search`, which searches many brackets at once and
    must return, for each, the price and value this returns alone."""
    n = mechanisms._SECTIONS
    a, b = float(lo), float(hi)
    best_p, best_v = None, -math.inf
    while True:
        grid = [a + (b - a) * (i / n) for i in range(n + 1)]
        vals = fn(grid[1:-1])
        k = max(range(n - 1), key=lambda i: (vals[i], i))   # the last best is the larger price
        if vals[k] >= best_v:
            best_p, best_v = grid[k + 1], vals[k]
        a, b = grid[k], grid[k + 2]
        if b - a <= 1e-10 * max(1.0, abs(b)):
            return best_p, best_v


def eager_concave(qs, vals) -> bool:
    """The concavity test a curve used to run on construction: the curve is
    concave iff its concave majorant, read at its own knots, exceeds it by
    at most CONCAVITY_SLOPE_TOL of its largest absolute value."""
    hull_idx = record_hull_indices(qs, vals)
    hull_vals = np.interp(qs, qs[hull_idx], vals[hull_idx])
    gap = float(np.max(hull_vals - vals))
    return gap <= CONCAVITY_SLOPE_TOL * float(np.max(np.abs(vals)))


def eager_hull(qs, vals):
    """The hull knots `concave_hull` used to compute afresh on every call."""
    hull_idx = record_hull_indices(qs, vals)
    return qs[hull_idx], vals[hull_idx]


def searched_quantiles_at_prices(prices, curve):
    """`curves.quantiles_at_prices` as one search per price in the chord
    reach, each price on its own path: the reference for the library's
    whole-batch shortcut, which must give the same bits."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    qs, vals = curve.qs, curve.values
    K = len(qs)
    last = np.searchsorted(_chord_reach(qs, vals), -prices, side="right") - 1
    out = np.zeros(len(prices))
    out[last == K - 1] = 1.0
    inner = (last >= 0) & (last < K - 1)
    if np.any(inner):
        k = last[inner]
        p = prices[inner]
        g0 = vals[k] - p * qs[k]
        g1 = vals[k + 1] - p * qs[k + 1]
        out[inner] = np.maximum(qs[k], qs[k] + g0 / (g0 - g1) * (qs[k + 1] - qs[k]))
    return out


@st.composite
def dented_curve(draw):
    """A curve with a knot strictly below the chord of its neighbours: not
    concave, so its hull scan drops a knot."""
    a, b = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2, unique=True)))
    va, v1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    vb = (va + (v1 - va) * (b - a) / (1.0 - a)) * draw(st.floats(0.0, 0.9))
    return synthetic_curve([(0.0, 0.0), (a, va), (b, vb), (1.0, v1)])


@st.composite
def ray_curve(draw):
    """A curve with two knots on one ray from the origin, as the merged
    budget levels of an ex-ante curve put them: the two chord thresholds
    differ by the tolerance only."""
    a, b = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2, unique=True)))
    va, v1 = draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0))
    return synthetic_curve([(0.0, 0.0), (a, va), (b, va * b / a), (1.0, v1)])


def sale_table(sellables, prices):
    """Every sellable's sale probability (rows) at every price (columns),
    each one searched on its own, with no selling window."""
    return np.array([s.eval(prices) if isinstance(s, OfferCurve) else searched_quantiles_at_prices(prices, s)
                     for s in sellables]).reshape(len(sellables), len(prices))


def table_ap_values(sellables, prices):
    """Anonymous-pricing revenue p * (1 - prod_i(1 - Q_i(p))) at each price,
    from the agents x prices `sale_table`."""
    return prices * (1.0 - (1.0 - sale_table(sellables, prices)).prod(axis=0))


def reference_ap_optimize(sellables, grid=4096):
    """`mechanisms.ap_optimize` with every sellable evaluated at every price
    in a table, the brackets taken from a full stable sort of the sweep's
    revenues, and every sellable at every point of the section search, one
    bracket at a time.  The reference for its selling windows,
    its partial selection of the best candidates and its batched search,
    which must give the same bits."""
    cands = mechanisms._candidate_prices(sellables, grid)
    vals = table_ap_values(sellables, cands)
    best_idx = int(np.argmax(vals))
    best_p, best_v = float(cands[best_idx]), float(vals[best_idx])
    order = np.argsort(vals, kind="stable")[::-1][:3]
    lo = np.where(order > 0, cands[np.maximum(order - 1, 0)], cands[order] * 0.5)
    hi = cands[np.minimum(order + 1, len(cands) - 1)]
    for a, b in zip(lo.tolist(), hi.tolist()):
        p, v = scalar_sections(lambda ps: table_ap_values(sellables, np.array(ps)).tolist(), a, b)
        if v > best_v:
            best_p, best_v = p, v
    price = np.array([best_p])
    qs = tuple(sale_table(sellables, price)[:, 0].tolist())
    return mechanisms.ApResult(best_p, qs, float(table_ap_values(sellables, price)[0]))


def reference_candidate_prices(sellables, grid):
    """`mechanisms._candidate_prices` as three copies: the pooled parts,
    their finite entries, and `np.unique` of those with both sweeps.  The
    reference for its one buffer sorted and filtered in place."""
    cands = np.concatenate([np.append(s.knot_prices, s.price_cap) if isinstance(s, OfferCurve)
                            else s.values[s.qs > 0] / s.qs[s.qs > 0] for s in sellables])
    cands = cands[np.isfinite(cands)]
    top = float(np.max(cands, initial=0.0)) or 1.0
    sweep = np.geomspace(max(top * 1e-9, np.nextafter(0.0, 1.0)), top, grid)
    cands = np.unique(np.concatenate([cands, sweep, np.linspace(top / grid, top, grid)]))
    return cands[cands > 0.0]


def materialized_ear(curves):
    """`mechanisms.ear_optimize` with every pooled segment reordered up front:
    the segments' owners, slopes and masses sorted by decreasing slope (a
    stable sort, so ties keep curve order), then the same water-fill loop.
    The reference for the water-fill that gathers them a chunk at a time."""
    dq = [np.diff(c.qs) for c in curves]
    dv = [np.diff(c.values) for c in curves]
    slope = np.concatenate([b / a for a, b in zip(dq, dv)])
    order = np.argsort(-slope, kind="stable")
    owner = np.repeat(np.arange(len(curves)), [len(a) for a in dq])[order]
    slope, mass = slope[order], np.concatenate(dq)[order]
    remaining = 1.0
    q = np.zeros(len(curves))
    for i, s, m in zip(owner, slope, mass):
        if remaining <= 1e-15 or s <= 0.0:
            break
        take = min(m, remaining)
        q[i] += take
        remaining -= take
    revenue = float(sum(c.eval(qi) for c, qi in zip(curves, q)))
    return mechanisms.EarResult(tuple(q.tolist()), revenue, binding=remaining <= 1e-12)


def quadrature_random_price_revenue_public(F, w: float) -> float:
    """`mechanisms.random_price_revenue_public` by quadrature of its defining
    integral E_{r~F}[min(r, w) * Pr[v >= r]] over the continuous part, plus
    the atoms: the reference for its closed forms."""
    def integrand(r):
        return min(r, w) * float(F.survival_left(r)) * float(F.pdf(r))

    # break at w and at the knots of a piecewise-linear CDF, where the
    # integrand has kinks; a break point within 1e-12 of the span from an
    # end would leave quad a sliver it cannot resolve, and the kink there
    # moves the integral by less than that
    knots = F.params["xs"].tolist() if F.kind == "piecewise-linear-cdf" else []
    gap = 1e-12 * (F.hi - F.lo)
    pts = [p for p in [w, *knots] if F.lo + gap < p < F.hi - gap]
    total, _ = integrate.quad(integrand, F.lo, F.hi, points=pts or None, epsabs=0.0, epsrel=1e-12, limit=200)
    for a, mass in F.atoms:
        total += mass * min(a, w) * float(F.survival_left(a))
    return float(total)


def public_budget_offer(F, w: float, p):
    """The public-budget offer S(p) min(1, w/p) in its own form, with
    S(p) = Pr[value >= p]: the reference for `curves.offer_curve`, which
    reads a public budget as its one-atom budget law."""
    p = np.asarray(p, dtype=float)
    take = np.divide(w, p, out=np.ones_like(p), where=p > w)
    return np.asarray(F.survival_left(p)) * take


def scalar_piecewise_expected_min(F, p: float) -> float:
    """E[min(X, p)] for a piecewise-linear CDF, one price at a time: the
    reference for the batched form in `Distribution.expected_min`, which
    must give the same bits."""
    xs, fs = F.params["xs"], F.params["fs"]
    surv = 1.0 - fs
    seg = np.concatenate([[0.0], np.cumsum(0.5 * (surv[1:] + surv[:-1]) * np.diff(xs))])
    if p <= xs[0]:
        return max(p, 0.0)
    if p >= xs[-1]:
        return xs[0] + seg[-1]
    i = np.searchsorted(xs, p, side="right") - 1
    s_at = 1.0 - np.interp(p, xs, fs)
    partial = 0.5 * (surv[i] + s_at) * (p - xs[i])
    return xs[0] + seg[i] + partial


def loop_discretize(d, n: int):
    """`distributions.discretize` one chunk and one merge at a time: the
    reference for its array form, which must give the same bits."""
    if d.kind == "discrete":
        return d
    atoms = d.atoms
    cont_mass = max(0.0, 1.0 - sum(m for _, m in atoms))
    values = [a for a, _ in atoms]
    probs = [m for _, m in atoms]
    if cont_mass > PROB_ATOL:
        k = max(1, n - len(atoms))
        bands = sorted((float(1.0 - d.cdf(a)), float(1.0 - d.cdf_left(a))) for a, _ in atoms)
        segments = []
        cursor = 0.0
        for left, right in bands:
            if left > cursor + 1e-15:
                segments.append((cursor, left))
            cursor = max(cursor, right)
        if cursor < 1.0 - 1e-15:
            segments.append((cursor, 1.0))
        lengths = np.array([b - a for a, b in segments])
        starts = np.concatenate([[0.0], np.cumsum(lengths)])
        total = starts[-1]
        for j in range(k):
            target = (j + 0.5) / k * total
            seg = min(np.searchsorted(starts, target, side="right") - 1, len(segments) - 1)
            q_mid = segments[seg][0] + (target - starts[seg])
            values.append(float(d.inverse_demand(q_mid)))
            probs.append(cont_mass / k)
    values = np.asarray(values)
    probs = np.asarray(probs)
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    merged_v, merged_p = [values[0]], [probs[0]]
    for v, m in zip(values[1:], probs[1:]):
        if v <= merged_v[-1]:
            merged_p[-1] += m
        else:
            merged_v.append(v)
            merged_p.append(m)
    merged_p = np.asarray(merged_p)
    return Distribution.discrete(merged_v, merged_p / merged_p.sum())


def bisection_inverse(offer, qs) -> np.ndarray:
    """The quantile-spread prices as the posting sweep once found them for
    every offer: 40 rounds of bisection on [0, cap (1 + 1e-9)], each round
    one evaluation of the offer, keeping the last price that sells q."""
    qs = np.asarray(qs, dtype=float)
    cap = offer.price_cap
    lo_b = np.zeros_like(qs)
    hi_b = np.full_like(qs, cap * (1.0 + 1e-9) if cap > 0 else 1.0)
    for _ in range(40):
        mid = 0.5 * (lo_b + hi_b)
        accept = offer.eval(mid) >= qs
        lo_b = np.where(accept, mid, lo_b)
        hi_b = np.where(accept, hi_b, mid)
    return lo_b


def with_bisection_inverse(offer: OfferCurve) -> OfferCurve:
    """`offer`, given `bisection_inverse` as its inverse where it has no
    closed form (a budget on a non-discrete law), so that every offer can
    be swept as the sweep once swept it."""
    if offer.inverse is not None:
        return offer
    return replace(offer, inverse=lambda qs: bisection_inverse(offer, qs))


def pointwise_regular_and_mhr(d) -> tuple[bool, bool]:
    """(regular, MHR) of a discrete or piecewise-linear-CDF law, read at
    points with the law's own `pdf`, `survival` and `inverse_demand`.

    Discrete: q*V(q) must not drop just right of the quantile S(v) of any
    atom v but the top one, and no point between two atoms may carry zero
    density while mass lies above it.  Piecewise-linear: at every knot with
    mass on both sides, the density just left and just right must be
    positive, the hazard f/S must not fall by more than 1e-9 of its left
    reading, and the virtual value v - S/f not by more than 1e-9 of S/f on
    the left."""
    if d.kind == "discrete":
        v = d.params["values"]
        q = np.asarray(d.survival(v[:-1]))
        regular = bool(np.all(q * d.inverse_demand(np.nextafter(q, 2.0)) >= q * d.inverse_demand(q)))
        mid = 0.5 * (v[1:] + v[:-1])
        mhr = not np.any((np.asarray(d.pdf(mid)) == 0.0) & (np.asarray(d.survival(mid)) > 0.0))
        return regular, bool(mhr)
    xs = d.params["xs"]
    x = xs[(np.asarray(d.cdf(xs)) > 0.0) & (np.asarray(d.survival(xs)) > 0.0)]
    f_left, f_right = np.asarray(d.pdf(np.nextafter(x, -np.inf))), np.asarray(d.pdf(x))
    if np.any(f_left <= 0.0) or np.any(f_right <= 0.0):
        return False, False
    s = np.asarray(d.survival(x))
    phi_left, phi_right = x - s / f_left, x - s / f_right
    regular = np.all(phi_right >= phi_left - 1e-9 * s / f_left)
    mhr = np.all(f_right / s >= (1.0 - 1e-9) * f_left / s)
    return bool(regular), bool(mhr)


def load_workloads(monkeypatch):
    """The benchmark's `perfbench/workloads.py`, loaded by path: the
    scenarios and parameters of its three workloads."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look their module up here
    spec.loader.exec_module(workloads)
    return workloads
