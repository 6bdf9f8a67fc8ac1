"""Independent cross-check oracles used by the tests.

These deliberately avoid the library's solution paths: LP optima come from
explicit vertex enumeration, expectations from generic quadrature, hulls
from a monotone chain on numpy scalars, golden section one bracket at a
time or one step per call, batched evaluators one element at a time.
"""

import itertools
import math

import numpy as np
from scipy import integrate

from anonpricing import mechanisms
from anonpricing.curves import CONCAVITY_SLOPE_TOL, OfferCurve, _chord_reach
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
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    g = vals[None, :] - prices[:, None] * qs[None, :]
    ok = g >= -tol
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
        out[inner] = qs[k] + t * (qs[k + 1] - qs[k])
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
    the arrays one numpy scalar at a time: the reference for
    `curves._upper_hull_indices`, which runs the same chain on Python floats
    and must drop exactly the same knots (collinear ones included)."""
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


def scalar_golden(fn, lo, hi, rel_tol=1e-10, iters=200):
    """Golden-section search for a maximizer of a scalar function in one
    bracket: the reference for `mechanisms._golden`, which searches many
    brackets at once and must return, for each, what this returns alone."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a <= rel_tol * max(1.0, abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max([(fc, c), (fd, d)])[1]


def stepwise_golden(fn, lo, hi, rel_tol=1e-10, iters=200) -> np.ndarray:
    """Golden-section search in every bracket at once, one call of `fn` per
    step for all live brackets: the reference for `mechanisms._golden`,
    which serves several steps per call and must take the same path."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = np.split(fn(np.concatenate([c, d])), 2)
    for _ in range(iters):
        live = np.flatnonzero(b - a > rel_tol * np.maximum(1.0, np.abs(b)))
        if live.size == 0:
            break
        # a bracket whose left point wins keeps [a, d]: d becomes c and a
        # new c is placed; otherwise it keeps [c, b] and places a new d
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        new = fn(np.concatenate([c[lt], d[rt]]))
        fc[lt], fd[rt] = new[: lt.size], new[lt.size :]
    return np.where((fd > fc) | ((fd == fc) & (d > c)), d, c)


def eager_concave(qs, vals) -> bool:
    """The concavity test a curve used to run on construction: the curve is
    concave iff its concave majorant, read at its own knots, exceeds it by
    at most CONCAVITY_SLOPE_TOL of its largest absolute value."""
    hull_idx = numpy_scalar_hull_indices(qs, vals)
    hull_vals = np.interp(qs, qs[hull_idx], vals[hull_idx])
    gap = float(np.max(hull_vals - vals))
    return gap <= CONCAVITY_SLOPE_TOL * max(1.0, float(np.max(np.abs(vals))))


def eager_hull(qs, vals):
    """The hull knots `concave_hull` used to compute afresh on every call."""
    hull_idx = numpy_scalar_hull_indices(qs, vals)
    return qs[hull_idx], vals[hull_idx]


def searched_quantiles_at_prices(prices, curve):
    """`curves.quantiles_at_prices` as one search per price in the chord
    reach, whatever the prices' order and number: the reference for its
    merge of sorted prices, which must give the same bits."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    if curve.offer is not None:
        return np.asarray(curve.offer.eval(prices))
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
        out[inner] = qs[k] + g0 / (g0 - g1) * (qs[k + 1] - qs[k])
    return out


def reference_ap_optimize(sellables, grid=4096):
    """`mechanisms.ap_optimize` with every sellable evaluated at every price:
    a list of full rows stacked into the sweep's table, and every sellable
    in every golden-section step, one step per call.  The reference for its
    selling windows, live-agent refinement and batched search, which must
    give the same bits."""
    def values(prices):
        sale = np.array([s.eval(prices) if isinstance(s, OfferCurve) else searched_quantiles_at_prices(prices, s)
                         for s in sellables])
        return mechanisms._ap_values(prices, sale)

    cands = mechanisms._candidate_prices(sellables, grid)
    vals = values(cands)
    best_idx = int(np.argmax(vals))
    best_p, best_v = float(cands[best_idx]), float(vals[best_idx])
    order = np.argsort(vals)[::-1][:3]
    lo = np.where(order > 0, cands[np.maximum(order - 1, 0)], cands[order] * 0.5)
    hi = cands[np.minimum(order + 1, len(cands) - 1)]
    p_ref = stepwise_golden(values, lo, hi)
    for p, v in zip(p_ref.tolist(), values(p_ref).tolist()):
        if v > best_v:
            best_p, best_v = p, v
    return mechanisms.ap_revenue(sellables, best_p)


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
