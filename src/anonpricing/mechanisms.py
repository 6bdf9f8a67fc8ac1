"""Pricing mechanisms over revenue curves and offer curves.

Anonymous pricing posts one per-unit price to all agents; its revenue at
price p is p * (1 - prod_i(1 - Q_i(p))).  The ex-ante relaxation instead
splits a unit of expected supply across agents, which water-filling solves
exactly on concave piecewise-linear curves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import OfferCurve, RevenueCurve, _slope_merge, quantiles_at_prices, selling_window
from .distributions import Distribution

Sellable = RevenueCurve | OfferCurve


@dataclass(frozen=True)
class ApResult:
    price: float
    win_probabilities: tuple
    revenue: float

    def csv_row(self, scenario: str = "") -> str:
        qs = ";".join(f"{q:.12g}" for q in self.win_probabilities)
        return f"{scenario},anonymous-pricing,{self.price:.12g},{qs},{self.revenue:.12g}"


@dataclass(frozen=True)
class EarResult:
    quantiles: tuple
    revenue: float
    binding: bool   # True when the unit of ex-ante supply is fully used

    def csv_row(self, scenario: str = "") -> str:
        qs = ";".join(f"{q:.12g}" for q in self.quantiles)
        return f"{scenario},ex-ante-relaxation,,{qs},{self.revenue:.12g}"


@dataclass(frozen=True)
class TwoPricedBound:
    q_prime: float
    base_term: float        # marginal-revenue mass of the full allocation
    capped_term: float      # marginal-revenue mass of the capped allocation
    overflow_term: float    # value-above-capacity mass of the capped allocation
    total: float
    bound: float            # P(q') * (2 + ln(hval / C))
    multiplier: float


def _sale_row(s: Sellable, prices: np.ndarray) -> np.ndarray:
    return s.eval(prices) if isinstance(s, OfferCurve) else quantiles_at_prices(prices, s)


_BLOCK = 1 << 16   # prices per block of the sweep, segments per chunk of the water-fill


def _ap_values(sellables: Sequence[Sellable], prices: np.ndarray, low, top) -> np.ndarray:
    """Anonymous-pricing revenue p * (1 - prod_i(1 - Q_i(p))) at sorted
    prices, given each sellable's selling window [low, top] (see
    `curves.selling_window`).

    The prices are taken in blocks of _BLOCK, each with one running no-sale
    product.  Each sellable, in order, multiplies it by 1 - Q inside its
    window only: above its top its factor is 1.0, and at or below any low
    end the product is 0.0, set once.  So every revenue has the bits of the
    plain product over all sellables, and memory is the prices plus one
    block, not agents x prices.
    """
    vals = np.empty(len(prices))
    for start in range(0, len(prices), _BLOCK):
        block = prices[start:start + _BLOCK]
        keep = np.ones(len(block))
        starts = np.searchsorted(block, low, side="right").tolist()
        stops = np.searchsorted(block, top, side="right").tolist()
        for s, i, j in zip(sellables, starts, stops):
            if j > i:
                keep[i:j] *= 1.0 - _sale_row(s, block[i:j])
        keep[:max(starts, default=0)] = 0.0
        vals[start:start + len(block)] = block * (1.0 - keep)
    return vals


def ap_revenue(sellables: Sequence[Sellable], p: float) -> ApResult:
    """Revenue of posting anonymous per-unit price p.

    Each sellable's sale probability at p is read once; the no-sale factors
    1 - Q are multiplied in sellable order, the roundings of `_ap_values`'s
    running product, so the revenue has its bits at p.
    """
    if p < 0:
        raise ValueError("price must be nonnegative")
    p = float(p)
    qs = tuple(float(_sale_row(s, np.array([p]))[0]) for s in sellables)
    return ApResult(p, qs, p * (1.0 - math.prod(1.0 - q for q in qs)))


def _candidate_prices(sellables: Sequence[Sellable], grid: int) -> np.ndarray:
    """Offer knots and price caps, curve chord slopes, and a log-spaced and a
    linear sweep up to the largest of them: the distinct finite positive
    ones, sorted.

    The parts are pooled into one buffer, sorted in place and filtered with
    one mask, so no second sorted or filtered copy of the pool is held.
    """
    parts = [np.append(s.knot_prices, s.price_cap) if isinstance(s, OfferCurve)
             else s.values[s.qs > 0] / s.qs[s.qs > 0] for s in sellables]
    top = max((float(np.max(x, where=np.isfinite(x), initial=0.0)) for x in parts), default=0.0) or 1.0
    # the log sweep spans nine decades, fewer when top * 1e-9 underflows to 0
    parts += (np.geomspace(max(top * 1e-9, np.nextafter(0.0, 1.0)), top, grid), np.linspace(top / grid, top, grid))
    cands = np.concatenate(parts)
    del parts
    cands.sort()
    keep = np.isfinite(cands) & (cands > 0.0)
    keep[1:] &= cands[1:] != cands[:-1]   # the first of each run of equal prices
    return cands[keep]


_SECTIONS = 16   # sections of a bracket; one call of fn prices their inner ends


def _section_search(fn, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Search for a maximizer in every bracket [lo_j, hi_j] at once; `fn`
    maps an array of prices to an array of values, each value not depending
    on the other prices in the array.

    Each call of `fn` prices the _SECTIONS - 1 evenly spaced interior points
    of every live bracket.  Each bracket then narrows to the two sections
    around its best point, the larger price on a tie, and stops once its
    width is at most 1e-10 * max(1, |hi|); every bracket is priced at least
    once.  Returns each bracket's best priced point and its value, the
    later one on a tie.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    best_p, best_v = np.full(len(a), np.nan), np.full(len(a), -np.inf)
    frac = np.arange(_SECTIONS + 1) / _SECTIONS
    live = np.arange(len(a))
    while live.size:
        grid = a[live, None] + (b[live] - a[live])[:, None] * frac
        vals = fn(grid[:, 1:-1].ravel()).reshape(len(live), _SECTIONS - 1)
        k = _SECTIONS - 2 - np.argmax(vals[:, ::-1], axis=1)   # the last best is the larger price
        row = np.arange(len(live))
        up = vals[row, k] >= best_v[live]
        best_p[live[up]], best_v[live[up]] = grid[row, k + 1][up], vals[row, k][up]
        a[live], b[live] = grid[row, k], grid[row, k + 2]
        live = live[b[live] - a[live] > 1e-10 * np.maximum(1.0, np.abs(b[live]))]
    return best_p, best_v


def _best_three(vals: np.ndarray) -> np.ndarray:
    """Indices of the 3 largest values (all of them when fewer), largest
    first, a tie going to the larger index: the first 3 of
    `np.argsort(vals, kind="stable")[::-1]`.  Only the values at or above
    the third largest are sorted, and stably, so the order among ties does
    not depend on which sort kernel numpy picks for the CPU."""
    idx = np.flatnonzero(vals >= np.partition(vals, -3)[-3]) if len(vals) > 3 else np.arange(len(vals))
    return idx[np.argsort(vals[idx], kind="stable")[::-1][:3]]


_STRIDE = 64   # candidates per block of the bounded sweep


def _swept_values(sellables: Sequence[Sellable], cands: np.ndarray, low, top) -> np.ndarray:
    """The revenue at each sorted candidate that can be among the 3 best,
    and -inf at the others: the sweep of `ap_optimize`, whose docstring
    gives the bound on each block of _STRIDE candidates.  Below _STRIDE^2
    candidates every candidate is priced in one pass."""
    n = len(cands)
    if n < _STRIDE * _STRIDE:
        return _ap_values(sellables, cands, low, top)
    vals = np.full(n, -np.inf)
    vals[::_STRIDE] = first = _ap_values(sellables, cands[::_STRIDE], low, top)
    last = np.append(cands[_STRIDE - 1::_STRIDE], cands[-1])[:len(first)]
    # the 3rd best of the _STRIDE or more starts is at most the 3rd best
    # candidate; the margin covers the bound's roundings
    keep = np.repeat(first / cands[::_STRIDE] * last * (1.0 + 1e-9) >= np.partition(first, -3)[-3], _STRIDE)[:n]
    keep[::_STRIDE] = False
    vals[keep] = _ap_values(sellables, cands[keep], low, top)
    return vals


def ap_optimize(sellables: Sequence[Sellable], grid: int = 4096) -> ApResult:
    """Best anonymous price: knot candidates plus a price sweep, then one
    section search over the brackets around the 3 best candidates (see
    `_best_three`).

    Knot prices matter because revenue is non-smooth exactly there; the
    search is only trusted between candidates.  The brackets are searched
    together: one call prices _SECTIONS - 1 evenly spaced points of every
    live bracket (see `_section_search`), which hands back each bracket's
    best price with its revenue.

    Only the 3 best candidates are used, so the sweep prices only the
    candidates that can be among them (see `_swept_values`).  Every Q_i
    is nonincreasing in price (an offer by contract, a curve by its chord
    lookup, `curves.quantiles_at_prices`), so on [a, b] the revenue is at
    most b * (1 - prod_i(1 - Q_i(a))).  The sweep prices
    every _STRIDE-th candidate, then in full only the blocks whose bound
    reaches the 3rd best of those.  A candidate it leaves out is strictly
    below the 3rd best, and a price's revenue does not depend on which
    prices share its call.  So the best candidate, the 3 brackets (taken
    from all the candidates) and the search are those of a sweep over
    every candidate, bit for bit.  The bound's margin covers the lookup's
    one rounding, about 1e-16 relative.  With fewer than _STRIDE^2
    candidates the sweep prices them all in one pass.

    Each sellable's selling window is found once, and every revenue comes
    from `_ap_values` on those windows: the sweep over the sorted candidates
    and each call of the search, whose few dozen prices are sorted for it
    and their values put back in call order.  So a sellable is evaluated
    only at the prices inside its window, and the sweep's memory grows with
    the number of candidates, not with agents times candidates.
    """
    if len(sellables) == 0:
        raise ValueError("need at least one agent")
    cands = _candidate_prices(sellables, grid)
    low, top = np.array([selling_window(s) for s in sellables]).T
    vals = _swept_values(sellables, cands, low, top)
    best_idx = int(np.argmax(vals))
    best_p = float(cands[best_idx])
    best_v = float(vals[best_idx])
    # refine within the brackets around the few best candidates
    order = _best_three(vals)
    lo = np.where(order > 0, cands[np.maximum(order - 1, 0)], cands[order] * 0.5)
    hi = cands[np.minimum(order + 1, len(cands) - 1)]

    def values(prices: np.ndarray) -> np.ndarray:
        rank = np.argsort(prices)
        out = np.empty(len(prices))
        out[rank] = _ap_values(sellables, prices[rank], low, top)
        return out

    p_ref, v_ref = _section_search(values, lo, hi)
    for p, v in zip(p_ref.tolist(), v_ref.tolist()):
        if v > best_v:
            best_p, best_v = p, v
    return ap_revenue(sellables, best_p)


def ear_optimize(curves: Sequence[RevenueCurve]) -> EarResult:
    """Ex-ante relaxation by water-filling pooled curve segments.

    Exact for concave piecewise-linear curves: sort all segments by slope,
    consume quantile mass until the unit is spent or slopes stop being
    positive (leftover ex-ante supply is free to dispose).

    The segments are visited in the stable slope order of `_slope_merge`.
    Their owners, slopes and masses are gathered one chunk of _BLOCK
    segments at a time, only as far as the loop gets, so no reordered copy
    of the pooled segments is made.
    """
    if len(curves) == 0:
        raise ValueError("need at least one curve")
    for i, c in enumerate(curves):
        if not c.concave:
            raise ValueError(f"curve {i} is not concave; take its hull first")
    order, slope, mass = _slope_merge([(c.qs, c.values) for c in curves])
    # segment g belongs to the curve whose segments end first past g
    ends = np.cumsum([len(c.qs) - 1 for c in curves])
    chunks = (order[k:k + _BLOCK] for k in range(0, len(order), _BLOCK))
    segments = itertools.chain.from_iterable(
        zip(np.searchsorted(ends, idx, side="right"), slope[idx], mass[idx]) for idx in chunks)
    remaining = 1.0
    q = np.zeros(len(curves))
    for i, s, m in segments:   # lazily: the unit of mass runs out early
        if remaining <= 1e-15 or s <= 0.0:
            break
        take = min(m, remaining)
        q[i] += take
        remaining -= take
    revenue = float(sum(c.eval(qi) for c, qi in zip(curves, q)))
    return EarResult(tuple(q.tolist()), revenue, binding=remaining <= 1e-12)


def random_price_revenue_public(F: Distribution, w: float) -> float:
    """Expected revenue of posting a price drawn from the value law itself
    to a buyer with a known budget: E_{r~F}[min(r, w) * Pr[v >= r]].

    In closed form per law kind.  With S(r) = Pr[v >= r] and f the density
    of the continuous part, that part splits at w into the integral of
    r S(r) f(r) below w plus w times the integral of S(r) f(r) above it;
    each atom a adds its mass times min(a, w) S(a).
    """
    if w < 0:
        raise ValueError("budget must be nonnegative")
    w = min(w, F.hi)   # no price exceeds the top value, so min(r, w) is unchanged
    k, p = F.kind, F.params
    below = above = 0.0
    if k == "uniform":
        a, span = p["a"], p["b"] - p["a"]
        t = max(w - a, 0.0)   # prices a + s below w have s in [0, t]
        below = (a * t * (span - t / 2) + t * t * (span / 2 - t / 3)) / span**2
        above = (span - t) ** 2 / (2 * span**2)
    elif k == "equal-revenue":
        m = max(w, 1.0)   # S(r) f(r) = 1 / r^3 on [1, h)
        below = (m - 1.0) / m
        above = (1.0 / m**2 - 1.0 / p["h"] ** 2) / 2
    elif k == "exponential":
        lam, x = p["rate"], 2 * p["rate"] * w   # S(r) f(r) = lam exp(-2 lam r) on [0, hi)
        e_w = math.exp(-x)
        # 1 - e^-x (1 + x) without the cancellation of its first form at small x
        below = (-math.expm1(-x) - x * e_w) / (4 * lam)
        above = (e_w - math.exp(-2 * lam * p["hi"])) / 2
    elif k == "piecewise-linear-cdf":
        # on a piece [x0, x0 + t] of the CDF cut at w, S falls linearly from
        # s0 by dF, so S f integrates to dF (s0 - dF / 2) and r S f to
        # dF (x0 (s0 - dF / 2) + t (s0 / 2 - dF / 3))
        xs = p["xs"]
        x = np.unique(np.append(xs, min(max(w, xs[0]), xs[-1])))
        s = 1.0 - np.interp(x, xs, p["fs"])
        x0, t, s0, dF = x[:-1], np.diff(x), s[:-1], s[:-1] - s[1:]
        low = x[1:] <= w
        below = float(np.sum((dF * (x0 * (s0 - dF / 2) + t * (s0 / 2 - dF / 3)))[low]))
        above = float(np.sum((dF * (s0 - dF / 2))[~low]))
    total = below + w * above
    for a, mass in F.atoms:
        total += mass * min(a, w) * float(F.survival_left(a))
    return float(total)


def myerson_reserve(curve: Sellable) -> tuple[float, float]:
    """(price, quantile) of the revenue-maximizing posted price.

    Ties break toward the largest quantile (lowest price), which keeps the
    reference quantile well defined on flat-topped curves.  An offer is
    optimized on its exact revenue p * q(p), a curve at its knots.
    """
    if isinstance(curve, OfferCurve):
        cands = _candidate_prices([curve], 2048)
        revs = cands * np.asarray(curve.eval(cands))
        best = float(np.max(revs))
        tol = 1e-12 * max(1.0, best)
        near = np.nonzero(revs >= best - tol)[0]
        i_star = int(near[0])  # smallest near-optimal price = largest quantile
        p_star, v_star = float(cands[i_star]), float(revs[i_star])
        lo = float(cands[i_star - 1]) if i_star > 0 else p_star * 0.5
        hi = float(cands[i_star + 1]) if i_star + 1 < len(cands) else p_star

        (p_ref,), (v_ref,) = _section_search(lambda p: p * curve.eval(p), [lo], [hi])
        if v_ref > v_star + tol:
            p_star = float(p_ref)
        return p_star, float(curve.eval(p_star))
    q_star = curve.argmax_quantile()
    if q_star <= 0.0:
        return float(curve.slope(0.0)), 0.0
    return float(curve.eval(q_star) / q_star), float(q_star)


def risk_two_priced_bound(P: RevenueCurve, C: float, hval: float, q_hat: float = 1.0) -> TwoPricedBound:
    """Upper bound on a capacitated buyer's ex-ante revenue at mass q_hat.

    Any mechanism that charges a served quantile either its full value or
    its value minus the capacity earns at most two marginal-revenue masses
    plus the value-above-capacity mass; maximizing each term over ex-ante
    feasible allocations gives P(q') + P(q') + integral of
    (min(hval, P(q')/q) - C)^+, all bounded by P(q') * (2 + ln(hval/C)).
    """
    if C <= 0:
        raise ValueError("capacity must be positive")
    if C > hval:
        raise ValueError("capacity must not exceed the top value")
    if not P.concave:
        raise ValueError("the bound needs a concave price-posting curve")
    _, q_m = myerson_reserve(P)
    q_prime = min(q_m, q_hat)
    pq = float(P.eval(q_prime))
    # the overflow integral in closed form; a = P(q') capped at hval, where
    # the integrand becomes hval - C on all of [0, 1]
    a = min(pq, hval)
    overflow = a * math.log(hval / C) if a <= C else a + a * math.log(hval / a) - C
    multiplier = 2.0 + math.log(hval / C)
    return TwoPricedBound(
        q_prime=float(q_prime),
        base_term=pq,
        capped_term=pq,
        overflow_term=overflow,
        total=pq + pq + overflow,
        bound=pq * multiplier,
        multiplier=multiplier,
    )
