"""Pricing mechanisms over revenue curves and offer curves.

Anonymous pricing posts one per-unit price to all agents; its revenue at
price p is p * (1 - prod_i(1 - Q_i(p))).  The ex-ante relaxation instead
splits a unit of expected supply across agents, which water-filling solves
exactly on concave piecewise-linear curves.
"""

from __future__ import annotations

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


def _sale_probabilities(sellables: Sequence[Sellable], prices) -> np.ndarray:
    """Sale probability of each sellable (rows) at each price (columns)."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    sale = np.empty((len(sellables), len(prices)))
    for row, s in zip(sale, sellables):
        row[:] = _sale_row(s, prices)
    return sale


def _swept_sale_probabilities(sellables: Sequence[Sellable], prices: np.ndarray, low, top) -> np.ndarray:
    """The table of `_sale_probabilities` at sorted prices, written in place
    row by row and computed only inside each sellable's selling window: 1.0
    at prices at or below its low end, 0.0 above its top (see
    `curves.selling_window`).  Each price gets the same bits as there."""
    sale = np.empty((len(sellables), len(prices)))
    starts = np.searchsorted(prices, low, side="right").tolist()
    stops = np.searchsorted(prices, top, side="right").tolist()
    for row, s, i, j in zip(sale, sellables, starts, stops):
        row[:i] = 1.0
        if j > i:
            row[i:j] = _sale_row(s, prices[i:j])
        row[j:] = 0.0
    return sale


def _ap_values(prices, sale: np.ndarray) -> np.ndarray:
    """Anonymous-pricing revenue p * (1 - prod_i(1 - Q_i(p))) at each price,
    from the agents x prices table of sale probabilities.  The table is
    overwritten with 1 - Q_i(p): a second table held the process's peak RSS
    about 9% higher on 16 agents."""
    return prices * (1.0 - np.subtract(1.0, sale, out=sale).prod(axis=0))


def ap_revenue(sellables: Sequence[Sellable], p: float) -> ApResult:
    """Revenue of posting anonymous per-unit price p."""
    if p < 0:
        raise ValueError("price must be nonnegative")
    sale = _sale_probabilities(sellables, p)
    qs = tuple(sale[:, 0].tolist())
    return ApResult(float(p), qs, float(_ap_values(p, sale)[0]))


def _candidate_prices(sellables: Sequence[Sellable], grid: int) -> np.ndarray:
    """Offer knots and price caps, curve chord slopes, and a log-spaced and a
    linear sweep up to the largest of them."""
    cands = np.concatenate([np.append(s.knot_prices, s.price_cap) if isinstance(s, OfferCurve)
                            else s.values[s.qs > 0] / s.qs[s.qs > 0] for s in sellables])
    cands = cands[np.isfinite(cands)]
    top = float(np.max(cands, initial=0.0)) or 1.0
    # the log sweep spans nine decades, fewer when top * 1e-9 underflows to 0
    sweep = np.geomspace(max(top * 1e-9, np.nextafter(0.0, 1.0)), top, grid)
    cands = np.unique(np.concatenate([cands, sweep, np.linspace(top / grid, top, grid)]))
    return cands[cands > 0.0]


def _golden(fn, lo, hi, rel_tol=1e-10, iters=200) -> np.ndarray:
    """Golden-section search for a maximizer in every bracket [lo_j, hi_j]
    at once; `fn` maps an array of prices to an array of values.

    Each bracket takes exactly the steps it would take alone: it stops once
    its width is at most rel_tol * max(1, |hi|) and is frozen from then on,
    only live brackets are evaluated, and each returns the better of its two
    interior points, the larger price on a tie.
    """
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


def ap_optimize(sellables: Sequence[Sellable], grid: int = 4096) -> ApResult:
    """Best anonymous price: knot candidates plus a price sweep, then one
    golden-section search over the brackets around the 3 best candidates.

    Knot prices matter because revenue is non-smooth exactly there; golden
    section is only trusted between candidates.  The brackets are stepped
    together, so each step evaluates every live bracket in one call.

    Each sellable's selling window is found once.  The sweep computes a
    sellable only inside its window, and the search only the sellables
    whose window reaches the lowest bracket end: every other one sells
    exactly nothing at every refined price, so its factor 1 - Q is exactly
    1 and the revenues, the search path and the result keep every bit.
    """
    if len(sellables) == 0:
        raise ValueError("need at least one agent")
    cands = _candidate_prices(sellables, grid)
    low, top = np.array([selling_window(s) for s in sellables]).T
    vals = _ap_values(cands, _swept_sale_probabilities(sellables, cands, low, top))
    best_idx = int(np.argmax(vals))
    best_p = float(cands[best_idx])
    best_v = float(vals[best_idx])
    # refine within the brackets around the few best candidates
    order = np.argsort(vals)[::-1][:3]
    lo = np.where(order > 0, cands[np.maximum(order - 1, 0)], cands[order] * 0.5)
    hi = cands[np.minimum(order + 1, len(cands) - 1)]
    # golden section never leaves a bracket, so no refined price is below lo
    live = [s for s, t in zip(sellables, top.tolist()) if t >= float(lo.min())]

    def values(prices: np.ndarray) -> np.ndarray:
        return _ap_values(prices, _sale_probabilities(live, prices))

    p_ref = _golden(values, lo, hi)
    for p, v in zip(p_ref.tolist(), values(p_ref).tolist()):
        if v > best_v:
            best_p, best_v = p, v
    return ap_revenue(sellables, best_p)


def ear_optimize(curves: Sequence[RevenueCurve]) -> EarResult:
    """Ex-ante relaxation by water-filling pooled curve segments.

    Exact for concave piecewise-linear curves: sort all segments by slope,
    consume quantile mass until the unit is spent or slopes stop being
    positive (leftover ex-ante supply is free to dispose).
    """
    if len(curves) == 0:
        raise ValueError("need at least one curve")
    for i, c in enumerate(curves):
        if not c.concave:
            raise ValueError(f"curve {i} is not concave; take its hull first")
    owner, slope, mass, _ = _slope_merge([(c.qs, c.values) for c in curves], [1.0] * len(curves))
    remaining = 1.0
    q = np.zeros(len(curves))
    for i, s, m in zip(owner, slope, mass):   # lazily: the unit of mass runs out early
        if remaining <= 1e-15 or s <= 0.0:
            break
        take = min(m, remaining)
        q[i] += take
        remaining -= take
    revenue = float(sum(c.eval(qi) for c, qi in zip(curves, q)))
    return EarResult(tuple(q.tolist()), revenue, binding=remaining <= 1e-12)


def random_price_revenue_public(F: Distribution, w: float) -> float:
    """Expected revenue of posting a price drawn from the value law itself
    to a buyer with a known budget: E_{r~F}[min(r, w) * Pr[v >= r]]."""
    if w < 0:
        raise ValueError("budget must be nonnegative")
    from scipy import integrate

    def integrand(r):
        return min(r, w) * float(F.survival_left(r)) * float(F.pdf(r))

    pts = [p for p in (w,) if F.lo < p < F.hi]
    total, _ = integrate.quad(integrand, F.lo, F.hi, points=pts or None, epsabs=1e-9, limit=200)
    for a, mass in F.atoms:
        total += mass * min(a, w) * float(F.survival_left(a))
    return float(total)


def myerson_reserve(curve: RevenueCurve) -> tuple[float, float]:
    """(price, quantile) of the revenue-maximizing posted price.

    Ties break toward the largest quantile (lowest price), which keeps the
    reference quantile well defined on flat-topped curves.  Offer-backed
    curves are optimized on the exact offer revenue rather than the
    piecewise-linear knots.
    """
    if curve.offer is not None:
        off = curve.offer
        cands = _candidate_prices([off], 2048)
        revs = cands * np.asarray(off.eval(cands))
        best = float(np.max(revs))
        tol = 1e-12 * max(1.0, best)
        near = np.nonzero(revs >= best - tol)[0]
        i_star = int(near[0])  # smallest near-optimal price = largest quantile
        p_star, v_star = float(cands[i_star]), float(revs[i_star])
        lo = float(cands[i_star - 1]) if i_star > 0 else p_star * 0.5
        hi = float(cands[i_star + 1]) if i_star + 1 < len(cands) else p_star

        p_ref = float(_golden(lambda p: p * off.eval(p), [lo], [hi])[0])
        if p_ref * float(off.eval(p_ref)) > v_star + tol:
            p_star = p_ref
        return p_star, float(off.eval(p_star))
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
