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


def _sale_probabilities(sellables: Sequence[Sellable], prices) -> np.ndarray:
    """Sale probability of each sellable (rows) at each price (columns)."""
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    sale = np.empty((len(sellables), len(prices)))
    for row, s in zip(sale, sellables):
        row[:] = _sale_row(s, prices)
    return sale


def _ap_values(prices, sale: np.ndarray) -> np.ndarray:
    """Anonymous-pricing revenue p * (1 - prod_i(1 - Q_i(p))) at each price,
    from the agents x prices table of sale probabilities, which is
    overwritten with 1 - Q_i(p)."""
    return prices * (1.0 - np.subtract(1.0, sale, out=sale).prod(axis=0))


_BLOCK = 1 << 16   # prices per block of the sweep, segments per chunk of the water-fill


def _swept_ap_values(sellables: Sequence[Sellable], prices: np.ndarray, low, top) -> np.ndarray:
    """`_ap_values` at sorted prices, without the agents x prices table.

    The prices are taken in blocks of _BLOCK, and each block keeps one
    running no-sale product.  Each sellable, in row order, multiplies it by
    0.0 at prices at or below its low end, by 1 - Q only inside its selling
    window (see `curves.selling_window`), and not at all above its top,
    where its factor is 1.0.  `prod(axis=0)` multiplies the rows in the same
    order, and x * 1.0 = x, so each revenue keeps its bits; memory is the
    candidates plus one block, not agents x candidates.
    """
    vals = np.empty(len(prices))
    for start in range(0, len(prices), _BLOCK):
        block = prices[start:start + _BLOCK]
        keep = np.ones(len(block))
        starts = np.searchsorted(block, low, side="right").tolist()
        stops = np.searchsorted(block, top, side="right").tolist()
        for s, i, j in zip(sellables, starts, stops):
            keep[:i] *= 0.0
            if j > i:
                keep[i:j] *= 1.0 - _sale_row(s, block[i:j])
        vals[start:start + len(block)] = block * (1.0 - keep)
    return vals


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


_GOLDEN_ROUND = 4   # golden-section steps of every bracket served by one call of fn


def _golden(fn, lo, hi, rel_tol=1e-10, iters=200) -> np.ndarray:
    """Golden-section search for a maximizer in every bracket [lo_j, hi_j]
    at once; `fn` maps an array of prices to an array of values, each value
    not depending on the other prices in the array.

    Each bracket takes exactly the steps it would take alone: it stops once
    its width is at most rel_tol * max(1, |hi|), or after `iters` steps, and
    returns the better of its two interior points, the larger price on a
    tie.  One call of `fn` serves the next _GOLDEN_ROUND steps of every live
    bracket.  It prices every point those steps can place, whichever way
    each comparison goes (2 + 4 + ... + 2^k of them for k steps); then each
    bracket walks its own path down that tree.  The points and the walk are
    computed on Python floats, the same doubles as numpy's, so every price
    and every comparison keeps its bits.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def live(a, b):
        return b - a > rel_tol * max(1.0, abs(b))

    # a bracket is [a, b, c, d, fc, fd, steps left]; the first call also
    # prices its c and d
    brackets = [[a, b, b - invphi * (b - a), a + invphi * (b - a), None, None, iters]
                for a, b in zip(np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist())]
    pending = brackets
    while pending:
        prices, rounds = [], []
        for a, b, c, d, fc, _, left in pending:
            if fc is None:
                prices += (c, d)
            # node 1 is the bracket; node n's children are 2n, where c won
            # and [a, d] is kept with a new c, and 2n + 1, where [c, b] is
            # kept with a new d.  Node n's new point is prices[base + n].
            depth = min(_GOLDEN_ROUND, left) if live(a, b) else 0
            rounds.append((len(prices) - 2, depth))
            level = [(a, b, c, d)]
            for _ in range(depth):
                children = []
                for a, b, c, d in level:
                    new_c, new_d = d - invphi * (d - a), c + invphi * (b - c)
                    prices += (new_c, new_d)
                    children += ((a, d, new_c, c), (c, b, d, new_d))
                level = children
        vals = fn(np.array(prices)).tolist()
        for br, (base, depth) in zip(pending, rounds):
            a, b, c, d, fc, fd, left = br
            if fc is None:
                fc, fd = vals[base], vals[base + 1]
            n = 1
            for _ in range(depth):
                if not live(a, b):
                    break
                n *= 2
                if fc >= fd:
                    b, d, fd = d, c, fc
                    c, fc = prices[base + n], vals[base + n]
                else:
                    n += 1
                    a, c, fc = c, d, fd
                    d, fd = prices[base + n], vals[base + n]
            br[:] = a, b, c, d, fc, fd, left - (n.bit_length() - 1)
        pending = [br for br in pending if br[6] > 0 and live(br[0], br[1])]
    return np.array([d if fd > fc or (fd == fc and d > c) else c for _, _, c, d, fc, fd, _ in brackets], dtype=float)


def ap_optimize(sellables: Sequence[Sellable], grid: int = 4096) -> ApResult:
    """Best anonymous price: knot candidates plus a price sweep, then one
    golden-section search over the brackets around the 3 best candidates.

    Knot prices matter because revenue is non-smooth exactly there; golden
    section is only trusted between candidates.  The brackets are searched
    together: one call prices every point that the next _GOLDEN_ROUND steps
    of every live bracket can reach (see `_golden`).

    Each sellable's selling window is found once.  The sweep computes a
    sellable only inside its window, and the search only the sellables
    whose window reaches the lowest bracket end: every other one sells
    exactly nothing at every refined price, so its factor 1 - Q is exactly
    1 and the revenues, the search path and the result keep every bit.
    The sweep streams the candidates in blocks with one running no-sale
    product (see `_swept_ap_values`), so its memory grows with the number
    of candidates, not with agents times candidates; the search prices a
    few dozen points at a time in a table.
    """
    if len(sellables) == 0:
        raise ValueError("need at least one agent")
    cands = _candidate_prices(sellables, grid)
    low, top = np.array([selling_window(s) for s in sellables]).T
    vals = _swept_ap_values(sellables, cands, low, top)
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
