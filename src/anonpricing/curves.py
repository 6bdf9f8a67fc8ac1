"""Offer curves and piecewise-linear revenue curves in quantile space.

The offer curve q(p) is the ex-ante sale probability induced by posting a
per-unit price p; posting revenue is always p*q(p).  Sweeping the price
axis and reading (q(p), p*q(p)) generates the price-posting revenue curve
P.  Ex-ante revenue curves R and concave hulls H live in the same
piecewise-linear representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution

CONCAVITY_SLOPE_TOL = 1e-10
AGENT_MODELS = ("linear", "public-budget", "private-budget", "capacitated", "synthetic")


def _upper_hull_indices(qs: np.ndarray, vals: np.ndarray) -> list[int]:
    """Knot indices of the least concave majorant (upper convex hull).

    The monotone chain runs on Python floats: the same IEEE doubles as the
    arrays' elements, so the cross products round exactly as they would on
    numpy scalars, at a fraction of the cost per step.
    """
    qs, vals = qs.tolist(), vals.tolist()
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


def _collapse(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by q and merge near-equal q (gaps <= 1e-15) onto the run's
    largest value: the upper boundary of a point cloud in quantile space."""
    order = np.argsort(q, kind="stable")
    q, v = q[order], v[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(q) > 1e-15]))
    return q[starts], np.maximum.reduceat(v, starts)


@dataclass(frozen=True)
class Agent:
    """A buyer: a utility-model tag plus the distributions that define it.

    synthetic agents carry their price-posting and ex-ante curves directly
    (knot lists) instead of a value distribution.
    """

    model: str
    values: Distribution | None = None
    budget: float | None = None            # public-budget w
    budgets: Distribution | None = None    # private-budget G, independent of F
    capacity: float | None = None          # capacitated C
    p_knots: tuple = ()
    r_knots: tuple = ()
    id: str = "agent"

    def __post_init__(self):
        if self.model not in AGENT_MODELS:
            raise ValueError(f"unknown agent model {self.model!r}")
        if self.model == "synthetic":
            p = synthetic_curve(self.p_knots)
            r = synthetic_curve(self.r_knots)
            qs = np.unique(np.concatenate([p.qs, r.qs]))
            if np.any(r.eval(qs) < p.eval(qs) - 1e-9):
                raise ValueError("synthetic agent needs R >= P pointwise")
            return
        if self.values is None:
            raise ValueError(f"{self.model} agent needs a value distribution")
        if self.model == "public-budget" and (self.budget is None or not 0 <= self.budget < np.inf):
            raise ValueError("public-budget agent needs a finite nonnegative budget")
        if self.model == "private-budget" and self.budgets is None:
            raise ValueError("private-budget agent needs a budget distribution")
        if self.model == "capacitated":
            if self.capacity is None or self.capacity <= 0:
                raise ValueError("capacitated agent needs a positive capacity")
            if self.capacity > self.values.hi:
                raise ValueError("capacity must not exceed the top of the value support")

    @property
    def hval(self) -> float:
        """Top of the value support."""
        if self.model == "synthetic":
            raise ValueError("synthetic agents carry curves, not value supports")
        return self.values.hi

    @property
    def budget_law(self) -> Distribution | None:
        """The budget as a law: the private one, or the one-atom law at a
        public budget w; None for a buyer without a budget."""
        if self.model == "public-budget":
            return Distribution.point_mass(self.budget)
        return self.budgets

    def sellable(self) -> "RevenueCurve | OfferCurve":
        """What anonymous pricing sells to: the offer curve, or the posting
        curve a synthetic agent carries."""
        if self.model == "synthetic":
            return synthetic_curve(self.p_knots)
        return offer_curve(self)

    def price_curve(self) -> "RevenueCurve":
        s = self.sellable()
        return s if isinstance(s, RevenueCurve) else price_posting_curve(s)


@dataclass(frozen=True)
class OfferCurve:
    """price -> ex-ante sale probability, left-continuous and nonincreasing."""

    fn: Callable[[np.ndarray], np.ndarray]
    knot_prices: tuple
    price_cap: float = np.inf   # q(p) = 0 beyond this price

    def eval(self, p):
        pv = np.asarray(p, dtype=float)
        out = self.fn(pv)
        return float(out) if np.ndim(p) == 0 else out


class RevenueCurve:
    """Piecewise-linear function on [0, 1] given by strictly increasing knots.

    Houses the price-posting curve P, ex-ante curves R and concave hulls.
    """

    __slots__ = ("qs", "values", "offer", "name", "_reach", "_hull")

    def __init__(self, qs, values, offer: OfferCurve | None = None, name: str = "curve"):
        qs = np.asarray(qs, dtype=float)
        values = np.asarray(values, dtype=float)
        if qs.ndim != 1 or qs.shape != values.shape or len(qs) < 2:
            raise ValueError("need matching 1-d knot arrays with at least two knots")
        if abs(qs[0]) > 1e-12 or abs(qs[-1] - 1.0) > 1e-12:
            raise ValueError("knots must span quantiles 0 to 1")
        if np.any(np.diff(qs) <= 0):
            raise ValueError("knot quantiles must be strictly increasing")
        qs = qs.copy()
        qs[0], qs[-1] = 0.0, 1.0
        values = values.copy()
        qs.setflags(write=False)   # curves are immutable and shared freely
        values.setflags(write=False)
        self.qs = qs
        self.values = values
        self.offer = offer
        self.name = name
        self._reach = None   # see _price_reach; built on the first price lookup
        self._hull = None    # see _hull_indices; found on first use

    def _price_reach(self) -> np.ndarray:
        """The negated chord reach of `_chord_reach`, built on the first price
        lookup and kept: O(K) once, so each later lookup is a search."""
        if self._reach is None:
            self._reach = _chord_reach(self.qs, self.values)
        return self._reach

    def _hull_indices(self) -> np.ndarray | slice:
        """Index of the knots on the curve's least concave majorant, found on
        first use and kept: an index array (all knots, for a hull), not a
        hull curve, so a curve never refers to itself."""
        if self._hull is None:
            self._hull = np.asarray(_upper_hull_indices(self.qs, self.values))
        return self._hull

    @property
    def concave(self) -> bool:
        """True iff the curve coincides with its own concave majorant
        (immune to the slope noise of near-duplicate knots)."""
        idx = self._hull_indices()
        gap = float(np.max(np.interp(self.qs, self.qs[idx], self.values[idx]) - self.values))
        return gap <= CONCAVITY_SLOPE_TOL * max(1.0, float(np.max(np.abs(self.values))))

    def eval(self, q):
        qv = np.asarray(q, dtype=float)
        out = np.interp(np.clip(qv, 0.0, 1.0), self.qs, self.values)
        return float(out) if np.ndim(q) == 0 else out

    def slope(self, q):
        """Right derivative (left derivative at q = 1)."""
        qv = np.atleast_1d(np.asarray(q, dtype=float))
        slopes = np.diff(self.values) / np.diff(self.qs)
        idx = np.searchsorted(self.qs, qv, side="right") - 1
        idx = np.clip(idx, 0, len(slopes) - 1)
        out = slopes[idx]
        return float(out[0]) if np.ndim(q) == 0 else out

    def max_value(self) -> float:
        return float(np.max(self.values))

    def argmax_quantile(self) -> float:
        """Quantile of the maximum value; ties broken toward the largest q."""
        vmax = self.max_value()
        ties = np.nonzero(self.values >= vmax - 1e-12 * max(1.0, abs(vmax)))[0]
        return float(self.qs[ties[-1]])

    def to_csv(self, path, name: str | None = None):
        label = name or self.name
        with open(path, "w") as fh:
            fh.write(f"q,{label}\n")
            for q, v in zip(self.qs, self.values):
                fh.write(f"{q:.17g},{v:.17g}\n")

    def __repr__(self):
        return f"RevenueCurve({self.name}, {len(self.qs)} knots, concave={self.concave})"


def synthetic_curve(knots: Sequence[tuple[float, float]]) -> RevenueCurve:
    """Curve from explicit (quantile, value) knots, quantiles in [0, 1]; the
    curve itself checks the knot count and that q strictly increases."""
    qs = [k[0] for k in knots]
    if any(q < 0 or q > 1 for q in qs):
        raise ValueError("knot quantiles must lie in [0, 1]")
    return RevenueCurve(qs, [k[1] for k in knots], name="synthetic")


# -- offer curves -------------------------------------------------------------


def offer_curve(agent: Agent) -> OfferCurve:
    """The sale-probability map induced by the agent's utility model.

    linear and capacitated buyers take the item iff value >= price.  A
    buyer with budget law G (`Agent.budget_law`) buys E[min(G, p)]/p of a
    unit at price p, which is exact for how much the budget lets each type
    buy: S(p) E[min(G, p)]/p with S(p) = Pr[value >= p].  A public budget w
    is the one-atom law, where this reads S(p) min(1, w/p) to the bit.
    Price 0 always sells surely.
    """
    if agent.model == "synthetic":
        raise ValueError("synthetic agents have no offer curve; they carry P directly")
    F, G = agent.values, agent.budget_law
    if G is None:
        fn = lambda p: np.asarray(F.survival_left(p))
    else:
        def fn(p):
            p = np.asarray(p, dtype=float)
            take = np.divide(np.asarray(G.expected_min(p)), p, out=np.ones_like(p), where=p > 0)
            return np.asarray(F.survival_left(p)) * take

    knots = {0.0, F.lo, F.hi}
    knots.update(a for a, _ in F.atoms)
    if G is not None:
        knots.update((G.lo, G.hi))
        knots.update(a for a, _ in G.atoms)
    knots = tuple(sorted(k for k in knots if np.isfinite(k) and k >= 0))
    return OfferCurve(fn=fn, knot_prices=knots, price_cap=F.hi)


def _price_grid(offer: OfferCurve, grid: int) -> np.ndarray:
    """Candidate prices: log-spaced sweep, quantile-spread prices, knots.

    The log grid concentrates near the support ends where revenue curves
    bend fastest; the quantile-spread prices keep the knot spacing of the
    resulting curve uniform in q, which the sweep alone does not guarantee.
    """
    cap = offer.price_cap
    # quantile-spread: invert the offer on a uniform q grid by bisection
    qs = np.linspace(1e-6, 1.0 - 1e-6, grid // 2)
    lo_b = np.zeros_like(qs)
    hi_b = np.full_like(qs, cap * (1.0 + 1e-9) if cap > 0 else 1.0)
    for _ in range(40):
        mid = 0.5 * (lo_b + hi_b)
        accept = offer.eval(mid) >= qs
        lo_b = np.where(accept, mid, lo_b)
        hi_b = np.where(accept, hi_b, mid)
    prices = np.concatenate([[0.0, cap, cap * (1.0 + 1e-9)],
                             np.outer(offer.knot_prices, [1.0, 1.0 - 1e-9, 1.0 + 1e-9]).ravel(), lo_b])
    # log-spaced sweep between the extreme swept prices
    positive = prices[prices > 0]
    lo = max(positive.min() if positive.size else cap * 1e-9, cap * 1e-12)
    if cap > 0 and 0 < lo < cap:
        prices = np.concatenate([prices, np.geomspace(lo, cap, grid // 2)])
    prices = np.unique(prices)
    return prices[np.isfinite(prices) & (prices >= 0.0)]


def price_posting_curve(offer: OfferCurve, grid: int = 4096) -> RevenueCurve:
    """Sweep prices, collect (q(p), p*q(p)), and keep the best revenue per q.

    Duplicated quantiles keep the max revenue: P(q) is a supremum over
    prices that reach q.  Gaps between achieved quantiles are bridged by
    linear interpolation, which is what randomizing over the two
    neighbouring prices earns.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64")
    prices = _price_grid(offer, grid)
    q = np.asarray(offer.eval(prices))
    q, rev = _collapse(np.concatenate([q, [0.0, 1.0]]), np.concatenate([prices * q, [0.0, 0.0]]))
    q[0], rev[0] = 0.0, 0.0
    if q[-1] < 1.0:
        q, rev = np.append(q, 1.0), np.append(rev, rev[-1])
    return RevenueCurve(q, rev, offer=offer, name="P")


# -- hulls and price/quantile maps --------------------------------------------


def concave_hull(curve: RevenueCurve) -> RevenueCurve:
    """Least concave majorant; knots are a subset of the input knots."""
    idx = curve._hull_indices()
    # the hull is an ex-ante object: price lookups use its chords, never the
    # generating offer, so no offer backpointer is carried over
    hull = RevenueCurve(curve.qs[idx], curve.values[idx], name=f"hull({curve.name})")
    hull._hull = slice(None)   # every knot of a hull is on its hull
    return hull


def _slope_merge(pieces: Sequence[tuple[np.ndarray, np.ndarray]]):
    """The water-fill order of the segments of concave pieces (qs, values):
    decreasing slope, ties keeping piece order.  Returns that stable order
    and, in piece order, each segment's slope and quantile increment; a
    caller gathers by the order what it reads."""
    dq = np.concatenate([np.diff(q) for q, _ in pieces])
    slope = np.concatenate([np.diff(v) for _, v in pieces])
    slope /= dq
    # sort the negated slopes, negated in place and back: a sign flip is
    # exact, and no third array of the pooled length is made
    order = np.argsort(np.negative(slope, out=slope), kind="stable")
    return order, np.negative(slope, out=slope), dq


def _chord_reach(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Negated suffix maximum of the knots' chord thresholds (v_k + tol) / q_k,
    so nondecreasing and ready for `searchsorted`; the q = 0 knot, whose
    chord is not defined, never counts."""
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    thresholds = np.full(len(qs), -np.inf)
    pos = qs > 0.0
    thresholds[pos] = (vals[pos] + tol) / qs[pos]
    neg_reach = -np.maximum.accumulate(thresholds[::-1])[::-1]
    neg_reach.setflags(write=False)
    return neg_reach


def _last_by_search(neg_reach: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each price's last affordable knot, -1 for none: the number of reach
    entries at or below -p, less one, by one search per price."""
    return np.searchsorted(neg_reach, -prices, side="right") - 1


def _last_by_merge(neg_reach: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """The same indices for sorted prices, by one search per knot: knot k
    counts for every price at or below its reach -neg_reach[k], so a price's
    count is the number of knots whose reach position lies past it."""
    pos = np.searchsorted(prices, -neg_reach, side="right")
    return len(neg_reach) - 1 - np.cumsum(np.bincount(pos, minlength=len(prices) + 1))[:-1]


def selling_window(sellable: "RevenueCurve | OfferCurve") -> tuple[float, float]:
    """(low, top): the sale probability is exactly 1.0 at prices at or below
    low and exactly 0.0 at prices above top.

    An offer, or a curve priced through its offer, sells nothing above its
    price cap and has no sure-sale stretch it can name (low = -inf).  An
    offer-less curve sells surely up to its last knot's chord threshold and
    nothing above its top one: the two ends of its chord reach.
    """
    offer = sellable if isinstance(sellable, OfferCurve) else sellable.offer
    if offer is not None:
        return -np.inf, float(offer.price_cap)
    neg_reach = sellable._price_reach()
    return -float(neg_reach[-1]), -float(neg_reach[0])


def quantiles_at_prices(prices, curve: RevenueCurve) -> np.ndarray:
    """Largest q whose chord from the origin has slope p, for each price.

    Offer-derived curves delegate to the generating offer so non-concave
    shapes resolve the way the mechanism actually sells.  Otherwise knot k
    (q_k > 0) stays affordable up to the threshold (v_k + tol) / q_k; the
    last affordable knot comes from the suffix maximum of the thresholds,
    and the quantile is interpolated on the segment after it.  Flat-revenue
    stretches return the largest quantile.  Valid for non-concave curves.

    The curve keeps the suffix maximum from its first lookup, O(K).  Sorted
    prices that outnumber the K knots are merged with it, O(K log n + n);
    any other prices are searched in it, O(n log K).  Both give the same
    integer knot and so the same bits.
    """
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    if curve.offer is not None:
        return np.asarray(curve.offer.eval(prices))
    qs, vals = curve.qs, curve.values
    K = len(qs)
    neg_reach = curve._price_reach()
    merge = len(prices) > K and bool(np.all(prices[1:] >= prices[:-1]))
    last = (_last_by_merge if merge else _last_by_search)(neg_reach, prices)
    # sorted prices have nonincreasing last knots: the ends say whether every
    # price lies on a segment, as every price of a selling window does
    if merge and last[-1] >= 0 and last[0] < K - 1:
        return _on_segment(qs, vals, last, prices)
    out = np.zeros(len(prices))
    out[last == K - 1] = 1.0
    inner = (last >= 0) & (last < K - 1)
    if np.any(inner):
        out[inner] = _on_segment(qs, vals, last[inner], prices[inner])
    return out


def _on_segment(qs: np.ndarray, vals: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Where the chord of slope p meets the segment from knot k to k + 1."""
    k1 = k + 1
    q0 = qs[k]
    g0 = vals[k] - p * q0
    g1 = vals[k1] - p * qs[k1]
    return q0 + g0 / (g0 - g1) * (qs[k1] - q0)
