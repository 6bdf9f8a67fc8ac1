"""Offer curves and piecewise-linear revenue curves in quantile space.

The offer curve q(p) is the ex-ante sale probability induced by posting a
per-unit price p; posting revenue is always p*q(p).  Sweeping the price
axis and reading (q(p), p*q(p)) generates the price-posting revenue curve
P.  Ex-ante revenue curves R and concave hulls H live in the same
piecewise-linear representation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .distributions import Distribution

CONCAVITY_SLOPE_TOL = 1e-10
AGENT_MODELS = ("linear", "public-budget", "private-budget", "capacitated", "synthetic")


def _upper_hull_indices(qs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Knot indices of the least concave majorant (upper convex hull).

    A monotone chain over the records only: the knots whose value is a
    strict prefix or a strict suffix maximum.  Every hull vertex is one, as
    a knot with a value at least as large on each side lies on or below
    the chord between them.  The first and last knots are records.

    The cross product of every consecutive triple of records is computed
    at once, by the chain's own expression: each elementwise `*` and `-`
    rounds as a Python float does, so it has the bits the chain would
    compute.  While the chain's top two knots are consecutive records, the
    chain would push each knot until the next triple whose cross product is
    >= 0 (a turn); those knots go on in one step.  Elsewhere the chain runs
    on Python floats, one knot at a time.
    """
    ahead = np.maximum.accumulate(vals)
    behind = np.maximum.accumulate(vals[::-1])[::-1]
    keep = np.ones(len(vals), dtype=bool)
    keep[1:-1] = (vals[1:-1] > ahead[:-2]) | (vals[1:-1] > behind[2:])
    rec = np.flatnonzero(keep)
    q, v = qs[rec], vals[rec]
    cross = (q[1:-1] - q[:-2]) * (v[2:] - v[:-2]) - (q[2:] - q[:-2]) * (v[1:-1] - v[:-2])
    turns = np.flatnonzero(cross >= 0.0).tolist()
    if not turns:
        return rec
    q, v = q.tolist(), v.tolist()
    m, t = len(q), 0
    idx, i = [0, 1], 2
    while i < m:
        if idx[-2] == i - 2:
            # the top two are consecutive: push every knot up to the next turn
            t = bisect_left(turns, i - 2, t)
            if t == len(turns):
                idx.extend(range(i, m))
                break
            idx.extend(range(i, turns[t] + 2))
            i = turns[t] + 2
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            if (q[i1] - q[i0]) * (v[i] - v[i0]) - (q[i] - q[i0]) * (v[i1] - v[i0]) >= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
        i += 1
    return rec[idx]


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
        if self.model == "private-budget":
            if self.budgets is None:
                raise ValueError("private-budget agent needs a budget distribution")
            if self.budgets.lo < 0:
                raise ValueError("private-budget agent needs a budget law on nonnegative budgets")
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


@dataclass(frozen=True)
class OfferCurve:
    """price -> ex-ante sale probability, left-continuous and nonincreasing.

    `inverse(q)` is the largest price <= price_cap that sells at least q,
    for q in (0, 1]: the offer is left-continuous, so the sup sells q.
    `offer_curve` gives it in closed form, or None for an offer that has
    none (a budget on a non-discrete law); such an offer is priced, but
    `price_posting_curve` does not sweep it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    knot_prices: tuple
    price_cap: float = np.inf   # q(p) = 0 beyond this price
    inverse: Callable[[np.ndarray], np.ndarray] | None = None

    def eval(self, p):
        pv = np.asarray(p, dtype=float)
        out = self.fn(pv)
        return float(out) if np.ndim(p) == 0 else out


class RevenueCurve:
    """Piecewise-linear function on [0, 1] given by strictly increasing knots
    with finite values: the hull scan's maxima would pass over a NaN.

    Houses the price-posting curve P, ex-ante curves R and concave hulls.
    """

    __slots__ = ("qs", "values", "name", "_reach", "_hull")
    # a curve is its knots and is priced on its chords; this read-only None
    # is kept only because the benchmark's traced mode reads `curve.offer`
    offer = None

    def __init__(self, qs, values, name: str = "curve"):
        qs = np.asarray(qs, dtype=float)
        values = np.asarray(values, dtype=float)
        if qs.ndim != 1 or qs.shape != values.shape or len(qs) < 2:
            raise ValueError("need matching 1-d knot arrays with at least two knots")
        if abs(qs[0]) > 1e-12 or abs(qs[-1] - 1.0) > 1e-12:
            raise ValueError("knots must span quantiles 0 to 1")
        if not np.all(np.diff(qs) > 0):
            raise ValueError("knot quantiles must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("knot values must be finite")
        qs = qs.copy()
        qs[0], qs[-1] = 0.0, 1.0
        values = values.copy()
        qs.setflags(write=False)   # curves are immutable and shared freely
        values.setflags(write=False)
        self.qs = qs
        self.values = values
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
            self._hull = _upper_hull_indices(self.qs, self.values)
        return self._hull

    @property
    def concave(self) -> bool:
        """True iff the curve coincides with its own concave majorant, up to
        CONCAVITY_SLOPE_TOL of its largest absolute value (immune to the
        slope noise of near-duplicate knots, at every scale of values)."""
        idx = self._hull_indices()
        gap = float(np.max(np.interp(self.qs, self.qs[idx], self.values[idx]) - self.values))
        return gap <= CONCAVITY_SLOPE_TOL * float(np.max(np.abs(self.values)))

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

    The offer's inverse is closed-form for linear and capacitated buyers
    (`F.inverse_demand`) and for a budget buyer on two discrete laws, the
    only budget offer `closeness.build_curves` makes (`_budget_inverse`).
    A budget on a non-discrete law has none: uniform values and budgets
    give a cubic, an exponential law a transcendental equation.  Such an
    offer has `inverse` None: `ap_optimize` prices it, and its posting
    curve is swept once its laws are discretized, as `build_curves` does.
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
    if G is None:
        inverse = F.inverse_demand
    elif F.kind == G.kind == "discrete":
        inverse = lambda q: _budget_inverse(F, G, knots, fn, q)
    else:
        inverse = None
    return OfferCurve(fn=fn, knot_prices=knots, price_cap=F.hi, inverse=inverse)


def _budget_inverse(F: Distribution, G: Distribution, knots: tuple, fn, q: np.ndarray) -> np.ndarray:
    """The inverse of the budget offer `fn` on discrete laws F and G, whose
    atoms up to the cap F.hi are the knots 0 = b_0 < b_1 < ... < b_K = F.hi.

    On the piece (b_j, b_{j+1}] the value survival S = Pr[X > b_j] is
    constant and E[min(G, p)] = A + B p, with A = E[G; G <= b_j] and
    B = Pr[G > b_j] (the law's `mean_below` and `mass_above` tables), so
    the offer reads S (A/p + B) and falls in p.  The sup of a q lies on the
    last piece whose left end sells q, by one search of the offer at the
    knots: p = S A / (q - S B), clipped to the piece.
    """
    b = np.asarray(knots)
    b = b[: max(1, np.searchsorted(b, F.hi, side="right"))]
    # the offer as it reads at the knots; the running minimum keeps one
    # rounding of a tie from unsorting it
    at_b = np.minimum.accumulate(fn(b))
    j = np.maximum(np.searchsorted(-at_b, -q, side="right") - 1, 0)
    S = np.asarray(F.survival(b))[j]
    i = np.searchsorted(G.params["values"], b[j], side="right")
    A, B = G.mean_below[i], G.mass_above[i]
    rest = q - S * B
    # rest <= 0: the whole piece sells q but for rounding, so its right end
    p = np.divide(S * A, rest, out=np.full_like(q, np.inf), where=rest > 0)
    return np.clip(p, b[j], np.append(b[1:], b[-1])[j])


def _price_grid(offer: OfferCurve, grid: int) -> np.ndarray:
    """Candidate prices: log-spaced sweep, quantile-spread prices, knots.

    The log grid concentrates near the support ends where revenue curves
    bend fastest; the quantile-spread prices keep the knot spacing of the
    resulting curve uniform in q, which the sweep alone does not guarantee.
    They are the offer's inverse on a uniform q grid, one call.
    """
    cap = offer.price_cap
    spread = offer.inverse(np.linspace(1e-6, 1.0 - 1e-6, grid // 2))
    prices = np.concatenate([[0.0, cap, cap * (1.0 + 1e-9)],
                             np.outer(offer.knot_prices, [1.0, 1.0 - 1e-9, 1.0 + 1e-9]).ravel(), spread])
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
    if offer.inverse is None:
        raise ValueError("a budget offer on a non-discrete law has no closed-form inverse to sweep; "
                         "discretize the value and budget laws first")
    prices = _price_grid(offer, grid)
    q = np.asarray(offer.eval(prices))
    q, rev = _collapse(np.concatenate([q, [0.0, 1.0]]), np.concatenate([prices * q, [0.0, 0.0]]))
    q[0], rev[0] = 0.0, 0.0
    if q[-1] < 1.0:
        q, rev = np.append(q, 1.0), np.append(rev, rev[-1])
    return RevenueCurve(q, rev, name="P")


# -- hulls and price/quantile maps --------------------------------------------


def concave_hull(curve: RevenueCurve) -> RevenueCurve:
    """Least concave majorant; knots are a subset of the input knots."""
    idx = curve._hull_indices()
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
    chord is not defined, never counts.  tol is 1e-12 of the curve's largest
    |value|, but at least the smallest normal double: at subnormal scale
    the segment formula of `_on_segment` can read 0 / 0."""
    tol = max(1e-12 * float(np.max(np.abs(vals))), np.finfo(float).tiny)
    thresholds = np.full(len(qs), -np.inf)
    pos = qs > 0.0
    thresholds[pos] = (vals[pos] + tol) / qs[pos]
    neg_reach = -np.maximum.accumulate(thresholds[::-1])[::-1]
    neg_reach.setflags(write=False)
    return neg_reach


def selling_window(sellable: "RevenueCurve | OfferCurve") -> tuple[float, float]:
    """(low, top): the sale probability is exactly 1.0 at prices at or below
    low and exactly 0.0 at prices above top.

    An offer sells nothing above its price cap and has no sure-sale stretch
    it can name (low = -inf).  A curve sells surely up to its last knot's
    chord threshold and nothing above its top one: the two ends of its
    chord reach.
    """
    if isinstance(sellable, OfferCurve):
        return -np.inf, float(sellable.price_cap)
    neg_reach = sellable._price_reach()
    return -float(neg_reach[-1]), -float(neg_reach[0])


def quantiles_at_prices(prices, curve: RevenueCurve) -> np.ndarray:
    """Largest q whose chord from the origin has slope p, for each price.

    Knot k (q_k > 0) stays affordable up to the threshold (v_k + tol) / q_k;
    the last affordable knot comes from the suffix maximum of the
    thresholds, and the quantile is interpolated on the segment after it,
    never below q_k (see `_on_segment`).  Flat-revenue stretches return the
    largest quantile.  Valid for non-concave curves, where the result is
    still a sale probability in [0, 1] that never rises with price, but for
    one rounding of the segment formula.

    The curve keeps the suffix maximum from its first lookup, O(K), and
    each price's last knot is one search in it, O(n log K), so a price's
    quantile has the same bits whichever prices share its call.
    """
    prices = np.atleast_1d(np.asarray(prices, dtype=float))
    qs, vals = curve.qs, curve.values
    K = len(qs)
    last = np.searchsorted(curve._price_reach(), -prices, side="right") - 1
    # every price on a segment, as every price of a selling window is
    if len(last) and last.min() >= 0 and last.max() < K - 1:
        return _on_segment(qs, vals, last, prices)
    out = np.zeros(len(prices))
    out[last == K - 1] = 1.0
    inner = (last >= 0) & (last < K - 1)
    if np.any(inner):
        out[inner] = _on_segment(qs, vals, last[inner], prices[inner])
    return out


def _on_segment(qs: np.ndarray, vals: np.ndarray, k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Where the chord of slope p meets the segment from knot k to k + 1,
    where knot k is affordable and k + 1 is not.  Inside knot k's
    tolerance, p q_k exceeds v_k by up to tol, and the segment extended
    back past knot k would read below q_k; the floor at q_k keeps the
    point on the segment."""
    k1 = k + 1
    q0 = qs[k]
    g0 = vals[k] - p * q0
    g1 = vals[k1] - p * qs[k1]
    return np.maximum(q0, q0 + g0 / (g0 - g1) * (qs[k1] - q0))
