"""Anonymous pricing, water-filling, random-price revenue,
the posted-price reserve, and the capacitated upper bound."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import anonpricing as ap
from anonpricing import RHO, Agent, Distribution, mechanisms
from anonpricing.curves import OfferCurve, selling_window
from helpers import (brute_force_ear, dented_curve, materialized_ear, quadrature_random_price_revenue_public,
                     reference_ap_optimize, reference_candidate_prices, sale_table, scalar_sections,
                     table_ap_values, with_bisection_inverse)


def uniform_offer():
    return ap.offer_curve(Agent(model="linear", values=Distribution.uniform(0, 1), id="u"))


class TestApRevenue:
    def test_two_uniform_at_half(self):
        res = ap.ap_revenue([uniform_offer(), uniform_offer()], 0.5)
        assert res.revenue == pytest.approx(0.5 * (1 - 0.25), abs=1e-12)
        assert res.win_probabilities == (0.5, 0.5)

    def test_zero_price(self):
        assert ap.ap_revenue([uniform_offer()], 0.0).revenue == 0.0

    def test_single_agent_matches_curve(self, uniform_posting_curve):
        for p in (0.2, 0.5, 0.8):
            res = ap.ap_revenue([uniform_offer()], p)
            q = res.win_probabilities[0]
            assert res.revenue == pytest.approx(uniform_posting_curve.eval(q), rel=1e-6)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            ap.ap_revenue([uniform_offer()], -0.1)


class TestApOptimize:
    def test_two_uniform(self):
        res = ap.ap_optimize([uniform_offer(), uniform_offer()])
        assert res.price == pytest.approx(1 / math.sqrt(3), abs=1e-6)
        assert res.revenue == pytest.approx(2 / (3 * math.sqrt(3)), abs=1e-9)

    def test_single_uniform_monopoly(self):
        res = ap.ap_optimize([uniform_offer()])
        assert res.price == pytest.approx(0.5, abs=1e-6)
        assert res.revenue == pytest.approx(0.25, abs=1e-9)

    def test_budget_gap_instance_small(self):
        # integer-price oracle: at price p in (m-1, m] the buyers with index
        # >= m each pay with probability 1/i^2
        fix = ap.get_fixture("mhr-fail", n=5)
        offers = [ap.offer_curve(a) for a in fix.agents]
        best_grid = 0.0
        for m in range(1, 6):
            prob = 1.0
            for i in range(m, 6):
                prob *= 1.0 - 1.0 / i**2
            best_grid = max(best_grid, m * (1.0 - prob))
        res = ap.ap_optimize(offers)
        assert best_grid == pytest.approx(1.0, abs=1e-12)
        assert res.revenue == pytest.approx(best_grid, abs=1e-9)
        assert res.revenue <= 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ap.ap_optimize([])

    def test_subnormal_revenue_curve(self):
        # the largest chord slope times 1e-9 underflows to 0; the log sweep
        # must still start above 0
        res = ap.ap_optimize([ap.synthetic_curve([(0, 0), (1, 5e-324)])], grid=64)
        assert res.revenue == 5e-324   # the price 5e-324 sells surely

    def test_brackets_are_refined_together(self, monkeypatch):
        # the sweep's two passes, then 8 calls of the section search, each
        # narrowing all 3 brackets 8-fold until they are 1e-10 wide; the
        # search hands back its revenues, and the final revenue reads each
        # agent once without `_ap_values`.  Searching the brackets one after
        # another would make 26
        calls = []
        real = mechanisms._ap_values
        monkeypatch.setattr(mechanisms, "_ap_values", lambda *a: calls.append(1) or real(*a))
        ap.ap_optimize([uniform_offer(), uniform_offer()])
        assert len(calls) == 10

    def test_refinement_evaluates_only_agents_in_play(self, monkeypatch):
        # 12 of 16 agents value the item at most 1 and the best price is
        # above 10: their windows end below every refined price and every
        # block the sweep's second pass prices, so only its first pass and
        # the final revenue read them; the other 4 are read by both passes,
        # the 9 calls of golden steps, the refined prices and the final
        # revenue
        low = [ap.offer_curve(Agent(model="linear", values=Distribution.uniform(0, 1), id=f"low{i}"))
               for i in range(6)]
        low += [ap.concave_hull(ap.price_posting_curve(o, grid=256)) for o in low]
        high = [ap.offer_curve(Agent(model="linear", values=Distribution.uniform(10, 20), id=f"high{i}"))
                for i in range(4)]
        reads = {}
        real = mechanisms._sale_row
        monkeypatch.setattr(mechanisms, "_sale_row",
                            lambda s, p: reads.__setitem__(id(s), reads.get(id(s), 0) + 1) or real(s, p))
        res = ap.ap_optimize(low + high)
        assert res.price > 10.0 and res.win_probabilities[:12] == (0.0,) * 12
        assert [reads[id(s)] for s in low + high] == [2] * 12 + [11] * 4
        assert res == reference_ap_optimize(low + high)


# functions of price, exact in every elementwise operation so that an array
# and a one-element array give the same bits
GOLDEN_SHAPES = {
    "peak": lambda m: lambda p: -(p - m) ** 2,
    "flat": lambda m: lambda p: 0.0 * p + m,               # every comparison ties
    "steps": lambda m: lambda p: np.floor(p / m),          # flat runs between jumps
    "two peaks": lambda m: lambda p: -np.abs(np.abs(p - m) - 1.0),   # not unimodal
    "spike": lambda m: lambda p: (p == m) * 1.0,           # one price alone earns 1
}


def scalar_searches(fn, lo, hi):
    """Each bracket's scalar search, one price per call of `fn`: its price,
    its value and the prices it evaluates."""
    runs = []
    for a, b in zip(lo, hi):
        evals = []

        def one(p):
            evals.append(p)
            return float(fn(np.array([p]))[0])

        runs.append((*scalar_sections(lambda ps: [one(p) for p in ps], a, b), evals))
    return runs


@given(st.sampled_from(sorted(GOLDEN_SHAPES)), st.floats(0.01, 50.0),
       st.lists(st.tuples(st.floats(0.0, 50.0),
                          st.one_of(st.sampled_from([0.0, 1e-12, 1e-6, 1.0, 100.0]), st.floats(1e-12, 100.0))),
                min_size=1, max_size=6))
@example("peak", 3.0, [(0.0, 10.0), (2.0, 1e-6), (5.0, 0.0), (1.0, 100.0)])
@example("flat", 1.0, [(0.0, 100.0), (1.0, 1.0), (2.0, 1e-6), (3.0, 1e-12), (4.0, 0.0)])
@example("peak", 3.0, [(0.0, 100.0), (1.0, 1.0), (2.0, 1e-6)])
# the first call prices m, the next calls miss it by one rounding
@example("spike", 0.17500000000000002, [(0.1, 0.2)])
@settings(max_examples=200, deadline=None)
def test_batched_sections_equal_one_bracket_at_a_time(shape, m, brackets):
    """Each bracket gets exactly the price and value the scalar search finds
    for it alone, the best it priced in any call: with widths from 0 to
    100, brackets stop at different calls.  The batched search prices
    exactly the points the scalar searches price, _SECTIONS - 1 of every
    live bracket per call, and on "peak" it lands within the stop width of
    m when m is in the bracket."""
    fn = GOLDEN_SHAPES[shape](m)
    lo, hi = [a for a, _ in brackets], [a + w for a, w in brackets]
    batched_evals, calls = [], []

    def many(prices):
        batched_evals.extend(prices.tolist())
        calls.append(len(prices))
        return fn(prices)

    runs = scalar_searches(fn, lo, hi)
    prices, values = mechanisms._section_search(many, lo, hi)
    assert prices.tolist() == [p for p, _, _ in runs]
    assert values.tolist() == [v for _, v, _ in runs]
    assert all(v == max(fn(np.array(evals)).tolist()) for _, v, evals in runs)
    assert sorted(batched_evals) == sorted(p for _, _, evals in runs for p in evals)
    assert len(calls) == max(len(evals) for _, _, evals in runs) // (mechanisms._SECTIONS - 1)
    if shape == "peak":
        for a, b, p in zip(lo, hi, prices.tolist()):
            if a <= m <= b:
                assert abs(p - m) <= 1e-10 * max(1.0, abs(b))


class TestEarOptimize:
    def test_two_uniform(self, uniform_posting_curve):
        h = ap.concave_hull(uniform_posting_curve)
        res = ap.ear_optimize([h, h])
        assert res.revenue == pytest.approx(0.5, abs=1e-6)
        assert res.quantiles[0] == pytest.approx(0.5, abs=1e-3)

    def test_single_equal_revenue(self):
        P = ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(10), id="er")))
        res = ap.ear_optimize([ap.concave_hull(P)])
        assert res.revenue == pytest.approx(1.0, abs=1e-9)
        assert res.quantiles[0] >= 0.1 - 1e-9

    def test_tightness_pair(self):
        r = ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)])
        res = ap.ear_optimize([r, r])
        assert res.revenue == pytest.approx(8.0, abs=1e-12)
        assert res.binding

    def test_non_concave_rejected(self):
        bad = ap.synthetic_curve([(0, 0), (0.5, 0.1), (1, 1)])
        with pytest.raises(ValueError):
            ap.ear_optimize([bad])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one curve"):
            ap.ear_optimize([])

    def test_ap_below_ear_on_random_concave(self):
        rng = np.random.default_rng(2024)
        from anonpricing import random_concave_curve

        for _ in range(200):
            curves = [random_concave_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            apv = ap.ap_optimize(curves, grid=256).revenue
            earv = ap.ear_optimize(curves).revenue
            assert apv <= earv + 1e-9 * max(1.0, earv)


@st.composite
def concave_set(draw):
    """One to three concave curves: hulls of random nonnegative knots."""
    curves = []
    for _ in range(draw(st.integers(1, 3))):
        inner = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))
        qs = np.unique(np.concatenate([[0.0, 1.0], inner]))
        vals = np.concatenate([[0.0], draw(st.lists(st.floats(0.0, 5.0), min_size=len(qs) - 1, max_size=len(qs) - 1))])
        curves.append(ap.concave_hull(ap.RevenueCurve(qs, vals)))
    return curves


@given(concave_set())
@settings(max_examples=40, deadline=None)
def test_ear_matches_brute_force_and_sits_within_e_of_ap(curves):
    """Water-filling equals grid enumeration up to its rounding (each q_i
    rounded down to the grid loses at most step times the curve's first
    slope), and AP <= EAR <= e * AP on concave curves."""
    ear, grid_best = ap.ear_optimize(curves).revenue, brute_force_ear(curves, step=0.01)
    rounding = 0.01 * sum(max(0.0, float((c.values[1] - c.values[0]) / c.qs[1])) for c in curves)
    assert grid_best - 1e-9 <= ear <= grid_best + rounding + 1e-9
    apv = ap.ap_optimize(curves, grid=256).revenue
    assert apv <= ear + 1e-9 * max(1.0, ear)
    assert ear <= RHO * apv + 1e-9


class TestRandomPriceRevenue:
    def test_uniform_full_budget(self):
        got = ap.random_price_revenue_public(Distribution.uniform(0, 1), 1.0)
        assert got == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_uniform_small_budget(self):
        # quadrature oracle of the defining integral
        ref, _ = integrate.quad(lambda r: min(r, 0.15) * (1 - r), 0, 1)
        got = ap.random_price_revenue_public(Distribution.uniform(0, 1), 0.15)
        assert got == pytest.approx(ref, abs=1e-9)
        assert got == pytest.approx(0.0643125, abs=1e-9)

    def test_zero_budget_limit(self):
        assert ap.random_price_revenue_public(Distribution.uniform(0, 1), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_approximation_guarantee(self):
        for w in np.linspace(0.05, 1.0, 20):
            bench_price = min(w, 0.5)
            bench = bench_price * (1 - bench_price)
            got = ap.random_price_revenue_public(Distribution.uniform(0, 1), float(w))
            assert got >= 0.5 * bench - 1e-8

    def test_equal_revenue_flat(self):
        # every posted price earns 1, so any price mix does too
        got = ap.random_price_revenue_public(Distribution.equal_revenue(10), 100.0)
        assert got == pytest.approx(1.0, abs=1e-6)


class TestMyersonReserve:
    def test_uniform(self, uniform_posting_curve):
        price, q = ap.myerson_reserve(uniform_posting_curve)
        assert price == pytest.approx(0.5, abs=1e-3)
        assert q == pytest.approx(0.5, abs=1e-3)

    def test_equal_revenue_ties_to_largest_quantile(self):
        P = ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(10), id="er")))
        price, q = ap.myerson_reserve(P)
        assert q == pytest.approx(1.0, abs=1e-12)
        assert price == pytest.approx(1.0, abs=1e-9)


class TestTwoPricedBound:
    def test_equal_revenue_100(self):
        P = ap.concave_hull(ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(100), id="er"))))
        tb = ap.risk_two_priced_bound(P, 5.0, 100.0, 1.0)
        assert tb.multiplier == pytest.approx(2 + math.log(20), abs=1e-12)
        assert tb.base_term == pytest.approx(1.0, abs=1e-9)
        assert tb.bound == pytest.approx(2 + math.log(20), abs=1e-6)
        # overflow term: exact decomposition of the capped-value integral
        ref = (math.log(20) - 5 * (0.2 - 0.01)) + 0.01 * 95
        assert tb.overflow_term == pytest.approx(ref, abs=1e-8)
        assert tb.overflow_term == pytest.approx(math.log(20), abs=1e-8)

    def test_capacity_at_top_gives_two(self):
        P = ap.concave_hull(ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(100), id="er"))))
        tb = ap.risk_two_priced_bound(P, 100.0, 100.0, 1.0)
        assert tb.multiplier == pytest.approx(2.0, abs=1e-12)

    def test_terms_below_bound(self):
        for F, C in ((Distribution.uniform(0, 1), 0.25), (Distribution.uniform(0, 1), 1.0),
                     (Distribution.equal_revenue(50), 2.0), (Distribution.equal_revenue(100), 5.0)):
            P = ap.concave_hull(ap.price_posting_curve(ap.offer_curve(Agent(model="linear", values=F, id="x"))))
            for q_hat in (0.2, 0.6, 1.0):
                tb = ap.risk_two_priced_bound(P, C, F.hi, q_hat)
                assert tb.total <= tb.bound + 1e-8
                assert tb.q_prime <= q_hat + 1e-12

    @pytest.mark.parametrize("a", [0.5, 2.0, 5.0, 12.0])
    def test_overflow_matches_quadrature(self, a):
        # P(q') = a below, at and above the capacity C = 2, and above hval = 10
        h, C = 10.0, 2.0
        tb = ap.risk_two_priced_bound(ap.synthetic_curve([(0, 0), (0.5, a), (1, a)]), C, h, 1.0)
        assert tb.q_prime == 1.0 and tb.base_term == a

        def integrand(q):
            return max(min(h, a / q if q > 0 else h) - C, 0.0)

        pts = [p for p in (a / h, a / C) if 0.0 < p < 1.0]
        ref, _ = integrate.quad(integrand, 0.0, 1.0, points=pts or None, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert tb.overflow_term == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_validation(self):
        P = ap.concave_hull(ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.uniform(0, 1), id="u"))))
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(P, 0.0, 1.0)
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(P, 2.0, 1.0)
        bad = ap.synthetic_curve([(0, 0), (0.5, 0.1), (1, 1)])
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(bad, 0.5, 1.0)


# -- selling windows give the reference's bits in the sweep and the search ------

POSITIVE = st.floats(0.01, 5.0)
VALUE_LAWS = st.one_of(
    st.builds(lambda a, w: Distribution.uniform(a, a + w), st.floats(0.0, 5.0), POSITIVE),
    st.builds(Distribution.uniform, st.just(0.0), st.just(0.01)),   # priced out beside the others
    st.builds(Distribution.equal_revenue, st.floats(1.5, 50.0)),
    st.builds(Distribution.exponential, st.floats(0.5, 3.0), st.floats(0.5, 4.0)),
    st.builds(lambda v, w: Distribution.discrete(sorted(v), np.array(w[: len(v)]) / sum(w[: len(v)])),
              st.sets(POSITIVE, min_size=1, max_size=40), st.lists(st.integers(1, 9), min_size=40, max_size=40)),
    st.builds(lambda a, w1, w2, f: Distribution.piecewise_linear_cdf([(a, 0.0), (a + w1, f), (a + w1 + w2, 1.0)]),
              st.floats(0.0, 2.0), POSITIVE, POSITIVE, st.floats(0.1, 0.9)),
)


@st.composite
def sellable(draw, kinds=("offer", "posting", "hull", "synthetic", "flat")):
    """An offer of any utility model, its posting curve or that curve's hull
    (each priced on its chords), a non-concave synthetic curve, or a flat
    equal-revenue curve, on which every price ties: one of `kinds`."""
    kind = draw(st.sampled_from(kinds))
    if kind == "synthetic":
        n = draw(st.integers(1, 6))
        qs = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        vals = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        return ap.synthetic_curve([(0.0, 0.0)] + list(zip((qs / qs[-1]).tolist(), vals)))
    if kind == "flat":
        h = draw(st.floats(1.5, 50.0))
        return ap.synthetic_curve([(0.0, 0.0), (1.0 / h, 1.0), (1.0, 1.0)])
    F = draw(VALUE_LAWS)
    model = draw(st.sampled_from(["linear", "capacitated", "public-budget", "private-budget"]))
    extra = {}
    if model == "capacitated":
        extra["capacity"] = F.hi * draw(st.floats(0.05, 1.0))
    elif model == "public-budget":
        extra["budget"] = draw(st.floats(0.0, 5.0))
    elif model == "private-budget":
        extra["budgets"] = draw(VALUE_LAWS)
    offer = ap.offer_curve(Agent(model=model, values=F, id="a", **extra))
    if kind == "offer":
        return offer
    posting = ap.price_posting_curve(with_bisection_inverse(offer), grid=64)
    return posting if kind == "posting" else ap.concave_hull(posting)


def uniform_offer_on(a, b):
    return ap.offer_curve(Agent(model="linear", values=Distribution.uniform(a, b), id="u"))


EQUAL_REVENUE_OFFERS = st.builds(
    lambda h: ap.offer_curve(Agent(model="linear", values=Distribution.equal_revenue(h), id="er")),
    st.floats(1.5, 50.0))
SWEPT_SELLABLES = st.lists(st.one_of(sellable(), dented_curve(), EQUAL_REVENUE_OFFERS), min_size=1, max_size=6)


@given(SWEPT_SELLABLES, st.booleans(), st.sampled_from([64, 256]))
@example([uniform_offer_on(0.22, 0.52), uniform_offer_on(0.38, 1.1)], False, 64)   # a cap between bracket ends
@settings(max_examples=150, deadline=None)
def test_windowed_search_equals_every_agent_at_every_price(sellables, twin, grid):
    """Bit for bit the search that evaluates every agent at every price in
    one agents x prices table, with the sweep's blocks of _STRIDE candidates
    as they are and at 2, 3 and 8 candidates, so that its block bound runs
    on these few hundred candidates; a twin agent makes revenue ties."""
    if twin:
        sellables = sellables + sellables[:1]
    want = reference_ap_optimize(sellables, grid=grid)
    for stride in (mechanisms._STRIDE, 2, 3, 8):
        with mock.patch.object(mechanisms, "_STRIDE", stride):
            got = ap.ap_optimize(sellables, grid=grid)
        assert got.price == want.price, stride
        assert got.win_probabilities == want.win_probabilities, stride
        assert got.revenue == want.revenue, stride


def probe_prices(sellables, cands, extra=()):
    """Sorted distinct prices: the given candidates, each selling window's
    ends and the floats next to them, 0, a price below every low end, one
    above every top, and each `extra` fraction of that last one."""
    low, top = np.array([selling_window(s) for s in sellables]).T
    ends = np.concatenate([low, top])
    ends = ends[np.isfinite(ends)]
    below = 0.5 * float(np.min(ends[ends > 0], initial=1.0))
    above = 2.0 * float(np.max(ends, initial=1.0))
    prices = np.concatenate([cands, ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
                             [0.0, below, above], above * np.array(extra, dtype=float)])
    return np.unique(prices[prices >= 0.0])


@given(st.lists(sellable(), min_size=1, max_size=6), st.booleans(), st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_evaluator_keeps_the_table_bits_in_any_block(sellables, twin, extra):
    """`_ap_values` in blocks of one price, a few, or all in one gives the
    bits of a table of every agent at every price: on every candidate, at
    and next to each window's ends, and at random prices."""
    if twin:
        sellables = sellables + sellables[:1]
    low, top = np.array([selling_window(s) for s in sellables]).T
    prices = probe_prices(sellables, mechanisms._candidate_prices(sellables, 64), extra)
    want = table_ap_values(sellables, prices).tobytes()
    for block in (1, 7, 64, mechanisms._BLOCK):
        with mock.patch.object(mechanisms, "_BLOCK", block):
            assert mechanisms._ap_values(sellables, prices, low, top).tobytes() == want, block


@given(st.lists(sellable(), min_size=1, max_size=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_reported_revenue_is_the_evaluator_at_its_price(sellables, twin):
    """`ap_revenue` reads each agent once and multiplies the factors 1 - Q in
    agent order: the bits of `_ap_values` at that price, and of a table of
    every agent at every price.  Checked on every 64th candidate, at each
    window's ends and next to them, at 0 and below every low end, and above
    every top."""
    if twin:
        sellables = sellables + sellables[:1]
    low, top = np.array([selling_window(s) for s in sellables]).T
    cands = mechanisms._candidate_prices(sellables, 64)
    prices = probe_prices(sellables, np.append(cands[::64], cands[-1]))
    want = mechanisms._ap_values(sellables, prices, low, top)
    got = [ap.ap_revenue(sellables, p) for p in prices.tolist()]
    assert np.array([r.revenue for r in got]).tobytes() == want.tobytes()
    assert want.tobytes() == table_ap_values(sellables, prices).tobytes()
    assert [r.win_probabilities for r in got] == [tuple(col) for col in sale_table(sellables, prices).T.tolist()]


@given(st.lists(sellable(), min_size=1, max_size=6), st.sampled_from([1, 2, 64, 4096]))
@example([ap.synthetic_curve([(0, 0), (1, 5e-324)])], 64)   # top * 1e-9 underflows to 0
@example([ap.synthetic_curve([(0, 0), (1, 0)])], 64)        # no positive chord slope: top is 1
@example([OfferCurve(lambda p: 0.5 * (p <= 2.0), (0.5, 2.0)), uniform_offer()], 64)   # no price cap: inf
@settings(max_examples=100, deadline=None)
def test_candidates_from_one_buffer_equal_the_three_copies(sellables, grid):
    got = mechanisms._candidate_prices(sellables, grid)
    want = reference_candidate_prices(sellables, grid)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.0 + 2**-52, 3.0]), max_size=40))
@example([])
@example([1.0])
@example([1.0, 1.0])
@example([2.0, 1.0, 2.0, 2.0, 1.0])
def test_best_three_is_the_stable_sort_order(vals):
    """The largest first, a tie to the larger index, on arrays of exact ties
    and on arrays of fewer than 3 values."""
    vals = np.array(vals, dtype=float)
    want = np.argsort(vals, kind="stable")[::-1][:3]
    assert mechanisms._best_three(vals).tolist() == want.tolist()


# -- the sweep in price blocks and the water-fill in chunks keep every bit -----


def random_hull(knots: int, seed: int = 0):
    """A concave curve of about `knots` knots at random quantiles, with
    exponentially distributed decreasing slopes."""
    rng = np.random.default_rng(seed)
    qs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, knots - 2)), [1.0]])
    slopes = np.sort(rng.exponential(1.0, knots - 1))[::-1]
    return ap.concave_hull(ap.RevenueCurve(qs, np.concatenate([[0.0], np.cumsum(np.diff(qs) * slopes)])))


def test_sweep_over_several_default_blocks():
    hulls = [random_hull(30_000, seed) for seed in range(3)]
    assert len(mechanisms._candidate_prices(hulls, 4096)) > 65_536 == mechanisms._BLOCK
    assert ap.ap_optimize(hulls) == reference_ap_optimize(hulls)


@pytest.fixture(scope="module")
def many_linear_hulls():
    """The Rbar hulls of the benchmark's `many-linear` seed-1 instance: 16
    linear buyers whose value laws cycle through uniform, truncated
    exponential, equal-revenue and six-point discrete, drawn as its
    scenario generator draws them."""
    rng = random.Random(1)
    laws = []
    for i in range(16):
        if i % 4 == 0:
            laws.append(Distribution.uniform(round(rng.uniform(0.0, 0.3), 6), round(rng.uniform(0.8, 1.6), 6)))
        elif i % 4 == 1:
            laws.append(Distribution.exponential(round(rng.uniform(0.8, 2.5), 6), round(rng.uniform(2.0, 4.0), 6)))
        elif i % 4 == 2:
            laws.append(Distribution.equal_revenue(round(rng.uniform(4.0, 40.0), 6)))
        else:
            points = sorted(rng.sample(range(5, 200), 6))
            weights = [1] * 6
            for _ in range(64 - 6):
                weights[rng.randrange(6)] += 1
            laws.append(Distribution.discrete([p / 100 for p in points], [w / 64 for w in weights]))
    return [ap.concave_hull(ap.price_posting_curve(ap.offer_curve(Agent(model="linear", values=F, id=f"l{i}")),
                                                   grid=4096)) for i, F in enumerate(laws)]


def priced_sweep(sellables):
    """The sweep over the sellables' candidates at grid 4096, the one-pass
    sweep's values, and the number of prices the sweep priced."""
    cands = mechanisms._candidate_prices(sellables, 4096)
    low, top = np.array([selling_window(s) for s in sellables]).T
    priced = []
    real = mechanisms._ap_values
    with mock.patch.object(mechanisms, "_ap_values", lambda s, p, *w: priced.append(len(p)) or real(s, p, *w)):
        vals = mechanisms._swept_values(sellables, cands, low, top)
    return vals, real(sellables, cands, low, top), sum(priced)


def test_block_bound_prices_few_candidates(many_linear_hulls):
    # about 40,000 candidates: 639 block starts and a few blocks in full;
    # every candidate left out is below the 3rd best, so the 3 best and
    # their order are the full sweep's
    vals, full, priced = priced_sweep(many_linear_hulls)
    assert len(vals) > 40_000 and priced <= 0.05 * len(vals)
    kept = np.isfinite(vals)
    assert vals[kept].tobytes() == full[kept].tobytes()
    assert np.all(full[~kept] < full[mechanisms._best_three(full)[-1]])
    assert mechanisms._best_three(vals).tolist() == mechanisms._best_three(full).tolist()


def test_a_bound_that_rounds_below_its_block_keeps_the_block():
    # blocks of 4 candidates; one buyer buys surely up to s, with
    # probability 0.3 up to 3 and 0.01 up to 100.  The starts earn 0.01, s,
    # 0.51, 0.9 and 1, so the 3rd best start is s.  The 3rd best candidate
    # is 2.2, the last of its block, which earns s too and wins the tie as
    # the higher price.  Its block's bound, 0.51 / 1.7 * 2.2, rounds one ulp
    # below s: only the margin keeps the block.
    s = 2.2 * (1.0 - (1.0 - 0.3))
    offer = OfferCurve(lambda p: np.select([p <= s, p <= 3.0, p <= 100.0], [1.0, 0.3, 0.01]), (s, 3.0, 100.0), 100.0)
    cands = np.array([0.01, 0.02, 0.03, 0.04, s, 0.7, 0.8, 0.9, 1.7, 1.8, 1.9, 2.2,
                      3.0, 3.1, 3.2, 3.3, 100.0, 110.0, 120.0, 130.0])
    low, top = np.array([selling_window(offer)]).T
    full = mechanisms._ap_values([offer], cands, low, top)
    assert full[8] / 1.7 * 2.2 < full[4] == full[11]
    with mock.patch.object(mechanisms, "_STRIDE", 4):
        vals = mechanisms._swept_values([offer], cands, low, top)
    assert mechanisms._best_three(vals).tolist() == mechanisms._best_three(full).tolist() == [16, 12, 11]


def test_a_dented_curve_takes_the_two_passes(many_linear_hulls):
    # the chord lookup never rises with price on a non-concave curve either,
    # so the block bound holds and the kept values are the full sweep's
    dent = ap.synthetic_curve([(0.0, 0.0), (0.3, 2.0), (0.6, 0.5), (1.0, 1.0)])
    assert not dent.concave
    vals, full, priced = priced_sweep(many_linear_hulls + [dent])
    assert priced <= 0.05 * len(vals)
    kept = np.isfinite(vals)
    assert vals[kept].tobytes() == full[kept].tobytes()
    assert mechanisms._best_three(vals).tolist() == mechanisms._best_three(full).tolist()


@st.composite
def tied_slope_curves(draw):
    """One to four concave curves with knots on sixteenths and slopes from
    one small set, zero and negative ones included: every slope is exact, so
    equal slopes tie across curves."""
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = draw(st.sets(st.sampled_from([k / 16 for k in range(1, 16)]), max_size=4))
        qs = np.array([0.0, *sorted(cuts), 1.0])
        slopes = sorted(draw(st.lists(st.sampled_from([3.0, 2.0, 1.0, 0.5, 0.0, -0.5, -2.0]),
                                      min_size=len(qs) - 1, max_size=len(qs) - 1)), reverse=True)
        curves.append(ap.RevenueCurve(qs, np.concatenate([[0.0], np.cumsum(np.diff(qs) * slopes)])))
    return curves


@given(st.one_of(tied_slope_curves(), concave_set()), st.sampled_from([1, 2, 3, mechanisms._BLOCK]))
# the unit runs out exactly (mass == remaining) at the third of the first
# chunk's 1024 segments
@example([ap.synthetic_curve([(0, 0), (0.25, 1.0), (0.5, 1.75), (1, 2.75)]),
          ap.synthetic_curve([(0, 0), (1, 1.0)])], mechanisms._BLOCK)
# about 1500 segments before the unit runs out: the second chunk, of 2048,
# starts past the first 1024
@example([random_hull(1500, 0), random_hull(1500, 1)], mechanisms._BLOCK)
# the unit runs out exactly at the end of the first chunk of 2
@example([ap.synthetic_curve([(0, 0), (0.5, 1.0), (1, 1.25)]), ap.synthetic_curve([(0, 0), (0.5, 0.75), (1, 1.0)])], 2)
# slope 0.5 ties across the curves with mass left: the first curve takes it
@example([ap.synthetic_curve([(0, 0), (0.25, 0.5), (1, 0.875)]),
          ap.synthetic_curve([(0, 0), (0.25, 0.375), (1, 0.75)])], 1)
# half a unit of positive slope: not binding
@example([ap.synthetic_curve([(0, 0), (0.5, 1.0), (1, 0.5)])], 1)
@settings(max_examples=150, deadline=None)
def test_chunked_water_fill_equals_the_materialized_one(curves, chunk):
    with mock.patch.object(mechanisms, "_BLOCK", chunk):
        got = ap.ear_optimize(curves)
    assert got == materialized_ear(curves)


def test_water_fill_tie_and_binding_examples():
    tied = ap.ear_optimize([ap.synthetic_curve([(0, 0), (0.25, 0.5), (1, 0.875)]),
                            ap.synthetic_curve([(0, 0), (0.25, 0.375), (1, 0.75)])])
    assert tied.quantiles == (0.75, 0.25) and tied.binding
    loose = ap.ear_optimize([ap.synthetic_curve([(0, 0), (0.5, 1.0), (1, 0.5)])])
    assert loose.quantiles == (0.5,) and not loose.binding


def peak_traced_bytes(fn) -> int:
    """Peak traced allocation while fn runs, above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestPooledMemory:
    def test_sweep_does_not_grow_with_agents_at_fixed_candidates(self):
        # copies of one hull share its candidates; the sweep of 2^15 grid
        # prices and the hull's 4000 chord slopes spans two blocks.  With an
        # agents x candidates table, 32 copies peaked 5.5 times as high as 2.
        h = random_hull(4000)
        grid = 1 << 15
        ap.ap_optimize([h], grid=grid)   # the hull's price lookup is built on first use
        two = peak_traced_bytes(lambda: ap.ap_optimize([h] * 2, grid=grid))
        many = peak_traced_bytes(lambda: ap.ap_optimize([h] * 32, grid=grid))
        assert many <= 2 * two

    def test_candidates_are_pooled_in_one_buffer(self):
        # the pool, one filtered copy and masks; the pooled parts, their
        # finite entries and `np.unique`'s sorted copy peaked at 4.1 pools
        hulls = [random_hull(4000, seed) for seed in range(32)]
        pool = sum(int(np.count_nonzero(h.qs > 0)) for h in hulls) + 2 * 4096
        assert peak_traced_bytes(lambda: mechanisms._candidate_prices(hulls, 4096)) < 2.5 * 8 * pool

    def test_water_fill_holds_a_few_pooled_arrays(self):
        # the order, the slopes and the masses, and one chunk of gathers;
        # reordered copies of every pooled array peaked at 10 of them
        curves = [random_hull(40_000, seed) for seed in range(16)]
        segments = sum(len(c.qs) - 1 for c in curves)
        assert peak_traced_bytes(lambda: ap.ear_optimize(curves)) < 5 * 8 * segments


@given(VALUE_LAWS, st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 1.0, 1e9])),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(Distribution.piecewise_linear_cdf([(0, 0), (1, 0.3), (2.5, 1)]), 1.0, None)    # w on a knot
@example(Distribution.exponential(2.0, 1.5), 1.5, None)                                    # w on the atom
@example(Distribution.equal_revenue(9.0), 9.355054311369511e-49, None)                     # w far below the support
@example(Distribution.exponential(1.25, 1.0), 1e-15, None)                                 # w just above 0
@example(Distribution.equal_revenue(10), 1.0000000000000002, None)                         # w one float above lo
@settings(max_examples=200, deadline=None)
def test_random_price_closed_forms_equal_quadrature(F, w, inside):
    """The closed form of every law kind equals quadrature of the defining
    integral, with w below, inside and above the support, and on a knot;
    `inside`, when drawn, puts w at that fraction of the support."""
    if inside is not None:
        w = F.lo + inside * (F.hi - F.lo)
    want = quadrature_random_price_revenue_public(F, w)
    got = ap.random_price_revenue_public(F, w)
    # the quadrature underflows to 0 below about 1e-300, where w is subnormal
    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)
