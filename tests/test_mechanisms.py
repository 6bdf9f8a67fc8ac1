"""Anonymous pricing, water-filling, random-price revenue,
the posted-price reserve, and the capacitated upper bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import anonpricing as ap
from anonpricing import RHO, Agent, Distribution, mechanisms
from helpers import brute_force_ear, scalar_golden


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
        # the sweep, one table per golden step for all 3 brackets, the refined
        # prices and the final revenue: 37 tables, where refining the brackets
        # one after another built 110
        calls = []
        real = mechanisms._sale_probabilities
        monkeypatch.setattr(mechanisms, "_sale_probabilities", lambda s, p: calls.append(1) or real(s, p))
        ap.ap_optimize([uniform_offer(), uniform_offer()])
        assert len(calls) <= 45


# functions of price, exact in every elementwise operation so that an array
# and a one-element array give the same bits
GOLDEN_SHAPES = {
    "peak": lambda m: lambda p: -(p - m) ** 2,
    "flat": lambda m: lambda p: 0.0 * p + m,               # every comparison ties
    "steps": lambda m: lambda p: np.floor(p / m),          # flat runs between jumps
    "two peaks": lambda m: lambda p: -np.abs(np.abs(p - m) - 1.0),   # not unimodal
}


@given(st.sampled_from(sorted(GOLDEN_SHAPES)), st.floats(0.01, 50.0),
       st.lists(st.tuples(st.floats(0.0, 50.0), st.one_of(st.just(0.0), st.floats(1e-12, 100.0))),
                min_size=1, max_size=6))
@example("peak", 3.0, [(0.0, 10.0), (2.0, 1e-6), (5.0, 0.0), (1.0, 100.0)])   # 51, 18, 0 and 56 steps
@settings(max_examples=100, deadline=None)
def test_batched_golden_equals_one_bracket_at_a_time(shape, m, brackets):
    """Each bracket gets exactly the price the scalar search finds for it
    alone, and only live brackets are evaluated: the batched search asks for
    as many prices as the scalar searches together."""
    fn = GOLDEN_SHAPES[shape](m)
    lo, hi = [a for a, _ in brackets], [a + w for a, w in brackets]
    scalar_evals, batched_evals = [], []

    def one(p):
        scalar_evals.append(p)
        return float(fn(np.array([p]))[0])

    def many(prices):
        batched_evals.extend(prices.tolist())
        return fn(prices)

    want = [scalar_golden(one, a, b) for a, b in zip(lo, hi)]
    assert mechanisms._golden(many, lo, hi).tolist() == want
    assert sorted(batched_evals) == sorted(scalar_evals)


class TestEarOptimize:
    def test_two_uniform(self, uniform_posting_curve):
        h = ap.concave_hull(uniform_posting_curve)
        res = ap.ear_optimize([h, h])
        assert res.revenue == pytest.approx(0.5, abs=1e-6)
        assert res.quantiles[0] == pytest.approx(0.5, abs=1e-3)

    def test_single_equal_revenue(self):
        P = Agent(model="linear", values=Distribution.equal_revenue(10), id="er").price_curve()
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
    rounding = 0.01 * sum(max(0.0, float(c.slope(0.0))) for c in curves)
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
        P = Agent(model="linear", values=Distribution.equal_revenue(10), id="er").price_curve()
        price, q = ap.myerson_reserve(P)
        assert q == pytest.approx(1.0, abs=1e-12)
        assert price == pytest.approx(1.0, abs=1e-9)

    def test_private_budget(self, private_uu_posting_curve):
        price, q = ap.myerson_reserve(private_uu_posting_curve)
        assert price == pytest.approx((3 - math.sqrt(3)) / 3, abs=1e-4)
        assert private_uu_posting_curve.eval(q) == pytest.approx(0.19245008972987523, abs=1e-6)


class TestTwoPricedBound:
    def test_equal_revenue_100(self):
        P = ap.concave_hull(Agent(model="linear", values=Distribution.equal_revenue(100), id="er").price_curve())
        tb = ap.risk_two_priced_bound(P, 5.0, 100.0, 1.0)
        assert tb.multiplier == pytest.approx(2 + math.log(20), abs=1e-12)
        assert tb.base_term == pytest.approx(1.0, abs=1e-9)
        assert tb.bound == pytest.approx(2 + math.log(20), abs=1e-6)
        # overflow term: exact decomposition of the capped-value integral
        ref = (math.log(20) - 5 * (0.2 - 0.01)) + 0.01 * 95
        assert tb.overflow_term == pytest.approx(ref, abs=1e-8)
        assert tb.overflow_term == pytest.approx(math.log(20), abs=1e-8)

    def test_capacity_at_top_gives_two(self):
        P = ap.concave_hull(Agent(model="linear", values=Distribution.equal_revenue(100), id="er").price_curve())
        tb = ap.risk_two_priced_bound(P, 100.0, 100.0, 1.0)
        assert tb.multiplier == pytest.approx(2.0, abs=1e-12)

    def test_terms_below_bound(self):
        for F, C in ((Distribution.uniform(0, 1), 0.25), (Distribution.uniform(0, 1), 1.0),
                     (Distribution.equal_revenue(50), 2.0), (Distribution.equal_revenue(100), 5.0)):
            P = ap.concave_hull(Agent(model="linear", values=F, id="x").price_curve())
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
        P = ap.concave_hull(Agent(model="linear", values=Distribution.uniform(0, 1), id="u").price_curve())
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(P, 0.0, 1.0)
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(P, 2.0, 1.0)
        bad = ap.synthetic_curve([(0, 0), (0.5, 0.1), (1, 1)])
        with pytest.raises(ValueError):
            ap.risk_two_priced_bound(bad, 0.5, 1.0)
