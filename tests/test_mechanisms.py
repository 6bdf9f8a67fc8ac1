"""Anonymous pricing, water-filling, random-price revenue,
the posted-price reserve, and the capacitated upper bound."""

import math

import numpy as np
import pytest
from scipy import integrate

import anonpricing as ap
from anonpricing import Agent, Distribution


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

    def test_ap_below_ear_on_random_concave(self):
        rng = np.random.default_rng(2024)
        from anonpricing import random_concave_curve

        for _ in range(200):
            curves = [random_concave_curve(rng) for _ in range(int(rng.integers(1, 6)))]
            apv = ap.ap_optimize(curves, grid=256).revenue
            earv = ap.ear_optimize(curves).revenue
            assert apv <= earv + 1e-9 * max(1.0, earv)


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


class TestRandomPriceFloor:
    def test_zero_floor_equals_unfloored(self):
        a = Agent(model="linear", values=Distribution.uniform(0, 1), id="u")
        got = ap.random_price_revenue_floor(a, 0.0)
        ref = ap.random_price_revenue_public(Distribution.uniform(0, 1), 1.0)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_uniform_floor(self):
        a = Agent(model="linear", values=Distribution.uniform(0, 1), id="u")
        ref = 0.2 * 0.16 + integrate.quad(lambda r: r * (1 - r), 0.2, 1.0)[0]
        got = ap.random_price_revenue_floor(a, 0.2)
        assert got == pytest.approx(ref, abs=1e-9)
        assert got == pytest.approx(0.1813333333, abs=1e-6)

    def test_top_floor_sells_nothing(self):
        a = Agent(model="linear", values=Distribution.uniform(0, 1), id="u")
        assert ap.random_price_revenue_floor(a, 1.0) == pytest.approx(0.0, abs=1e-9)


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
