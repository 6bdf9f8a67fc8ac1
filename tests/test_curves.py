"""Offer curves, posting curves, hulls, quantile maps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

import anonpricing as ap
from anonpricing import Agent, Distribution
from anonpricing.cli import load_scenario

from anonpricing.closeness import OracleConfig, build_curves
from anonpricing.curves import _chord_reach, _collapse, _step_down_to_q, _upper_hull_indices
from helpers import (bisection_inverse, dense_quantiles_at_prices, dented_curve, eager_concave, eager_hull,
                     exact_hull_indices, load_workloads, loop_collapse, numpy_scalar_hull_indices, public_budget_offer, ray_curve,
                     record_hull_indices, searched_quantiles_at_prices, with_bisection_inverse)


def linear_uniform():
    return Agent(model="linear", values=Distribution.uniform(0, 1), id="u")


class TestAgentValidation:
    def test_capacity_above_support_rejected(self):
        with pytest.raises(ValueError):
            Agent(model="capacitated", values=Distribution.uniform(0, 1), capacity=2.0)

    def test_synthetic_needs_dominating_r(self):
        with pytest.raises(ValueError):
            Agent(model="synthetic", p_knots=((0, 0), (1, 2)), r_knots=((0, 0), (1, 1)))

    @pytest.mark.parametrize("w", [None, -0.1, math.inf, math.nan])
    def test_public_needs_finite_nonnegative_budget(self, w):
        # the oracle takes a public budget as the point mass at w
        with pytest.raises(ValueError, match="finite nonnegative budget"):
            Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=w)

    def test_private_needs_budget_law(self):
        with pytest.raises(ValueError):
            Agent(model="private-budget", values=Distribution.uniform(0, 1))

    @pytest.mark.parametrize("G", [Distribution.uniform(-1, 1), Distribution.discrete([-1, 1], [0.5, 0.5])],
                             ids=["uniform", "discrete"])
    def test_private_budget_law_below_zero_rejected(self, G):
        # such a law once built an agent whose posting sweep failed later
        with pytest.raises(ValueError, match="nonnegative budgets"):
            Agent(model="private-budget", values=Distribution.uniform(0, 1), budgets=G)


class TestOfferCurve:
    def test_linear_uniform(self):
        off = ap.offer_curve(linear_uniform())
        assert off.eval(0.25) == pytest.approx(0.75, abs=1e-12)

    def test_public_budget(self):
        a = Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3, id="pb")
        assert ap.offer_curve(a).eval(0.5) == pytest.approx(0.3, abs=1e-12)

    def test_private_budget_matches_quadrature(self):
        # sale mass at p: E[min(w, p)] * Pr[v >= p] / p, with the budget
        # integral cross-checked by quadrature
        F = Distribution.uniform(0, 1)
        G = Distribution.uniform(0, 1)
        a = Agent(model="private-budget", values=F, budgets=G, id="pr")
        off = ap.offer_curve(a)
        p = 0.5
        delta, _ = integrate.quad(lambda w: min(w, p) * G.pdf(w), 0, 1)
        assert delta == pytest.approx(0.375, abs=1e-9)
        assert off.eval(p) == pytest.approx(delta * F.survival_left(p) / p, abs=1e-9)
        assert off.eval(p) == pytest.approx(0.375, abs=1e-9)

    def test_synthetic_has_no_offer(self):
        a = Agent(model="synthetic", p_knots=((0, 0), (1, 1)), r_knots=((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            ap.offer_curve(a)

    def test_nonincreasing_and_stops_at_top(self):
        agents = [
            linear_uniform(),
            Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3, id="pb"),
            Agent(model="private-budget", values=Distribution.uniform(0, 1),
                  budgets=Distribution.uniform(0, 1), id="pr"),
            Agent(model="linear", values=Distribution.equal_revenue(10), id="er"),
        ]
        for a in agents:
            off = ap.offer_curve(a)
            ps = np.linspace(0.0, a.hval * 1.1, 4096)
            qs = np.asarray(off.eval(ps))
            assert np.all(np.diff(qs) <= 1e-12)
            assert np.all((qs >= 0) & (qs <= 1))
            assert off.eval(a.hval * 1.0000001) == 0.0

    def test_capacitated_offer_equals_linear(self):
        F = Distribution.equal_revenue(10)
        lin = ap.offer_curve(Agent(model="linear", values=F, id="l"))
        cap = ap.offer_curve(Agent(model="capacitated", values=F, capacity=3.0, id="c"))
        ps = np.linspace(0, 11, 777)
        assert np.allclose(lin.eval(ps), cap.eval(ps), atol=0)


class TestPricePostingCurve:
    def test_uniform_parabola(self, uniform_posting_curve):
        assert uniform_posting_curve.eval(0.5) == pytest.approx(0.25, abs=1e-6)
        assert uniform_posting_curve.concave

    def test_equal_revenue_two_pieces(self):
        P = ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(10), id="er")))
        assert P.eval(0.05) == pytest.approx(0.5, abs=1e-9)
        assert P.eval(0.1) == pytest.approx(1.0, abs=1e-9)
        assert P.eval(0.5) == pytest.approx(1.0, abs=1e-9)

    def test_private_budget_point(self):
        a = Agent(model="private-budget", values=Distribution.uniform(0, 1),
                  budgets=Distribution.uniform(0, 1), id="pr")
        P = ap.price_posting_curve(with_bisection_inverse(ap.offer_curve(a)))
        assert P.eval(0.375) == pytest.approx(0.1875, abs=1e-6)

    def test_revenue_consistency_with_offer(self):
        # at every swept price (here recovered from the knots of the curve)
        # the curve reproduces p*q(p); between grid prices only the
        # piecewise-linear sag separates them
        for a in (linear_uniform(),
                  Agent(model="private-budget", values=Distribution.uniform(0, 1),
                        budgets=Distribution.uniform(0, 1), id="pr")):
            off = with_bisection_inverse(ap.offer_curve(a))
            P = ap.price_posting_curve(off)
            inner = (P.qs > 1e-4) & (P.qs < 1 - 1e-4)
            prices = P.values[inner] / P.qs[inner]
            for p in prices[:: max(1, len(prices) // 200)]:
                q = off.eval(float(p))
                assert P.eval(q) == pytest.approx(p * q, rel=1e-6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ap.price_posting_curve(ap.offer_curve(linear_uniform()), grid=32)


class TestConcaveHull:
    def test_dip_removed(self):
        c = ap.synthetic_curve([(0, 0), (0.5, 0.1), (1, 1)])
        h = ap.concave_hull(c)
        assert h.qs.tolist() == [0.0, 1.0]
        assert h.eval(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_concave_input_identity(self):
        c = ap.synthetic_curve([(0, 0), (0.3, 0.6), (1, 0.8)])
        h = ap.concave_hull(c)
        assert np.allclose(h.qs, c.qs) and np.allclose(h.values, c.values)

    def test_collapsing_posting_curve(self):
        # posting curve that dies after its peak: the majorant carries the
        # peak down on a straight chord, so it ends at the input's endpoint
        c = ap.synthetic_curve([(0, 0), (0.25, 0.5), (0.25 + 1e-9, 0.0), (1, 0)])
        h = ap.concave_hull(c)
        assert h.eval(0.25) == pytest.approx(0.5, abs=1e-12)
        assert h.eval(1.0) == pytest.approx(0.0, abs=1e-12)
        # pairwise chord check: every knot of the input lies on or below
        qs = np.linspace(0, 1, 101)
        assert np.all(np.asarray(h.eval(qs)) >= np.asarray(c.eval(qs)) - 1e-12)

    def test_idempotent_and_majorizing(self, uniform_posting_curve):
        for curve in (
            uniform_posting_curve,
            ap.synthetic_curve([(0, 0), (0.2, 0.1), (0.4, 0.5), (0.7, 0.2), (1, 0.4)]),
        ):
            h = ap.concave_hull(curve)
            hh = ap.concave_hull(h)
            assert np.allclose(h.qs, hh.qs) and np.allclose(h.values, hh.values)
            qs = np.linspace(0, 1, 257)
            assert np.all(np.asarray(h.eval(qs)) >= np.asarray(curve.eval(qs)) - 1e-12)
            assert h.concave
            assert h.eval(0.0) == curve.eval(0.0)
            assert h.eval(1.0) >= curve.eval(1.0) - 1e-12

    def test_hull_knots_subset_of_input(self):
        c = ap.synthetic_curve([(0, 0), (0.2, 0.1), (0.4, 0.5), (0.7, 0.2), (1, 0.4)])
        h = ap.concave_hull(c)
        input_pts = {(q, v) for q, v in zip(c.qs, c.values)}
        assert all((q, v) in input_pts for q, v in zip(h.qs, h.values))


@st.composite
def hull_case(draw):
    """Knots on [0, 1], some of them 1e-16 to 1e-12 apart, with concave,
    near-linear or arbitrary values."""
    inner = draw(st.lists(st.floats(0.001, 0.999), max_size=15))
    base = np.concatenate([[0.0], inner])
    near = draw(st.lists(st.sampled_from([0.0, 1e-16, 3e-16, 1e-15, 1e-14, 1e-13, 1e-12]),
                         min_size=len(base), max_size=len(base)))
    qs = np.unique(np.concatenate([base, base + np.array(near), [1.0]]))
    shape = draw(st.sampled_from(["concave", "linear", "arbitrary"]))
    if shape == "concave":   # a min of lines, one through the origin
        lines = draw(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4))
        vals = np.minimum(draw(st.floats(0.1, 10.0)) * qs, np.min([a + b * qs for a, b in lines], axis=0))
    elif shape == "linear":  # collinear knots nudged by up to 1e-13
        noise = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=len(qs), max_size=len(qs)))
        vals = draw(st.floats(-2.0, 2.0)) * qs + np.array(noise)
    else:
        vals = np.array(draw(st.lists(st.floats(-1.0, 5.0), min_size=len(qs), max_size=len(qs))))
    return qs, vals


@given(hull_case(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_cached_hull_equals_eager_reference(case, hull_first):
    """`concave` and `concave_hull` read one cached scan, in either order,
    and give what the eager construction-time expressions gave."""
    curve = ap.RevenueCurve(*case)
    if hull_first:
        h = ap.concave_hull(curve)
        concave = curve.concave
    else:
        concave = curve.concave
        h = ap.concave_hull(curve)
    assert concave == eager_concave(curve.qs, curve.values)
    ref_qs, ref_vals = eager_hull(curve.qs, curve.values)
    assert np.array_equal(h.qs, ref_qs) and np.array_equal(h.values, ref_vals)
    # a hull starts out knowing that all its knots are on its hull
    assert [a.tolist() for a in eager_hull(h.qs, h.values)] == [h.qs.tolist(), h.values.tolist()]
    assert h.concave == eager_concave(h.qs, h.values)
    hh = ap.concave_hull(h)
    assert np.array_equal(hh.qs, h.qs) and np.array_equal(hh.values, h.values)


@st.composite
def chain_case(draw):
    """A `hull_case`, or knots on a 1/64 grid joined by runs of small integer
    slopes: there every cross product is exact, so collinear knots give a
    cross product of exactly 0."""
    if draw(st.booleans()):
        return draw(hull_case())
    qs = np.array([0, *sorted(set(draw(st.lists(st.integers(1, 63), max_size=20)))), 64]) / 64.0
    n = len(qs) - 1
    slopes = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(slopes) - 1, max_size=len(slopes) - 1)))
    run_slopes = np.repeat(slopes, np.diff([0, *cuts, n]))
    return qs, np.concatenate([[0.0], np.cumsum(run_slopes * np.diff(qs))])


# the knots (0, 0), (1e-15, d), (0.0342, d), (0.5, d), (1, d), d the least
# subnormal: the chain on every knot drops the strict vertex (1e-15, d), as
# its cross products underflow to 0
UNDERFLOW_CASE = (np.array([0.0, 1e-15, 0.0342, 0.5, 1.0]), np.array([0.0, 5e-324, 5e-324, 5e-324, 5e-324]))


@given(chain_case())
@example((np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.0, 0.25, 0.5, 0.5])))   # collinear middle knot drops
@example(UNDERFLOW_CASE)
@settings(max_examples=200, deadline=None)
def test_hull_chain_equals_numpy_scalar_reference(case):
    """The scan keeps exactly the knots the chain on numpy scalars keeps
    when it runs on the strict records: on exactly collinear runs, on runs
    within 1e-13 of a line and on knots 1e-16 to 1e-12 apart."""
    qs, vals = case
    assert _upper_hull_indices(qs, vals).tolist() == record_hull_indices(qs, vals)


def test_hull_scan_keeps_the_exact_vertices_an_underflowing_chain_drops():
    qs, vals = UNDERFLOW_CASE
    assert _upper_hull_indices(qs, vals).tolist() == exact_hull_indices(qs, vals) == [0, 1, 4]
    assert numpy_scalar_hull_indices(qs, vals) == [0, 3, 4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_knots_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ap.RevenueCurve([0.0, 0.5, 1.0], [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Agent(model="synthetic", p_knots=((0, 0), (0.5, bad), (1, 0)), r_knots=((0, 0), (1, 1)))
    with pytest.raises(ValueError, match="increasing"):
        ap.RevenueCurve([0.0, bad, 1.0], [0.0, 0.5, 1.0])


def test_hull_scan_runs_once_per_curve(monkeypatch):
    scans = []

    def counting(qs, vals, real=_upper_hull_indices):
        scans.append(len(qs))
        return real(qs, vals)

    monkeypatch.setattr("anonpricing.curves._upper_hull_indices", counting)
    curve = ap.synthetic_curve([(0, 0), (0.2, 0.1), (0.4, 0.5), (0.7, 0.2), (1, 0.4)])
    assert scans == []
    assert not curve.concave and not curve.concave
    h = ap.concave_hull(curve)
    assert ap.concave_hull(curve).qs.tolist() == h.qs.tolist()
    assert h.concave and ap.concave_hull(h).concave
    assert scans == [5]


class TestQuantileAtPrice:
    def test_uniform(self, uniform_agent, uniform_posting_curve):
        # the exact sale probability is the offer's; P's chords bridge its knots
        assert ap.offer_curve(uniform_agent).eval(0.5) == pytest.approx(0.5, abs=1e-9)
        assert ap.quantiles_at_prices(0.5, uniform_posting_curve)[0] == pytest.approx(0.5, abs=1e-6)

    def test_equal_revenue_floor_price(self):
        P = ap.price_posting_curve(ap.offer_curve(
            Agent(model="linear", values=Distribution.equal_revenue(10), id="er")))
        assert ap.quantiles_at_prices(1.0, P)[0] == pytest.approx(1.0, abs=1e-12)

    def test_tightness_effective_price(self):
        R = ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)])
        assert ap.quantiles_at_prices(8.0, R)[0] == pytest.approx(0.5, abs=1e-12)

    def test_above_initial_slope_gives_zero(self):
        R = ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)])
        assert ap.quantiles_at_prices(8.5, R)[0] == 0.0

    def test_flat_segment_takes_largest_quantile(self):
        R = ap.synthetic_curve([(0, 0), (0.25, 1.0), (0.5, 2.0), (1, 4.0)])
        assert ap.quantiles_at_prices(4.0, R)[0] == pytest.approx(1.0, abs=1e-12)

    def test_chord_consistency_on_concave_curves(self):
        curves = [
            ap.synthetic_curve([(0, 0), (0.3, 0.6), (1, 0.8)]),
            ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)]),
        ]
        for c in curves:
            for p in np.linspace(0.2, c.values[1] / max(c.qs[1], 1e-9), 23):
                q = ap.quantiles_at_prices(float(p), c)[0]
                if q > 0:
                    assert c.eval(q) / q == pytest.approx(p, rel=1e-8) or c.eval(q) / q >= p

    def test_vectorized_matches_scalar(self):
        c = ap.synthetic_curve([(0, 0), (0.2, 0.1), (0.4, 0.5), (0.7, 0.2), (1, 0.4)])
        ps = np.linspace(0.0, 3.0, 101)
        vec = ap.quantiles_at_prices(ps, c)
        sca = np.array([ap.quantiles_at_prices(float(p), c)[0] for p in ps])
        assert np.array_equal(vec, sca)
        assert np.allclose(vec, dense_quantiles_at_prices(ps, c.qs, c.values), rtol=0, atol=1e-12)


@st.composite
def curve_and_prices(draw):
    """A non-concave curve with flat stretches, and prices that include
    every knot's exact chord slope, 0, and prices above the largest chord."""
    n = draw(st.integers(min_value=1, max_value=12))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    qs = np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])
    vals = [draw(st.floats(-0.5, 5.0))]
    for _ in range(n):
        flat = draw(st.booleans())
        vals.append(vals[-1] if flat else draw(st.floats(0.0, 5.0)))
    vals = np.array(vals)
    chords = vals[1:] / qs[1:]
    top = max(float(np.max(chords)), 0.0)
    extra = draw(st.lists(st.floats(0.0, 1.5 * top + 1.0), max_size=20))
    prices = np.concatenate([chords[chords >= 0], [0.0, top * 1.001 + 1e-9, top + 1.0], extra])
    return ap.RevenueCurve(qs, vals), prices


@given(curve_and_prices())
@settings(max_examples=300, deadline=None)
def test_quantiles_at_prices_matches_dense_reference(case):
    curve, prices = case
    got = ap.quantiles_at_prices(prices, curve)
    ref = dense_quantiles_at_prices(prices, curve.qs, curve.values)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@given(curve_and_prices(), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_merge_and_search_give_the_same_bits(case, copies, rnd):
    """Sorted prices that outnumber the knots, and the same prices shuffled,
    read the bits of one search per price in the chord reach, with
    duplicates and prices on the thresholds themselves."""
    curve, prices = case
    neg_reach = _chord_reach(curve.qs, curve.values)
    prices = np.concatenate([prices, -neg_reach])   # prices on the thresholds themselves
    prices = np.tile(prices, copies + len(curve.qs) // len(prices))   # duplicates, and more prices than knots
    ordered = np.sort(prices)
    merged = ap.quantiles_at_prices(ordered, curve)
    assert np.array_equal(merged, searched_quantiles_at_prices(ordered, curve))
    shuffled = prices.copy()
    rnd.shuffle(shuffled)
    got = ap.quantiles_at_prices(shuffled, curve)
    assert np.array_equal(got, merged[np.searchsorted(ordered, shuffled)])
    assert np.array_equal(got, searched_quantiles_at_prices(shuffled, curve))


@given(st.one_of(dented_curve(), ray_curve()))
# two knots on one ray: between the two thresholds the segment extended
# back past the first knot read -6.7e-4, not 0.3811
@example(ap.synthetic_curve([(0.0, 0.0), (0.3811, 1.3484), (0.3971, 1.4050108632904752), (1.0, 1.6)]))
@settings(max_examples=200, deadline=None)
def test_chord_lookup_is_a_monotone_sale_probability(curve):
    """In every knot's tolerance zone, at its ends and at the floats next to
    them: Q lies in [0, 1], never below an affordable knot's quantile, never
    rises with price but for one rounding, and a price alone reads the bits
    it reads in a batch.  No prices read no quantiles."""
    qs, vals = curve.qs, curve.values
    tol = max(1e-12 * float(np.max(np.abs(vals))), np.finfo(float).tiny)
    thresholds = (vals[1:] + tol) / qs[1:]
    ends = np.concatenate([vals[1:] / qs[1:], thresholds])
    zones = np.linspace(vals[1:] / qs[1:], thresholds, 7).ravel()
    prices = np.unique(np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), zones, [0.0]]))
    prices = prices[prices >= 0.0]
    got = ap.quantiles_at_prices(prices, curve)
    assert np.all((got >= 0.0) & (got <= 1.0))
    for q, threshold in zip(qs[1:], thresholds):
        assert np.all(got[prices <= threshold] >= q)
    assert np.all(got[1:] <= got[:-1] * (1.0 + 1e-12))
    alone = np.concatenate([ap.quantiles_at_prices(p, curve) for p in prices])
    assert alone.tobytes() == got.tobytes()
    assert ap.quantiles_at_prices(np.array([]), curve).shape == (0,)


def test_thresholds_built_on_first_lookup_only(monkeypatch):
    """200 lookups on one curve build its chord thresholds once."""
    builds = []

    def counting(qs, vals, real=_chord_reach):
        builds.append(len(qs))
        return real(qs, vals)

    monkeypatch.setattr("anonpricing.curves._chord_reach", counting)
    rng = np.random.default_rng(7)
    qs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 30)), [1.0]])
    curve = ap.RevenueCurve(qs, rng.uniform(0.0, 2.0, 32))   # not concave
    assert not curve.concave
    prices = [0.7] + [rng.uniform(0.0, 20.0, int(n)) for n in rng.integers(1, 50, 199)]
    for p in prices:
        assert np.array_equal(ap.quantiles_at_prices(p, curve), dense_quantiles_at_prices(p, qs, curve.values))
    assert builds == [32]


@st.composite
def point_cloud(draw, min_gap):
    """Points whose sorted q gaps are all 0 or at least `min_gap`, with values."""
    levels = np.unique(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)))
    levels = levels[np.concatenate([[True], np.diff(levels) >= 1e-12])]
    if min_gap == 0.0:   # also place points 1e-16 to 1e-15 above a level
        levels = np.concatenate([levels, levels + draw(st.sampled_from([1e-16, 5e-16, 1e-15]))])
    picks = draw(st.lists(st.integers(0, len(levels) - 1), min_size=1, max_size=40))
    q = levels[picks]
    v = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=len(q), max_size=len(q))))
    return q, v


@given(point_cloud(min_gap=0.0))
@settings(max_examples=200, deadline=None)
def test_collapse_keeps_the_largest_value_of_each_run(cloud):
    q, v = cloud
    cq, cv = _collapse(q, v)
    assert np.all(np.diff(cq) > 1e-15)   # strictly increasing, no two knots within the merge gap
    assert set(cq) <= set(q)
    # every input point belongs to the run that starts at the last output q <= it
    run = np.searchsorted(cq, q, side="right") - 1
    assert np.all(run >= 0)
    assert np.array_equal(cv, [v[run == j].max() for j in range(len(cq))])


@given(point_cloud(min_gap=1e-12))
@settings(max_examples=200, deadline=None)
def test_collapse_equals_the_per_point_loop(cloud):
    q, v = cloud
    cq, cv = _collapse(q, v)
    lq, lv = loop_collapse(q, v)
    assert np.array_equal(cq, lq) and np.array_equal(cv, lv)


class TestSyntheticAndEval:
    def test_tightness_p_interpolation(self):
        P = ap.synthetic_curve([(0, 0), (0.25, 1.0), (1, 2.0)])
        assert P.eval(0.5) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_tightness_r_interpolation(self):
        R = ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)])
        assert R.eval(0.25) == pytest.approx(2.0, abs=1e-12)

    def test_identity_line(self):
        c = ap.synthetic_curve([(0, 0), (1, 1)])
        assert c.eval(0.37) == pytest.approx(0.37, abs=1e-15)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ap.synthetic_curve([(0, 0), (0.6, 1.0), (0.4, 0.5), (1, 0)])
        with pytest.raises(ValueError):
            ap.synthetic_curve([(0, 0), (1.2, 1.0)])

    def test_eval_at_knots_exact(self):
        c = ap.synthetic_curve([(0, 0), (0.2, 0.1), (0.4, 0.5), (1, 0.4)])
        assert np.allclose(np.asarray(c.eval(c.qs)), c.values, atol=0)

    def test_uniform_quarter(self, uniform_posting_curve):
        assert uniform_posting_curve.eval(0.25) == pytest.approx(0.1875, abs=1e-6)

    def test_csv_round_trip(self, tmp_path):
        c = ap.synthetic_curve([(0, 0), (0.5, 1.0), (1, 1.0)])
        path = tmp_path / "c.csv"
        c.to_csv(path, "P")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "q,P"
        assert len(lines) == 4


@st.composite
def any_agent(draw):
    """An agent of any model with an offer, on a continuous value law or a
    discretization of one."""
    law = draw(st.sampled_from([Distribution.uniform(0, 1), Distribution.uniform(0, 0.77),
                                Distribution.uniform(0.2, 3.0), Distribution.exponential(2.0, 1.5),
                                Distribution.equal_revenue(10),
                                Distribution.piecewise_linear_cdf([(0, 0), (1, 0.3), (2.5, 1)])]))
    n = draw(st.one_of(st.none(), st.integers(2, 199)))
    F = law if n is None else ap.discretize(law, n)
    model = draw(st.sampled_from(["linear", "capacitated", "public-budget", "private-budget"]))
    if model == "capacitated":
        return Agent(model=model, values=F, capacity=F.hi * draw(st.floats(0.05, 1.0)))
    if model == "public-budget":
        return Agent(model=model, values=F, budget=draw(st.floats(0.0, 4.0)))
    if model == "private-budget":
        G = ap.discretize(Distribution.uniform(0, 1), draw(st.integers(2, 199)))
        return Agent(model=model, values=F, budgets=draw(st.sampled_from([G, Distribution.exponential(2.0, 1.5)])))
    return Agent(model=model, values=F)


@given(any_agent(), st.lists(st.floats(1e-16, 10.0), min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_nothing_sells_above_the_price_cap(agent, steps):
    """q(p) = 0 exactly beyond the offer's price cap, the top of the value
    support, for every model: the selling windows rely on it."""
    offer = ap.offer_curve(agent)
    cap = offer.price_cap
    assert cap == agent.values.hi
    prices = np.concatenate([[np.nextafter(cap, np.inf)], cap * (1.0 + np.array(steps))])
    prices = prices[prices > cap]
    assert np.all(agent.values.survival_left(prices) == 0.0)
    assert np.all(offer.eval(prices) == 0.0)


# -- a price's value does not depend on its batch -----------------------------

LAW_KINDS = ("uniform", "equal-revenue", "exponential", "discrete", "piecewise-linear-cdf", "discretized")
MODELS = ("linear", "capacitated", "public-budget", "private-budget")


def law_of(kind):
    """Value or budget laws of one kind; "discretized" is a discretization
    of any of the four continuous kinds."""
    positive = st.floats(0.01, 4.0)
    if kind == "uniform":
        return st.builds(lambda a, w: Distribution.uniform(a, a + w), st.floats(0.0, 3.0), positive)
    if kind == "equal-revenue":
        return st.builds(Distribution.equal_revenue, st.floats(1.5, 50.0))
    if kind == "exponential":
        return st.builds(Distribution.exponential, st.floats(0.3, 4.0), st.floats(0.2, 5.0))
    if kind == "discrete":
        return st.builds(lambda v, w: Distribution.discrete(sorted(v), np.array(w[: len(v)]) / sum(w[: len(v)])),
                         st.sets(positive, min_size=1, max_size=30), st.lists(st.integers(1, 9), min_size=30, max_size=30))
    if kind == "piecewise-linear-cdf":
        return st.builds(lambda a, w1, w2, f: Distribution.piecewise_linear_cdf([(a, 0.0), (a + w1, f), (a + w1 + w2, 1.0)]),
                         st.floats(0.0, 2.0), positive, positive, st.floats(0.0, 1.0))
    return st.builds(ap.discretize, st.one_of(*(law_of(k) for k in LAW_KINDS[:3] + LAW_KINDS[4:5])), st.integers(2, 60))


def agent_of(draw, kind, model):
    """An agent of one model on a value law of one kind, drawn with `draw`;
    a private budget law is of any kind."""
    F = draw(law_of(kind))
    if model == "capacitated":
        return Agent(model=model, values=F, capacity=F.hi * draw(st.floats(0.05, 1.0)))
    if model == "public-budget":
        return Agent(model=model, values=F, budget=draw(st.floats(0.0, 5.0)))
    if model == "private-budget":
        return Agent(model=model, values=F, budgets=draw(law_of(draw(st.sampled_from(LAW_KINDS)))))
    return Agent(model=model, values=F)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", LAW_KINDS)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_offer_price_does_not_depend_on_its_batch(kind, model, data):
    """An offer prices a shuffled batch with the bits it gives each price
    alone, as an array and as a scalar: golden-section search prices about
    90 unsorted points of several brackets in one call and relies on it."""
    offer = ap.offer_curve(agent_of(data.draw, kind, model))
    knots = np.array(offer.knot_prices)
    top = 1.2 * offer.price_cap
    prices = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, 0.0),
                             data.draw(st.lists(st.floats(0.0, top), min_size=1, max_size=60))])
    prices = np.array(data.draw(st.permutations(prices.tolist())))
    batch = offer.eval(prices).tolist()
    assert batch == [float(offer.eval(prices[i : i + 1])[0]) for i in range(len(prices))]
    assert batch == [offer.eval(p) for p in prices.tolist()]


@pytest.mark.parametrize("kind", LAW_KINDS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_public_offer_equals_its_own_form(kind, data):
    """A public budget w is priced as its one-atom budget law, to the bit of
    S(p) min(1, w/p): with w at 0, on an atom or knot of the value law,
    above the top value or anywhere, at prices at w and its neighbouring
    floats, on the knots and across the support."""
    F = data.draw(law_of(kind))
    special = [0.0, F.lo, F.hi] + [a for a, _ in F.atoms]
    w = data.draw(st.one_of(st.sampled_from(special), st.floats(0.0, 5.0),
                            st.floats(float(np.nextafter(F.hi, np.inf)), 2.0 * F.hi + 1.0)))
    offer = ap.offer_curve(Agent(model="public-budget", values=F, budget=w))
    assert w in offer.knot_prices and offer.price_cap == F.hi
    knots = np.array(offer.knot_prices)
    prices = np.concatenate([[w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)], knots,
                             data.draw(st.lists(st.floats(0.0, 1.2 * F.hi + w), min_size=1, max_size=40))])
    assert offer.eval(prices).tobytes() == public_budget_offer(F, w, prices).tobytes()


@pytest.mark.parametrize("kind", LAW_KINDS)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_hull_price_does_not_depend_on_its_batch(kind, data):
    """A hull prices a batch with the bits it gives each price
    alone: sorted and shuffled, with fewer prices than knots (searched) and
    with more (sorted ones merged)."""
    offer = with_bisection_inverse(ap.offer_curve(agent_of(data.draw, kind, data.draw(st.sampled_from(MODELS)))))
    hull = ap.concave_hull(ap.price_posting_curve(offer, grid=64))
    K = len(hull.qs)
    more = data.draw(st.booleans())
    n = data.draw(st.integers(K + 1, K + 40) if more else st.integers(1, max(1, K - 1)))
    reach = -hull._price_reach()
    top = 1.2 * float(reach[0]) + 1e-9
    prices = data.draw(st.lists(st.one_of(st.floats(0.0, top), st.sampled_from(reach[np.isfinite(reach)].tolist())),
                                min_size=n, max_size=n))
    alone = [float(ap.quantiles_at_prices(np.array([p]), hull)[0]) for p in prices]
    order = np.argsort(prices, kind="stable")
    ordered = np.array(prices)[order]
    assert (len(ordered) > K) == more   # the merge path runs on the sorted prices exactly when there are more
    assert ap.quantiles_at_prices(ordered, hull).tolist() == [alone[i] for i in order]
    shuffled = data.draw(st.permutations(range(n)))
    assert ap.quantiles_at_prices(np.array(prices)[shuffled], hull).tolist() == [alone[i] for i in shuffled]


def test_posting_curve_at_a_subnormal_value_floor():
    """A value law starting at a subnormal price puts that price on the grid;
    there the budget's expected spend read above the price, so the sale
    probability read 1 + 4.7e-10 and the curve's last knot was past 1."""
    agent = Agent(model="private-budget", values=Distribution.uniform(2.2250738585e-313, 1.0),
                  budgets=Distribution.uniform(0.0, 0.01), id="pr")
    offer = with_bisection_inverse(ap.offer_curve(agent))
    assert offer.eval(2.2250738563e-313) <= 1.0
    assert ap.price_posting_curve(offer, grid=64).qs[-1] == 1.0


# -- the offer's inverse ------------------------------------------------------

SWEEP_QS = np.linspace(1e-6, 1.0 - 1e-6, 2048)   # the quantile-spread grid of the default sweep
GAPPED = Distribution.discrete([0.5, 1.0, 3.0], [0.2, 0.5, 0.3])                 # atoms, gaps between them
FLAT = Distribution.piecewise_linear_cdf([(0, 0), (1, 0.4), (2, 0.4), (3, 1)])   # no value in (1, 2)
AT_ZERO = Distribution.point_mass(0.0)                                           # price cap 0


def budget_agent(F, budgets):
    return Agent(model="private-budget", values=F, budgets=Distribution.discrete(*zip(*budgets)))


@st.composite
def offer_agent(draw):
    """An agent of any model with an offer, on a value law of any kind."""
    return agent_of(draw, draw(st.sampled_from(LAW_KINDS)), draw(st.sampled_from(MODELS)))


@given(offer_agent(), st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=20))
@example(Agent(model="linear", values=GAPPED), [0.3, 0.8])
@example(Agent(model="linear", values=ap.discretize(Distribution.uniform(0, 1), 12)), [0.5])   # 1 - F reads 0.5 + 1 ulp
@example(Agent(model="capacitated", values=FLAT, capacity=1.5), [0.6])
@example(Agent(model="public-budget", values=FLAT, budget=1.5), [0.3])
@example(Agent(model="linear", values=AT_ZERO), [])
@example(Agent(model="public-budget", values=AT_ZERO, budget=0.0), [])
@example(Agent(model="public-budget", values=GAPPED, budget=0.0), [])
@example(Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.0), [])
@example(budget_agent(GAPPED, [(0.0, 0.4), (0.7, 0.6)]), [])            # a budget atom at 0
@example(budget_agent(GAPPED, [(0.2, 0.5), (5.0, 0.5)]), [])            # a budget atom above F.hi
@example(budget_agent(GAPPED, [(0.3, 0.4), (math.inf, 0.6)]), [])       # no budget, with mass 0.6
@example(budget_agent(ap.discretize(FLAT, 9), [(0.0, 0.2), (2.5, 0.3), (math.inf, 0.5)]), [])
# the atom at 1e-20 adds nothing the sum keeps, so the offer at 0.38 reads
# 0.7 - 2 ulps: q = 0.7 = S B sells on the piece below 0.38 but for rounding
@example(budget_agent(Distribution.discrete([0.38, 3.0], [0.5, 0.5]), [(1e-20, 0.3), (5.0, 0.7)]), [0.7])
@example(budget_agent(FLAT, [(0.0, 0.2), (2.5, 0.3), (math.inf, 0.5)]), [])
@settings(max_examples=300, deadline=None)
def test_inverse_is_the_largest_price_that_sells_q(agent, extra):
    """offer.inverse(q) sells q, and the offer 1e-9 of the cap above it (the
    next float, at cap 0) does not: on atoms, gaps and flat stretches of F,
    with a budget atom at 0, above F.hi or at +inf, and at public budget 0.

    The offer is read 2^-50 of the cap (four ulps) below the price: the
    price's own last bits move 1 - F by up to 2.8e-14 on uniform(2,
    2.015625), where the slope is 64 per unit.  The slack in q is absolute:
    1 - F rounds at about 2.2e-16, past any relative slack at q = 1e-6.
    A budget offer on a non-discrete law is read through the bisection
    reference, as it has no inverse of its own."""
    offer = with_bisection_inverse(ap.offer_curve(agent))
    qs = np.concatenate([SWEEP_QS, extra])
    prices = offer.inverse(qs)
    cap = offer.price_cap
    assert np.all((prices >= 0.0) & (prices <= cap))
    assert np.all(offer.eval(np.maximum(prices - 2.0 ** -50 * cap, 0.0)) >= qs - 1e-14)
    above = prices + 1e-9 * cap if cap > 0 else np.nextafter(prices, np.inf)
    assert np.all(offer.eval(above) < qs)


# draws of `test_budget_closed_form_is_the_bisection_limit` that failed it
# before the closed form stepped down to a float that sells q: the first two
# lay past the bisection by 7e-15 and 1e-15 more than the test allows, the
# third needed 67 float steps.  With the offer read as S (A/p + B), the
# closed form reads short at 49, 46 and 46 of these sweeps' quantiles, by up
# to 29, 2 and 1 floats
RECORDED_DRAWS = [
    (Distribution.discrete([0.25, 0.5, 0.875, 1, 2, 2.9285529436004527], [1 / 24, 1 / 6, 1 / 24, 1 / 24, 1 / 3, 3 / 8]),
     Distribution.discrete([0.01, 0.05, 1, 2], [0.1, 0.05, 0.4, 0.45]), 0.6761110302882266),
    (Distribution.discrete([2.943736326633167], [1]),
     Distribution.discrete([0.01, 0.5, 1, 1.25, 1.5, 1.625, 1.75, 2, 3], [2 / 53, 1 / 53, 1 / 53, 4 / 53] + [9 / 53] * 5),
     0.9648256458231558),
    (Distribution.discrete([1.0], [1.0]), ap.discretize(Distribution.exponential(0.5, 0.375), 23), 0.9995104811919883),
]


DISCRETE_LAWS = st.sampled_from(["discrete", "discretized"]).flatmap(law_of)


@pytest.mark.parametrize("model", ["public-budget", "private-budget"])
@given(F=DISCRETE_LAWS, w=st.floats(0.0, 5.0), G=DISCRETE_LAWS,
       extra=st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=20))
@example(F=RECORDED_DRAWS[0][0], w=1.0, G=RECORDED_DRAWS[0][1], extra=[RECORDED_DRAWS[0][2]])
@example(F=RECORDED_DRAWS[1][0], w=1.0, G=RECORDED_DRAWS[1][1], extra=[RECORDED_DRAWS[1][2]])
@example(F=RECORDED_DRAWS[2][0], w=1.0, G=RECORDED_DRAWS[2][1], extra=[RECORDED_DRAWS[2][2]])
@settings(max_examples=40, deadline=None)
def test_budget_closed_form_is_the_bisection_limit(model, F, w, G, extra):
    """On discrete laws the budget offer's closed-form inverse lies at or
    above the 40-round bisection, by at most that bisection's last bracket,
    2^-40 cap (1 + 1e-9), and 2^-50 cap more for rounding.

    The bisection keeps any price at which q(p) reads q in floats, and
    where the offer is nearly flat it reads q well past the exact sup
    (3.1e-15 of the cap past it on a draw with slope -0.003).  So the
    closed form may lie lower by more than 2^-50 cap only where the offer
    reads the same at both prices, to 2^-50."""
    if model == "public-budget":
        agent = Agent(model=model, values=F, budget=w)
    else:
        agent = Agent(model=model, values=F, budgets=G)
    offer = ap.offer_curve(agent)
    assert offer.inverse is not None
    qs = np.concatenate([SWEEP_QS, extra])
    got, ref = offer.inverse(qs), bisection_inverse(offer, qs)
    slack = 2.0 ** -50 * offer.price_cap
    assert np.all(got <= ref + 2.0 ** -40 * offer.price_cap * (1.0 + 1e-9) + slack)
    lower = got < ref - slack
    assert np.all(offer.eval(got[lower]) - offer.eval(ref[lower]) <= 2.0 ** -50)


@given(F=DISCRETE_LAWS, G=DISCRETE_LAWS, p=st.floats(1e-3, 5.0))
@settings(max_examples=40, deadline=None)
def test_budget_offer_never_rises_between_atoms(F, G, p):
    """On discrete laws the budget offer, as computed, never rises from one
    float price to the next within a piece (b_j, b_{j+1}] between atoms, so
    its inverse's last float that sells q is the one a bisection finds."""
    offer = ap.offer_curve(Agent(model="private-budget", values=F, budgets=G))
    ps = (np.float64(p).view(np.int64) + np.arange(512)).view(float)
    piece = np.searchsorted(offer.knot_prices, ps, side="left")
    assert np.all(np.diff(offer.eval(ps[piece == piece[0]])) <= 0.0)


@pytest.mark.parametrize(("F", "G", "q"), RECORDED_DRAWS)
def test_recorded_draws_sell_q_at_their_closed_form(F, G, q):
    offer = ap.offer_curve(Agent(model="private-budget", values=F, budgets=G))
    qs = np.append(SWEEP_QS, q)
    assert np.all(offer.eval(offer.inverse(qs)) >= qs)


def test_step_down_finds_the_last_float_that_sells():
    """On an offer that reads 1 - p, exactly, above its left end 0.25 and 1
    at it, each short price steps down to the one float where the offer
    first reads q: from 1, 2, 3, 67, 1000 and 2^20 floats above it, and to
    the left end, where alone the offer reads 0.9."""
    ups = [1, 2, 3, 67, 1000, 1 << 20]
    short = np.array([0.5 + k * np.spacing(0.5) for k in ups] + [0.5])
    q = np.array([0.5] * len(ups) + [0.9])
    offer = lambda p: np.where(p <= 0.25, 1.0, 1.0 - p)
    got = _step_down_to_q(offer, short, np.full(len(short), 0.25), q)
    assert got.tolist() == [0.5] * len(ups) + [0.25]


def swept_budget_offers(tmp_path, monkeypatch):
    """(name, offer, grid) for every budget offer `build_curves` sweeps on
    the benchmark's `budget-lp` seeds 1-3 and on the budget fixtures."""
    workloads = load_workloads(monkeypatch)
    for seed in (1, 2, 3):
        doc = workloads.budget_lp_scenario(seed)
        path = tmp_path / f"{seed}.json"
        path.write_bytes(workloads.scenario_bytes(doc))
        scenario = load_scenario(path)
        for a in scenario.agents:
            yield f"budget-lp:{seed}:{a.id}", build_curves(a, scenario.oracle).sellable, scenario.oracle.price_grid
    config = OracleConfig()
    for name in ("public-budget", "private-uniform-mhr", "mhr-fail", "correlated-fail"):
        for a in ap.get_fixture(name).agents:
            if a.model in ("public-budget", "private-budget"):
                yield f"{name}:{a.id}", build_curves(a, config).sellable, config.price_grid


def test_every_spread_price_sells_its_quantile(tmp_path, monkeypatch):
    """At every quantile-spread price the sweep asks for, the offer reads at
    least the quantile the price was found for: the offer as the sweep
    reads it, at the price the closed form gives after its float steps."""
    swept = 0
    for name, offer, grid in swept_budget_offers(tmp_path, monkeypatch):
        qs = np.linspace(1e-6, 1.0 - 1e-6, grid // 2)
        short = np.flatnonzero(offer.eval(offer.inverse(qs)) < qs)
        assert short.size == 0, (name, qs[short[:3]])
        swept += qs.size
    assert swept > 26_000


def _count_offer_calls(offer, grid):
    """The posting curve of `offer` and how many times the sweep evaluated it."""
    calls = []

    def counted(p):
        calls.append(1)
        return offer.fn(p)

    return ap.price_posting_curve(replace(offer, fn=counted), grid=grid), len(calls)


@pytest.mark.parametrize("agent", [
    Agent(model="linear", values=Distribution.exponential(2.0, 1.5)),
    Agent(model="capacitated", values=Distribution.equal_revenue(10), capacity=3.0),
    Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3),
    Agent(model="private-budget", values=Distribution.uniform(0, 1), budgets=Distribution.exponential(2.0, 1.5)),
], ids=lambda a: a.model)
def test_sweep_evaluates_each_offer_of_build_curves_at_most_twice(agent):
    """The sweep takes its quantile-spread prices from one call of the
    offer's closed-form inverse and reads the offer itself at most twice:
    on every offer that `build_curves` makes, the same curve."""
    config = OracleConfig()
    rec = build_curves(agent, config)
    counted, calls = _count_offer_calls(rec.sellable, config.price_grid)
    assert calls <= 2
    assert counted.qs.tobytes() == rec.P.qs.tobytes() and counted.values.tobytes() == rec.P.values.tobytes()


@pytest.mark.parametrize("agent", [
    Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3),
    Agent(model="private-budget", values=Distribution.uniform(0, 1), budgets=Distribution.uniform(0, 1)),
    Agent(model="private-budget", values=GAPPED, budgets=Distribution.exponential(2.0, 1.5)),
], ids=["public", "uniform", "discrete-exponential"])
def test_posting_sweep_needs_a_closed_inverse(agent):
    """A budget offer on a non-discrete law has no closed-form inverse: the
    sweep refuses it before it reads the offer once, and says to discretize
    the laws first, while anonymous pricing still prices it."""
    offer = ap.offer_curve(agent)
    assert offer.inverse is None
    calls = []
    counted = replace(offer, fn=lambda p: calls.append(1) or offer.fn(p))
    with pytest.raises(ValueError, match="discretize the value and budget laws first"):
        ap.price_posting_curve(counted)
    assert calls == []
    assert ap.ap_optimize([offer], grid=512).revenue > 0.0
