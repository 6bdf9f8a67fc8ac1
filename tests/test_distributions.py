"""Distribution evaluators, diagnostics, and discretization."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import anonpricing as ap
from anonpricing import Distribution
from anonpricing.cli import load_scenario

from helpers import (expected_min_quadrature, loop_discretize, pointwise_regular_and_mhr, scalar_piecewise_expected_min,
                     survival_quadrature_mean)


def builtins():
    return [
        Distribution.uniform(0, 1),
        Distribution.uniform(0.5, 3.0),
        Distribution.equal_revenue(10),
        Distribution.exponential(1.0),
        Distribution.exponential(2.0, hi=4.0),
        Distribution.point_mass(3.0),
        Distribution.discrete([1, 2], [0.5, 0.5]),
        Distribution.piecewise_linear_cdf([(0.0, 0.0), (0.5, 0.25), (2.0, 1.0)]),
    ]


class TestCdf:
    def test_uniform(self):
        assert Distribution.uniform(0, 1).cdf(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_equal_revenue_body(self):
        assert Distribution.equal_revenue(10).cdf(2.0) == pytest.approx(0.5, abs=1e-15)

    def test_equal_revenue_atom_closes_mass(self):
        d = Distribution.equal_revenue(10)
        assert d.cdf(10.0) == 1.0
        assert d.cdf_left(10.0) == pytest.approx(0.9, abs=1e-15)

    def test_bounds_and_monotonicity(self):
        for d in builtins():
            xs = np.linspace(d.lo - 1.0, d.hi + 1.0, 257)
            ys = np.asarray(d.cdf(xs))
            assert np.all(ys >= 0.0) and np.all(ys <= 1.0)
            assert np.all(np.diff(ys) >= -1e-12)
            assert d.cdf(d.lo - 1e-9) == 0.0
            assert d.cdf(d.hi) == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            Distribution.discrete([1, 2], [0.5, 0.6])

    @pytest.mark.parametrize("values, probs, match", [
        ([math.nan, 1.0], [0.5, 0.5], "NaN or -inf"),
        ([-math.inf, 1.0], [0.5, 0.5], "NaN or -inf"),
        ([1.0, 2.0], [math.nan, 1.0], "finite"),   # NaN passes both f <= 0 and the sum check
        ([1.0, 2.0], [math.inf, 1.0], "finite"),
    ])
    def test_non_finite_discrete_law_rejected(self, values, probs, match):
        with pytest.raises(ValueError, match=match):
            Distribution.discrete(values, probs)

    @pytest.mark.parametrize("knots", [[(0, 0), (1, math.nan), (2, 1)], [(0, 0), (math.nan, 0.5), (2, 1)],
                                       [(0, 0), (1, 0.5), (math.inf, 1)]])
    def test_non_finite_piecewise_knot_rejected(self, knots):
        with pytest.raises(ValueError, match="finite"):
            Distribution.piecewise_linear_cdf(knots)

    def test_infinite_value_atom_allowed(self):
        # the oracle reads a +inf budget atom as "no budget"
        d = Distribution.discrete([1.0, math.inf], [0.5, 0.5])
        assert d.hi == math.inf and Distribution.discrete([math.inf], [1.0]).lo == math.inf

    def test_repr_shows_array_parameters(self):
        assert repr(Distribution.point_mass(3.0)) == "Distribution.discrete(values=[3.0], probs=[1.0])"
        d = Distribution.piecewise_linear_cdf([(0, 0), (1, 0.5), (2, 1)])
        assert repr(d) == "Distribution.piecewise_linear_cdf(xs=[0.0, 1.0, 2.0], fs=[0.0, 0.5, 1.0])"
        assert repr(Distribution.uniform(0, 1)) == "Distribution.uniform(a=0.0, b=1.0)"


    def test_discrete_table_capped_at_one(self):
        # 60 masses of 1/60 sum to 1 + 1.3e-15; no probability may leave [0, 1]
        probs = np.full(60, 1 / 60)
        assert np.cumsum(probs)[-1] > 1.0
        d = Distribution.discrete(np.arange(1, 61) / 60, probs)
        above = np.array([1.0, 1.5])
        assert np.array_equal(d.cdf(above), [1.0, 1.0]) and np.array_equal(d.cdf_left(above[1:]), [1.0])
        assert np.array_equal(d.survival_left(above[1:]), [0.0]) and np.array_equal(d.survival(above), [0.0, 0.0])
        assert d.survival_left(1.0) == pytest.approx(1 / 60, abs=1e-14)

    def test_discrete_table_ends_at_one(self):
        # the running sum of many discretized laws ends just below 1; none may
        # sell above its top value
        laws = (Distribution.uniform(0, 1), Distribution.exponential(2.0, 1.5), Distribution.equal_revenue(10),
                Distribution.uniform(0, 0.77))
        short = 0
        for law in laws:
            for n in range(2, 200):
                d = ap.discretize(law, n)
                short += bool(np.cumsum(d.params["probs"])[-1] < 1.0)
                assert d.cdf_table[-1] == 1.0
                above = np.nextafter(d.hi, np.inf)
                assert d.cdf_left(above) == 1.0 and d.survival_left(above) == 0.0
        assert short > 0

    def test_tables_are_read_only(self):
        # built once at construction and shared by every evaluation
        d = Distribution.discrete([1.0, 2.0, 4.0], [0.25, 0.25, 0.5])
        pl = Distribution.piecewise_linear_cdf([(0.0, 0.0), (0.5, 0.25), (2.0, 1.0)])
        tables = {"cdf_table": [0.0, 0.25, 0.5, 1.0], "mean_below": [0.0, 0.25, 0.75, 2.75],
                  "mass_above": [1.0, 0.75, 0.5, 0.0]}
        for name, want in tables.items():
            assert getattr(d, name).tolist() == want
        assert pl.survival_integral.tolist() == [0.0, 0.4375, 1.0]
        for table in [getattr(d, name) for name in tables] + [pl.survival_integral]:
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.5


class TestInverseDemand:
    def test_uniform(self):
        assert Distribution.uniform(0, 1).inverse_demand(0.3) == pytest.approx(0.7, abs=1e-15)

    def test_equal_revenue_atom_region(self):
        d = Distribution.equal_revenue(10)
        assert d.inverse_demand(0.05) == 10.0
        assert d.inverse_demand(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_sure_sale_reaches_past_a_flat_start(self):
        # no value lies below 1, so every price up to 1 sells surely: V(1) = 1
        d = Distribution.piecewise_linear_cdf([(0, 0), (1, 0), (2, 0.5), (3, 0.5), (4, 1)])
        assert np.asarray(d.inverse_demand([1.0, 0.75, 0.5, 0.25, 0.0])).tolist() == [1.0, 1.5, 3.0, 3.5, 4.0]

    def test_nonincreasing(self):
        for d in builtins():
            qs = np.linspace(0, 1, 513)
            vs = np.asarray(d.inverse_demand(qs))
            assert np.all(np.diff(vs) <= 1e-12)

    def test_round_trip(self):
        # V(1 - F(v)) >= v, and equality off atoms/gaps; survival() is the
        # tail-stable form of 1 - F
        for d in builtins():
            vs = np.linspace(d.lo, d.hi, 1000)
            q = np.asarray(d.survival(vs))
            back = np.asarray(d.inverse_demand(q))
            assert np.all(back >= vs - 1e-9)
            if d.kind in ("uniform", "equal-revenue", "exponential"):
                interior = (vs > d.lo) & (vs < d.hi * (1 - 1e-12))
                assert np.max(np.abs(back[interior] - vs[interior])) <= 1e-9


class TestRegularity:
    def test_uniform_regular(self):
        assert ap.regularity_report(Distribution.uniform(0, 1))

    def test_equal_revenue_regular(self):
        assert ap.regularity_report(Distribution.equal_revenue(10))

    def test_two_point_discrete_not_regular(self):
        # oracle: enumerate q*V(q) across the support gap and check the
        # second difference by hand; the jump at q=1/2 is a convex kink
        d = Distribution.discrete([1, 2], [0.5, 0.5])
        q = np.linspace(0, 1, 1024)
        y = q * np.asarray(d.inverse_demand(q))
        second = y[2:] - 2 * y[1:-1] + y[:-2]
        assert second.max() > 1e-3  # the raw curve genuinely kinks upward
        assert not ap.regularity_report(d)

    def test_degenerate_support_regular(self):
        assert ap.regularity_report(Distribution.point_mass(2.0))

    @pytest.mark.parametrize("i", [5, 6])
    def test_narrow_tooth_not_regular(self, i):
        # mass 4^-i at 4^i and the rest at 0: q*V(q) drops at q = 4^-i,
        # which lies inside the first 1/1023 of the quantile axis
        d = Distribution.discrete([0.0, 4.0 ** i], [1.0 - 4.0 ** -i, 4.0 ** -i])
        assert pointwise_regular_and_mhr(d) == (False, False)
        assert not ap.regularity_report(d)


class TestMhr:
    def test_uniform_mhr(self):
        assert ap.mhr_report(Distribution.uniform(0, 1))

    def test_truncated_exponential_mhr(self):
        assert ap.mhr_report(Distribution.exponential(1.0, hi=10.0))

    def test_equal_revenue_not_mhr(self):
        # hazard is 1/x on the body: strictly decreasing
        assert not ap.mhr_report(Distribution.equal_revenue(10))

    def test_interior_gap_is_neither_mhr_nor_regular(self):
        d = Distribution.piecewise_linear_cdf([(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 1.0)])
        assert not ap.mhr_report(d)
        assert not ap.regularity_report(d)

    @pytest.mark.parametrize("knots", [
        [(0, 0), (0.5, 0.8), (1, 1)],                  # the density falls from 1.6 to 0.4
        [(0, 0), (0.5, 0.5), (0.6, 0.5), (1, 1)],      # a massless piece inside the support
    ])
    def test_falling_density_not_mhr(self, knots):
        d = Distribution.piecewise_linear_cdf(knots)
        assert pointwise_regular_and_mhr(d) == (False, False)
        assert not ap.mhr_report(d)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# each law of every built-in fixture and benchmark workload, as the
# verifier reads it: "R" regular or "-", then "M" MHR or "-"; value laws in
# agent order, then the private budget laws.  The 1024-point samplers these
# rules replaced read every one of them the same way.
LAW_READINGS = {
    "uniform-linear": "RM RM",
    "equal-revenue": "R-",
    "public-budget": "RM",
    "private-uniform-mhr": "RM  RM",
    "mhr-fail": "RM RM RM RM RM  RM -- -- -- --",
    "correlated-fail": "",
    "risk-equal-revenue": "R-",
    "overpay": "R-",
    "tightness": "",
    "budget-lp": "RM RM RM RM  RM RM",
    "many-linear": " ".join(["RM RM R- --"] * 4),
    "capacitated": "R-",
}


def _readings(agents):
    def read(laws):
        return " ".join(("R" if ap.regularity_report(d) else "-") + ("M" if ap.mhr_report(d) else "-") for d in laws)

    budgets = read(a.budgets for a in agents if a.model == "private-budget")
    return read(a.values for a in agents if a.model != "synthetic") + ("  " + budgets if budgets else "")


@pytest.mark.parametrize("fixture", [fx["name"] for fx in ap.fixtures()])
def test_fixture_laws_read_as_pinned(fixture):
    assert _readings(ap.get_fixture(fixture).agents) == LAW_READINGS[fixture]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_workload_laws_read_as_pinned(seed, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look their module up here
    spec.loader.exec_module(workloads)
    for make in (workloads.budget_lp_scenario, workloads.many_linear_scenario):
        doc = make(seed)
        path = tmp_path / f"{doc['name']}.json"
        path.write_bytes(workloads.scenario_bytes(doc))
        assert _readings(load_scenario(path).agents) == LAW_READINGS[doc["name"].rsplit("-", 1)[0]]
    capacitated = ap.get_fixture("risk-equal-revenue", **workloads.capacitated_params(seed))
    assert _readings(capacitated.agents) == LAW_READINGS["capacitated"]


@st.composite
def piecewise_or_discrete(draw):
    """A discrete law on up to 6 integer values, or a piecewise-linear CDF
    of 2-6 pieces with integer widths and masses (some massless), scaled
    and shifted; a piece may be split in two at a rounded knot, so that the
    two halves' densities differ only by rounding."""
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
        weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values))), dtype=float)
        return Distribution.discrete(np.array(values) * draw(st.floats(0.1, 10.0)), weights / weights.sum())
    n = draw(st.integers(2, 6))
    widths = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    masses = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n).filter(any))
    x0, scale = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 100.0))
    xs = x0 + scale * np.concatenate([[0.0], np.cumsum(widths)])
    fs = np.concatenate([[0.0], np.cumsum(masses) / sum(masses)])
    for k in sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)), reverse=True):
        t = draw(st.floats(0.05, 0.95))
        xs = np.insert(xs, k + 1, xs[k] + t * (xs[k + 1] - xs[k]))
        fs = np.insert(fs, k + 1, fs[k] + t * (fs[k + 1] - fs[k]))
    return Distribution.piecewise_linear_cdf(list(zip(xs, fs)))


@given(piecewise_or_discrete())
@settings(max_examples=100, deadline=None)
def test_regularity_and_mhr_match_the_pointwise_reading(d):
    """The rules read from the law's form agree with the virtual value, the
    hazard and q*V(q) read just left and right of every knot or atom."""
    assert (ap.regularity_report(d), ap.mhr_report(d)) == pointwise_regular_and_mhr(d)


class TestExceedMean:
    def test_uniform(self):
        assert Distribution.uniform(0, 1).exceed_mean_probability() == pytest.approx(0.5, abs=1e-12)

    def test_exponential_near_limit(self):
        got = Distribution.exponential(1.0).exceed_mean_probability()
        assert got == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_point_mass(self):
        assert Distribution.point_mass(2.0).exceed_mean_probability() == 1.0

    def test_mhr_builtins_at_least_1_over_e(self):
        for d in (
            Distribution.uniform(0, 1),
            Distribution.uniform(0.5, 3.0),
            Distribution.exponential(1.0),
            Distribution.exponential(2.0, hi=4.0),
            Distribution.point_mass(3.0),
        ):
            assert d.exceed_mean_probability() >= 1.0 / math.e - 1e-6

    def test_mean_matches_quadrature(self):
        for d in builtins():
            assert d.mean() == pytest.approx(survival_quadrature_mean(d), abs=1e-8)

    def test_expected_min_matches_quadrature(self):
        for d in builtins():
            for p in (0.2, 0.9, 1.7):
                assert d.expected_min(p) == pytest.approx(expected_min_quadrature(d, p), abs=1e-8)

    def test_discrete_expected_min_does_not_depend_on_the_batch(self):
        # a BLAS matrix-vector product rounds a row differently with the
        # number of rows around it; each price must get its own bits
        rng = np.random.default_rng(3)
        for m in (3, 17, 40):
            d = Distribution.discrete(np.sort(rng.uniform(0, 2, m)), np.full(m, 1 / m))
            prices = rng.uniform(0, 2.2, 203)
            batch = d.expected_min(prices)
            assert np.array_equal(batch[5:150], d.expected_min(prices[5:150]))
            assert [d.expected_min(p) for p in prices[:40].tolist()] == batch[:40].tolist()


class TestDiscretize:
    def test_uniform_two_points(self):
        d = ap.discretize(Distribution.uniform(0, 1), 2)
        assert np.allclose(d.params["values"], [0.25, 0.75])
        assert np.allclose(d.params["probs"], [0.5, 0.5])

    def test_point_mass_identity(self):
        # a point mass is the one-atom discrete law, so it is its own discretization
        d = Distribution.point_mass(3.0)
        assert d.kind == "discrete"
        assert d.params["values"].tolist() == [3.0]
        assert d.params["probs"].tolist() == [1.0]
        for n in (1, 2, 7):
            assert ap.discretize(d, n) is d

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
    def test_point_mass_must_be_finite(self, v):
        with pytest.raises(ValueError, match="finite"):
            Distribution.point_mass(v)

    def test_discrete_law_returned_unchanged(self):
        # a discrete law is already its own discretization, for every n
        d = Distribution.discrete([0.5, 1.0, 2.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        for n in (1, 2, 3, 100):
            assert ap.discretize(d, n) is d

    def test_equal_revenue_keeps_atom(self):
        d = ap.discretize(Distribution.equal_revenue(10), 4)
        vals, probs = d.params["values"], d.params["probs"]
        assert vals[-1] == 10.0 and probs[-1] == pytest.approx(0.1, abs=1e-12)
        # continuous part: quantile midpoints of [0.1, 1] at masses 0.3
        assert np.allclose(vals[:-1], [1.0 / 0.85, 1.0 / 0.55, 1.0 / 0.25])
        assert np.allclose(probs[:-1], [0.3, 0.3, 0.3])

    def test_masses_sum_to_one(self):
        for d in builtins():
            for n in (2, 5, 17):
                disc = ap.discretize(d, n)
                assert abs(disc.params["probs"].sum() - 1.0) <= 1e-12

    def test_mean_error_shrinks(self):
        d = Distribution.equal_revenue(10)
        errs = [abs(ap.discretize(d, n).mean() - d.mean()) for n in (8, 32, 128)]
        assert errs[2] < errs[0]
        assert errs[2] <= 10.0 / 128

    def test_discretized_regular_law_stays_near_regular(self):
        # the posting curve of the discretization keeps concavity up to 2/n
        # of the curve's height (quantile midpoints make the kinks cancel)
        for base in (Distribution.uniform(0, 1), Distribution.equal_revenue(10)):
            for n in (16, 64):
                agent = ap.Agent(model="linear", values=ap.discretize(base, n), id="d")
                curve = ap.price_posting_curve(ap.offer_curve(agent))
                q = np.linspace(0.0, 1.0, 4 * n)
                y = np.asarray(curve.eval(q))
                second = y[2:] - 2 * y[1:-1] + y[:-2]
                assert second.max() <= 2.0 / n * y.max()

    def test_n_validated(self):
        with pytest.raises(ValueError):
            ap.discretize(Distribution.uniform(0, 1), 1)


@given(
    a=st.floats(min_value=-5, max_value=5, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=10, allow_nan=False),
    x=st.floats(min_value=-20, max_value=20, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_uniform_cdf_properties(a, width, x):
    d = Distribution.uniform(a, a + width)
    y = d.cdf(x)
    assert 0.0 <= y <= 1.0
    assert d.cdf(x + 0.1) >= y


@given(q=st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_inverse_demand_within_support(q):
    for d in (Distribution.uniform(0, 1), Distribution.equal_revenue(10)):
        v = d.inverse_demand(q)
        assert d.lo - 1e-12 <= v <= d.hi + 1e-12


POSITIVE = st.floats(0.01, 5.0)
PIECEWISE = st.builds(
    lambda a, widths, rises: Distribution.piecewise_linear_cdf(
        list(zip(a + np.concatenate([[0.0], np.cumsum(widths)]), np.concatenate([[0.0], np.cumsum(rises) / sum(rises)])))),
    st.floats(0.0, 3.0), st.lists(POSITIVE, min_size=3, max_size=3),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=3, max_size=3).filter(lambda r: sum(r) > 0))
CONTINUOUS = st.one_of(
    st.builds(lambda a, w: Distribution.uniform(a, a + w), st.floats(0.0, 5.0), POSITIVE),
    st.builds(Distribution.equal_revenue, st.floats(1.01, 200.0)),
    st.builds(Distribution.exponential, st.floats(0.1, 5.0), st.floats(0.1, 10.0)),
    PIECEWISE,
)


@given(CONTINUOUS, st.integers(2, 300))
@example(Distribution.uniform(1.0, 1.0 + 1e-14), 300)   # midpoints an ulp apart: 300 chunks on 46 values
@settings(max_examples=200, deadline=None)
def test_discretize_equals_the_loop(law, n):
    """The array form gives the per-chunk loop's values and masses bit for bit."""
    got, want = ap.discretize(law, n), loop_discretize(law, n)
    assert got.params["values"].tobytes() == want.params["values"].tobytes()
    assert got.params["probs"].tobytes() == want.params["probs"].tobytes()


@given(PIECEWISE, st.lists(st.floats(-1.0, 1.2), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_piecewise_expected_min_equals_the_scalar_form(law, fractions):
    """One batched call gives each price the scalar form's bits: at random
    prices, on the knots and their neighbouring floats, below the first
    knot and above the last one."""
    xs = law.params["xs"]
    lo, hi = float(xs[0]), float(xs[-1])
    prices = np.concatenate([lo + np.array(fractions) * (hi - lo), xs, np.nextafter(xs, -np.inf),
                             np.nextafter(xs, np.inf), [lo - 1.0, hi + 1.0, 0.0, -0.0, np.inf]])
    want = np.array([scalar_piecewise_expected_min(law, p) for p in prices.tolist()])
    assert law.expected_min(prices).tobytes() == want.tobytes()


@given(st.one_of(st.builds(Distribution.uniform, st.just(0.0), st.floats(1e-3, 10.0)),
                 st.builds(Distribution.exponential, st.floats(0.1, 5.0), st.floats(0.1, 5.0))),
       st.one_of(st.floats(0.0, 1e-300), st.floats(0.0, 1e-12), st.floats(0.0, 10.0)))
@example(Distribution.uniform(0.0, 0.01), 3.3e-320)                  # the product read 1.003 p
@example(Distribution.uniform(0.0, 0.01), 2.2250738563e-313)
@example(Distribution.exponential(0.7, 1.5), 5.6e-16)
@settings(max_examples=300, deadline=None)
def test_expected_min_never_exceeds_the_price(d, p):
    """E[min(X, p)] <= p, at subnormal and tiny prices too, where the closed
    forms round up."""
    assert d.expected_min(p) <= p
    assert np.all(d.expected_min(np.array([p, p])) <= p)
