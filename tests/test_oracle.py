"""The generic LP solve, the exact ex-ante curve of the discrete LP, and the grid-search EAR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anonpricing as ap
from anonpricing import Distribution, ex_ante_curve_oracle, oracle, simplex_solve

from helpers import brute_force_ear, enumerate_lp_max, ex_ante_lp_matrices


class TestSimplex:
    def test_box(self):
        sol = simplex_solve([1, 1], [[1, 1]], ["<="], [1])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        sol = simplex_solve([1], [[1]], ["<="], [-1])
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = simplex_solve([1], [], [], [])
        assert sol.status == "unbounded"

    def test_equality_and_ge(self):
        # max x + 2y s.t. x + y = 1, y >= 0.25 -> (0.75, 0.25)... y large is
        # better: x=0, y=1 gives 2
        sol = simplex_solve([1, 2], [[1, 1], [0, 1]], ["=", ">="], [1, 0.25])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(sol.x, [0.0, 1.0], atol=1e-9)

    def test_upper_bounds(self):
        sol = simplex_solve([1, 1], [[1, 1]], ["<="], [5], upper=[0.5, 2.0])
        assert sol.objective == pytest.approx(2.5, abs=1e-9)

    def test_minimize(self):
        sol = simplex_solve([1, 1], [[1, 1]], [">="], [1], maximize=False)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simplex_solve([1, 1], [[1]], ["<="], [1])

    @pytest.mark.parametrize("cap", [None, math.inf])
    def test_unbounded_upper_entry(self, cap):
        sol = simplex_solve([1, 1], [[1, 1]], ["<="], [5], upper=[cap, 2.0])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(5.0, abs=1e-9)

    def test_ge_row_with_negative_rhs(self):
        sol = simplex_solve([1, 1], [[-1, -1], [1, 0]], [">=", "<="], [-3, 1])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_duplicate_equality_rows(self):
        sol = simplex_solve([1, 1], [[1, 1], [1, 1]], ["=", "="], [1, 1])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_unreachable_equality(self):
        assert simplex_solve([1, 1], [[1, 1]], ["="], [3], upper=[1, 1]).status == "infeasible"

    @pytest.mark.parametrize("bad", [
        dict(objective=[1, math.nan]), dict(constraints=[[1, math.nan]]), dict(rhs=[math.nan]),
        dict(upper=[math.nan, 1.0]), dict(senses=["<"]), dict(rhs=[1, 2]),
    ])
    def test_bad_data_rejected(self, bad):
        lp = dict(objective=[1, 1], constraints=[[1, 1]], senses=["<="], rhs=[1]) | bad
        with pytest.raises(ValueError):
            simplex_solve(**lp)

    def test_unexpected_solver_status_raises(self, monkeypatch):
        import scipy.optimize

        def limit_hit(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=1, message="Iteration limit reached.", x=None, fun=None)

        monkeypatch.setattr(scipy.optimize, "milp", limit_hit)
        with pytest.raises(RuntimeError, match="Iteration limit"):
            simplex_solve([1, 1], [[1, 1]], ["<="], [1])

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degeneracy, on which a textbook simplex can cycle
        c = [0.75, -150, 0.02, -6]
        A = [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]]
        sol = simplex_solve(c, A, ["<=", "<=", "<="], [0, 0, 1])
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)

    def test_random_problems_match_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            A = rng.uniform(-1, 2, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            c = rng.uniform(-1, 2, size=n)
            sol = simplex_solve(c, A, ["<="] * m, b)
            ref = enumerate_lp_max(c, A, b, np.zeros((0, n)), [])
            if sol.status == "optimal" and ref is not None:
                assert sol.objective == pytest.approx(ref, abs=1e-8)


# the one-atom budget law at +inf: a budget level with no budget, i.e. a linear buyer
NO_BUDGET = Distribution.discrete([math.inf], [1.0])


def lp_mechanism(F, G, q):
    """Solve the slab-menu LP of value law F and budget law G at mass q with
    the generic LP solve and read off each level's menu: allocations x[i, j]
    and payments p[i, j]."""
    c, a_ub, b_ub, a_eq, b_eq = ex_ante_lp_matrices(F, G, q)
    sol = simplex_solve(c, a_ub + a_eq, ["<="] * len(a_ub) + ["="], b_ub + b_eq)
    assert sol.status == "optimal"
    v = F.params["values"]
    m, n = len(v), len(G.params["values"])
    d = np.clip(sol.x, 0.0, None).reshape(n, 2, m).transpose(1, 2, 0)   # [lo|hi, slab, level]
    v_lo = np.concatenate([[0.0], v[:-1]])
    x = np.minimum(np.cumsum(d[0] + d[1], axis=0), 1.0)
    p = np.cumsum(d[0] * v_lo[:, None] + d[1] * v[:, None], axis=0)
    return sol.objective, x, p


class TestExAnteLp:
    def test_point_mass_full_service(self):
        F = Distribution.point_mass(1.0)
        assert ex_ante_curve_oracle(F, NO_BUDGET).eval(1.0) == pytest.approx(1.0, abs=1e-9)
        _, x, p = lp_mechanism(F, NO_BUDGET, 1.0)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_two_values_linear(self):
        F = Distribution.discrete([1.0, 2.0], [0.5, 0.5])
        assert ex_ante_curve_oracle(F, NO_BUDGET).eval(0.75) == pytest.approx(1.0, abs=1e-9)
        _, x, _ = lp_mechanism(F, NO_BUDGET, 0.75)
        assert np.allclose(x.ravel(), [0.5, 1.0], atol=1e-9)

    def test_public_budget_slack(self):
        F = Distribution.discrete([1.0, 2.0], [0.5, 0.5])
        assert ex_ante_curve_oracle(F, Distribution.point_mass(10.0)).eval(0.5) == pytest.approx(1.0, abs=1e-9)

    def test_zero_budget_level_feasible_at_full_mass(self):
        # free bottom slabs keep the exact-mass constraint feasible even
        # when a budget level cannot pay anything
        F, G = Distribution.point_mass(2.0), Distribution.discrete([0.0, 2.0], [0.75, 0.25])
        assert ex_ante_curve_oracle(F, G).eval(1.0) == pytest.approx(0.25 * 2.0, abs=1e-9)
        _, x, p = lp_mechanism(F, G, 1.0)
        assert p[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_solution_invariants(self):
        values = ap.discretize(Distribution.uniform(0, 1), 12)
        budgets = ap.discretize(Distribution.uniform(0, 1), 5)
        rb = ex_ante_curve_oracle(values, budgets)
        for q in (0.0, 0.3, 0.8, 1.0):
            obj, x, p = lp_mechanism(values, budgets, q)
            assert rb.eval(q) == pytest.approx(obj, abs=1e-9)
            assert np.all(np.diff(x, axis=0) >= -1e-9)              # monotone in value
            assert np.all((x >= -1e-9) & (x <= 1 + 1e-9))
            assert np.all(p <= budgets.params["values"][None, :] + 1e-9)   # budget caps
            assert np.all(p >= -1e-9)
            # local incentive brackets: v_{i-1} dx <= dp <= v_i dx
            v = values.params["values"]
            dx = np.diff(x, axis=0)
            dp = np.diff(p, axis=0)
            assert np.all(dp <= v[1:, None] * dx + 1e-8)
            assert np.all(dp >= v[:-1, None] * dx - 1e-8)
            assert np.all(p[0] <= v[0] * x[0] + 1e-8)
            mass = float(np.sum(values.params["probs"][:, None] * budgets.params["probs"][None, :] * x))
            assert mass == pytest.approx(q, abs=1e-9)

    def test_dominates_price_posting(self):
        # posting any real price (support value or not) is LP-feasible
        values = ap.discretize(Distribution.uniform(0, 1), 20)
        for w in (0.1, 0.3):
            rb = ex_ante_curve_oracle(values, Distribution.point_mass(w))
            agent = ap.Agent(model="public-budget", values=values, budget=w, id="d")
            off = ap.offer_curve(agent)
            for p in (0.08, 0.1, 0.25, 0.5, 0.8):
                q = off.eval(p)
                assert rb.eval(q) >= p * q - 1e-9

    def test_matches_vertex_enumeration_on_2x2(self):
        cases = []
        for (v1, v2) in ((1.0, 2.0), (0.5, 1.5)):
            for f1 in (0.3, 0.6):
                for (w1, w2) in ((0.5, 1.8), (1.0, 3.0)):
                    for g1 in (0.4, 0.7):
                        for q in (0.25, 0.6, 1.0):
                            cases.append((v1, v2, f1, w1, w2, g1, q))
        for v1, v2, f1, w1, w2, g1, q in cases:
            F = Distribution.discrete([v1, v2], [f1, 1 - f1])
            G = Distribution.discrete([w1, w2], [g1, 1 - g1])
            ref = enumerate_lp_max(*ex_ante_lp_matrices(F, G, q))
            assert ref is not None
            assert ex_ante_curve_oracle(F, G).eval(q) == pytest.approx(ref, abs=1e-9)


class TestOracleInputs:
    @pytest.mark.parametrize("axis", ["value", "budget"])
    def test_continuous_law_rejected(self, axis):
        laws = {"value": Distribution.point_mass(1.0), "budget": NO_BUDGET}
        laws[axis] = Distribution.uniform(0, 1)
        with pytest.raises(ValueError, match=f"{axis} law is uniform, not discrete: discretize it first"):
            ex_ante_curve_oracle(laws["value"], laws["budget"])

    @pytest.mark.parametrize("values, probs, match", [
        ([1.0, 1.0], [0.5, 0.5], "distinct"),
        ([1.0, 2.0], [1.0, 0.0], "positive"),
        ([1.0, 2.0], [1.5, -0.5], "positive"),
        ([1.0, 2.0], [0.5, 0.6], "sum"),
        ([], [], "nonempty"),
        ([1.0, 2.0], [1.0], "matching"),
    ])
    def test_bad_discrete_law_rejected(self, values, probs, match):
        # the oracle's value and budget axes are discrete laws, checked on construction
        with pytest.raises(ValueError, match=match):
            Distribution.discrete(values, probs)


class TestCurveOracle:
    def test_uniform_midpoint(self):
        values = ap.discretize(Distribution.uniform(0, 1), 100)
        rb = ex_ante_curve_oracle(values, NO_BUDGET)
        assert rb.eval(0.5) == pytest.approx(0.25, abs=0.01)
        assert rb.eval(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_concavity_and_domination(self):
        values = ap.discretize(Distribution.uniform(0, 1), 30)
        rb = ex_ante_curve_oracle(values, Distribution.point_mass(0.4))
        slopes = np.diff(rb.values) / np.diff(rb.qs)
        assert np.all(np.diff(slopes) <= 1e-7 * max(1.0, rb.max_value()))
        agent = ap.Agent(model="public-budget", values=values, budget=0.4, id="d")
        P = ap.price_posting_curve(ap.offer_curve(agent))
        assert np.all(np.asarray(rb.eval(rb.qs)) >= np.asarray(P.eval(rb.qs)) - 1e-7)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_curve_matches_simplex(self, data):
        m = data.draw(st.integers(2, 6), label="m")
        values = np.array(sorted(data.draw(st.sets(st.integers(1, 40), min_size=m, max_size=m)))) / 8.0
        f = np.array(data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=float)
        if data.draw(st.booleans(), label="linear"):
            budgets = np.array([math.inf])
        else:
            # w = 0, w on a support value, w above the top value, a generic w, the +inf sentinel
            pool = st.one_of(st.just(0.0), st.sampled_from(values.tolist()), st.just(values[-1] + 1.0),
                             st.floats(0.01, 6.0), st.just(math.inf))
            budgets = np.array(sorted(data.draw(st.sets(pool, min_size=1, max_size=3), label="budgets")))
        g = np.array(data.draw(st.lists(st.integers(1, 9), min_size=len(budgets), max_size=len(budgets))), dtype=float)
        F, G = Distribution.discrete(values, f / f.sum()), Distribution.discrete(budgets, g / g.sum())
        rb = ex_ante_curve_oracle(F, G)
        assert rb.eval(0.0) == 0.0
        assert rb.concave
        assert np.all(np.diff(rb.qs) > 0.0)
        for q in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), label="qs"):
            obj, _, _ = lp_mechanism(F, G, q)
            assert rb.eval(q) == pytest.approx(obj, abs=1e-9)


def two_price_bracket_curve(F, G):
    """Rbar from all 2m bracket slabs, each slab k at both v_{k-1} and v_k,
    through the library's per-level hull and merge."""
    v = F.params["values"]
    s = np.cumsum(F.params["probs"][::-1])[::-1]
    prices, s = np.concatenate([[0.0], v[:-1], v]), np.concatenate([s, s])
    levels = [oracle._level_hull(s, prices, float(w)) for w in G.params["values"]]
    return oracle._merge_levels(levels, G.params["probs"])


def assert_same_as_two_price_brackets(F, G):
    full = ap.RevenueCurve(*two_price_bracket_curve(F, G))
    rb = ex_ante_curve_oracle(F, G)
    grid = np.union1d(rb.qs, full.qs)
    assert np.max(np.abs(rb.eval(grid) - full.eval(grid))) <= 1e-13 * max(1.0, full.max_value())


class TestSlabCount:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lower_bracket_slabs_change_nothing(self, data):
        """m + 1 slabs give the curve of all 2m: a lower-price slab adds no
        vertex to any level's hull.  Its pair points on a budget line are
        the same points rounded another way, so a knot can move by an ulp."""
        m = data.draw(st.integers(1, 30), label="m")
        values = np.array(sorted(data.draw(st.sets(st.floats(0.01, 10.0), min_size=m, max_size=m))))
        f = np.array(data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)), dtype=float)
        pool = st.one_of(st.just(0.0), st.sampled_from(values.tolist()), st.floats(0.01, 12.0), st.just(math.inf))
        budgets = np.array(sorted(data.draw(st.sets(pool, min_size=1, max_size=8), label="budgets")))
        g = np.array(data.draw(st.lists(st.integers(1, 9), min_size=len(budgets), max_size=len(budgets))), dtype=float)
        F, G = Distribution.discrete(values, f / f.sum()), Distribution.discrete(budgets, g / g.sum())
        assert_same_as_two_price_brackets(F, G)

    def test_discretized_laws_change_nothing(self):
        F = ap.discretize(Distribution.uniform(0, 1), 300)
        for G in (ap.discretize(Distribution.uniform(0, 1), 40), ap.discretize(Distribution.exponential(2.0, 1.5), 40),
                  NO_BUDGET, Distribution.point_mass(0.3)):
            assert_same_as_two_price_brackets(F, G)

    def test_knots_past_one_are_dropped(self):
        # level masses summing to 1 + 1e-12 put two knots past 1 before the
        # last one; they go, and the last knot is 1
        dq = np.array([0.25, 0.75 + 1e-12, 1e-13, 0.0, 1e-14])
        dr = np.array([1.0, 0.5, 1e-13, 0.0, -1e-14])
        assert np.cumsum(dq)[1] > 1.0
        qs, vals = oracle._knots_from_segments(dq, dr)
        assert qs.tolist() == [0.0, 0.25, 1.0]
        assert vals.tolist() == [0.0, 1.0, float(np.cumsum(dr)[-1])]
        ap.RevenueCurve(qs, vals)

    def test_budget_masses_past_one(self):
        F = Distribution.discrete([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])
        G = Distribution.discrete([0.1, 0.4, math.inf], [0.3, 0.3, 0.4 + 9e-13])
        rb = ex_ante_curve_oracle(F, G)
        assert rb.qs[-1] == 1.0 and np.all(np.diff(rb.qs) > 0.0) and rb.concave


class TestBruteForceEar:
    def test_two_uniform_parabolas(self):
        c = ap.synthetic_curve([(q, q * (1 - q)) for q in np.linspace(0, 1, 101)])
        got = brute_force_ear([c, c], step=0.001)
        assert got == pytest.approx(0.5, abs=2e-3)

    def test_single_curve_max(self):
        c = ap.synthetic_curve([(0, 0), (0.3, 0.7), (1, 0.2)])
        assert brute_force_ear([c], step=0.01) == pytest.approx(0.7, abs=1e-12)

    def test_tightness_pair(self):
        r = ap.synthetic_curve([(0, 0), (0.5, 4.0), (1, 4.0)])
        assert brute_force_ear([r, r], step=0.001) == pytest.approx(8.0, abs=0.02)

    def test_too_many_curves(self):
        c = ap.synthetic_curve([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            brute_force_ear([c] * 4, step=0.01)
        with pytest.raises(ValueError):
            brute_force_ear([c], step=0.05)

    def test_three_curves_vs_water_filling(self):
        rng = np.random.default_rng(11)
        from anonpricing import random_concave_curve

        for _ in range(10):
            curves = [random_concave_curve(rng) for _ in range(3)]
            bf = brute_force_ear(curves, step=0.01)
            wf = ap.ear_optimize(curves).revenue
            max_slope = max(float(np.max(np.abs(np.diff(c.values) / np.diff(c.qs)))) for c in curves)
            assert abs(bf - wf) <= 3 * 0.01 * max_slope
