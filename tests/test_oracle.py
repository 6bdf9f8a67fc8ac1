"""Simplex solver, the exact ex-ante curve of the discrete LP, and the grid-search EAR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anonpricing as ap
from anonpricing import DiscreteTypeSpace, Distribution, ex_ante_curve_oracle, simplex_solve

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

    def test_degenerate_cycling_guard(self):
        # classic Beale-style degeneracy; Bland's rule must terminate
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


def lp_mechanism(sp, q):
    """Solve the slab-menu LP at mass q with the generic simplex and read off
    each level's menu: allocations x[i, j] and payments p[i, j]."""
    c, a_ub, b_ub, a_eq, b_eq = ex_ante_lp_matrices(sp.values, sp.value_probs, sp.budgets, sp.budget_probs, q)
    sol = simplex_solve(c, a_ub + a_eq, ["<="] * len(a_ub) + ["="], b_ub + b_eq)
    assert sol.status == "optimal"
    m, n = len(sp.values), len(sp.budgets)
    d = np.clip(sol.x, 0.0, None).reshape(n, 2, m).transpose(1, 2, 0)   # [lo|hi, slab, level]
    v_lo = np.concatenate([[0.0], sp.values[:-1]])
    x = np.minimum(np.cumsum(d[0] + d[1], axis=0), 1.0)
    p = np.cumsum(d[0] * v_lo[:, None] + d[1] * sp.values[:, None], axis=0)
    return sol.objective, x, p


class TestExAnteLp:
    def test_point_mass_full_service(self):
        sp = DiscreteTypeSpace(np.array([1.0]), np.array([1.0]), np.array([math.inf]), np.array([1.0]), "linear")
        assert ex_ante_curve_oracle(sp).eval(1.0) == pytest.approx(1.0, abs=1e-9)
        _, x, p = lp_mechanism(sp, 1.0)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_two_values_linear(self):
        sp = DiscreteTypeSpace(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                               np.array([math.inf]), np.array([1.0]), "linear")
        assert ex_ante_curve_oracle(sp).eval(0.75) == pytest.approx(1.0, abs=1e-9)
        _, x, _ = lp_mechanism(sp, 0.75)
        assert np.allclose(x.ravel(), [0.5, 1.0], atol=1e-9)

    def test_public_budget_slack(self):
        sp = DiscreteTypeSpace(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                               np.array([10.0]), np.array([1.0]), "public-budget")
        assert ex_ante_curve_oracle(sp).eval(0.5) == pytest.approx(1.0, abs=1e-9)

    def test_zero_budget_level_feasible_at_full_mass(self):
        # free bottom slabs keep the exact-mass constraint feasible even
        # when a budget level cannot pay anything
        sp = DiscreteTypeSpace(np.array([2.0]), np.array([1.0]),
                               np.array([0.0, 2.0]), np.array([0.75, 0.25]), "private-budget")
        assert ex_ante_curve_oracle(sp).eval(1.0) == pytest.approx(0.25 * 2.0, abs=1e-9)
        _, x, p = lp_mechanism(sp, 1.0)
        assert p[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert x[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_solution_invariants(self):
        values = ap.discretize(Distribution.uniform(0, 1), 12)
        budgets = ap.discretize(Distribution.uniform(0, 1), 5)
        sp = DiscreteTypeSpace(values.params["values"], values.params["probs"],
                               budgets.params["values"], budgets.params["probs"], "private-budget")
        rb = ex_ante_curve_oracle(sp)
        for q in (0.0, 0.3, 0.8, 1.0):
            obj, x, p = lp_mechanism(sp, q)
            assert rb.eval(q) == pytest.approx(obj, abs=1e-9)
            assert np.all(np.diff(x, axis=0) >= -1e-9)              # monotone in value
            assert np.all((x >= -1e-9) & (x <= 1 + 1e-9))
            assert np.all(p <= sp.budgets[None, :] + 1e-9)          # budget caps
            assert np.all(p >= -1e-9)
            # local incentive brackets: v_{i-1} dx <= dp <= v_i dx
            v = sp.values
            dx = np.diff(x, axis=0)
            dp = np.diff(p, axis=0)
            assert np.all(dp <= v[1:, None] * dx + 1e-8)
            assert np.all(dp >= v[:-1, None] * dx - 1e-8)
            assert np.all(p[0] <= v[0] * x[0] + 1e-8)
            mass = float(np.sum(sp.value_probs[:, None] * sp.budget_probs[None, :] * x))
            assert mass == pytest.approx(q, abs=1e-9)

    def test_dominates_price_posting(self):
        # posting any real price (support value or not) is LP-feasible
        values = ap.discretize(Distribution.uniform(0, 1), 20)
        for w in (0.1, 0.3):
            sp = DiscreteTypeSpace(values.params["values"], values.params["probs"],
                                   np.array([w]), np.array([1.0]), "public-budget")
            rb = ex_ante_curve_oracle(sp)
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
            sp = DiscreteTypeSpace(np.array([v1, v2]), np.array([f1, 1 - f1]),
                                   np.array([w1, w2]), np.array([g1, 1 - g1]), "private-budget")
            c, a_ub, b_ub, a_eq, b_eq = ex_ante_lp_matrices(
                sp.values, sp.value_probs, sp.budgets, sp.budget_probs, q)
            ref = enumerate_lp_max(c, a_ub, b_ub, a_eq, b_eq)
            assert ref is not None
            assert ex_ante_curve_oracle(sp).eval(q) == pytest.approx(ref, abs=1e-9)


class TestCurveOracle:
    def test_uniform_midpoint(self):
        values = ap.discretize(Distribution.uniform(0, 1), 100)
        sp = DiscreteTypeSpace(values.params["values"], values.params["probs"],
                               np.array([math.inf]), np.array([1.0]), "linear")
        rb = ex_ante_curve_oracle(sp)
        assert rb.eval(0.5) == pytest.approx(0.25, abs=0.01)
        assert rb.eval(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_concavity_and_domination(self):
        values = ap.discretize(Distribution.uniform(0, 1), 30)
        sp = DiscreteTypeSpace(values.params["values"], values.params["probs"],
                               np.array([0.4]), np.array([1.0]), "public-budget")
        rb = ex_ante_curve_oracle(sp)
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
            budgets, model = np.array([math.inf]), "linear"
        else:
            # w = 0, w on a support value, w above the top value, a generic w, the +inf sentinel
            pool = st.one_of(st.just(0.0), st.sampled_from(values.tolist()), st.just(values[-1] + 1.0),
                             st.floats(0.01, 6.0), st.just(math.inf))
            budgets = np.array(sorted(data.draw(st.sets(pool, min_size=1, max_size=3), label="budgets")))
            model = "private-budget" if len(budgets) > 1 else "public-budget"
        g = np.array(data.draw(st.lists(st.integers(1, 9), min_size=len(budgets), max_size=len(budgets))), dtype=float)
        sp = DiscreteTypeSpace(values, f / f.sum(), budgets, g / g.sum(), model)
        rb = ex_ante_curve_oracle(sp)
        assert rb.eval(0.0) == 0.0
        assert rb.concave
        assert np.all(np.diff(rb.qs) > 0.0)
        for q in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4), label="qs"):
            obj, _, _ = lp_mechanism(sp, q)
            assert rb.eval(q) == pytest.approx(obj, abs=1e-9)


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
