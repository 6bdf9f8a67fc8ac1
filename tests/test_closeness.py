"""Closeness parameters, transfer bounds, and instance verification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import anonpricing as ap
from anonpricing import Agent, Distribution, OracleConfig, RHO
from anonpricing.closeness import build_curves
from anonpricing.curves import _upper_hull_indices


def collapse_pair():
    """Posting curve that dies after its peak, with a flat ex-ante bound."""
    P = ap.synthetic_curve([(0, 0), (0.25, 0.5), (0.25 + 1e-9, 0.0), (1, 0)])
    R = ap.synthetic_curve([(0, 0), (0.25, 0.5), (1, 0.5)])
    return P, R


class TestAlpha:
    def test_regular_agent_alpha_one(self, uniform_posting_curve):
        hull = ap.concave_hull(uniform_posting_curve)
        for beta in (1.0, 2.0, 5.0):
            assert ap.alpha_for_beta(uniform_posting_curve, hull, beta) == pytest.approx(1.0, abs=1e-9)

    def test_constant_ratio(self):
        P = ap.synthetic_curve([(0, 0), (0.5, 0.5), (1, 0.6)])
        R = ap.synthetic_curve([(0, 0), (0.5, 1.0), (1, 1.2)])
        assert ap.alpha_for_beta(P, R, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_collapsed_posting_curve_infinite(self):
        P, R = collapse_pair()
        assert ap.alpha_for_beta(P, R, 1.0) == math.inf
        # restricting to the healthy stretch keeps it finite
        assert ap.alpha_for_beta(P, R, 4.0) == pytest.approx(1.0, abs=1e-6)

    def test_restriction_monotone(self):
        P, R = collapse_pair()
        alphas = [ap.alpha_for_beta(P, R, b) for b in (1.0, 2.0, 3.0, 4.0, 8.0)]
        for a, b in zip(alphas, alphas[1:]):
            assert b <= a + 1e-12

    def test_beta_validated(self):
        P, R = collapse_pair()
        with pytest.raises(ValueError):
            ap.alpha_for_beta(P, R, 0.5)


class TestZetaEta:
    def test_regular_agent_one(self, uniform_posting_curve):
        hull = ap.concave_hull(uniform_posting_curve)
        assert ap.zeta(uniform_posting_curve, hull) == pytest.approx(1.0, abs=1e-9)
        assert ap.eta(uniform_posting_curve, hull) == pytest.approx(1.0, abs=1e-9)

    def test_running_max_rescues_collapse(self):
        P, R = collapse_pair()
        assert ap.zeta(P, R) == pytest.approx(1.0, abs=1e-6)

    def test_zeta_peaks_where_posting_climbs_through_its_earlier_max(self):
        # P dips after 0.3 and climbs back through its earlier peak 1 at q* = 0.64,
        # between two knots; R/max(P) rises to R(q*) = 1.92 there and falls after
        P = ap.synthetic_curve([(0, 0), (0.3, 1.0), (0.4, 0.2), (1, 2.2)])
        R = ap.synthetic_curve([(0, 0), (1, 3.0)])
        assert ap.zeta(P, R) == pytest.approx(1.92, rel=1e-12)

    def test_zeta_running_max_counts_knots_below_the_window(self):
        # P peaks at q = 1e-7, below the 1e-6 cutoff, and that peak already covers R
        P = ap.synthetic_curve([(0, 0), (1e-7, 1.0), (2e-7, 0.0), (1, 1.0)])
        R = ap.synthetic_curve([(0, 0), (1e-7, 1.0), (1, 1.0)])
        assert ap.zeta(P, R) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_zeta_covers_a_dense_grid(self, data):
        def curve(label):
            k = data.draw(st.integers(1, 6), label=f"{label} inner knots")
            qs = sorted(data.draw(st.sets(st.floats(0.001, 0.999), min_size=k, max_size=k), label=f"{label} qs"))
            vals = data.draw(st.lists(st.floats(0.01, 10.0), min_size=k + 1, max_size=k + 1), label=f"{label} values")
            return ap.synthetic_curve(list(zip([0.0] + qs + [1.0], [0.0] + vals)))

        P, R = curve("P"), curve("R")
        # the running max of P is exact on a grid that holds P's knots
        qs = np.union1d(np.linspace(1e-6, 1.0, 200_001), P.qs[P.qs >= 1e-6])
        dense = float(np.max(np.asarray(R.eval(qs)) / np.maximum.accumulate(np.asarray(P.eval(qs)))))
        assert ap.zeta(P, R) >= dense * (1.0 - 1e-12)

    def test_private_uniform_within_three(self, private_uu_posting_curve, private_uu_rbar):
        z = ap.zeta(private_uu_posting_curve, private_uu_rbar)
        assert z <= 3.05
        e = ap.eta(private_uu_posting_curve, private_uu_rbar)
        assert e <= 2.05

    def test_capacitated_bound_curve_zeta(self):
        P = ap.concave_hull(Agent(model="linear", values=Distribution.equal_revenue(100), id="er").price_curve())
        qs = np.unique(np.concatenate([P.qs, np.linspace(0, 1, 257)]))
        vals = [ap.risk_two_priced_bound(P, 5.0, 100.0, float(q)).bound for q in qs]
        rbar = ap.RevenueCurve(qs, vals, name="Rbar")
        assert ap.zeta(P, rbar) <= 2 + math.log(20) + 1e-6

    def test_ordering_eta_zeta_alpha(self, private_uu_posting_curve, private_uu_rbar):
        P, R = private_uu_posting_curve, private_uu_rbar
        assert ap.eta(P, R) <= ap.zeta(P, R) + 1e-9
        assert ap.zeta(P, R) <= ap.alpha_for_beta(P, R, 1.0) + 1e-9

    def test_zeta_below_alpha_beta_product(self, private_uu_posting_curve, private_uu_rbar):
        P, R = private_uu_posting_curve, private_uu_rbar
        z = ap.zeta(P, R)
        for beta in (1.0, 1.5, 2.0, 3.0, 5.0):
            a = ap.alpha_for_beta(P, R, beta)
            assert z <= a * beta + 1e-9


class TestCapacitatedRbar:
    @pytest.mark.parametrize("values, C", [
        (Distribution.equal_revenue(100), 5.0),
        (Distribution.uniform(0, 1), 0.25),
        (Distribution.exponential(1.0, hi=4.0), 1.5),
    ])
    def test_closed_form_matches_per_knot_bound(self, values, C):
        agent = Agent(model="capacitated", values=values, capacity=C, id="c")
        curves = build_curves(agent, OracleConfig(price_grid=128))
        P, rbar = curves.P, curves.Rbar
        hull = P if P.concave else ap.concave_hull(P)
        # the bound's definition: one full evaluation at each knot's mass
        ref = [ap.risk_two_priced_bound(hull, C, values.hi, float(q)).bound for q in rbar.qs]
        assert curves.label == "upper bound"
        np.testing.assert_allclose(rbar.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("values, C", [
        (Distribution.equal_revenue(100), 5.0),
        (Distribution.uniform(0, 1), 0.25),
        (Distribution.discrete([1.0, 2.0, 5.0], [0.5, 0.3, 0.2]), 1.5),
    ])
    def test_rbar_is_the_multiplier_times_the_running_maximum_on_the_hull_knots(self, values, C):
        """(2 + ln(h/C)) P(min(q, q_m)) in closed form: on the concave hull
        of P, the running maximum, at the hull's own knots and no others."""
        rec = build_curves(Agent(model="capacitated", values=values, capacity=C, id="c"), OracleConfig(price_grid=128))
        hull = rec.P if rec.P.concave else ap.concave_hull(rec.P)
        multiplier = ap.risk_two_priced_bound(hull, C, values.hi).multiplier
        assert multiplier == 2.0 + math.log(values.hi / C)
        assert rec.Rbar.qs.tobytes() == hull.qs.tobytes()
        assert rec.Rbar.values.tobytes() == (multiplier * np.maximum.accumulate(hull.values)).tobytes()
        # q_m is the last knot within 1e-12 of the maximum, so on flat revenue
        # the two forms differ by that tie margin at most
        q_m = hull.argmax_quantile()
        np.testing.assert_allclose(np.maximum.accumulate(hull.values), hull.eval(np.minimum(hull.qs, q_m)),
                                   rtol=1e-12, atol=0)


class TestTransferBounds:
    def test_basic_product(self):
        tb = ap.transfer_bounds(2.0, 3.0, 6.0)
        assert tb.basic == pytest.approx(6.0)

    def test_improved_sqrt(self):
        tb = ap.transfer_bounds(2.0, 4.0, 2.0)
        assert tb.improved == pytest.approx(4.0)

    def test_improved_alpha_branch(self):
        tb = ap.transfer_bounds(10.0, 2.0, 1.0)
        assert tb.improved == pytest.approx(10.0)

    def test_validated(self):
        with pytest.raises(ValueError):
            ap.transfer_bounds(0.5, 1.0, 1.0)


class TestTable1:
    def test_public(self):
        assert ap.table1_bound("public") == pytest.approx(math.e, abs=1e-12)

    def test_private_mhr(self):
        assert ap.table1_bound("private-mhr") == pytest.approx(3 * math.e, abs=1e-12)

    def test_private_kappa_at_e(self):
        k = math.e
        ref = math.sqrt(2 * (2 + k) * (1 + k)) * math.e
        got = ap.table1_bound("private-kappa", kappa=k)
        assert got == pytest.approx(ref, abs=1e-12)
        assert got == pytest.approx(16.1017, abs=1e-3)

    def test_risk_averse(self):
        assert ap.table1_bound("risk-averse", eta_cap=20.0) == pytest.approx((2 + math.log(20)) * math.e, abs=1e-12)

    def test_unknown(self):
        with pytest.raises(ValueError):
            ap.table1_bound("mystery")


class TestVerifyInstance:
    def test_two_uniform(self):
        agents = [Agent(model="linear", values=Distribution.uniform(0, 1), id=f"u{i}") for i in (1, 2)]
        rep = ap.verify_instance(agents)
        assert rep.ratio == pytest.approx(0.5 / 0.38490017945975047, abs=1e-3)
        assert rep.bound == pytest.approx(math.e, abs=1e-9)
        assert rep.passed
        assert all(a.alphas[1.0] == pytest.approx(1.0, abs=1e-6) for a in rep.agents)

    def test_public_budget_alpha_one(self):
        agents = [Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3, id="pb")]
        rep = ap.verify_instance(agents, OracleConfig(values=50))
        assert rep.alpha[1.0] <= 1.05
        assert rep.passed
        assert rep.table1_model == "public"

    def test_budget_gap_instance_flagged(self):
        fix = ap.get_fixture("mhr-fail", n=30)
        rep = ap.verify_instance(list(fix.agents), OracleConfig(values=4, budgets=4))
        assert rep.ratio >= 1.9
        assert any("assumption violated" in f for f in rep.flags)
        assert rep.kappa == pytest.approx(900.0, abs=1e-6)

    def test_table1_not_admitted_when_flagged(self):
        # a discrete value law is not regular, so Table-1's e for linear
        # buyers is not a bound here; the transferred bound is used
        D = Distribution.discrete([0.1, 0.5, 1.9], [0.5, 0.25, 0.25])
        rep = ap.verify_instance([Agent(model="linear", values=D, id=i) for i in ("d", "e")])
        assert rep.table1 == pytest.approx(math.e, abs=1e-12) and rep.table1_model == "public"
        assert any("is not regular" in f for f in rep.flags)
        assert rep.flags[-1].startswith("table-1 bound not admitted: ")
        candidates = [t.basic for t in rep.transfer.values()] + [t.improved for t in rep.transfer.values()]
        assert rep.bound == min(candidates + [rep.zeta_bound]) > math.e
        assert rep.passed

    def test_pass_flag_monotone_in_parameters(self):
        # passing at the measured (alpha, beta) implies passing at any
        # looser pair: the bound only grows
        agents = [Agent(model="linear", values=Distribution.uniform(0, 1), id="u")]
        rep = ap.verify_instance(agents)
        assert rep.passed
        for scale in (1.0, 1.5, 4.0):
            for b in rep.betas:
                loose = ap.transfer_bounds(max(rep.alpha[b] * scale, 1.0), b * scale, rep.eta * scale)
                assert rep.ratio <= loose.basic * RHO + rep.slack

    def test_budgeted_agents_exact_rbar_dominates_posting(self):
        # two public- and two private-budget buyers on the 60 x 20 oracle:
        # with the exact ex-ante curve no per-agent parameter reads below 1
        U = Distribution.uniform(0, 1)
        agents = [
            Agent(model="private-budget", values=U, budgets=Distribution.uniform(0, 0.8), id="pu"),
            Agent(model="private-budget", values=U, budgets=Distribution.exponential(2.0, 1.5), id="pe"),
            Agent(model="public-budget", values=U, budget=0.5, id="w5"),
            Agent(model="public-budget", values=Distribution.uniform(0, 1.1), budget=0.4, id="w4"),
        ]
        config = OracleConfig(values=60, budgets=20)
        rep = ap.verify_instance(agents, config)
        for a in rep.agents:
            assert min(a.alphas.values()) >= 1.0 - 1e-12, a
            assert a.zeta >= 1.0 - 1e-12 and a.eta >= 1.0 - 1e-12, a
        for agent, curves in zip(agents, rep.curves):
            P, R = curves.P, curves.Rbar
            assert np.all(np.asarray(R.eval(P.qs)) >= P.values - 1e-12), agent.id

    def test_mixed_models_allowed(self):
        agents = [
            Agent(model="linear", values=Distribution.uniform(0, 1), id="u"),
            Agent(model="capacitated", values=Distribution.equal_revenue(10), capacity=2.0, id="c"),
        ]
        rep = ap.verify_instance(agents)
        assert rep.table1 is None
        assert math.isfinite(rep.ratio)

    def test_csv(self, tmp_path):
        agents = [Agent(model="linear", values=Distribution.uniform(0, 1), id="u")]
        rep = ap.verify_instance(agents)
        out = tmp_path / "c.csv"
        rep.to_csv(out)
        text = out.read_text()
        assert text.startswith("agent,model,alpha@1")
        assert "summary" in text

    def test_rows_computed_on_the_reported_curves(self):
        agents = [
            Agent(model="linear", values=Distribution.uniform(0, 1), id="u"),
            Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.4, id="pb"),
            Agent(model="capacitated", values=Distribution.equal_revenue(10), capacity=2.0, id="c"),
            Agent(model="synthetic", p_knots=((0, 0), (0.25, 0.5), (1, 1.0)),
                  r_knots=((0, 0), (0.25, 1.0), (1, 1.5)), id="s"),
        ]
        rep = ap.verify_instance(agents, OracleConfig(values=20, budgets=5, price_grid=256))
        assert len(rep.curves) == len(agents)
        for row, rec in zip(rep.agents, rep.curves):
            assert row.r_label == rec.label
            assert row.alphas == {b: ap.alpha_for_beta(rec.P, rec.Rbar, b) for b in rep.betas}
            assert row.zeta == ap.zeta(rec.P, rec.Rbar)
            assert row.eta == ap.eta(rec.P, rec.Rbar)
        assert rep.ear == ap.ear_optimize([rec.concave_rbar for rec in rep.curves])

    @pytest.mark.parametrize("budgeted, slack", [(False, 1e-6), (True, 0.05)])
    def test_slack_follows_rbar_labels(self, budgeted, slack):
        # closed-form Rbar everywhere gets the tight slack; one LP-backed
        # upper bound loosens the whole comparison
        agents = [Agent(model="linear", values=Distribution.uniform(0, 1), id="u")]
        if budgeted:
            agents.append(Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3, id="pb"))
        rep = ap.verify_instance(agents, OracleConfig(values=20, price_grid=256))
        assert [r.r_label == "upper bound" for r in rep.agents] == [False] + [True] * budgeted
        assert rep.slack == slack


    @pytest.mark.parametrize("agent", [
        Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.0, id="w0"),
        Agent(model="synthetic", p_knots=((0, 0), (1, 0)), r_knots=((0, 0), (1, 0)), id="zero"),
    ])
    def test_nothing_sold_reads_ratio_one(self, agent):
        # AP = EAR = 0: the ratio reads 0/0 as 1, as eta does
        rep = ap.verify_instance([agent])
        assert rep.ap_posting.revenue == rep.ear.revenue == 0.0
        assert rep.ratio == rep.agents[0].eta == 1.0
        assert rep.passed

    def test_ear_without_ap_reads_infinite_ratio(self):
        agent = Agent(model="synthetic", p_knots=((0, 0), (1, 0)), r_knots=((0, 0), (1, 1.0)), id="gap")
        rep = ap.verify_instance([agent])
        assert rep.ap_posting.revenue == 0.0 and rep.ear.revenue == 1.0
        assert rep.ratio == math.inf


class TestAgentCurves:
    @pytest.mark.parametrize("agent", [
        Agent(model="linear", values=Distribution.exponential(2.0, 1.5), id="l"),
        Agent(model="capacitated", values=Distribution.equal_revenue(10), capacity=3.0, id="c"),
        Agent(model="public-budget", values=Distribution.uniform(0, 1), budget=0.3, id="pb"),
        Agent(model="private-budget", values=Distribution.uniform(0, 1), budgets=Distribution.uniform(0, 0.8), id="pr"),
        Agent(model="synthetic", p_knots=((0, 0), (0.5, 1.0), (1, 0.5)), r_knots=((0, 0), (0.5, 1.5), (1, 1.5)), id="s"),
    ], ids=lambda a: a.model)
    def test_sellable_is_the_offer_p_is_swept_from(self, agent):
        """Anonymous pricing sells to the offer whose sweep is P, bit for
        bit; a synthetic agent carries no offer and sells P itself."""
        config = OracleConfig(values=20, budgets=5, price_grid=256)
        rec = build_curves(agent, config)
        if agent.model == "synthetic":
            assert rec.sellable is rec.P
            return
        assert isinstance(rec.sellable, ap.OfferCurve)
        swept = ap.price_posting_curve(rec.sellable, grid=config.price_grid)
        assert swept.qs.tobytes() == rec.P.qs.tobytes() and swept.values.tobytes() == rec.P.values.tobytes()

    def test_concave_rbar_is_rbar_when_concave(self):
        agent = Agent(model="linear", values=Distribution.equal_revenue(10), id="er")
        rec = build_curves(agent, OracleConfig(price_grid=256))
        assert rec.label == "exact"
        assert rec.Rbar.concave
        assert rec.concave_rbar is rec.Rbar
        np.testing.assert_array_equal(rec.Rbar.values, ap.concave_hull(rec.P).values)

    def test_non_concave_rbar_takes_its_hull(self):
        agent = Agent(model="synthetic", p_knots=((0, 0), (0.25, 0.5), (1, 1.0)),
                      r_knots=((0, 0), (0.25, 1.0), (0.5, 1.0), (0.75, 2.0), (1, 2.0)), id="s")
        rec = build_curves(agent, OracleConfig())
        assert not rec.Rbar.concave
        assert rec.concave_rbar.concave
        np.testing.assert_array_equal(rec.concave_rbar.qs, [0.0, 0.25, 0.75, 1.0])
        np.testing.assert_array_equal(rec.concave_rbar.values, [0.0, 1.0, 2.0, 2.0])

    def test_oracle_runs_on_first_use_only(self, monkeypatch):
        from anonpricing import closeness

        calls = []
        oracle = closeness.ex_ante_curve_oracle
        monkeypatch.setattr(closeness, "ex_ante_curve_oracle", lambda *laws: calls.append(laws) or oracle(*laws))
        agent = Agent(model="private-budget", values=Distribution.uniform(0, 1),
                      budgets=Distribution.uniform(0, 0.8), id="pr")
        rec = build_curves(agent, OracleConfig(values=20, budgets=5, price_grid=256))
        assert rec.label == "upper bound" and len(rec.P.qs) > 2
        assert calls == []
        assert rec.Rbar is rec.Rbar
        assert rec.concave_rbar is rec.concave_rbar
        assert len(calls) == 1


class TestTransferInequalities:
    def test_ap_transfer_inequality(self, private_uu_posting_curve, private_uu_rbar):
        # alpha*beta * AP(P) >= AP(R) for every measured (alpha_at_beta, beta)
        P, R = private_uu_posting_curve, private_uu_rbar
        ap_p = ap.ap_optimize([P]).revenue
        ap_r = ap.ap_optimize([R]).revenue
        scale = max(ap_r, 1.0)
        for beta in (1.0, 2.0, 3.0):
            a = ap.alpha_for_beta(P, R, beta)
            assert ap_p >= ap_r / (a * beta) - 1e-6 * scale

    def test_ear_transfer_inequality(self, private_uu_posting_curve, private_uu_rbar):
        P, R = private_uu_posting_curve, private_uu_rbar
        z = ap.zeta(P, R)
        ear_p = ap.ear_optimize([ap.concave_hull(P)]).revenue
        ear_r = ap.ear_optimize([R]).revenue
        assert ear_p >= ear_r / z - 1e-6 * max(ear_r, 1.0)


@st.composite
def value_laws(draw):
    kind = draw(st.sampled_from(["uniform", "equal-revenue", "exponential", "discrete"]))
    if kind == "uniform":
        a = draw(st.floats(0.0, 2.0))
        return Distribution.uniform(a, a + draw(st.floats(0.1, 3.0)))
    if kind == "equal-revenue":
        return Distribution.equal_revenue(draw(st.floats(1.5, 200.0)))
    if kind == "exponential":
        return Distribution.exponential(draw(st.floats(0.2, 5.0)), hi=draw(st.floats(0.5, 8.0)))
    values = sorted(draw(st.sets(st.floats(0.05, 10.0), min_size=1, max_size=5)))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return Distribution.discrete(values, [w / sum(weights) for w in weights])


def one_agent(draw, model):
    """An agent of the given model on a drawn value law (continuous or
    discrete); a synthetic agent's R is at least its P at every shared knot,
    so R >= P pointwise."""
    if model == "synthetic":
        inner = sorted(draw(st.sets(st.floats(0.01, 0.99), min_size=1, max_size=4)))
        qs = [0.0] + inner + [1.0]
        p_vals = [0.0] + draw(st.lists(st.floats(0.0, 5.0), min_size=len(qs) - 1, max_size=len(qs) - 1))
        lifts = draw(st.lists(st.floats(1.0, 3.0), min_size=len(qs), max_size=len(qs)))
        return Agent(model="synthetic", p_knots=tuple(zip(qs, p_vals)),
                     r_knots=tuple((q, v * k) for q, v, k in zip(qs, p_vals, lifts)), id="s")
    values = draw(value_laws())
    if model == "linear":
        return Agent(model="linear", values=values, id="l")
    if model == "capacitated":
        return Agent(model="capacitated", values=values, capacity=values.hi * draw(st.floats(0.05, 1.0)), id="c")
    if model == "public-budget":
        # far smaller budgets sell with probabilities so small that 1 - (1 - q) loses digits
        return Agent(model=model, values=values, budget=draw(st.floats(1e-3, 2.0 * values.hi)), id="pb")
    return Agent(model=model, values=values, budgets=draw(value_laws()), id="pr")


@st.composite
def single_agents(draw):
    return one_agent(draw, draw(st.sampled_from(["linear", "capacitated", "synthetic"])))


@given(single_agents())
@settings(max_examples=40, deadline=None)
def test_every_closeness_parameter_at_least_one(agent):
    rep = ap.verify_instance([agent], OracleConfig(price_grid=256, betas=(1.0, 2.0, 4.0)))
    (row,) = rep.agents
    assert min(row.alphas.values()) >= 1.0 - 1e-12, row
    assert row.zeta >= 1.0 - 1e-12 and row.eta >= 1.0 - 1e-12, row


@pytest.mark.parametrize("k", [1, 3])
def test_verify_scans_each_linear_hull_once(k, monkeypatch):
    """k linear agents cost k hull scans, one per posting curve: its
    concavity and its hull (which is Rbar) share the scan, and Rbar knows
    its own hull from the start."""
    scans = []

    def counting(qs, vals, real=_upper_hull_indices):
        scans.append(len(qs))
        return real(qs, vals)

    monkeypatch.setattr("anonpricing.curves._upper_hull_indices", counting)
    agents = [Agent(model="linear", values=Distribution.uniform(0, 1.0 + i), id=f"u{i}") for i in range(k)]
    rep = ap.verify_instance(agents, OracleConfig(price_grid=256))
    assert sorted(scans) == sorted(len(rec.P.qs) for rec in rep.curves)


@pytest.mark.parametrize("model", ["linear", "capacitated", "public-budget", "private-budget", "synthetic"])
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_single_agent_ratio_is_eta(model, data):
    """For one agent EAR = max Rbar and AP = max P, so the verdict's ratio is
    eta: AP sells to the instance P and Rbar were built on.  A continuous
    law's P samples the offer that AP searches exactly, so there the ratio
    may read up to 1e-6 below eta, never above it."""
    agent = one_agent(data.draw, model)
    rep = ap.verify_instance([agent], OracleConfig())
    (row,) = rep.agents
    if rep.ap_posting.revenue == 0.0:   # a synthetic P of zeros sells nothing: 0/0 reads 1 in both
        assert rep.ratio == row.eta
    elif model in ("linear", "capacitated") and agent.values.kind != "discrete":
        assert row.eta * (1.0 - 1e-6) <= rep.ratio <= row.eta * (1.0 + 1e-9)
    else:
        assert abs(rep.ratio - row.eta) <= 1e-9 * row.eta


@given(st.floats(1e-300, 1e3))
# with a concavity tolerance of 1e-10 in absolute terms, this convex curve
# passed for concave and the ratio read 0
@example(2.2e-16)
@settings(max_examples=30, deadline=None)
def test_a_convex_curve_reads_ratio_eta_one_at_every_scale(scale):
    knots = ((0.0, 0.0), (0.5, 0.0), (1.0, scale))
    rep = ap.verify_instance([Agent(model="synthetic", p_knots=knots, r_knots=knots, id="s")], OracleConfig())
    (row,) = rep.agents
    assert rep.ratio == row.eta == 1.0


@given(st.floats(1e-300, 1e3))
# with a chord tolerance of 1e-12 in absolute terms, every price up to
# about 2e-12 sold this tent's peak surely and the ratio read 0.5
@example(8.190850154162397e-28)
@settings(max_examples=30, deadline=None)
def test_a_tent_curve_reads_ratio_eta_one_at_every_scale(height):
    knots = ((0.0, 0.0), (0.5, height), (1.0, 0.0))
    rep = ap.verify_instance([Agent(model="synthetic", p_knots=knots, r_knots=knots, id="s")], OracleConfig())
    (row,) = rep.agents
    assert rep.ratio == row.eta == 1.0
