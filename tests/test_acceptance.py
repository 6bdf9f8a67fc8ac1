"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Expected values are frozen from independent oracles (quadrature,
enumeration, closed forms worked by hand); tolerances are pinned inline.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import anonpricing as ap
from anonpricing import (
    Agent,
    DiscreteTypeSpace,
    Distribution,
    OracleConfig,
    ex_ante_curve_oracle,
    random_concave_curve,
    simplex_solve,
)
from anonpricing.cli import compute_fixture_value
from anonpricing.fixtures import mhr_fail_curves

from helpers import brute_force_ear, enumerate_lp_max, ex_ante_lp_matrices

E = math.e


def report(num, ok, detail):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# -- 1. linear e-bound --------------------------------------------------------


def test_c01_linear_e_bound_random_sets():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(200):
        curves = [random_concave_curve(rng) for _ in range(int(rng.integers(1, 6)))]
        apv = ap.ap_optimize(curves, grid=512).revenue
        earv = ap.ear_optimize(curves).revenue
        if apv > 0:
            worst = max(worst, earv / apv)
    ok = worst <= E + 1e-6
    assert report(1, ok, f"worst EAR/AP over 200 random concave sets = {worst:.6f} <= e + 1e-6")
    assert worst <= E + 1e-6


def test_c01_two_uniform_values():
    agents = [Agent(model="linear", values=Distribution.uniform(0, 1), id=f"u{i}") for i in (1, 2)]
    offers = [ap.offer_curve(a) for a in agents]
    ap_star = ap.ap_optimize(offers).revenue
    hulls = [ap.concave_hull(ap.price_posting_curve(o)) for o in offers]
    ear = ap.ear_optimize(hulls).revenue
    ok_ap = abs(ap_star - 0.38490017945975047) <= 1e-4
    ok_ear = abs(ear - 0.5) <= 1e-6
    ratio = ear / ap_star
    ok = ok_ap and ok_ear
    assert report(1, ok, f"two-uniform AP*={ap_star:.6f} (0.38490 +/- 1e-4), EAR={ear:.8f} (0.5 +/- 1e-6), ratio={ratio:.4f}")
    assert ok_ap and ok_ear


# -- 2. public budget: oracle curve vs discrete posting curve ----------------


@pytest.mark.parametrize("w", [0.1, 0.3, 0.7])
def test_c02_public_budget_posting_equals_oracle(w):
    Fd = ap.discretize(Distribution.uniform(0, 1), 50)
    space = DiscreteTypeSpace.public_budget(Fd, 50, w)
    rbar = ex_ante_curve_oracle(space)
    Pd = ap.price_posting_curve(ap.offer_curve(Agent(model="public-budget", values=Fd, budget=w, id="d")))
    qs = np.linspace(0.0, 1.0, 33)
    rv = np.asarray(rbar.eval(qs))
    pv = np.asarray(Pd.eval(qs))
    rel = np.abs(rv - pv) / np.maximum(pv, 1e-12)
    rel[(rv < 1e-12) & (pv < 1e-12)] = 0.0
    worst = float(rel.max())
    ok = worst <= 0.02
    report(2, ok, f"w={w}: max relative gap oracle-vs-posting over 33 grid = {worst:.4f} <= 0.02")
    # w=0.1 exceeds the stated tolerance: the value-IC menu optimum between
    # support quantiles beats every mixture of postings by ~3.5% when the
    # budget pins payments this low (see notes in the repo's decision log)
    assert worst <= 0.02


# -- 3. private-budget MHR concavity -----------------------------------------


def test_c03_private_budget_posting_concavity():
    pairs = [
        ("uniform x uniform", Distribution.uniform(0, 1)),
        ("uniform x trunc-exponential", Distribution.exponential(1.0)),
    ]
    all_ok = True
    for label, G in pairs:
        agent = Agent(model="private-budget", values=Distribution.uniform(0, 1), budgets=G, id="pr")
        P = ap.price_posting_curve(ap.offer_curve(agent))
        qg = np.linspace(0.0, 1.0, 2048)
        y = np.asarray(P.eval(qg))
        worst = float(np.max(y[2:] - 2 * y[1:-1] + y[:-2])) / float(y.max())
        ok = worst <= 1e-6
        all_ok &= report(3, ok, f"{label}: largest second difference {worst:.2e} <= 1e-6 relative")
    assert all_ok


# -- 4-6. private-budget closeness parameters --------------------------------


def test_c04_private_budget_zeta(private_uu_posting_curve, private_uu_rbar):
    z = ap.zeta(private_uu_posting_curve, private_uu_rbar)
    ok = z <= 3.05
    assert report(4, ok, f"uniform x uniform zeta(P, Rbar at 60x20) = {z:.4f} <= 3.05")


def test_c05_private_budget_eta_and_peak(private_uu_posting_curve, private_uu_rbar):
    e_val = ap.eta(private_uu_posting_curve, private_uu_rbar)
    peak = private_uu_posting_curve.max_value()
    ok_eta = e_val <= 2.05
    ok_peak = abs(peak - 0.19245008972987523) <= 1e-4
    ok = ok_eta and ok_peak
    assert report(5, ok, f"eta = {e_val:.4f} <= 2.05; max P = {peak:.6f} (0.19245 +/- 1e-4)")


def test_c06_private_budget_kappa_window(private_uu_posting_curve, private_uu_rbar):
    kappa = 1.0 / Distribution.uniform(0, 1).exceed_mean_probability()
    a = ap.alpha_for_beta(private_uu_posting_curve, private_uu_rbar, kappa + 1.0)
    ok_kappa = abs(kappa - 2.0) <= 1e-12
    ok_alpha = a <= (2.0 + kappa) + 0.05
    ok = ok_kappa and ok_alpha
    assert report(6, ok, f"kappa = {kappa:.1f}; alpha at beta = kappa+1 = {a:.4f} <= 4.05")


# -- 7. random-price guarantees -------------------------------------------------


def test_c07_random_price_guarantees():
    all_ok = True
    for w in np.linspace(0.05, 1.0, 20):
        bench_p = min(float(w), 0.5)
        bench = bench_p * (1 - bench_p)
        got = ap.random_price_revenue_public(Distribution.uniform(0, 1), float(w))
        all_ok &= got >= 0.5 * bench - 1e-8
    report(7, all_ok, "random posted price earns at least half the budget-capped reserve revenue (20-point w grid)")
    got_full = ap.random_price_revenue_public(Distribution.uniform(0, 1), 1.0)
    ok_full = abs(got_full - 1.0 / 6.0) <= 1e-6
    # spot value frozen from the defining integral, evaluated by quadrature:
    # int_0^0.15 r(1-r) dr + 0.15 * int_0.15^1 (1-r) dr = 0.0643125
    oracle_val, _ = integrate.quad(lambda r: min(r, 0.15) * (1 - r), 0, 1, points=[0.15])
    got_small = ap.random_price_revenue_public(Distribution.uniform(0, 1), 0.15)
    ok_small = abs(got_small - oracle_val) <= 1e-6 and abs(oracle_val - 0.0643125) <= 1e-9
    all_ok &= report(7, ok_full and ok_small,
                     f"spot checks: w=1 -> {got_full:.8f} (1/6), w=0.15 -> {got_small:.8f} ({oracle_val:.7f})")
    assert all_ok and ok_full and ok_small


# -- 8. risk-averse closeness --------------------------------------------------


def test_c08_capacitated_two_priced_closeness():
    P = ap.concave_hull(Agent(model="linear", values=Distribution.equal_revenue(100), id="er").price_curve())
    qs = np.unique(np.concatenate([P.qs, np.linspace(0, 1, 257)]))
    bound_curve = ap.RevenueCurve(qs, [ap.risk_two_priced_bound(P, 5.0, 100.0, float(q)).bound for q in qs])
    z = ap.zeta(P, bound_curve)
    ok_z = z <= 2 + math.log(20) + 1e-6
    fix = ap.get_fixture("risk-equal-revenue", h=100, C=5)
    giveaway = compute_fixture_value(fix, "giveaway_revenue", OracleConfig())
    pmax = compute_fixture_value(fix, "posting_max", OracleConfig())
    ok_g = abs(giveaway - math.log(20)) <= 1e-6 and abs(pmax - 1.0) <= 1e-9
    ok = ok_z and ok_g
    assert report(8, ok, f"zeta vs two-priced bound = {z:.6f} <= 2+ln20; giveaway = {giveaway:.6f} (ln 20), max P = {pmax:g}")


# -- 9. overpayment fixture -----------------------------------------------------


def test_c09_overpay_half_welfare():
    fix = ap.get_fixture("overpay", h=100)
    got = compute_fixture_value(fix, "overpay_revenue", OracleConfig())
    pmax = compute_fixture_value(fix, "posting_max", OracleConfig())
    ok = abs(got - 2.802585092994046) <= 1e-6 and abs(pmax - 1.0) <= 1e-9
    assert report(9, ok, f"overpay revenue = {got:.8f} ((1+ln 100)/2 = 2.80259), posting stuck at {pmax:g}")


# -- 10. budget-gap fixture -----------------------------------------------------


def test_c10_budget_gap_anonymous_price_capped():
    fix = ap.get_fixture("mhr-fail", n=30)
    res = ap.ap_optimize([ap.offer_curve(a) for a in fix.agents])
    ok = res.revenue <= 2.1
    assert report(10, ok, f"n=30 anonymous pricing = {res.revenue:.6f} <= 2.1")


def test_c10_budget_gap_ear_reaches_harmonic_target():
    """The gap instance's ex-ante optimum is sometimes quoted as the
    harmonic number H_n, from serving every agent i at mass 1/i^2.  Those
    masses sum to 1.61 > 1 at n=30, so that service plan is infeasible and
    the true optimum is H_n - (sum 1/i^2 - 1) = 3.3828.  The harmonic
    target is asserted anyway to document the discrepancy; the water-fill
    and grid-enumeration oracles below agree on the feasible optimum."""
    _, r_curves = mhr_fail_curves(30)
    ear = ap.ear_optimize(r_curves).revenue
    H = sum(1.0 / i for i in range(1, 31))
    S = sum(1.0 / i**2 for i in range(1, 31))
    feasible_opt = H - (S - 1.0)
    assert abs(ear - feasible_opt) <= 1e-6
    bf = brute_force_ear(r_curves[:3], step=0.01)
    assert bf <= ear + 1e-9  # the 3-curve restriction of the same program
    ok = ear >= 3.99
    report(10, ok, f"n=30 EAR = {ear:.4f} vs harmonic target 3.99 (feasible optimum is {feasible_opt:.4f})")
    assert ear >= 3.99


def test_c10_budget_gap_ratio_monotone():
    ratios = []
    for n in (5, 10, 20, 30):
        fix = ap.get_fixture("mhr-fail", n=n)
        apv = ap.ap_optimize([ap.offer_curve(a) for a in fix.agents]).revenue
        _, r_curves = mhr_fail_curves(n)
        earv = ap.ear_optimize(r_curves).revenue
        ratios.append(earv / apv)
    ok = all(b > a for a, b in zip(ratios, ratios[1:]))
    assert report(10, ok, "gap ratio grows with n: " + ", ".join(f"{r:.3f}" for r in ratios))


# -- 11. near-tightness of the transfer factor ----------------------------------


def test_c11_tightness_instance():
    fix = ap.get_fixture("tightness", alpha=2, beta=4)
    p_curves = [ap.synthetic_curve(a.p_knots) for a in fix.agents]
    r_curves = [ap.synthetic_curve(a.r_knots) for a in fix.agents]
    ap_r = ap.ap_revenue(r_curves, 8.0)
    sale_prob = ap_r.revenue / ap_r.price
    ear_p = ap.ear_optimize(p_curves).revenue
    ap_p = ap.ap_optimize(p_curves).revenue
    ok_ap = ap_r.revenue >= 6.0 - 1e-6
    ok_ear = ear_p <= 8.0 / 3.0 + 1e-6
    ok_prob = abs(sale_prob - 0.75) <= 1e-12
    ratio = ap_r.revenue / ap_p
    ok_ratio = ratio >= 2.25
    ok = ok_ap and ok_ear and ok_prob and ok_ratio
    assert report(
        11, ok,
        f"AP on ex-ante curves at price 8 = {ap_r.revenue:.6f} >= 6; EAR on posting curves = {ear_p:.6f} <= 8/3; "
        f"sale probability = {sale_prob:g} (3/4); achieved AP ratio = {ratio:.3f} >= 2.25",
    )


# -- 12. oracle soundness --------------------------------------------------------


def test_c12_simplex_matches_vertex_enumeration():
    checked = 0
    for (v1, v2) in ((1.0, 2.0), (1.0, 3.0), (0.5, 1.5)):
        for f1 in (0.25, 0.5, 0.75):
            for (w1, w2) in ((0.5, 1.5), (1.0, 3.0)):
                for g1 in (0.3, 0.7):
                    for q in (0.2, 0.5, 0.75, 1.0):
                        sp = DiscreteTypeSpace(np.array([v1, v2]), np.array([f1, 1 - f1]),
                                               np.array([w1, w2]), np.array([g1, 1 - g1]),
                                               "private-budget")
                        c, aub, bub, aeq, beq = ex_ante_lp_matrices(
                            sp.values, sp.value_probs, sp.budgets, sp.budget_probs, q)
                        sol = simplex_solve(c, aub + aeq, ["<="] * len(aub) + ["="], bub + beq)
                        ref = enumerate_lp_max(c, aub, bub, aeq, beq)
                        assert ref is not None
                        assert abs(sol.objective - ref) <= 1e-9, (v1, v2, f1, w1, w2, g1, q)
                        assert abs(ex_ante_curve_oracle(sp).eval(q) - ref) <= 1e-9, (v1, v2, f1, w1, w2, g1, q)
                        checked += 1
    assert report(12, True, f"simplex and the exact ex-ante curve equal exhaustive vertex enumeration "
                            f"on {checked} two-by-two spaces (1e-9)")


def test_c12_water_filling_matches_brute_force():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        curves = [random_concave_curve(rng) for _ in range(3)]
        bf = brute_force_ear(curves, step=0.01)
        wf = ap.ear_optimize(curves).revenue
        max_slope = max(float(np.max(np.abs(np.diff(c.values) / np.diff(c.qs)))) for c in curves)
        gap = abs(bf - wf) / max(1e-12, 3 * 0.01 * max_slope)
        worst = max(worst, gap)
        assert abs(bf - wf) <= 3 * 0.01 * max_slope
    assert report(12, True, f"water-filling vs grid enumeration on 100 random 3-curve sets (worst {worst:.3f} of budget)")


# -- 13. transfer-bound inequalities ---------------------------------------------


def _transfer_checks(P_list, R_list, betas):
    """AP(P) >= AP(R)/(alpha beta) and EAR(hull P) >= EAR(R)/zeta."""
    ap_p = ap.ap_optimize(P_list).revenue
    ap_r = ap.ap_optimize(R_list).revenue
    hulls = [c if c.concave else ap.concave_hull(c) for c in P_list]
    r_hulls = [c if c.concave else ap.concave_hull(c) for c in R_list]
    ear_p = ap.ear_optimize(hulls).revenue
    ear_r = ap.ear_optimize(r_hulls).revenue
    results = []
    for beta in betas:
        alpha = max(max(ap.alpha_for_beta(p, r, beta) for p, r in zip(P_list, R_list)), 1.0)
        if not math.isfinite(alpha):
            continue
        scale = max(ap_r, 1.0)
        results.append(("ap", beta, ap_p >= ap_r / (alpha * beta) - 1e-6 * scale))
    z = max(max(ap.zeta(p, r) for p, r in zip(P_list, R_list)), 1.0)
    scale = max(ear_r, 1.0)
    results.append(("ear", z, ear_p >= ear_r / z - 1e-6 * scale))
    return results


def test_c13_transfer_bounds_hold(private_uu_rbar):
    instances = {}
    P = ap.price_posting_curve(ap.offer_curve(Agent(model="linear", values=Distribution.uniform(0, 1), id="u")))
    H = ap.concave_hull(P)
    instances["two-uniform"] = ([P, P], [H, H], (1.0, 2.0))
    fix = ap.get_fixture("tightness", alpha=2, beta=4)
    instances["tightness"] = (
        [ap.synthetic_curve(a.p_knots) for a in fix.agents],
        [ap.synthetic_curve(a.r_knots) for a in fix.agents],
        (4.0, 8.0),
    )
    Fd = ap.discretize(Distribution.uniform(0, 1), 60)
    Gd = ap.discretize(Distribution.uniform(0, 1), 20)
    Pd = ap.price_posting_curve(ap.offer_curve(Agent(model="private-budget", values=Fd, budgets=Gd, id="d")))
    instances["private-uniform"] = ([Pd], [private_uu_rbar], (1.0, 2.0, 3.0))
    Fp = ap.discretize(Distribution.uniform(0, 1), 50)
    spw = DiscreteTypeSpace.public_budget(Fp, 50, 0.3)
    rbw = ex_ante_curve_oracle(spw)
    Pw = ap.price_posting_curve(ap.offer_curve(Agent(model="public-budget", values=Fp, budget=0.3, id="pb")))
    instances["public-budget"] = ([Pw], [rbw], (1.0, 2.0))
    all_ok = True
    for name, (ps, rs, betas) in instances.items():
        for kind, param, ok in _transfer_checks(ps, rs, betas):
            all_ok &= ok
            if not ok:
                report(13, False, f"{name}: {kind} transfer fails at parameter {param:.3f}")
    assert report(13, all_ok, f"AP and EAR transfer inequalities hold on {len(instances)} instances")
