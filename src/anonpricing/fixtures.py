"""Built-in instance library with pre-derived expected values.

Each fixture builds its agents from the distribution/curve primitives only,
and carries expected values with a tolerance and a provenance note saying
how the number was derived (closed form, grid search, enumeration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .curves import Agent, RevenueCurve, concave_hull, synthetic_curve
from .distributions import Distribution

MAX_AGENTS = 1000   # largest agent count a fixture builds


@dataclass(frozen=True)
class ExpectedValue:
    name: str
    value: float
    tol: float
    note: str
    kind: str = "equals"   # equals | at-most | at-least

    def check(self, computed: float) -> bool:
        if self.kind == "equals":
            return abs(computed - self.value) <= self.tol
        if self.kind == "at-most":
            return computed <= self.value + self.tol
        return computed >= self.value - self.tol


@dataclass(frozen=True)
class FixtureInstance:
    name: str
    params: dict
    agents: tuple
    expected: tuple      # ExpectedValue entries
    notes: str = ""


def _uniform01() -> Distribution:
    return Distribution.uniform(0.0, 1.0)


def _equal_revenue_mean(h: float) -> float:
    # E[v] for the unit-revenue law on [1, h]: integral of 1/v plus the atom
    return 1.0 + math.log(h)


def _capped_giveaway_revenue(h: float, C: float) -> float:
    """Always allocate, charge (v - C)^+: closed form ln(h / C) for the
    unit-revenue law when C >= 1."""
    return math.log(h / C)


def mhr_fail_curves(n: int) -> tuple[list[RevenueCurve], list[RevenueCurve]]:
    """Closed-form posting and ex-ante-bound curves for the budget-gap agents.

    Agent i sells only its budget-carrying types at positive prices, so the
    posting curve rises to (1/i^2, 1/i) and collapses; expected budget caps
    revenue at 1/i, so the ex-ante bound is flat beyond the kink.
    """
    ps, rs = [], []
    for i in range(1, n + 1):
        qk = 1.0 / i**2
        vk = 1.0 / i
        if i == 1:
            ps.append(synthetic_curve([(0.0, 0.0), (1.0, 1.0)]))
            rs.append(synthetic_curve([(0.0, 0.0), (1.0, 1.0)]))
        else:
            ps.append(synthetic_curve([(0.0, 0.0), (qk, vk), (qk + 1e-9, 0.0), (1.0, 0.0)]))
            rs.append(synthetic_curve([(0.0, 0.0), (qk, vk), (1.0, vk)]))
    return ps, rs


def _mhr_fail_agents(n: int) -> tuple[Agent, ...]:
    agents = []
    for i in range(1, n + 1):
        values = Distribution.point_mass(float(i))
        if i == 1:
            budgets = Distribution.point_mass(1.0)
        else:
            budgets = Distribution.discrete([0.0, float(i)], [1.0 - 1.0 / i**2, 1.0 / i**2])
        agents.append(Agent(model="private-budget", values=values, budgets=budgets, id=f"agent{i}"))
    return tuple(agents)


def _tightness_agents(alpha: float, beta: float) -> tuple[Agent, ...]:
    n = int(round(math.sqrt(beta)))
    rb = math.sqrt(beta)
    p_knots = ((0.0, 0.0), (1.0 / beta, 1.0), (1.0, rb))
    r_knots = ((0.0, 0.0), (1.0 / rb, alpha * rb), (1.0, alpha * rb))
    return tuple(Agent(model="synthetic", p_knots=p_knots, r_knots=r_knots, id=f"agent{i+1}") for i in range(n))


def _correlated_agent(h: float) -> Agent:
    """Value density proportional to 1/v^2 on [1, h] with the budget set to
    2h - v: the budget never binds at prices up to h, so the posting curve
    comes from the plain value law, while always-allocate mechanisms that
    extract nearly the full value earn about (h/(h-1)) ln h."""
    qs = np.concatenate([np.linspace(0.0, 1.0, 257)])
    pvals = qs * h / (1.0 + qs * (h - 1.0))
    P = list(zip(qs.tolist(), pvals.tolist()))
    r_top = h / (h - 1.0) * math.log(h)
    # a concave lower bound on R that still dominates P
    hull_pts = RevenueCurve(qs, np.maximum(pvals, qs * r_top))
    R = concave_hull(hull_pts)
    return Agent(model="synthetic", p_knots=tuple(P), r_knots=tuple(zip(R.qs.tolist(), R.values.tolist())), id="agent1")


def get_fixture(name: str, **params) -> FixtureInstance:
    """Instantiate a built-in fixture by name with keyword parameters.

    A parameter outside its fixture's domain (an agent count above
    MAX_AGENTS, for one) raises ValueError before any agent is built.
    """
    def real(key, default, ok, domain):
        value = float(params.pop(key, default))
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"fixture {name!r} needs {key} {domain}, got {value:g}")
        return value

    def count(default):
        n = real("n", default, lambda n: n.is_integer() and 1 <= n <= MAX_AGENTS,
                 f"an integer from 1 to {MAX_AGENTS}")
        return int(n)

    if name == "uniform-linear":
        n = count(2)
        _reject_extra(name, params)
        agents = tuple(Agent(model="linear", values=_uniform01(), id=f"agent{i+1}") for i in range(n))
        expected = []
        if n == 2:
            expected = [
                ExpectedValue("ap_revenue", 2.0 / (3.0 * math.sqrt(3.0)), 1e-4,
                              "stationary point of p(1-p^2), cross-checked by grid search"),
                ExpectedValue("ear_revenue", 0.5, 1e-6, "symmetric split q=(1/2,1/2) of two q(1-q) curves"),
            ]
        return FixtureInstance(name, {"n": n}, agents, tuple(expected))
    if name == "equal-revenue":
        h = real("h", 10.0, lambda h: h > 1.0, "> 1")
        _reject_extra(name, params)
        agents = (Agent(model="linear", values=Distribution.equal_revenue(h), id="agent1"),)
        expected = (
            ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
            ExpectedValue("ap_revenue", 1.0, 1e-9, "flat posting revenue"),
        )
        return FixtureInstance(name, {"h": h}, agents, expected)
    if name == "public-budget":
        w = real("w", 0.3, lambda w: w > 0.0, "> 0")
        _reject_extra(name, params)
        agents = (Agent(model="public-budget", values=_uniform01(), budget=w, id="agent1"),)
        expected = (
            ExpectedValue("posting_max", min(w, 0.5) * (1.0 - min(w, 0.5)), 1e-6,
                          "optimal price min(budget, monopoly reserve) on uniform values"),
        )
        return FixtureInstance(name, {"w": w}, agents, expected)
    if name == "private-uniform-mhr":
        _reject_extra(name, params)
        agents = (Agent(model="private-budget", values=_uniform01(), budgets=_uniform01(), id="agent1"),)
        expected = (
            ExpectedValue("posting_max", 0.19245008972987523, 1e-4,
                          "stationary point of (p - p^2/2)(1 - p), grid cross-check"),
        )
        return FixtureInstance(name, {}, agents, expected)
    if name == "mhr-fail":
        n = count(5)
        _reject_extra(name, params)
        agents = _mhr_fail_agents(n)
        H = sum(1.0 / i for i in range(1, n + 1))
        S = sum(1.0 / i**2 for i in range(1, n + 1))
        ear_exact = H - (S - 1.0)
        expected = (
            ExpectedValue("ap_revenue", 1.0, 1e-9,
                          "grid search over prices: posting 1 sells surely to the sure-budget agent"),
            ExpectedValue("ear_revenue", ear_exact, 1e-6,
                          "water-filling / grid enumeration of the closed-form curves; serving every "
                          "agent i at mass 1/i^2 is infeasible because those masses sum past 1, so the "
                          "harmonic total is only an upper bound on the gap"),
        )
        return FixtureInstance(name, {"n": n}, agents, expected,
                               notes="anonymous pricing earns O(1) while the ex-ante optimum grows like ln n")
    if name == "correlated-fail":
        h = real("h", 100.0, lambda h: h > 1.0, "> 1")
        _reject_extra(name, params)
        agent = _correlated_agent(h)
        expected = (
            ExpectedValue("posting_max", 1.0, 1e-6, "p*(h-p)/(p*(h-1)) peaks at price 1"),
            ExpectedValue("ap_revenue", 1.2, 0.0, "grid-search cap; implementation-derived, not a closed form",
                          kind="at-most"),
            ExpectedValue("r_lower_bound", h / (h - 1.0) * math.log(h), 1e-9,
                          "welfare of the nearly-full-extraction mechanism: (h/(h-1)) ln h"),
        )
        return FixtureInstance(name, {"h": h}, (agent,), expected)
    if name == "risk-equal-revenue":
        h = real("h", 100.0, lambda h: h > 1.0, "> 1")
        C = real("C", 5.0, lambda C: 1.0 <= C <= h, "in [1, h]")   # ln(h/C) needs C >= 1
        _reject_extra(name, params)
        agents = (Agent(model="capacitated", values=Distribution.equal_revenue(h), capacity=C, id="agent1"),)
        expected = (
            ExpectedValue("giveaway_revenue", _capped_giveaway_revenue(h, C), 1e-6,
                          "always allocate and charge (v - C)^+: closed form ln(h/C)"),
            ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
            ExpectedValue("bound_multiplier", 2.0 + math.log(h / C), 1e-9,
                          "two-priced upper bound multiplier 2 + ln(h/C)"),
        )
        return FixtureInstance(name, {"h": h, "C": C}, agents, expected)
    if name == "overpay":
        h = real("h", 100.0, lambda h: h > 1.0, "> 1")
        _reject_extra(name, params)
        agents = (Agent(model="capacitated", values=Distribution.equal_revenue(h), capacity=h, id="agent1"),)
        expected = (
            ExpectedValue("overpay_revenue", 0.5 * _equal_revenue_mean(h), 1e-6,
                          "half the welfare (1 + ln h)/2: charge v - h or h with equal odds"),
            ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
        )
        return FixtureInstance(name, {"h": h}, agents, expected,
                               notes="needs winners charged above value; computed as a closed form, never simulated")
    if name == "tightness":
        alpha = real("alpha", 2.0, lambda a: a >= 1.0, ">= 1")
        # round(sqrt(beta)) agents, so beta caps the agent count as n does
        beta = real("beta", 4.0, lambda b: 1.0 < b <= MAX_AGENTS**2, f"in (1, {MAX_AGENTS**2}]")
        _reject_extra(name, params)
        agents = _tightness_agents(alpha, beta)
        n = len(agents)
        sale_prob = 1.0 - (1.0 - 1.0 / math.sqrt(beta)) ** n
        expected = (
            ExpectedValue("ap_ex_ante_at_alphabeta", alpha * beta * sale_prob, 1e-9,
                          "effective price alpha*beta serves 1/sqrt(beta) of each agent"),
            ExpectedValue("sale_probability", sale_prob, 1e-12,
                          "1 - (1 - 1/sqrt(beta))^sqrt(beta), exactly 3/4 at beta=4"),
        )
        return FixtureInstance(name, {"alpha": alpha, "beta": beta}, agents, expected)
    raise KeyError(f"unknown fixture {name!r}")


def _reject_extra(name, params):
    if params:
        raise ValueError(f"fixture {name!r} got unexpected parameters {sorted(params)}")


def fixtures() -> list[dict]:
    """The built-in fixture set with parameter signatures."""
    return [
        {"name": "uniform-linear", "params": "n=2", "about": "n linear buyers with uniform(0,1) values"},
        {"name": "equal-revenue", "params": "h=10", "about": "unit-revenue value law: 1 - 1/v with an atom at h"},
        {"name": "public-budget", "params": "w=0.3", "about": "uniform(0,1) values with a known budget"},
        {"name": "private-uniform-mhr", "params": "", "about": "independent uniform values and uniform budgets"},
        {"name": "mhr-fail", "params": "n=5", "about": "value i with budget i at probability 1/i^2: unbounded posting gap"},
        {"name": "correlated-fail", "params": "h=100", "about": "fully correlated value and budget: posting stuck at O(1)"},
        {"name": "risk-equal-revenue", "params": "h=100,C=5", "about": "capacitated buyer on the unit-revenue law"},
        {"name": "overpay", "params": "h=100", "about": "overpayment mechanism extracting half the welfare"},
        {"name": "tightness", "params": "alpha=2,beta=4", "about": "synthetic pair showing the transfer factor is near-tight"},
    ]


def random_concave_curve(rng: np.random.Generator, scale: float | None = None) -> RevenueCurve:
    """A random nonnegative concave curve through the origin.

    Built as a min of affine pieces (one through the origin), which keeps
    concavity exact no matter the draws.
    """
    if scale is None:
        scale = float(np.exp(rng.uniform(-1.0, 2.0)))
    n_aff = int(rng.integers(1, 5))
    b0 = rng.uniform(0.5, 10.0) * scale
    intercepts = rng.uniform(0.05, 1.0, size=n_aff) * scale
    slopes = np.array([rng.uniform(-a, 3.0 * scale) for a in intercepts])
    qs = np.linspace(0.0, 1.0, 65)
    vals = np.minimum(b0 * qs, np.min(intercepts[:, None] + slopes[:, None] * qs[None, :], axis=0))
    vals = np.maximum(vals, 0.0)
    vals[0] = 0.0
    return RevenueCurve(qs, vals, name="random-concave")
