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
    kind: str = "equals"   # equals | at-most

    def check(self, computed: float) -> bool:
        if self.kind == "at-most":
            return computed <= self.value + self.tol
        return abs(computed - self.value) <= self.tol


@dataclass(frozen=True)
class FixtureInstance:
    name: str
    params: dict
    agents: tuple
    expected: tuple      # ExpectedValue entries
    notes: str = ""


def _uniform01() -> Distribution:
    return Distribution.uniform(0.0, 1.0)


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


# -- builders: the parameters as keywords in, (agents, expected values[, notes]) out


def _uniform_linear(n):
    agents = tuple(Agent(model="linear", values=_uniform01(), id=f"agent{i+1}") for i in range(n))
    if n != 2:
        return agents, ()
    return agents, (
        ExpectedValue("ap_revenue", 2.0 / (3.0 * math.sqrt(3.0)), 1e-4,
                      "stationary point of p(1-p^2), cross-checked by grid search"),
        ExpectedValue("ear_revenue", 0.5, 1e-6, "symmetric split q=(1/2,1/2) of two q(1-q) curves"),
    )


def _equal_revenue(h):
    return (Agent(model="linear", values=Distribution.equal_revenue(h), id="agent1"),), (
        ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
        ExpectedValue("ap_revenue", 1.0, 1e-9, "flat posting revenue"),
    )


def _public_budget(w):
    return (Agent(model="public-budget", values=_uniform01(), budget=w, id="agent1"),), (
        ExpectedValue("posting_max", min(w, 0.5) * (1.0 - min(w, 0.5)), 1e-6,
                      "optimal price min(budget, monopoly reserve) on uniform values"),
    )


def _private_uniform_mhr():
    return (Agent(model="private-budget", values=_uniform01(), budgets=_uniform01(), id="agent1"),), (
        ExpectedValue("posting_max", 0.19245008972987523, 1e-4,
                      "stationary point of (p - p^2/2)(1 - p), grid cross-check"),
    )


def _mhr_fail(n):
    agents = []
    for i in range(1, n + 1):
        values = Distribution.point_mass(float(i))
        if i == 1:
            budgets = Distribution.point_mass(1.0)
        else:
            budgets = Distribution.discrete([0.0, float(i)], [1.0 - 1.0 / i**2, 1.0 / i**2])
        agents.append(Agent(model="private-budget", values=values, budgets=budgets, id=f"agent{i}"))
    H = sum(1.0 / i for i in range(1, n + 1))
    S = sum(1.0 / i**2 for i in range(1, n + 1))
    expected = (
        ExpectedValue("ap_revenue", 1.0, 1e-9,
                      "grid search over prices: posting 1 sells surely to the sure-budget agent"),
        ExpectedValue("ear_revenue", H - (S - 1.0), 1e-6,
                      "water-filling / grid enumeration of the closed-form curves; serving every "
                      "agent i at mass 1/i^2 is infeasible because those masses sum past 1, so the "
                      "harmonic total is only an upper bound on the gap"),
    )
    return tuple(agents), expected, "anonymous pricing earns O(1) while the ex-ante optimum grows like ln n"


def _correlated_fail(h):
    """Value density proportional to 1/v^2 on [1, h] with the budget set to
    2h - v: the budget never binds at prices up to h, so the posting curve
    comes from the plain value law, while always-allocate mechanisms that
    extract nearly the full value earn about (h/(h-1)) ln h."""
    qs = np.linspace(0.0, 1.0, 257)
    pvals = qs * h / (1.0 + qs * (h - 1.0))
    r_top = h / (h - 1.0) * math.log(h)
    # a concave lower bound on R that still dominates P
    R = concave_hull(RevenueCurve(qs, np.maximum(pvals, qs * r_top)))
    agent = Agent(model="synthetic", p_knots=tuple(zip(qs.tolist(), pvals.tolist())),
                  r_knots=tuple(zip(R.qs.tolist(), R.values.tolist())), id="agent1")
    return (agent,), (
        ExpectedValue("posting_max", 1.0, 1e-6, "p*(h-p)/(p*(h-1)) peaks at price 1"),
        ExpectedValue("ap_revenue", 1.2, 0.0, "grid-search cap; implementation-derived, not a closed form",
                      kind="at-most"),
        ExpectedValue("r_lower_bound", r_top, 1e-9,
                      "welfare of the nearly-full-extraction mechanism: (h/(h-1)) ln h"),
    )


def _risk_equal_revenue(h, C):
    return (Agent(model="capacitated", values=Distribution.equal_revenue(h), capacity=C, id="agent1"),), (
        ExpectedValue("giveaway_revenue", math.log(h / C), 1e-6,
                      "always allocate and charge (v - C)^+: closed form ln(h/C)"),
        ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
        ExpectedValue("bound_multiplier", 2.0 + math.log(h / C), 1e-9,
                      "two-priced upper bound multiplier 2 + ln(h/C)"),
    )


def _overpay(h):
    return (Agent(model="capacitated", values=Distribution.equal_revenue(h), capacity=h, id="agent1"),), (
        # E[v] = 1 + ln h for the unit-revenue law on [1, h]: the integral of 1/v plus the atom
        ExpectedValue("overpay_revenue", 0.5 * (1.0 + math.log(h)), 1e-6,
                      "half the welfare (1 + ln h)/2: charge v - h or h with equal odds"),
        ExpectedValue("posting_max", 1.0, 1e-9, "every posted price earns exactly 1"),
    ), "needs winners charged above value; computed as a closed form, never simulated"


def _tightness(alpha, beta):
    n = int(round(math.sqrt(beta)))
    rb = math.sqrt(beta)
    p_knots = ((0.0, 0.0), (1.0 / beta, 1.0), (1.0, rb))
    r_knots = ((0.0, 0.0), (1.0 / rb, alpha * rb), (1.0, alpha * rb))
    agents = tuple(Agent(model="synthetic", p_knots=p_knots, r_knots=r_knots, id=f"agent{i+1}") for i in range(n))
    sale_prob = 1.0 - (1.0 - 1.0 / math.sqrt(beta)) ** n
    return agents, (
        ExpectedValue("ap_ex_ante_at_alphabeta", alpha * beta * sale_prob, 1e-9,
                      "effective price alpha*beta serves 1/sqrt(beta) of each agent"),
        ExpectedValue("sale_probability", sale_prob, 1e-12,
                      "1 - (1 - 1/sqrt(beta))^sqrt(beta), exactly 3/4 at beta=4"),
    )


def _is_count(n, _):
    return n.is_integer() and 1 <= n <= MAX_AGENTS


def _above_one(x, _):
    return x > 1.0


_COUNT = f"an integer from 1 to {MAX_AGENTS}"

# name: (listing text, parameters, builder).  A parameter is (key, default,
# domain check, domain text), read in order; the check sees the value and
# the parameters read before it, and the builder takes them all as keywords.
_FIXTURES = {
    "uniform-linear": ("n linear buyers with uniform(0,1) values", (("n", 2, _is_count, _COUNT),), _uniform_linear),
    "equal-revenue": ("unit-revenue value law: 1 - 1/v with an atom at h",
                      (("h", 10.0, _above_one, "> 1"),), _equal_revenue),
    "public-budget": ("uniform(0,1) values with a known budget",
                      (("w", 0.3, lambda w, _: w > 0.0, "> 0"),), _public_budget),
    "private-uniform-mhr": ("independent uniform values and uniform budgets", (), _private_uniform_mhr),
    "mhr-fail": ("value i with budget i at probability 1/i^2: unbounded posting gap",
                 (("n", 5, _is_count, _COUNT),), _mhr_fail),
    "correlated-fail": ("fully correlated value and budget: posting stuck at O(1)",
                        (("h", 100.0, _above_one, "> 1"),), _correlated_fail),
    "risk-equal-revenue": ("capacitated buyer on the unit-revenue law",
                           (("h", 100.0, _above_one, "> 1"),
                            # ln(h/C) needs C >= 1
                            ("C", 5.0, lambda C, read: 1.0 <= C <= read["h"], "in [1, h]")),
                           _risk_equal_revenue),
    "overpay": ("overpayment mechanism extracting half the welfare", (("h", 100.0, _above_one, "> 1"),), _overpay),
    "tightness": ("synthetic pair showing the transfer factor is near-tight",
                  (("alpha", 2.0, lambda a, _: a >= 1.0, ">= 1"),
                   # round(sqrt(beta)) agents, so beta caps the agent count as n does
                   ("beta", 4.0, lambda b, _: 1.0 < b <= MAX_AGENTS**2, f"in (1, {MAX_AGENTS**2}]")),
                  _tightness),
}


def get_fixture(name: str, **params) -> FixtureInstance:
    """Instantiate a built-in fixture by name with keyword parameters.

    A parameter outside its fixture's domain (an agent count above
    MAX_AGENTS, for one) raises ValueError before any agent is built; the
    agent count `n` is read as an int.
    """
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    _, spec, build = _FIXTURES[name]
    read = {}
    for key, default, ok, domain in spec:
        value = float(params.pop(key, default))
        if not (math.isfinite(value) and ok(value, read)):
            raise ValueError(f"fixture {name!r} needs {key} {domain}, got {value:g}")
        read[key] = int(value) if key == "n" else value
    if params:
        raise ValueError(f"fixture {name!r} got unexpected parameters {sorted(params)}")
    return FixtureInstance(name, read, *build(**read))


def fixtures() -> list[dict]:
    """The built-in fixture set with parameter signatures."""
    return [{"name": name, "params": ",".join(f"{key}={default:g}" for key, default, *_ in spec), "about": about}
            for name, (about, spec, _) in _FIXTURES.items()]


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
