"""Closeness parameters between price-posting and ex-ante revenue curves,
and the approximation bounds they transfer.

alpha/beta: P(q) >= R(q)/alpha on [0, 1/beta] (price-posting closeness).
zeta: every q has some q' <= q with P(q') >= R(q)/zeta (ex-ante closeness).
eta: ratio of the two curves' global maxima.
rho: the concave-curve anonymous-pricing constant, numerically e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .curves import Agent, OfferCurve, RevenueCurve, concave_hull, offer_curve, price_posting_curve, synthetic_curve
from .distributions import mhr_report, regularity_report
from .mechanisms import ApResult, EarResult, ap_optimize, ear_optimize, risk_two_priced_bound
from .oracle import ex_ante_curve_oracle

RHO = math.e
_ORIGIN_CUTOFF = 1e-6  # both curves vanish linearly at q=0; skip the 0/0 zone
_KAPPA_CEILING = 50.0
_LP_SLACK = 0.05      # relative slack on LP-backed comparisons
_EXACT_SLACK = 1e-6   # relative slack on closed-form comparisons


@dataclass(frozen=True)
class OracleConfig:
    values: int = 60
    budgets: int = 20
    price_grid: int = 4096
    betas: tuple = ()

    def __post_init__(self):
        if any(b < 1.0 for b in self.betas):
            raise ValueError("betas must be at least 1")


def _ratio_grid(P: RevenueCurve, R: RevenueCurve, hi: float) -> np.ndarray:
    """The knots of both curves in the window [_ORIGIN_CUTOFF, hi], and its ends."""
    qs = np.concatenate([P.qs, R.qs, [_ORIGIN_CUTOFF, hi]])
    return np.unique(qs[(qs >= _ORIGIN_CUTOFF) & (qs <= hi)])


def alpha_for_beta(P: RevenueCurve, R: RevenueCurve, beta: float) -> float:
    """Smallest alpha with P >= R/alpha on [0, 1/beta]; inf if P vanishes
    where R does not.  Exact for piecewise-linear curves: between knots of
    both, R/P is a ratio of linear functions, so it peaks at a knot."""
    if beta < 1.0:
        raise ValueError("beta must be at least 1")
    qs = _ratio_grid(P, R, 1.0 / beta)
    return _max_ratio(np.asarray(R.eval(qs)), np.asarray(P.eval(qs)))


def zeta(P: RevenueCurve, R: RevenueCurve) -> float:
    """Smallest z such that the running max of P covers R/z everywhere.

    Exact for piecewise-linear curves.  Between knots of both, the running
    max M is constant until P climbs through it and equal to P after, so
    R/M peaks at a knot or at such a crossing.  M counts P's knots below
    the window too."""
    head = np.max(P.values[P.qs < _ORIGIN_CUTOFF], initial=-np.inf)
    qs = _ratio_grid(P, R, 1.0)
    p = np.asarray(P.eval(qs))
    top = np.maximum.accumulate(np.maximum(p, head))[:-1]
    lo, up = p[:-1], p[1:]
    climb = (lo < top) & (up > top)
    t = (top[climb] - lo[climb]) / (up[climb] - lo[climb])
    qs = np.unique(np.concatenate([qs, qs[:-1][climb] + t * np.diff(qs)[climb]]))
    return _max_ratio(np.asarray(R.eval(qs)), np.maximum.accumulate(np.maximum(np.asarray(P.eval(qs)), head)))


def _max_ratio(rp: np.ndarray, pp: np.ndarray) -> float:
    """Largest rp/pp where rp is not negligible; inf if pp vanishes there."""
    scale = max(float(np.max(rp, initial=0.0)), 1e-300)
    live = rp > 1e-14 * scale
    if not np.any(live):
        return 1.0
    dead = live & (pp <= 1e-14 * scale)
    if np.any(dead):
        return math.inf
    return float(np.max(rp[live] / pp[live]))


def eta(P: RevenueCurve, R: RevenueCurve) -> float:
    """Ratio of the curves' global maxima (single-agent optimal vs posting)."""
    pmax = P.max_value()
    rmax = R.max_value()
    if pmax <= 0.0:
        return math.inf if rmax > 0.0 else 1.0
    return float(rmax / pmax)


@dataclass(frozen=True)
class TransferBounds:
    basic: float      # alpha * beta
    improved: float   # sqrt(alpha*beta*eta) when alpha <= beta*eta, else alpha


def transfer_bounds(alpha: float, beta: float, eta_val: float) -> TransferBounds:
    """Anonymous-pricing transfer factors from the closeness parameters."""
    if min(alpha, beta, eta_val) < 1.0 - 1e-12:
        raise ValueError("closeness parameters must be at least 1")
    basic = alpha * beta
    if not math.isfinite(alpha) or not math.isfinite(beta):
        return TransferBounds(math.inf, math.inf)
    improved = math.sqrt(alpha * beta * eta_val) if alpha <= beta * eta_val else alpha
    return TransferBounds(basic, improved)


def table1_bound(model: str, **params) -> float:
    """Headline anonymous-pricing factors per utility model."""
    if model == "public":
        return RHO
    if model == "private-mhr":
        return 3.0 * RHO
    if model == "private-kappa":
        kappa = float(params["kappa"])
        return math.sqrt(2.0 * (2.0 + kappa) * (1.0 + kappa)) * RHO
    if model == "risk-averse":
        eta_cap = float(params["eta_cap"])
        return (2.0 + math.log(eta_cap)) * RHO
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class CandidateBound:
    """One candidate bound on EAR/AP, with one note per hypothesis of it
    that fails on this instance; it is admitted when `unmet` is empty."""

    name: str
    value: float
    unmet: tuple = ()


def _table1_candidate(agents, per_agent, kappas, irregular) -> CandidateBound | None:
    """The Table-1 factor of the instance's utility model (None for mixed
    models), unmet by each note of `irregular` and by a kappa too large."""
    models = {a.model for a in agents}
    unmet = ()
    if models <= {"linear", "public-budget"}:
        model, value = "public", table1_bound("public")
    elif models == {"private-budget"} and all(a.budget_mhr for a in per_agent):
        model, value = "private-mhr", table1_bound("private-mhr")
    elif models == {"private-budget"}:
        model, value = "private-kappa", table1_bound("private-kappa", kappa=max(kappas))
        if max(kappas) > _KAPPA_CEILING:
            unmet = ("assumption violated: no constant quantile window for the expected budget",)
    elif models == {"capacitated"}:
        model, value = "risk-averse", table1_bound("risk-averse", eta_cap=max(a.hval / a.capacity for a in agents))
    else:
        return None
    return CandidateBound(f"table-1 {model}", value, unmet + irregular)


@dataclass(frozen=True)
class AgentCloseness:
    agent_id: str
    model: str
    alphas: dict
    zeta: float
    eta: float
    kappa: float | None
    r_label: str            # "exact" | "upper bound"
    value_regular: bool | None
    budget_mhr: bool | None


@dataclass(frozen=True)
class ClosenessReport:
    agents: tuple
    curves: tuple           # the AgentCurves each agent's row was computed on
    betas: tuple
    alpha: dict             # aggregate alpha per beta (max over agents)
    zeta: float
    eta: float
    kappa: float | None
    ap_posting: ApResult
    ap_ex_ante: ApResult
    ear: EarResult
    ratio: float            # EAR(Rbar) / AP*(P)
    bounds: tuple           # every CandidateBound, admitted or not
    bound: float            # the least admitted value
    slack: float
    passed: bool
    flags: tuple

    def to_csv(self, path):
        with open(path, "w") as fh:
            alpha_cols = ",".join(f"alpha@{b:g}" for b in self.betas)
            fh.write(f"agent,model,{alpha_cols},zeta,eta,kappa\n")
            for a in self.agents:
                alphas = ",".join(f"{a.alphas[b]:.12g}" for b in self.betas)
                kap = "" if a.kappa is None else f"{a.kappa:.12g}"
                fh.write(f"{a.agent_id},{a.model},{alphas},{a.zeta:.12g},{a.eta:.12g},{kap}\n")
            fh.write("summary,ap_posting,ap_ex_ante,ear,ratio,bound,pass\n")
            fh.write(
                f"summary,{self.ap_posting.revenue:.12g},{self.ap_ex_ante.revenue:.12g},"
                f"{self.ear.revenue:.12g},{self.ratio:.12g},{self.bound:.12g},{self.passed}\n"
            )


@dataclass(frozen=True)
class AgentCurves:
    """One agent's curves, built once by `build_curves`.

    Rbar and its concave form are built on first use, so writing P alone
    never runs the ex-ante oracle.
    """

    P: RevenueCurve
    sellable: RevenueCurve | OfferCurve     # what AP sells to: the offer P was swept from, or a synthetic P
    label: str                              # Rbar is "exact" | "upper bound"
    _build_rbar: Callable[[], RevenueCurve]

    @cached_property
    def Rbar(self) -> RevenueCurve:
        return self._build_rbar()

    @cached_property
    def concave_rbar(self) -> RevenueCurve:
        """The curve EAR and AP-on-Rbar take: Rbar, or its hull if Rbar is not concave."""
        return self.Rbar if self.Rbar.concave else concave_hull(self.Rbar)


def _capacitated_rbar(P: RevenueCurve, capacity: float, hval: float) -> RevenueCurve:
    # the only characterized handle on R is the two-priced upper bound,
    # multiplier * P(min(q, q_m)) with q_m the reserve quantile; on the
    # concave hull that is the running maximum, whatever maximizer q_m is
    hull = P if P.concave else concave_hull(P)
    tb = risk_two_priced_bound(hull, capacity, hval, 1.0)
    return RevenueCurve(hull.qs, tb.multiplier * np.maximum.accumulate(hull.values), name="Rbar")


def build_curves(agent: Agent, config: OracleConfig) -> AgentCurves:
    """The agent's curves P and Rbar; Rbar is exact only when the model admits it.

    For LP-backed models the posting curve is built on the same discrete
    type space as the oracle, so the closeness ratios compare like with
    like (otherwise the endpoint q -> 1, where the continuous posting
    revenue vanishes but the discrete one does not, reads as infinite).
    Both budget models take one path: the value law and `agent.budget_law`
    are discretized (a public budget's one-atom law comes back unchanged),
    and P is swept from the offer of the agent on those two laws, which is
    also what anonymous pricing sells to (`AgentCurves.sellable`).
    """
    if agent.model == "synthetic":
        P = synthetic_curve(agent.p_knots)
        return AgentCurves(P, P, "exact", lambda: synthetic_curve(agent.r_knots))
    if agent.model in ("linear", "capacitated"):
        offer = offer_curve(agent)
    else:
        from .distributions import discretize  # looked up per call: perfbench's traced mode wraps this attribute

        # a public budget is its one-atom law, which discretizes to itself
        Fd, Gd = discretize(agent.values, config.values), discretize(agent.budget_law, config.budgets)
        offer = offer_curve(replace(agent, model="private-budget", values=Fd, budget=None, budgets=Gd))
    P = price_posting_curve(offer, grid=config.price_grid)
    if agent.model == "linear":
        return AgentCurves(P, offer, "exact", lambda: concave_hull(P))
    if agent.model == "capacitated":
        return AgentCurves(P, offer, "upper bound", lambda: _capacitated_rbar(P, agent.capacity, agent.hval))
    return AgentCurves(P, offer, "upper bound", lambda: ex_ante_curve_oracle(Fd, Gd))


def verify_instance(agents: Sequence[Agent], config: OracleConfig | None = None) -> ClosenessReport:
    """End-to-end closeness verification for one instance.

    Builds P_i and Rbar_i, computes the per-agent parameters, the achieved
    anonymous-pricing and ex-ante revenues, and checks the achieved ratio
    against `bound`, the least admitted value of `bounds`.  A `CandidateBound`
    is admitted when no hypothesis of it fails here (`unmet` is empty): the
    transfer bounds `basic@<beta>` and `improved@<beta>` (max of the
    per-agent parameters handles mixed utility models) need none, `zeta` a
    concave P, and `table-1 <model>` (none for mixed models) regular values
    and, for private budgets, kappa at most `_KAPPA_CEILING`.  `flags` are
    the regularity notes, or the Table-1 record's notes and a `table-1
    bound not admitted: ...` line when it is not admitted.
    """
    config = config or OracleConfig()
    if len(agents) == 0:
        raise ValueError("need at least one agent")
    records = tuple(build_curves(agent, config) for agent in agents)
    agent_kappas = [1.0 / max(a.budgets.exceed_mean_probability(), 1e-12) if a.model == "private-budget" else None
                    for a in agents]
    kappas = [k for k in agent_kappas if k is not None]
    betas = tuple(sorted(set(config.betas) | {k + 1.0 for k in kappas} or {1.0}))
    per_agent = []
    for agent, rec, kappa in zip(agents, records, agent_kappas):
        P, R = rec.P, rec.Rbar
        val_reg = None if agent.model == "synthetic" else regularity_report(agent.values)
        bud_mhr = mhr_report(agent.budgets) if agent.model == "private-budget" else None
        per_agent.append(
            AgentCloseness(
                agent_id=agent.id,
                model=agent.model,
                alphas={b: alpha_for_beta(P, R, b) for b in betas},
                zeta=zeta(P, R),
                eta=eta(P, R),
                kappa=kappa,
                r_label=rec.label,
                value_regular=val_reg,
                budget_mhr=bud_mhr,
            )
        )
    alpha_agg = {b: max(max(a.alphas[b] for a in per_agent), 1.0) for b in betas}
    zeta_agg = max(max(a.zeta for a in per_agent), 1.0)
    eta_agg = max(max(a.eta for a in per_agent), 1.0)
    ap_post = ap_optimize([rec.sellable for rec in records], grid=config.price_grid)
    r_curves = [rec.concave_rbar for rec in records]
    ap_ex = ap_optimize(r_curves, grid=config.price_grid)
    ear = ear_optimize(r_curves)
    # 0/0 reads 1, as in eta: an instance where nothing sells
    if ap_post.revenue > 0:
        ratio = ear.revenue / ap_post.revenue
    else:
        ratio = math.inf if ear.revenue > 0 else 1.0
    transfer = [transfer_bounds(alpha_agg[b], b, eta_agg) for b in betas]
    bounds = [CandidateBound(f"basic@{b:g}", tb.basic * RHO) for b, tb in zip(betas, transfer)]
    bounds += [CandidateBound(f"improved@{b:g}", tb.improved * RHO) for b, tb in zip(betas, transfer)]
    concave = all(rec.P.concave for rec in records)
    bounds.append(CandidateBound("zeta", zeta_agg * RHO, () if concave else ("a posting curve is not concave",)))
    irregular = tuple(f"assumption violated: {a.agent_id} value distribution is not regular"
                      for a in per_agent if a.value_regular is False)
    table1 = _table1_candidate(agents, per_agent, kappas, irregular)
    bounds += [table1] if table1 else []
    flags = irregular
    if table1 and table1.unmet:
        model = table1.name.removeprefix("table-1 ")
        flags = (*table1.unmet,
                 f"table-1 bound not admitted: the {model} bound {table1.value:.6g} assumes what the notes above flag")
    bound = min(c.value for c in bounds if not c.unmet)
    slack = _LP_SLACK if any(rec.label == "upper bound" for rec in records) else _EXACT_SLACK
    passed = ratio <= bound * (1.0 + slack) + slack
    kappa_agg = max(kappas) if kappas else None
    return ClosenessReport(
        agents=tuple(per_agent),
        curves=records,
        betas=betas,
        alpha=alpha_agg,
        zeta=zeta_agg,
        eta=eta_agg,
        kappa=kappa_agg,
        ap_posting=ap_post,
        ap_ex_ante=ap_ex,
        ear=ear,
        ratio=float(ratio),
        bounds=tuple(bounds),
        bound=float(bound),
        slack=slack,
        passed=bool(passed),
        flags=flags,
    )
