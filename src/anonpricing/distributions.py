"""Evaluable value and budget distributions.

One class covers the whole palette (uniform, equal-revenue, truncated
exponential, finite discrete, piecewise-linear CDF); a point mass is the
one-atom discrete law.  Instances are immutable after construction; every
evaluator is pure and accepts scalars or numpy arrays.

Conventions baked in here and relied on everywhere else:
  - quantile q of a value v is the mass of stronger types, q = 1 - F(v);
  - a buyer with value exactly p accepts price p, so the sale probability
    at price p is 1 - F(p-) (left limit), making q(p) left-continuous;
  - the inverse demand V(q) = sup{v : 1 - F(v-) >= q}, so atoms map whole
    quantile intervals to the atom's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PROB_ATOL = 1e-12


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


class Distribution:
    """A probability law on a bounded interval, possibly with atoms."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = dict(params)
        self._validate()
        if kind in ("discrete", "piecewise-linear-cdf"):
            self._tables()

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, a: float, b: float) -> "Distribution":
        return cls("uniform", a=float(a), b=float(b))

    @classmethod
    def equal_revenue(cls, h: float) -> "Distribution":
        """F(v) = 1 - 1/v on [1, h) with an atom of mass 1/h at h."""
        return cls("equal-revenue", h=float(h))

    @classmethod
    def exponential(cls, rate: float, hi: float | None = None) -> "Distribution":
        """Exponential(rate) truncated by an atom at hi (default 20/rate).

        Below hi the hazard is the constant rate; the leftover tail mass
        exp(-rate*hi) sits at hi so the support stays bounded.
        """
        rate = float(rate)
        if hi is None:
            hi = 20.0 / rate
        return cls("exponential", rate=rate, hi=float(hi))

    @classmethod
    def point_mass(cls, v: float) -> "Distribution":
        """The one-atom discrete law at v."""
        if not math.isfinite(v):
            raise ValueError("point mass must be finite")
        return cls.discrete([v], [1.0])

    @classmethod
    def discrete(cls, values: Sequence[float], probs: Sequence[float]) -> "Distribution":
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1 or values.shape != probs.shape:   # checked here, before the sort indexes probs
            raise ValueError("discrete needs matching 1-d values/probs")
        order = np.argsort(values)
        return cls("discrete", values=values[order], probs=probs[order])

    @classmethod
    def piecewise_linear_cdf(cls, knots: Sequence[tuple[float, float]]) -> "Distribution":
        """Continuous CDF interpolating (x_k, F_k) knots; F_0=0, F_K=1."""
        xs = np.asarray([k[0] for k in knots], dtype=float)
        fs = np.asarray([k[1] for k in knots], dtype=float)
        return cls("piecewise-linear-cdf", xs=xs, fs=fs)

    # -- validation ------------------------------------------------------

    def _validate(self):
        k, p = self.kind, self.params
        if k == "uniform":
            if not p["a"] < p["b"]:
                raise ValueError("uniform needs a < b (use point_mass for degenerate support)")
        elif k == "equal-revenue":
            if p["h"] <= 1.0:
                raise ValueError("equal-revenue needs h > 1")
        elif k == "exponential":
            if p["rate"] <= 0 or p["hi"] <= 0:
                raise ValueError("exponential needs positive rate and truncation point")
        elif k == "discrete":
            v, f = p["values"], p["probs"]
            if len(v) != len(f) or len(v) == 0:
                raise ValueError("discrete needs matching nonempty values/probs")
            if np.isnan(v).any() or np.any(v == -np.inf):
                raise ValueError("discrete values must not be NaN or -inf")
            if not np.all(np.isfinite(f)):
                raise ValueError("discrete probabilities must be finite")
            if np.any(f <= 0):
                raise ValueError("discrete probabilities must be positive")
            if abs(f.sum() - 1.0) > PROB_ATOL:
                raise ValueError(f"discrete probabilities sum to {f.sum()}, not 1")
            if len(np.unique(v)) != len(v):
                raise ValueError("discrete values must be distinct")
        elif k == "piecewise-linear-cdf":
            xs, fs = p["xs"], p["fs"]
            if len(xs) < 2 or np.any(np.diff(xs) <= 0):
                raise ValueError("piecewise CDF needs strictly increasing x knots")
            if abs(fs[0]) > PROB_ATOL or abs(fs[-1] - 1.0) > PROB_ATOL:
                raise ValueError("piecewise CDF must run from 0 to 1")
            if np.any(np.diff(fs) < -PROB_ATOL):
                raise ValueError("piecewise CDF must be nondecreasing")
        else:
            raise ValueError(f"unknown distribution kind {k!r}")

    def _tables(self):
        """Tables built once, at construction, and read-only.  A discrete law
        over v_1 < ... < v_m keeps its CDF table 0, f_1, f_1 + f_2, ...,
        capped at 1 and ending at exactly 1 (the running sum can end on
        either side of 1 by rounding, yet no survival probability may go
        negative and no price above the top value may sell), mean_below[i] =
        E[X; X < v_{i+1}] and mass_above[i] = Pr[X >= v_{i+1}].  A
        piecewise-linear CDF keeps the integral of 1 - F up to each knot."""
        p = self.params
        if self.kind == "discrete":
            f = p["probs"]
            self.cdf_table = np.minimum(np.concatenate([[0.0], np.cumsum(f)]), 1.0)
            self.cdf_table[-1] = 1.0
            self.mean_below = np.concatenate([[0.0], np.cumsum(f * p["values"])])
            self.mass_above = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
            tables = (self.cdf_table, self.mean_below, self.mass_above)
        else:
            surv = 1.0 - p["fs"]
            self.survival_integral = np.concatenate([[0.0], np.cumsum(0.5 * (surv[1:] + surv[:-1]) * np.diff(p["xs"]))])
            tables = (self.survival_integral,)
        for table in tables:
            table.setflags(write=False)

    # -- support and atoms -------------------------------------------------

    @property
    def lo(self) -> float:
        k, p = self.kind, self.params
        if k == "uniform":
            return p["a"]
        if k == "equal-revenue":
            return 1.0
        if k == "exponential":
            return 0.0
        if k == "discrete":
            return float(p["values"][0])
        return float(p["xs"][0])

    @property
    def hi(self) -> float:
        k, p = self.kind, self.params
        if k == "uniform":
            return p["b"]
        if k == "equal-revenue":
            return p["h"]
        if k == "exponential":
            return p["hi"]
        if k == "discrete":
            return float(p["values"][-1])
        return float(p["xs"][-1])

    @property
    def atoms(self) -> list[tuple[float, float]]:
        """(value, mass) pairs of the atomic part, ascending in value."""
        k, p = self.kind, self.params
        if k == "equal-revenue":
            return [(p["h"], 1.0 / p["h"])]
        if k == "exponential":
            return [(p["hi"], math.exp(-p["rate"] * p["hi"]))]
        if k == "discrete":
            return list(zip(p["values"].tolist(), p["probs"].tolist()))
        return []

    # -- evaluators --------------------------------------------------------

    def cdf(self, x):
        """Right-continuous CDF."""
        xv, scalar = _as_array(x)
        k, p = self.kind, self.params
        if k == "uniform":
            out = np.clip((xv - p["a"]) / (p["b"] - p["a"]), 0.0, 1.0)
        elif k == "equal-revenue":
            out = np.where(xv < 1.0, 0.0, np.where(xv >= p["h"], 1.0, 1.0 - 1.0 / np.maximum(xv, 1.0)))
        elif k == "exponential":
            out = np.where(xv < 0.0, 0.0, np.where(xv >= p["hi"], 1.0, 1.0 - np.exp(-p["rate"] * np.maximum(xv, 0.0))))
        elif k == "discrete":
            out = self.cdf_table[np.searchsorted(p["values"], xv, side="right")]
        else:
            out = np.interp(xv, p["xs"], p["fs"], left=0.0, right=1.0)
        return float(out) if scalar else out

    def cdf_left(self, x):
        """Left limit F(x-); equals cdf everywhere but at atoms."""
        xv, scalar = _as_array(x)
        k, p = self.kind, self.params
        if k == "equal-revenue":
            out = np.where(xv <= 1.0, 0.0, np.where(xv > p["h"], 1.0, 1.0 - 1.0 / np.maximum(xv, 1.0)))
        elif k == "exponential":
            out = np.where(xv <= 0.0, 0.0, np.where(xv > p["hi"], 1.0, 1.0 - np.exp(-p["rate"] * np.maximum(xv, 0.0))))
        elif k == "discrete":
            out = self.cdf_table[np.searchsorted(p["values"], xv, side="left")]
        else:
            return self.cdf(x)
        return float(out) if scalar else out

    def survival_left(self, x):
        """Pr[X >= x] = 1 - F(x-): the mass that accepts price x."""
        xv, scalar = _as_array(x)
        out = 1.0 - np.asarray(self.cdf_left(xv))
        return float(out) if scalar else out

    def survival(self, x):
        """Pr[X > x] = 1 - F(x), in forms stable deep in the tail."""
        xv, scalar = _as_array(x)
        k, p = self.kind, self.params
        if k == "uniform":
            out = np.clip((p["b"] - xv) / (p["b"] - p["a"]), 0.0, 1.0)
        elif k == "equal-revenue":
            out = np.where(xv < 1.0, 1.0, np.where(xv >= p["h"], 0.0, 1.0 / np.maximum(xv, 1.0)))
        elif k == "exponential":
            out = np.where(xv < 0.0, 1.0, np.where(xv >= p["hi"], 0.0, np.exp(-p["rate"] * np.maximum(xv, 0.0))))
        else:
            out = 1.0 - np.asarray(self.cdf(xv))
        return float(out) if scalar else out

    def pdf(self, x):
        """Density of the continuous part (0 on atoms and off support)."""
        xv, scalar = _as_array(x)
        k, p = self.kind, self.params
        if k == "uniform":
            out = np.where((xv >= p["a"]) & (xv <= p["b"]), 1.0 / (p["b"] - p["a"]), 0.0)
        elif k == "equal-revenue":
            out = np.where((xv >= 1.0) & (xv < p["h"]), 1.0 / np.maximum(xv, 1.0) ** 2, 0.0)
        elif k == "exponential":
            out = np.where((xv >= 0.0) & (xv < p["hi"]), p["rate"] * np.exp(-p["rate"] * np.maximum(xv, 0.0)), 0.0)
        elif k == "discrete":
            out = np.zeros_like(xv)
        else:
            xs, fs = p["xs"], p["fs"]
            slopes = np.diff(fs) / np.diff(xs)
            idx = np.clip(np.searchsorted(xs, xv, side="right") - 1, 0, len(slopes) - 1)
            out = np.where((xv >= xs[0]) & (xv <= xs[-1]), slopes[idx], 0.0)
        return float(out) if scalar else out

    def inverse_demand(self, q):
        """V(q) = sup{v : 1 - F(v-) >= q}, nonincreasing, clamped to support."""
        qv, scalar = _as_array(q)
        qv = np.clip(qv, 0.0, 1.0)
        k, p = self.kind, self.params
        if k == "uniform":
            out = p["b"] - qv * (p["b"] - p["a"])
        elif k == "equal-revenue":
            out = np.where(qv <= 1.0 / p["h"], p["h"], 1.0 / np.maximum(qv, 1.0 / p["h"]))
        elif k == "exponential":
            atom = math.exp(-p["rate"] * p["hi"])
            with np.errstate(divide="ignore"):
                body = -np.log(np.maximum(qv, atom)) / p["rate"]
            out = np.where(qv <= atom, p["hi"], body)
        elif k == "discrete":
            # survival-left at the values is mass_above, decreasing; V(q) is
            # the largest value whose entry is at least q
            m = len(p["values"])
            pos = np.searchsorted(self.mass_above[::-1], qv, side="left")
            idx = np.clip(m - pos, 0, m - 1)
            out = p["values"][idx]
        else:
            xs, fs = p["xs"], p["fs"]
            target = 1.0 - qv
            # rightmost x with F(x) <= target (sup over flat CDF stretches)
            idx = np.searchsorted(fs, target, side="right")
            idx = np.clip(idx, 1, len(xs) - 1)
            f0, f1 = fs[idx - 1], fs[idx]
            x0, x1 = xs[idx - 1], xs[idx]
            with np.errstate(invalid="ignore", divide="ignore"):
                t = np.where(f1 > f0, (target - f0) / np.where(f1 > f0, f1 - f0, 1.0), 1.0)
            out = np.clip(x0 + np.clip(t, 0.0, 1.0) * (x1 - x0), xs[0], xs[-1])
            out = np.where(target >= 1.0, xs[-1], np.where(target <= 0.0, xs[0], out))
        return float(out) if scalar else out

    # -- moments -----------------------------------------------------------

    def expected_min(self, p):
        """E[min(X, p)]; closed forms per kind (X is nonnegative here)."""
        pv, scalar = _as_array(p)
        k, par = self.kind, self.params
        if k == "uniform":
            a, b = par["a"], par["b"]
            pc = np.clip(pv, a, b)
            # factored form avoids cancellation for p near a; it can round
            # above min(p, b), by far at subnormal p, where no E[min(X, p)] is
            body = a + (pc - a) * (2.0 * b - a - pc) / (2.0 * (b - a))
            out = np.where(pv <= a, pv, np.minimum(body, pc))
        elif k == "equal-revenue":
            h = par["h"]
            pc = np.clip(pv, 1.0, h)
            out = np.where(pv <= 1.0, pv, 1.0 + np.log(pc))
        elif k == "exponential":
            lam, hi = par["rate"], par["hi"]
            pc = np.clip(pv, 0.0, hi)
            out = np.minimum(-np.expm1(-lam * pc) / lam, pc)   # as for the uniform
            out = np.where(pv <= 0.0, np.maximum(pv, 0.0) * 0.0, out)
        elif k == "discrete":
            # the mass below p at its values plus p times the mass at or above
            # it, from the stored sums: each price gets its own bits, where a
            # BLAS matrix-vector product rounds a row by how many rows go with it
            i = np.searchsorted(par["values"], pv, side="left")
            out = self.mean_below[i] + pv * self.mass_above[i]
        else:
            xs, fs = par["xs"], par["fs"]
            # integral of the survival function, exact on linear pieces: the
            # whole pieces below p, then the trapezoid of p's own piece
            surv, seg = 1.0 - fs, self.survival_integral
            i = np.clip(np.searchsorted(xs, pv, side="right") - 1, 0, len(xs) - 1)
            with np.errstate(invalid="ignore"):   # p = inf: 0 * inf on a branch not taken
                partial = 0.5 * (surv[i] + (1.0 - np.interp(pv, xs, fs))) * (pv - xs[i])
            # below the support, max(p, 0) as Python takes it: -0.0 stays -0.0
            out = np.where(pv <= xs[0], np.where(0.0 > pv, 0.0, pv),
                           np.where(pv >= xs[-1], xs[0] + seg[-1], xs[0] + seg[i] + partial))
        return float(out) if scalar else np.asarray(out)

    def mean(self) -> float:
        return float(self.expected_min(self.hi))

    def exceed_mean_probability(self) -> float:
        """Pr[X >= E[X]]; at least 1/e for the MHR built-ins."""
        return float(self.survival_left(self.mean()))

    def __repr__(self):
        inner = ", ".join(f"{k}={v.tolist() if isinstance(v, np.ndarray) else v}" for k, v in self.params.items())
        return f"Distribution.{self.kind.replace('-', '_')}({inner})"


# -- diagnostics ------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    regular: bool
    max_violation: float  # max positive second difference of q*V(q), relative
    grid_size: int


@dataclass(frozen=True)
class MhrReport:
    mhr: bool
    max_violation: float  # worst hazard decrease, relative to the max hazard
    indeterminate: int    # grid points with zero density inside the support
    grid_size: int


REGULARITY_RTOL = 1e-8
MHR_RTOL = 1e-8


def regularity_report(d: Distribution, grid_size: int = 1024) -> RegularityReport:
    """Concavity check of q*V(q) sampled on a uniform quantile grid.

    Regular iff the largest positive second difference is at most 1e-8 of
    the curve's maximum.  Support gaps (discrete laws) surface as downward
    jumps in q*V(q) and fail the test; atoms are fine because V plateaus.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    if d.hi <= d.lo:
        return RegularityReport(True, 0.0, grid_size)
    q = np.linspace(0.0, 1.0, grid_size)
    y = q * np.asarray(d.inverse_demand(q))
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return RegularityReport(True, 0.0, grid_size)
    second = y[2:] - 2.0 * y[1:-1] + y[:-2]
    viol = float(max(0.0, np.max(second))) / scale
    return RegularityReport(viol <= REGULARITY_RTOL, viol, grid_size)


def mhr_report(d: Distribution, grid_size: int = 1024) -> MhrReport:
    """Hazard-rate monotonicity on a value grid over the continuous support."""
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    lo, hi = d.lo, d.hi
    if hi <= lo:
        return MhrReport(True, 0.0, 0, grid_size)
    # stop short of the top so a terminal atom does not enter the hazard
    x = np.linspace(lo, hi - 1e-9 * (hi - lo), grid_size)
    dens = np.asarray(d.pdf(x))
    surv = np.asarray(d.survival(x))
    ok = (dens > 0.0) & (surv > 1e-15)
    indeterminate = int(np.sum(~ok & (surv > 1e-15)))
    if not np.any(ok):
        # no density anywhere (atomic law): monotone hazard cannot be
        # established, so the guarantee is reported as absent
        return MhrReport(False, 0.0, indeterminate, grid_size)
    hazard = dens[ok] / surv[ok]
    scale = float(np.max(hazard))
    drops = np.maximum(0.0, -np.diff(hazard))
    viol = float(np.max(drops, initial=0.0)) / scale if scale > 0 else 0.0
    return MhrReport(viol <= MHR_RTOL, viol, indeterminate, grid_size)


# -- discretization ----------------------------------------------------------


def discretize(d: Distribution, n: int) -> Distribution:
    """Quantile-midpoint discretization keeping every atom exactly.

    A discrete law is returned unchanged, whatever n.  Otherwise atoms are
    carried over unchanged; the continuous mass is split into
    n - (#atoms) equal quantile chunks, each represented by the inverse
    demand at its midpoint.  Working in quantile space keeps the induced
    revenue-curve error uniform across quantiles and the mean error O(1/n).
    """
    if d.kind == "discrete":
        return d
    if n < 2:
        raise ValueError("n must be at least 2")
    atoms = d.atoms
    atom_mass = sum(m for _, m in atoms)
    cont_mass = max(0.0, 1.0 - atom_mass)
    values, probs = np.array(atoms, dtype=float).reshape(-1, 2).T
    if cont_mass > PROB_ATOL:
        k = max(1, n - len(atoms))
        # continuous region of quantile space = [0,1] minus atom bands
        bands = sorted((float(1.0 - d.cdf(a)), float(1.0 - d.cdf_left(a))) for a, _ in atoms)
        segments = []
        cursor = 0.0
        for left, right in bands:
            if left > cursor + 1e-15:
                segments.append((cursor, left))
            cursor = max(cursor, right)
        if cursor < 1.0 - 1e-15:
            segments.append((cursor, 1.0))
        lefts, rights = np.array(segments).T
        starts = np.concatenate([[0.0], np.cumsum(rights - lefts)])
        # the midpoint of each of the k equal chunks, placed in its segment
        target = (np.arange(k) + 0.5) / k * starts[-1]
        seg = np.minimum(np.searchsorted(starts, target, side="right") - 1, len(segments) - 1)
        values = np.concatenate([values, d.inverse_demand(lefts[seg] + (target - starts[seg]))])
        probs = np.concatenate([probs, np.full(k, cont_mass / k)])
    # merge duplicates produced by flat stretches, summing masses in sorted order
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    new = np.concatenate([[True], values[1:] > values[:-1]])
    merged = np.bincount(np.cumsum(new) - 1, weights=probs)
    return Distribution.discrete(values[new], merged / merged.sum())
