"""Scenario ingestion, analysis driver, and the command-line surface.

Scenarios are JSON files with a versioned schema; agents are literals or
fixture references such as "mhr-fail:n=5".  Outputs are CSV files plus a
summary report with one PASS/FAIL line per check.  Exit codes: 0 all
checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .closeness import AgentCurves, OracleConfig, build_curves, verify_instance
from .curves import Agent, RevenueCurve, concave_hull, offer_curve, price_posting_curve, synthetic_curve
from .distributions import Distribution
from .fixtures import FixtureInstance, fixtures, get_fixture, mhr_fail_curves
from .mechanisms import ap_optimize, ap_revenue, ear_optimize, risk_two_priced_bound

ANALYSES = ("curves", "ap", "ear", "closeness", "verify")
_DEFAULTS = OracleConfig()
_TOP_KEYS = {"schema_version", "name", "agents", "analyses", "oracle", "grid", "seed", "out", "betas"}
_ID_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-."


class ScenarioError(ValueError):
    def __init__(self, message: str, fieldname: str = ""):
        self.fieldname = fieldname
        super().__init__(f"{fieldname}: {message}" if fieldname else message)


@dataclass(frozen=True)
class Scenario:
    name: str
    agents: tuple
    analyses: tuple
    oracle: OracleConfig
    out_dir: str = "out"
    fixture: FixtureInstance | None = None


def _number(value, name: str) -> float:
    """A finite number from a scenario file: never a bool, null, string, list, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{value!r} is not a finite number", name)
    return float(value)


def _numbers(value, name: str, size: int | None = None) -> list[float]:
    """A list of finite numbers, of exactly `size` entries if given."""
    if not isinstance(value, list) or (size is not None and len(value) != size):
        raise ScenarioError(f"need a list of {size or 'finite'} numbers", name)
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(value)]


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{value!r} is not a string", name)
    return value


def _knots(value, name: str) -> tuple[tuple[float, float], ...]:
    """A list of [x, y] pairs of finite numbers."""
    if not isinstance(value, list):
        raise ScenarioError("need a list of [x, y] pairs", name)
    return tuple(tuple(_numbers(k, f"{name}[{i}]", 2)) for i, k in enumerate(value))


def _agent_id(value, name: str) -> str:
    """An agent id names its curve files, so it is a plain file-name part."""
    if not (isinstance(value, str) and value[:1] not in ("", ".") and all(c in _ID_CHARS for c in value)):
        raise ScenarioError(f"{value!r} is not an id of letters, digits, '_', '-' and '.' "
                            "that starts with no '.'", name)
    return value


# each distribution kind: its constructor and a reader per parameter, read
# in order; exponential's `hi` may be left out
_DISTRIBUTIONS = {
    "uniform": (Distribution.uniform, {"a": _number, "b": _number}),
    "equal-revenue": (Distribution.equal_revenue, {"h": _number}),
    "exponential": (Distribution.exponential, {"rate": _number, "hi": _number}),
    "point-mass": (Distribution.point_mass, {"v": _number}),
    "discrete": (Distribution.discrete, {"values": _numbers, "probs": _numbers}),
    "piecewise-linear-cdf": (Distribution.piecewise_linear_cdf, {"knots": _knots}),
}


def _dist_from_literal(obj, fieldname: str) -> Distribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("distribution literal needs a 'kind' tag", fieldname)
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _DISTRIBUTIONS:
        raise ScenarioError(f"unknown distribution kind {kind!r}", fieldname)
    make, readers = _DISTRIBUTIONS[kind]
    extra = set(obj) - readers.keys() - {"kind"}
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra)} for kind {kind!r}", fieldname)
    try:
        return make(**{key: read(obj[key], f"{fieldname}.{key}")
                       for key, read in readers.items() if key in obj or key != "hi"})
    except KeyError as exc:
        raise ScenarioError(f"missing parameter {exc}", fieldname) from None
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), fieldname) from None


def parse_fixture_ref(ref: str) -> FixtureInstance:
    """Parse "name" or "name:key=value,key=value" fixture references; each
    value must be a finite number, and the fixture checks it against its domain."""
    name, _, rest = ref.partition(":")
    name = name.strip()
    params = {}
    if rest:
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            key = key.strip()
            if not eq:
                raise ScenarioError(f"bad fixture parameter {part!r}", "agents")
            if key in params:
                raise ScenarioError(f"fixture parameter {key!r} is given twice", "agents")
            try:
                value = float(val)
            except ValueError:
                raise ScenarioError(f"fixture parameter {key!r} is not numeric", "agents") from None
            params[key] = _number(value, f"{name}.{key}")
    try:
        return get_fixture(name, **params)
    except (KeyError, ValueError) as exc:
        raise ScenarioError(str(exc), "agents") from None


# each agent model: a reader per field besides `model` and the optional `id`
_MODELS = {
    "linear": {"values": _dist_from_literal},
    "public-budget": {"values": _dist_from_literal, "budget": _number},
    "private-budget": {"values": _dist_from_literal, "budgets": _dist_from_literal},
    "capacitated": {"values": _dist_from_literal, "capacity": _number},
    "synthetic": {"p_knots": _knots, "r_knots": _knots},
}


def _agent_from_literal(obj, fieldname: str, default_id: str) -> Agent:
    if not isinstance(obj, dict) or "model" not in obj:
        raise ScenarioError("agent literal needs a 'model' tag", fieldname)
    model = obj["model"]
    if not isinstance(model, str) or model not in _MODELS:
        raise ScenarioError(f"unknown model {model!r}", fieldname)
    readers = _MODELS[model]
    extra = set(obj) - readers.keys() - {"model", "id"}
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra)} for model {model!r}", fieldname)
    try:
        fields = {key: read(obj[key], f"{fieldname}.{key}") for key, read in readers.items()}
        return Agent(model=model, id=_agent_id(obj.get("id", default_id), f"{fieldname}.id"), **fields)
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc}", fieldname) from None
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), fieldname) from None


def _integer(value, name: str, lo: float = -np.inf, hi: float = np.inf) -> int:
    """Check an integer, from a scenario file or a flag, against its documented range."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{value!r} is not an integer", name)
    if not lo <= value <= hi:
        raise ScenarioError(f"{value} is outside the documented range [{lo}, {hi}]", name)
    return value


def _oracle_config(grid, values, budgets, betas: tuple) -> OracleConfig:
    return OracleConfig(price_grid=_integer(grid, "grid", 64, 1_000_000),
                        values=_integer(values, "oracle.values", 2, 2000),
                        budgets=_integer(budgets, "oracle.budgets", 2, 500), betas=betas)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; unknown keys are rejected."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(str(exc))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise ScenarioError(f"unknown top-level keys {sorted(extra)}")
    if raw.get("schema_version", 1) != 1:
        raise ScenarioError("unsupported schema_version", "schema_version")
    agents_raw = raw.get("agents")
    if not isinstance(agents_raw, list) or not agents_raw:
        raise ScenarioError("need a nonempty list", "agents")
    agents: list[Agent] = []
    ids = set()
    fixture = None
    for i, entry in enumerate(agents_raw):
        if isinstance(entry, str):
            fix = parse_fixture_ref(entry)
            fixture = fix if fixture is None else fixture
            added = fix.agents
        else:   # a literal's default id counts the agents before it
            added = (_agent_from_literal(entry, f"agents[{i}]", f"agent{len(agents) + 1}"),)
        for agent in added:
            if agent.id in ids:
                raise ScenarioError(f"agent id {agent.id!r} is taken by an earlier agent", f"agents[{i}]")
            ids.add(agent.id)
        agents.extend(added)
    analyses = raw.get("analyses", ["verify"])
    if not isinstance(analyses, list):
        raise ScenarioError(f"need a list of analyses from {ANALYSES}", "analyses")
    for a in analyses:
        if a not in ANALYSES:
            raise ScenarioError(f"unknown analysis {a!r} (choose from {ANALYSES})", "analyses")
    oracle_raw = raw.get("oracle", {})
    if not isinstance(oracle_raw, dict):
        raise ScenarioError("need an object", "oracle")
    extra = set(oracle_raw) - {"values", "budgets", "quantile_grid"}
    if extra:
        raise ScenarioError(f"unknown keys {sorted(extra)}", "oracle")
    betas = raw.get("betas", [])
    if not isinstance(betas, list) or any(isinstance(b, bool) or not isinstance(b, (int, float))
                                          or not 1 <= b < np.inf for b in betas):
        raise ScenarioError("betas must be a list of finite numbers >= 1", "betas")
    config = _oracle_config(
        raw.get("grid", _DEFAULTS.price_grid),
        oracle_raw.get("values", _DEFAULTS.values),
        oracle_raw.get("budgets", _DEFAULTS.budgets),
        tuple(betas),
    )
    if "quantile_grid" in oracle_raw:  # schema v1 key: Rbar is exact, so it has no effect
        _integer(oracle_raw["quantile_grid"], "oracle.quantile_grid", 8, 1025)
    if "seed" in raw:  # schema v1 key: nothing is drawn at random, so it has no effect
        _integer(raw["seed"], "seed", 0)
    return Scenario(
        name=_string(raw.get("name", Path(path).stem), "name"),
        agents=tuple(agents),
        analyses=tuple(analyses),
        oracle=config,
        out_dir=_string(raw.get("out", "out"), "out"),
        fixture=fixture,
    )


# -- fixture expected-value computation ---------------------------------------


def compute_fixture_value(fix: FixtureInstance, name: str, config: OracleConfig) -> float:
    """Evaluate a fixture's named quantity from primitives (the expected
    values were derived independently, so this is the checked route)."""
    agents = fix.agents
    sellables = [synthetic_curve(a.p_knots) if a.model == "synthetic" else offer_curve(a) for a in agents]
    if name == "posting_max":   # the best price for one buyer alone: the top of P
        return max(ap_optimize([s], grid=config.price_grid).revenue for s in sellables)
    if name == "ap_revenue":
        return ap_optimize(sellables, grid=config.price_grid).revenue
    if name == "ear_revenue":
        if fix.name == "mhr-fail":
            _, r_curves = mhr_fail_curves(fix.params["n"])
        else:
            r_curves = [concave_hull(price_posting_curve(s)) for s in sellables]
        return ear_optimize(r_curves).revenue
    if name == "giveaway_revenue":   # E[(v - C)^+] = E[v] - E[min(v, C)]
        F = agents[0].values
        return F.mean() - float(F.expected_min(agents[0].capacity))
    if name == "overpay_revenue":
        return 0.5 * agents[0].values.mean()
    if name == "bound_multiplier":
        agent = agents[0]
        P = price_posting_curve(sellables[0])
        hull = P if P.concave else concave_hull(P)
        return risk_two_priced_bound(hull, agent.capacity, agent.hval, 1.0).multiplier
    if name == "r_lower_bound":
        return synthetic_curve(agents[0].r_knots).eval(1.0)
    if name == "ap_ex_ante_at_alphabeta":
        r_curves = [synthetic_curve(a.r_knots) for a in agents]
        p_hat = fix.params["alpha"] * fix.params["beta"]
        return ap_revenue(r_curves, p_hat).revenue
    if name == "sale_probability":
        r_curves = [synthetic_curve(a.r_knots) for a in agents]
        p_hat = fix.params["alpha"] * fix.params["beta"]
        res = ap_revenue(r_curves, p_hat)
        return res.revenue / res.price
    raise KeyError(f"fixture {fix.name!r} has no computation for {name!r}")


# -- analysis driver -----------------------------------------------------------


def emit_curve(agent: Agent, curves: AgentCurves, grid: int, path) -> list[str]:
    """Write q,value CSVs of the curves the verifier compares: P and its
    concave hull H at `grid` evenly spaced quantiles (P's knots if fewer);
    a synthetic agent's P and R knots verbatim."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if agent.model == "synthetic":
        for label, curve in (("P", curves.P), ("R", curves.Rbar)):
            out = base.with_name(f"{base.stem}_{label}{base.suffix or '.csv'}")
            curve.to_csv(out, label)
            written.append(str(out))
        return written
    P = curves.P
    qs = np.linspace(0.0, 1.0, grid) if grid < len(P.qs) else P.qs
    for label, curve in (("P", P), ("H", concave_hull(P))):
        out = base.with_name(f"{base.stem}_{label}{base.suffix or '.csv'}")
        RevenueCurve(qs, curve.eval(qs)).to_csv(out, label)
        written.append(str(out))
    return written


def run_scenario(scenario: Scenario) -> int:
    """Execute the requested analyses; deterministic given the scenario."""
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = scenario.oracle
    lines = [f"scenario: {scenario.name}"]
    failures = 0

    def check(label: str, ok: bool, detail: str):
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"[{status}] {label}: {detail}")

    analyses = set(scenario.analyses)
    try:
        # the closeness report already holds each agent's curves, anonymous
        # pricing on what each P was swept from and the ex-ante relaxation
        # over Rbar, so none of them is redone
        report = verify_instance(scenario.agents, config) if analyses & {"closeness", "verify"} else None
        if report is not None:
            records = report.curves
        elif analyses & {"curves", "ap", "ear"}:
            records = tuple(build_curves(agent, config) for agent in scenario.agents)
        if "curves" in analyses:
            for agent, rec in zip(scenario.agents, records):
                emit_curve(agent, rec, config.price_grid, out / f"curve_{agent.id}.csv")
        if analyses & {"ap", "verify"}:
            ap = report.ap_posting if report is not None else ap_optimize(
                [rec.sellable for rec in records], grid=config.price_grid)
            with open(out / "ap.csv", "w") as fh:
                fh.write("scenario,mechanism,price,quantiles,revenue\n")
                fh.write(ap.csv_row(scenario.name) + "\n")
            lines.append(f"anonymous pricing: price={ap.price:.10g} revenue={ap.revenue:.10g}")
        if analyses & {"ear", "verify"}:
            ear = report.ear if report is not None else ear_optimize([rec.concave_rbar for rec in records])
            with open(out / "ear.csv", "w") as fh:
                fh.write("scenario,mechanism,price,quantiles,revenue\n")
                fh.write(ear.csv_row(scenario.name) + "\n")
            lines.append(f"ex-ante relaxation: revenue={ear.revenue:.10g} binding={ear.binding}")
        if report is not None:
            report.to_csv(out / "closeness.csv")
            lines.append(
                f"closeness: zeta={report.zeta:.6g} eta={report.eta:.6g} "
                f"ratio={report.ratio:.6g} bound={report.bound:.6g}"
            )
            for flag in report.flags:
                lines.append(f"note: {flag}")
            if "verify" in analyses:
                check("ratio within transferred bound", report.passed,
                      f"ratio {report.ratio:.6g} vs bound {report.bound:.6g} (+slack {report.slack:g})")
        if scenario.fixture is not None:
            for exp in scenario.fixture.expected:
                got = compute_fixture_value(scenario.fixture, exp.name, config)
                check(
                    f"fixture {scenario.fixture.name}.{exp.name}",
                    exp.check(got),
                    f"computed {got:.10g} vs expected {exp.value:.10g} (tol {exp.tol:g}; {exp.note})",
                )
    except Exception as exc:  # analysis errors land in the report, not a traceback
        lines.append(f"[ERROR] {type(exc).__name__}: {exc}")
        failures += 1
    report_path = out / "summary.txt"
    report_path.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 1 if failures else 0


# -- command line ---------------------------------------------------------------


def _scenario_from_args(args, analyses) -> Scenario:
    """The scenario a verb runs: the verb's analyses replace a file's `analyses`."""
    if args.scenario:
        base = load_scenario(args.scenario)
    elif args.fixture:
        fix = parse_fixture_ref(args.fixture)
        base = Scenario(name=args.fixture, agents=fix.agents, analyses=("verify",), oracle=_DEFAULTS, fixture=fix)
    else:
        raise ScenarioError("provide a scenario file or --fixture reference")

    def given(flag, fallback):
        return fallback if flag is None else flag

    # flags override the file's (or the default) sizes and pass the same range check
    oracle = _oracle_config(given(args.grid, base.oracle.price_grid), given(args.oracle_values, base.oracle.values),
                            given(args.oracle_budgets, base.oracle.budgets), base.oracle.betas)
    return replace(base, analyses=analyses, oracle=oracle, out_dir=args.out or base.out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="anonpricing", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("curve", "ap", "ear", "closeness", "verify", "report"):
        sp = sub.add_parser(verb)
        sp.add_argument("scenario", nargs="?", help="scenario JSON file")
        sp.add_argument("--fixture", help="fixture reference like mhr-fail:n=5")
        sp.add_argument("--grid", type=int)
        sp.add_argument("--oracle-values", type=int)
        sp.add_argument("--oracle-budgets", type=int)
        sp.add_argument("--out", default="")
    sub.add_parser("fixtures")
    args = parser.parse_args(argv)
    if args.command == "fixtures":
        for fx in fixtures():
            print(f"{fx['name']:<22} params: {fx['params'] or '-':<18} {fx['about']}")
        return 0
    verb_analyses = {
        "curve": ("curves",),
        "ap": ("ap",),
        "ear": ("ear",),
        "closeness": ("closeness",),
        "verify": ("verify",),
        "report": ("curves", "ap", "ear", "verify"),
    }
    try:
        scenario = _scenario_from_args(args, verb_analyses[args.command])
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(scenario)


if __name__ == "__main__":
    sys.exit(main())
