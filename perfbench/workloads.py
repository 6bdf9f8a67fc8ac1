"""The benchmark's workloads: seeded inputs, one verification op each, and
the correctness check that runs after every op.

Inputs come from Python's own `random.Random(seed)`, so a seed gives the
same bytes on every platform and numpy version.  The program under test
only ever sees the generated scenario file or fixture parameters.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from anonpricing import cli, closeness

# the package re-exports a `fixtures()` function under the submodule's name
fixtures = importlib.import_module("anonpricing.fixtures")

PASS_LINE = "[PASS] ratio within transferred bound"
# EAR over Rbar upper-bounds anonymous pricing on the posting curves.
RATIO_FLOOR = 1.0 - 1e-9


def _r(x: float) -> float:
    return round(x, 6)


def budget_lp_scenario(seed: int) -> dict:
    """Two private-budget and two public-budget buyers, uniform values.

    Every agent is LP-backed, so `verify` solves 4 x 33 ex-ante LPs in the
    EAR block and the same again inside `verify_instance`.
    """
    rng = random.Random(seed)

    def values():
        return {"kind": "uniform", "a": 0, "b": _r(rng.uniform(0.8, 1.25))}

    agents = [
        {"model": "private-budget", "id": "private-uniform", "values": values(),
         "budgets": {"kind": "uniform", "a": 0, "b": _r(rng.uniform(0.5, 1.0))}},
        {"model": "private-budget", "id": "private-exponential", "values": values(),
         "budgets": {"kind": "exponential", "rate": _r(rng.uniform(1.5, 3.0)), "hi": _r(rng.uniform(1.0, 2.0))}},
    ]
    for i in (1, 2):
        v = values()
        agents.append({"model": "public-budget", "id": f"public-{i}", "values": v,
                       "budget": _r(v["b"] * rng.uniform(0.2, 0.6))})
    return {
        "schema_version": 1,
        "name": f"budget-lp-{seed}",
        "agents": agents,
        "analyses": ["verify"],
        "oracle": {"values": 60, "budgets": 20, "quantile_grid": 33},
        "grid": 4096,
        "seed": seed,
    }


def many_linear_scenario(seed: int) -> dict:
    """Sixteen linear buyers whose value laws cycle through uniform,
    truncated exponential, equal-revenue and discrete.  No LP runs; the
    cost is the anonymous-price search over the offer-less hull curves."""
    rng = random.Random(seed)
    agents = []
    for i in range(16):
        kind = i % 4
        if kind == 0:
            law = {"kind": "uniform", "a": _r(rng.uniform(0.0, 0.3)), "b": _r(rng.uniform(0.8, 1.6))}
        elif kind == 1:
            law = {"kind": "exponential", "rate": _r(rng.uniform(0.8, 2.5)), "hi": _r(rng.uniform(2.0, 4.0))}
        elif kind == 2:
            law = {"kind": "equal-revenue", "h": _r(rng.uniform(4.0, 40.0))}
        else:
            # masses are multiples of 1/64, so they sum to exactly 1
            points = sorted(rng.sample(range(5, 200), 6))
            weights = [1] * 6
            for _ in range(64 - 6):
                weights[rng.randrange(6)] += 1
            law = {"kind": "discrete", "values": [p / 100 for p in points], "probs": [w / 64 for w in weights]}
        agents.append({"model": "linear", "id": f"linear-{i + 1}", "values": law})
    return {
        "schema_version": 1,
        "name": f"many-linear-{seed}",
        "agents": agents,
        "analyses": ["verify"],
        "grid": 4096,
        "seed": seed,
    }


def capacitated_params(seed: int) -> dict:
    """h in [10, 100] and C in [1, h/4] for the risk-equal-revenue fixture."""
    rng = random.Random(seed)
    h = _r(rng.uniform(10.0, 100.0))
    return {"h": h, "C": _r(rng.uniform(1.0, h / 4.0))}


def scenario_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


@dataclass
class Outcome:
    """What one op produced: problems found by the check, the output digest,
    the bytes the op wrote, and per-agent closeness parameters below 1."""

    problems: list
    digest: str
    bytes_written: int
    below_one: list


def _closeness_check(per_agent: dict, ratio: float) -> tuple[list[str], list[str]]:
    """Problems with the instance's alpha (per beta), zeta, eta and ratio,
    and the per-agent parameters below 1.

    The gate is on the instance-level parameters, the max over agents that
    the transferred bound uses.  A single LP-backed agent can read below 1
    because Rbar is interpolated between its quantile samples and so can
    dip under P between them; those readings are recorded, not gated.
    """
    problems, below = [], []
    params = sorted({k for vals in per_agent.values() for k in vals})
    for param in params:
        readings = {agent: vals[param] for agent, vals in per_agent.items()}
        if not max(readings.values()) >= 1.0:
            problems.append(f"{param} below 1 for the instance: {readings}")
        below += [f"{agent}:{param}" for agent, v in readings.items() if not v >= 1.0]
    if not ratio >= RATIO_FLOOR:
        problems.append(f"ratio {ratio!r} below 1 - 1e-9")
    return problems, below


class CliVerify:
    """In-process `anonpricing verify <scenario.json> --out <dir>`."""

    def __init__(self, make_scenario):
        self.make_scenario = make_scenario

    def prepare(self, seed: int, workdir: Path) -> None:
        doc = self.make_scenario(seed)
        self.n_agents = len(doc["agents"])
        workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = workdir / "scenario.json"
        self.scenario_path.write_bytes(scenario_bytes(doc))
        self.out_dir = workdir / "out"
        cli.load_scenario(self.scenario_path)  # validate before the first op

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", str(self.scenario_path), "--out", str(self.out_dir)])
        return code

    def check(self, code) -> Outcome:
        problems = [] if code == 0 else [f"exit code {code}"]
        summary = (self.out_dir / "summary.txt").read_text()
        if not any(line.startswith(PASS_LINE) for line in summary.splitlines()):
            problems.append("no PASS line for the transferred bound")
        csvs = sorted(self.out_dir.glob("*.csv"))
        with open(self.out_dir / "closeness.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        split = next(i for i, row in enumerate(rows) if row[:2] == ["summary", "ap_posting"])
        agents = rows[1:split]
        if len(agents) != self.n_agents:
            problems.append(f"{len(agents)} agent rows, expected {self.n_agents}")
        cols = [i for i, col in enumerate(header) if col.startswith("alpha@") or col in ("zeta", "eta")]
        per_agent = {row[0]: {header[i]: float(row[i]) for i in cols} for row in agents}
        summary_row = dict(zip(rows[split], rows[split + 1]))
        found, below = _closeness_check(per_agent, float(summary_row["ratio"]))
        parts = [(p.name, p.read_bytes()) for p in csvs]
        written = sum(p.stat().st_size for p in self.out_dir.iterdir())
        return Outcome(problems + found, _digest(parts), written, below)


class CapacitatedVerify:
    """Library `verify_instance` on the risk-equal-revenue fixture, checked
    against the fixture's closed forms.  Writes no files.

    The price grid is 512, not the default 4096: the bound is evaluated
    once per posting-curve knot, so at 4096 one op takes over 20 s and a
    run would hold a single op.
    """

    def prepare(self, seed: int, workdir: Path) -> None:
        self.fixture = fixtures.get_fixture("risk-equal-revenue", **capacitated_params(seed))
        self.n_agents = len(self.fixture.agents)
        self.config = closeness.OracleConfig(price_grid=512)

    def reset(self) -> None:
        pass

    def run(self):
        return closeness.verify_instance(self.fixture.agents, self.config)

    def check(self, report) -> Outcome:
        problems = [] if report.passed else ["ratio exceeds the transferred bound"]
        per_agent = {a.agent_id: {**{f"alpha@{b:g}": v for b, v in a.alphas.items()}, "zeta": a.zeta, "eta": a.eta}
                     for a in report.agents}
        found, below = _closeness_check(per_agent, report.ratio)
        problems += found
        fields = [(f"{agent}.{k}", v) for agent, vals in per_agent.items() for k, v in vals.items()]
        for exp in self.fixture.expected:
            got = cli.compute_fixture_value(self.fixture, exp.name, self.config)
            fields.append((exp.name, got))
            if not exp.check(got):
                problems.append(f"fixture {exp.name}: {got!r} vs {exp.value!r}")
        fields += [("ap_posting", report.ap_posting.revenue), ("ap_price", report.ap_posting.price),
                   ("ap_ex_ante", report.ap_ex_ante.revenue), ("ear", report.ear.revenue),
                   ("ratio", report.ratio), ("bound", report.bound)]
        text = "".join(f"{k},{v:.12g}\n" for k, v in fields) + f"pass,{report.passed}\n"
        return Outcome(problems, _digest([("report", text.encode())]), 0, below)


WORKLOADS = {
    "budget-lp": lambda: CliVerify(budget_lp_scenario),
    "many-linear": lambda: CliVerify(many_linear_scenario),
    "capacitated": CapacitatedVerify,
}
