"""Scenario loading, validation diagnostics, fixtures, emission, and the
command-line entry point."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anonpricing as ap
from anonpricing.cli import (
    ScenarioError,
    compute_fixture_value,
    emit_curve,
    load_scenario,
    main,
    parse_fixture_ref,
    run_scenario,
)
from anonpricing.closeness import OracleConfig, build_curves
from anonpricing.fixtures import MAX_AGENTS
from helpers import with_bisection_inverse


def write_scenario(tmp_path, payload, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def minimal(tmp_path, **overrides):
    payload = {
        "schema_version": 1,
        "name": "one-uniform",
        "agents": [{"model": "linear", "values": {"kind": "uniform", "a": 0, "b": 1}}],
        "analyses": ["ap"],
        "out": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return write_scenario(tmp_path, payload)


class TestLoadScenario:
    def test_minimal(self, tmp_path):
        scen = load_scenario(minimal(tmp_path))
        assert len(scen.agents) == 1
        assert scen.agents[0].model == "linear"

    def test_fixture_reference_expands(self, tmp_path):
        path = minimal(tmp_path, agents=["mhr-fail:n=5"])
        scen = load_scenario(path)
        assert len(scen.agents) == 5
        assert all(a.model == "private-budget" for a in scen.agents)
        assert scen.agents[2].values.atoms == [(3.0, 1.0)]   # the fixture's point mass at 3

    def test_unknown_top_key_rejected(self, tmp_path):
        path = minimal(tmp_path, bogus=1)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_unknown_agent_key_rejected(self, tmp_path):
        path = minimal(tmp_path, agents=[{"model": "linear", "values": {"kind": "uniform", "a": 0, "b": 1}, "x": 1}])
        with pytest.raises(ScenarioError, match="agents"):
            load_scenario(path)

    def test_bad_beta_rejected(self, tmp_path):
        path = minimal(tmp_path, betas=[0.5])
        with pytest.raises(ScenarioError, match="betas"):
            load_scenario(path)

    def test_capacity_above_support_rejected(self, tmp_path):
        path = minimal(tmp_path, agents=[{
            "model": "capacitated",
            "values": {"kind": "uniform", "a": 0, "b": 1},
            "capacity": 2.0,
        }])
        with pytest.raises(ScenarioError, match="capacity"):
            load_scenario(path)

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"agents\": [,]\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_unknown_analysis_rejected(self, tmp_path):
        path = minimal(tmp_path, analyses=["simulate"])
        with pytest.raises(ScenarioError, match="analyses"):
            load_scenario(path)

    def test_non_integer_size_rejected(self, tmp_path, capsys):
        with pytest.raises(ScenarioError, match="oracle.values"):
            load_scenario(minimal(tmp_path, oracle={"values": "many"}))
        with pytest.raises(ScenarioError, match="grid"):   # JSON Infinity
            load_scenario(minimal(tmp_path, grid=math.inf))
        # wrong JSON types are named, never truncated, read as 1 or split into letters
        for field, override in [
            ("betas", {"betas": 3}),
            ("betas", {"betas": [True]}),
            ("betas", {"betas": [math.nan]}),
            ("betas", {"betas": [math.inf]}),
            ("oracle", {"oracle": 5}),
            ("oracle.budgets", {"oracle": {"budgets": True}}),
            ("grid", {"grid": 4096.7}),
            ("oracle.values", {"oracle": {"values": 60.9}}),
            ("analyses", {"analyses": "verify"}),
        ]:
            path = minimal(tmp_path, **override)
            with pytest.raises(ScenarioError, match=field):
                load_scenario(path)
            assert main(["verify", str(path)]) == 2, override
            assert f"input error: {field}:" in capsys.readouterr().err

    def test_non_integer_seed_exits_2(self, tmp_path, capsys):
        for seed in ("x", 1.5, True):
            path = minimal(tmp_path, seed=seed)
            with pytest.raises(ScenarioError, match="seed"):
                load_scenario(path)
            assert main(["verify", str(path)]) == 2
            assert "input error: seed:" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_any_directory(self, tmp_path, capsys, monkeypatch):
        # `report --seed -1` once wrote every output, then died in the
        # seeded e-bound check with a traceback; `verify` took the seed
        monkeypatch.chdir(tmp_path)
        path = minimal(tmp_path, seed=-1)
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(path)
        for argv in (["verify", str(path)],
                     ["report", "--fixture", "uniform-linear", "--seed", "-1"],
                     ["verify", "--fixture", "uniform-linear", "--seed", "-1", "--out", str(tmp_path / "o")]):
            assert main(argv) == 2, argv
            assert "input error: seed:" in capsys.readouterr().err
        # the flag is checked over a file's valid seed as well
        assert main(["verify", str(minimal(tmp_path)), "--seed", "-1"]) == 2
        assert "input error: seed:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]

    def test_non_string_name_or_out_exits_2_before_any_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)   # an "out" of null once wrote into ./None
        for field, value in [("name", ["x"]), ("name", 3), ("out", None), ("out", ["o"])]:
            path = minimal(tmp_path, **{field: value})
            with pytest.raises(ScenarioError, match=field):
                load_scenario(path)
            assert main(["verify", str(path)]) == 2
            assert f"input error: {field}:" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]

    @pytest.mark.parametrize("agent, field", [
        ({"model": "public-budget", "budget": None}, "agents[0].budget"),
        ({"model": "public-budget", "budget": math.nan}, "agents[0].budget"),
        ({"model": "public-budget", "budget": True}, "agents[0].budget"),
        ({"model": "capacitated", "capacity": [1]}, "agents[0].capacity"),
        ({"model": "linear", "values": {"kind": "uniform", "a": None, "b": 1}}, "agents[0].values.a"),
        ({"model": "linear", "values": {"kind": "piecewise-linear-cdf", "knots": [[0, 0], [1]]}},
         "agents[0].values.knots[1]"),
        ({"model": "linear", "values": {"kind": "discrete", "values": [1, "2"], "probs": [0.5, 0.5]}},
         "agents[0].values.values[1]"),
        ({"model": "synthetic", "p_knots": [[0, 0], [1, None]], "r_knots": [[0, 0], [1, 1]]},
         "agents[0].p_knots[1][1]"),
    ])
    def test_literal_number_of_wrong_type_exits_2(self, tmp_path, capsys, agent, field):
        """Budgets, capacities, distribution parameters and knot coordinates
        must be finite JSON numbers: no traceback, no NaN, no bool read as 1."""
        if agent["model"] != "synthetic":
            agent = {"values": {"kind": "uniform", "a": 0, "b": 1}, **agent}
        path = minimal(tmp_path, agents=[agent])
        assert main(["verify", str(path)]) == 2
        assert f"input error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("budgets", [{"kind": "uniform", "a": -1, "b": 1},
                                         {"kind": "discrete", "values": [-1, 1], "probs": [0.5, 0.5]}],
                             ids=["uniform", "discrete"])
    def test_budget_law_below_zero_exits_2_before_any_directory(self, tmp_path, capsys, monkeypatch, budgets):
        # such a law once wrote the outputs and then failed with exit 1
        monkeypatch.chdir(tmp_path)
        agent = {"model": "private-budget", "values": {"kind": "uniform", "a": 0, "b": 1}, "budgets": budgets}
        path = minimal(tmp_path, agents=[agent], out="o")
        with pytest.raises(ScenarioError, match="agents\\[0\\]"):
            load_scenario(path)
        assert main(["verify", str(path)]) == 2
        assert "input error: agents[0]: private-budget agent needs a budget law on nonnegative budgets" \
            in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scen.json"]

    def test_quantile_grid_checked_but_ignored(self, tmp_path):
        with pytest.raises(ScenarioError, match="oracle.quantile_grid"):
            load_scenario(minimal(tmp_path, oracle={"quantile_grid": 4}))
        sc = load_scenario(minimal(tmp_path, oracle={"quantile_grid": 1025}))
        assert sc.oracle == load_scenario(minimal(tmp_path)).oracle

    def test_unknown_distribution_kind(self, tmp_path):
        path = minimal(tmp_path, agents=[{"model": "linear", "values": {"kind": "zipf", "s": 2}}])
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(path)


class TestFixtureRefs:
    def test_parse_params(self):
        fix = parse_fixture_ref("tightness:alpha=2,beta=4")
        assert fix.params == {"alpha": 2, "beta": 4}
        assert len(fix.agents) == 2

    def test_unknown_fixture(self):
        with pytest.raises(ScenarioError):
            parse_fixture_ref("nonesuch")

    def test_bad_parameter(self):
        with pytest.raises(ScenarioError):
            parse_fixture_ref("mhr-fail:n=five")

    def test_repeated_parameter_exits_2(self, tmp_path, capsys):
        # the second n once silently won
        with pytest.raises(ScenarioError, match="'n' is given twice"):
            parse_fixture_ref("uniform-linear:n=2,n=3")
        assert main(["verify", "--fixture", "uniform-linear:n=2,n=3", "--out", str(tmp_path / "o")]) == 2
        assert "input error: agents: fixture parameter 'n' is given twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_listing_names_resolve(self):
        for fx in ap.fixtures():
            assert parse_fixture_ref(fx["name"]).agents

    @pytest.mark.parametrize("ref, named", [
        ("equal-revenue:h=1e400", "equal-revenue.h"),
        ("tightness:beta=1e400", "tightness.beta"),
        ("equal-revenue:h=nan", "equal-revenue.h"),
        ("correlated-fail:h=1", "needs h"),
        ("uniform-linear:n=0", "needs n"),
        ("uniform-linear:n=-3", "needs n"),
        ("mhr-fail:n=0", "needs n"),
        ("uniform-linear:n=2.5", "needs n"),
        ("uniform-linear:n=1001", "needs n"),
        ("tightness:beta=1e300", "needs beta"),
        ("tightness:beta=0.1", "needs beta"),
        ("risk-equal-revenue:C=0.5", "needs C"),
        ("public-budget:w=0", "needs w"),
    ])
    def test_out_of_domain_exits_2_before_any_agent(self, tmp_path, capsys, monkeypatch, ref, named):
        def refuse(*args, **kwargs):
            raise AssertionError("an agent was built for a rejected parameter")

        # the package's `fixtures` attribute is the listing function, so reach the module itself
        monkeypatch.setattr(sys.modules["anonpricing.fixtures"], "Agent", refuse)
        assert main(["verify", "--fixture", ref, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("name, params", [
        ("uniform-linear", {"n": 2.5}), ("mhr-fail", {"n": 0}), ("mhr-fail", {"n": MAX_AGENTS + 1}),
        ("tightness", {"beta": math.inf}), ("tightness", {"alpha": 0.5}), ("overpay", {"h": math.nan}),
        ("equal-revenue", {"h": math.inf}),
    ])
    def test_library_rejects_out_of_domain(self, name, params):
        with pytest.raises(ValueError, match=f"needs {next(iter(params))} "):
            ap.get_fixture(name, **params)

    def test_integral_count_accepted(self):
        assert parse_fixture_ref("mhr-fail:n=3.0").params == {"n": 3}


class TestComputedFixtureValues:
    def test_every_expected_value_checks(self):
        config = OracleConfig(values=30, budgets=10)
        for fx in ap.fixtures():
            fix = parse_fixture_ref(fx["name"])
            for exp in fix.expected:
                got = compute_fixture_value(fix, exp.name, config)
                assert exp.check(got), f"{fx['name']}.{exp.name}: {got} vs {exp.value}"

    def test_overpay_half_welfare(self):
        fix = ap.get_fixture("overpay", h=100)
        got = compute_fixture_value(fix, "overpay_revenue", OracleConfig())
        assert got == pytest.approx((1 + math.log(100)) / 2, abs=1e-6)
        assert got == pytest.approx(2.80258509, abs=1e-6)

    def test_giveaway_log_ratio(self):
        fix = ap.get_fixture("risk-equal-revenue", h=100, C=5)
        got = compute_fixture_value(fix, "giveaway_revenue", OracleConfig())
        assert got == pytest.approx(math.log(20), abs=1e-6)

    @pytest.mark.parametrize("w", [0.1, 0.3, 0.7])
    def test_public_budget_posting_max_is_its_closed_form(self, w):
        # the best price for the buyer alone is min(w, 1/2); at w = 0.7 the
        # budget does not bind there
        b = min(w, 0.5)
        got = compute_fixture_value(ap.get_fixture("public-budget", w=w), "posting_max", OracleConfig(price_grid=512))
        assert got == pytest.approx(b * (1.0 - b), rel=0.0, abs=1e-12)

    def test_private_uniform_posting_max_is_its_closed_form(self):
        # (p - p^2/2)(1 - p) peaks at p = 1 - 1/sqrt(3), at 1/(3 sqrt(3))
        got = compute_fixture_value(ap.get_fixture("private-uniform-mhr"), "posting_max", OracleConfig(price_grid=512))
        assert got == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), rel=0.0, abs=1e-12)


class TestEmitCurve:
    def test_uniform_grid_five(self, tmp_path):
        agent = ap.Agent(model="linear", values=ap.Distribution.uniform(0, 1), id="u")
        emit_curve(agent, build_curves(agent, OracleConfig()), 5, tmp_path / "u.csv")
        rows = (tmp_path / "u_P.csv").read_text().strip().splitlines()
        assert rows[0] == "q,P"
        got = [tuple(map(float, r.split(","))) for r in rows[1:]]
        expect = [(0, 0), (0.25, 0.1875), (0.5, 0.25), (0.75, 0.1875), (1, 0)]
        for (q, v), (eq, ev) in zip(got, expect):
            assert q == pytest.approx(eq, abs=1e-12)
            assert v == pytest.approx(ev, abs=1e-6)

    def test_synthetic_knots_verbatim(self, tmp_path):
        agent = ap.Agent(model="synthetic", p_knots=((0, 0), (0.25, 1.0), (1, 2.0)),
                         r_knots=((0, 0), (0.5, 4.0), (1, 4.0)), id="s")
        emit_curve(agent, build_curves(agent, OracleConfig()), 5, tmp_path / "s.csv")
        rows = (tmp_path / "s_P.csv").read_text().strip().splitlines()
        assert rows[1:] == ["0,0", "0.25,1", "1,2"]

    def test_equal_revenue_shape(self, tmp_path):
        agent = ap.Agent(model="linear", values=ap.Distribution.equal_revenue(10), id="er")
        emit_curve(agent, build_curves(agent, OracleConfig()), 11, tmp_path / "er.csv")
        rows = (tmp_path / "er_P.csv").read_text().strip().splitlines()[1:]
        vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert vals[0.1] == pytest.approx(1.0, abs=1e-9)
        assert vals[0.5] == pytest.approx(1.0, abs=1e-9)


class TestRunScenario:
    def test_verify_writes_outputs(self, tmp_path):
        scen = load_scenario(minimal(tmp_path, analyses=["verify"]))
        code = run_scenario(scen)
        assert code == 0
        out = tmp_path / "out"
        assert (out / "summary.txt").exists()
        assert (out / "closeness.csv").exists()
        assert "[PASS]" in (out / "summary.txt").read_text()

    def test_byte_reproducible(self, tmp_path):
        scen = load_scenario(minimal(tmp_path, analyses=["curves", "ap", "ear", "verify"]))
        run_scenario(scen)
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run_scenario(scen)
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second

    def test_fixture_checks_run(self, tmp_path, capsys):
        fix = parse_fixture_ref("risk-equal-revenue:h=100,C=5")
        from anonpricing.cli import Scenario

        scen = Scenario(name="risk", agents=fix.agents, analyses=("verify",),
                        oracle=OracleConfig(), out_dir=str(tmp_path / "o"), fixture=fix)
        code = run_scenario(scen)
        assert code == 0
        text = (tmp_path / "o" / "summary.txt").read_text()
        assert "giveaway_revenue" in text and "FAIL" not in text

    def test_failed_check_exits_nonzero(self, tmp_path, capsys):
        import dataclasses

        from anonpricing.cli import Scenario
        from anonpricing.fixtures import ExpectedValue

        fix = parse_fixture_ref("equal-revenue:h=10")
        rigged = dataclasses.replace(
            fix, expected=(ExpectedValue("posting_max", 2.0, 1e-9, "deliberately wrong"),)
        )
        scen = Scenario(name="rigged", agents=rigged.agents, analyses=("ap",),
                        oracle=OracleConfig(), out_dir=str(tmp_path / "o"), fixture=rigged)
        code = run_scenario(scen)
        assert code == 1
        assert "[FAIL]" in (tmp_path / "o" / "summary.txt").read_text()

    def test_budget_curve_csv_is_the_compared_posting_curve(self, tmp_path):
        # a budget agent's curve CSV shows the discretized P its closeness
        # row is computed on, not the continuous-law P
        agent = {"model": "public-budget", "id": "pb", "values": {"kind": "uniform", "a": 0, "b": 1}, "budget": 0.4}
        scen = load_scenario(minimal(tmp_path, agents=[agent], analyses=["curves", "verify"],
                                     grid=256, oracle={"values": 20, "budgets": 5}))
        assert run_scenario(scen) == 0
        rows = (tmp_path / "out" / "curve_pb_P.csv").read_text().strip().splitlines()[1:]
        qs, vals = np.array([[float(x) for x in r.split(",")] for r in rows]).T
        P = ap.verify_instance(list(scen.agents), scen.oracle).curves[0].P
        np.testing.assert_array_equal(vals, np.asarray(P.eval(qs)))
        continuous = ap.price_posting_curve(with_bisection_inverse(ap.offer_curve(scen.agents[0])), grid=256)
        assert vals[-1] > 0.01 and continuous.eval(1.0) < 1e-12

    def test_ap_and_ear_verbs_match_verify(self, tmp_path):
        # the ap verb sells to the discretized budget agent, as the verdict does
        agents = [{"model": "linear", "id": "u", "values": {"kind": "uniform", "a": 0, "b": 1}},
                  {"model": "public-budget", "id": "pb", "values": {"kind": "uniform", "a": 0, "b": 1}, "budget": 0.3},
                  {"model": "private-budget", "id": "pr", "values": {"kind": "uniform", "a": 0, "b": 1},
                   "budgets": {"kind": "uniform", "a": 0, "b": 1}},
                  {"model": "synthetic", "id": "s", "p_knots": [[0, 0], [0.25, 0.5], [1, 1.0]],
                   "r_knots": [[0, 0], [0.25, 1.0], [0.5, 1.0], [0.75, 2.0], [1, 2.0]]}]
        written = {}
        for analyses in (["ap"], ["ear"], ["verify"]):
            out = tmp_path / analyses[0]
            scen = load_scenario(minimal(tmp_path, agents=agents, analyses=analyses, out=str(out),
                                         grid=256, oracle={"values": 20, "budgets": 5}))
            run_scenario(scen)
            written[analyses[0]] = {f: (out / f).read_bytes() for f in ("ap.csv", "ear.csv") if (out / f).exists()}
        assert written["ap"]["ap.csv"] == written["verify"]["ap.csv"]
        assert written["ear"]["ear.csv"] == written["verify"]["ear.csv"]

    def test_verify_error_writes_no_curve(self, tmp_path, monkeypatch):
        from anonpricing import cli

        def broken(*args, **kwargs):
            raise ValueError("oracle unavailable")

        monkeypatch.setattr(cli, "verify_instance", broken)
        scen = load_scenario(minimal(tmp_path, analyses=["curves", "verify"]))
        assert run_scenario(scen) == 1
        out = tmp_path / "out"
        assert (out / "summary.txt").read_text().splitlines()[-1] == "[ERROR] ValueError: oracle unavailable"
        assert list(out.glob("curve_*.csv")) == []


class TestBuildOnce:
    @staticmethod
    def counter(monkeypatch, calls):
        """count(name, key): tally calls of `name` wherever cli, closeness or curves looks it up."""
        from anonpricing import cli, closeness, curves

        def count(name, key, applies=lambda *args: True):
            for module in (cli, closeness, curves):
                if not hasattr(module, name):
                    continue
                original = getattr(module, name)

                def counted(*args, original=original, **kwargs):
                    calls[key] += applies(*args)
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

        return count

    def test_verify_computes_each_result_once(self, tmp_path, monkeypatch):
        calls = {"build_curves": 0, "ap_optimize on posting": 0, "ear_optimize": 0}
        count = self.counter(monkeypatch, calls)
        count("build_curves", "build_curves")
        count("ap_optimize", "ap_optimize on posting",
              lambda sellables, *rest: any(isinstance(s, ap.OfferCurve) for s in sellables))
        count("ear_optimize", "ear_optimize")
        agents = [{"model": "linear", "values": {"kind": "uniform", "a": 0, "b": 1}},
                  {"model": "linear", "values": {"kind": "equal-revenue", "h": 5}}]
        path = minimal(tmp_path, agents=agents, analyses=["verify"])
        assert main(["verify", str(path), "--grid", "256"]) == 0
        assert calls == {"build_curves": 2, "ap_optimize on posting": 1, "ear_optimize": 1}

    def test_report_builds_each_posting_curve_once(self, tmp_path, monkeypatch, capsys):
        from anonpricing import cli

        calls = {"price_posting_curve": 0, "ex_ante_curve_oracle": 0}
        count = self.counter(monkeypatch, calls)
        count("price_posting_curve", "price_posting_curve")
        count("ex_ante_curve_oracle", "ex_ante_curve_oracle")
        # the report's seeded e-bound spot check draws its own curves and builds no P
        monkeypatch.setattr(cli, "random_ebound_check", lambda seed: (True, 0.0))
        U = {"kind": "uniform", "a": 0, "b": 1}
        agents = [{"model": "linear", "id": "l1", "values": U},
                  {"model": "linear", "id": "l2", "values": {"kind": "equal-revenue", "h": 5}},
                  {"model": "public-budget", "id": "pub", "values": U, "budget": 0.4},
                  {"model": "private-budget", "id": "priv", "values": U, "budgets": {"kind": "uniform", "a": 0, "b": 0.8}},
                  {"model": "capacitated", "id": "cap", "values": {"kind": "equal-revenue", "h": 20}, "capacity": 4}]
        path = minimal(tmp_path, agents=agents)
        argv = ["report", str(path), "--grid", "256", "--oracle-values", "20", "--oracle-budgets", "5"]
        assert main(argv) == 0
        assert calls == {"price_posting_curve": 5, "ex_ante_curve_oracle": 2}
        assert len(list((tmp_path / "out").glob("curve_*.csv"))) == 10

    @pytest.mark.parametrize(("ref", "sweeps"), [("private-uniform-mhr", 1), ("public-budget", 1),
                                                 ("equal-revenue", 1), ("risk-equal-revenue", 2)])
    def test_fixture_checks_sweep_only_for_a_hull(self, tmp_path, monkeypatch, ref, sweeps):
        """`verify --fixture` sweeps each offer once, in `build_curves`; of the
        fixture checks only `bound_multiplier`, which reads P's hull, sweeps
        again, and `posting_max` prices each buyer alone."""
        calls = {"price_posting_curve": 0}
        self.counter(monkeypatch, calls)("price_posting_curve", "price_posting_curve")
        assert main(["verify", "--fixture", ref, "--grid", "512", "--out", str(tmp_path / "o")]) == 0
        assert calls == {"price_posting_curve": sweeps}

    def test_curve_verb_runs_no_oracle(self, tmp_path, monkeypatch):
        from anonpricing import closeness

        def refuse(*args, **kwargs):
            raise AssertionError("the curve verb ran the ex-ante oracle")

        monkeypatch.setattr(closeness, "ex_ante_curve_oracle", refuse)
        assert main(["curve", "--fixture", "mhr-fail:n=5", "--grid", "256", "--out", str(tmp_path / "c")]) == 0
        assert len(list((tmp_path / "c").glob("curve_*.csv"))) == 10


class TestSizeRanges:
    @pytest.mark.parametrize("source", ["file", "flag with scenario", "flag with fixture"])
    @pytest.mark.parametrize("flag, key, value, field", [
        ("--grid", "grid", 10, "grid"),
        ("--grid", "grid", 5_000_000, "grid"),
        ("--oracle-values", "values", 1, "oracle.values"),
        ("--oracle-budgets", "budgets", 100_000, "oracle.budgets"),
        # discretizing a budget law needs at least 2 levels
        ("--oracle-budgets", "budgets", 1, "oracle.budgets"),
        # 0 is a value like any other, never "flag not given"
        ("--grid", "grid", 0, "grid"),
        ("--oracle-values", "values", 0, "oracle.values"),
        ("--oracle-budgets", "budgets", 0, "oracle.budgets"),
    ])
    def test_out_of_range_exits_2_before_any_build(self, tmp_path, capsys, monkeypatch,
                                                   source, flag, key, value, field):
        from anonpricing import closeness

        def refuse(*args, **kwargs):
            raise AssertionError("a curve was built for rejected input")

        monkeypatch.setattr(closeness, "build_curves", refuse)
        monkeypatch.setattr(closeness, "price_posting_curve", refuse)
        if source == "file":
            payload = {"grid": value} if key == "grid" else {"oracle": {key: value}}
            argv = ["verify", str(minimal(tmp_path, **payload))]
        elif source == "flag with scenario":
            argv = ["verify", str(minimal(tmp_path)), flag, str(value)]
        else:
            argv = ["verify", "--fixture", "private-uniform-mhr", flag, str(value), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"input error: {field}:" in capsys.readouterr().err


class TestMain:
    def test_fixtures_listing(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "tightness" in out and "mhr-fail" in out

    def test_input_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["verify", str(bad)]) == 2

    def test_missing_scenario_exit_2(self):
        assert main(["verify"]) == 2

    def test_verb_chooses_the_analyses(self, tmp_path, capsys):
        # the file's analyses apply to run_scenario(load_scenario(path)) only
        path = minimal(tmp_path, analyses=["curves", "ap"])
        assert main(["verify", str(path), "--grid", "256"]) == 0
        assert list((tmp_path / "out").glob("curve_*.csv")) == []
        assert (tmp_path / "out" / "closeness.csv").exists()

    def test_seed_zero_is_kept(self, tmp_path, capsys):
        assert main(["verify", "--fixture", "equal-revenue", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert "seed: 0\n" in capsys.readouterr().out

    def test_verify_fixture_ok(self, tmp_path, capsys):
        code = main(["verify", "--fixture", "uniform-linear:n=2", "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    @pytest.mark.parametrize("w", [0.9, 1.0, 5.0])
    def test_public_budget_at_or_above_the_monopoly_price(self, tmp_path, w):
        """60 discretized masses of 1/60 sum past 1 by rounding; the sale
        probability above the top value must still be 0, not negative."""
        assert main(["verify", "--fixture", f"public-budget:w={w}", "--out", str(tmp_path)]) == 0

    def test_linear_sixty_atom_law(self, tmp_path):
        law = {"kind": "discrete", "values": list(np.arange(1, 61) / 60), "probs": [1 / 60] * 60}
        path = minimal(tmp_path, agents=[{"model": "linear", "values": law}], analyses=["verify"])
        assert main(["verify", str(path)]) == 0

    def test_fixture_moments_need_no_quadrature(self, tmp_path):
        """The capacitated and overpay fixtures' expected quantities come from
        exact moments, so verifying them never loads scipy's integrator."""
        script = (
            "import sys\n"
            "from anonpricing.cli import main\n"
            f"codes = [main(['verify', '--fixture', f, '--out', {str(tmp_path)!r} + '/' + f])\n"
            "         for f in ('risk-equal-revenue', 'overpay')]\n"
            "print(codes, 'scipy.integrate' in sys.modules)\n"
        )
        src = str(Path(ap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0] False"

    def test_curve_verb(self, tmp_path):
        code = main(["curve", "--fixture", "equal-revenue:h=10", "--grid", "128",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        assert (tmp_path / "c" / "curve_agent1_P.csv").exists()
