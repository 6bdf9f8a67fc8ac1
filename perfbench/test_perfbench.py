"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import sys

import pytest

import run
import spans

workloads = run.import_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _program_attributes() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, module in sorted(sys.modules.items())
        if mod_name == "anonpricing" or mod_name.startswith("anonpricing.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("make", [workloads.budget_lp_scenario, workloads.many_linear_scenario])
def test_same_seed_gives_identical_scenario_files(make, tmp_path):
    first = workloads.scenario_bytes(make(7))
    assert first == workloads.scenario_bytes(make(7))
    assert first != workloads.scenario_bytes(make(8))
    path = tmp_path / "scenario.json"
    path.write_bytes(first)
    workloads.cli.load_scenario(path)


def test_capacitated_params_are_seeded_and_in_range():
    for seed in range(50):
        p = workloads.capacitated_params(seed)
        assert p == workloads.capacitated_params(seed)
        assert 10.0 <= p["h"] <= 100.0 and 1.0 <= p["C"] <= p["h"] / 4.0


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["verify_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [(n, u) for n, u, _, _ in run.PER_LAYER]
    assert {span for _, _, span, _ in run.PER_LAYER if span} <= set(spans.TARGETS)


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    parent = spans.Span("a", 0.0, None, 1)
    parent.end = 10.0
    child = spans.Span("b", 2.0, 0, 1)
    child.end = 5.0
    other_op = spans.Span("a", 0.0, None, 2)
    other_op.end = 1.0
    tracer.spans = [parent, child, other_op]
    summary = tracer.summary([1])
    assert summary["a"]["s"] == 10.0 and summary["a"]["self_s"] == 7.0
    assert summary["b"]["self_s"] == 3.0 and summary["a"]["calls"] == 1


def test_untraced_run_leaves_the_program_untouched(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)

    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    before = _program_attributes()
    with monkeypatch.context() as m:
        m.setattr(spans.Tracer, "install", refuse)
        record = run.run("budget-lp", seed=3, seconds=0, trace=False, setup_samples=[1.0])
    after = _program_attributes()
    assert record["failed"] == 0 and record["attempted"] == 1
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_run_restores_every_wrapped_name(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    before = _program_attributes()
    record = run.run("budget-lp", seed=3, seconds=0, trace=True, setup_samples=None)
    after = _program_attributes()
    assert all(after[key] is before[key] for key in before)
    metrics = record["metrics"]
    assert metrics["oracle.simplex_solve.calls"]["value"] == 264
    assert metrics["closeness.build_curves.calls_per_agent"]["value"] == 2.0
    assert metrics["mechanisms.risk_two_priced_bound.calls"]["value"] == 0
    assert record["digest"] == run.run("budget-lp", 3, 0, False, [1.0])["digest"]


def test_missing_program_exits_2(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code == 2
