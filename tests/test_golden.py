"""`verify` on every built-in fixture reproduces the committed reference
outputs: every number to 1e-12 relative, every text field exactly.  On
every curve those runs and the benchmark's workloads scan, the hull scan
keeps the knots the plain monotone chain keeps."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anonpricing import closeness, curves, oracle
from anonpricing.cli import main
from anonpricing.fixtures import get_fixture
from golden import FILES, REFERENCE, run_fixture
from helpers import load_workloads, numpy_scalar_hull_indices

EXPECTED = json.loads(REFERENCE.read_text())


def assert_matches(got: dict, want: dict):
    for f in FILES:
        assert len(got[f]) == len(want[f]), f
        for g, w in zip(got[f], want[f]):
            if isinstance(w, str):
                assert g == w, f
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), f


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_verify_outputs_match_reference(name, tmp_path):
    got, want = run_fixture(name, tmp_path), EXPECTED[name]
    assert got["exit"] == want["exit"]
    assert_matches(got, want)


def test_reference_covers_every_fixture():
    from anonpricing.fixtures import fixtures

    assert sorted(EXPECTED) == sorted(fx["name"] for fx in fixtures())


# numpy's SIMD levels above the x86-64 baseline; with them switched off numpy
# runs the kernels of an older CPU, whose sorts and transcendentals may
# order ties or round differently
WIDE_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from golden import run_fixture
out = Path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    got = {n: run_fixture(n, out / n) for n in sys.argv[2:]}
(out / "got.json").write_text(json.dumps(got))
"""


def test_tie_decided_prices_do_not_depend_on_simd_kernels(tmp_path):
    """On some fixtures the best anonymous-price candidates tie, and the
    search brackets come from the order of those ties; on others the search
    picks its price on flat or near-flat revenue, and the water-fill stops
    on a flat Rbar.  With numpy's wide SIMD kernels off, every output file
    of every fixture still matches the reference."""
    names = sorted(EXPECTED)
    tests, src = Path(__file__).parent, Path(__file__).parents[1] / "src"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": WIDE_SIMD,
           "PYTHONPATH": os.pathsep.join([str(tests), str(src), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _RUN, str(tmp_path), *names], env=env, check=True)
    got = json.loads((tmp_path / "got.json").read_text())
    for name in names:
        assert got[name]["exit"] == EXPECTED[name]["exit"], name
        assert_matches(got[name], EXPECTED[name])


def test_hull_scan_matches_the_plain_chain_on_every_verified_curve(tmp_path, monkeypatch):
    """On every curve that `verify` scans, on each fixture at the reference
    grid and on the benchmark's three workloads at seed 1, the scan keeps
    the knots the monotone chain on every knot keeps, bit for bit: on these
    curves running the chain on the strict records moves no output."""
    scanned, moved = set(), []

    def checked(qs, vals, real=curves._upper_hull_indices):
        got = real(qs, vals)
        key = (qs.tobytes(), vals.tobytes())
        if key not in scanned:
            scanned.add(key)
            # the plain chain on Python floats: the same doubles, at a
            # fraction of the cost of numpy scalars
            if got.tolist() != numpy_scalar_hull_indices(qs.tolist(), vals.tolist()):
                moved.append(len(qs))
        return got

    monkeypatch.setattr(curves, "_upper_hull_indices", checked)
    monkeypatch.setattr(oracle, "_upper_hull_indices", checked)
    workloads = load_workloads(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        for name in EXPECTED:
            run_fixture(name, tmp_path / name)
        for make in (workloads.budget_lp_scenario, workloads.many_linear_scenario):
            doc = make(1)
            path = tmp_path / f"{doc['name']}.json"
            path.write_bytes(workloads.scenario_bytes(doc))
            assert main(["verify", str(path), "--out", str(tmp_path / doc["name"])]) == 0
    fixture = get_fixture("risk-equal-revenue", **workloads.capacitated_params(1))
    closeness.verify_instance(fixture.agents, closeness.OracleConfig(price_grid=512))
    assert moved == [] and len(scanned) > 100
