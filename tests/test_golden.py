"""`verify` on every built-in fixture reproduces the committed reference
outputs: every number to 1e-12 relative, every text field exactly."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import FILES, REFERENCE, run_fixture

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
