"""`verify` on every built-in fixture reproduces the committed reference
outputs: every number to 1e-12 relative, every text field exactly."""

import json

import pytest

from golden import FILES, REFERENCE, run_fixture

EXPECTED = json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_verify_outputs_match_reference(name, tmp_path):
    got, want = run_fixture(name, tmp_path), EXPECTED[name]
    assert got["exit"] == want["exit"]
    for f in FILES:
        assert len(got[f]) == len(want[f]), f
        for g, w in zip(got[f], want[f]):
            if isinstance(w, str):
                assert g == w, f
            else:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0), f


def test_reference_covers_every_fixture():
    from anonpricing.fixtures import fixtures

    assert sorted(EXPECTED) == sorted(fx["name"] for fx in fixtures())
