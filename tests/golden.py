"""Reference outputs of `anonpricing verify --fixture F --grid 512` for every
built-in fixture, split into number and text tokens.

    PYTHONPATH=src python tests/golden.py    # rewrites golden_verify_512.json

Regenerate only for a change that is meant to move an output, and say which
numbers moved and why; `test_golden.py` compares every run against this file.
"""

import json
import re
import tempfile
from pathlib import Path

from anonpricing.cli import main
from anonpricing.fixtures import fixtures

GRID = 512
FILES = ("ap.csv", "ear.csv", "closeness.csv", "summary.txt")
REFERENCE = Path(__file__).with_name("golden_verify_512.json")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def tokens(text: str) -> list:
    """Alternating text and number tokens: numbers become floats, the text
    between them stays a string (an empty string where two numbers touch)."""
    out, pos = [], 0
    for m in _NUMBER.finditer(text):
        out += [text[pos:m.start()], float(m.group())]
        pos = m.end()
    return out + [text[pos:]]


def run_fixture(name: str, out_dir: Path) -> dict:
    """Exit code and tokenized output files of one `verify` run."""
    code = main(["verify", "--fixture", name, "--grid", str(GRID), "--out", str(out_dir)])
    return {"exit": code, **{f: tokens((out_dir / f).read_text()) for f in FILES}}


def collect() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {fx["name"]: run_fixture(fx["name"], Path(tmp) / fx["name"]) for fx in fixtures()}


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(collect(), indent=1) + "\n")
