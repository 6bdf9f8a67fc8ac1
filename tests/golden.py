"""Reference outputs of `anonpricing verify --fixture F --grid 512` for every
built-in fixture, split into number and text tokens.

    PYTHONPATH=src python tests/golden.py            # rewrites golden_verify_512.json
    PYTHONPATH=src python tests/golden.py NAME ...   # rewrites only the named fixtures

Regenerate only for a change that is meant to move an output, and say which
numbers moved and why; `test_golden.py` compares every run against this file.
Before it rewrites, the script prints each output token of the named
fixtures (of every fixture, given no names) that moved against the
reference, as `fixture file: old → new`.  Given names, it rewrites nothing
and exits 1 if the output of any other fixture moved (by the test's rule),
naming it; an unknown name exits 2.
"""

import contextlib
import io
import json
import re
import sys
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
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        return {fx["name"]: run_fixture(fx["name"], Path(tmp) / fx["name"]) for fx in fixtures()}


def _same(g, w) -> bool:
    """One token as `test_golden.py` compares it: text exactly, a number to
    1e-12 relative."""
    return g == w if isinstance(w, str) else isinstance(g, float) and abs(g - w) <= 1e-12 * abs(w)


def moved(got: dict, want: dict) -> list[str]:
    """The outputs of one fixture's run that `test_golden.py` would reject
    against its reference: the exit code, the token count, a text token, or
    a number off by more than 1e-12 relative."""
    out = [] if got["exit"] == want["exit"] else ["exit"]
    return out + [f for f in FILES if len(got[f]) != len(want[f]) or not all(map(_same, got[f], want[f]))]


def token_moves(got: dict, want: dict) -> list[str]:
    """The same outputs token by token, as `file: old → new`: the exit code,
    a file's token count, or each token the test would reject."""
    out = [] if got["exit"] == want["exit"] else [f"exit: {want['exit']} → {got['exit']}"]
    for f in FILES:
        if len(got[f]) != len(want[f]):
            out.append(f"{f}: {len(want[f])} tokens → {len(got[f])} tokens")
        else:
            out += [f"{f}: {w!r} → {g!r}" for g, w in zip(got[f], want[f]) if not _same(g, w)]
    return out


def main_golden(names: list[str]) -> int:
    known = [fx["name"] for fx in fixtures()]
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"golden: unknown fixture(s) {', '.join(unknown)}", file=sys.stderr)
        return 2
    got = collect()
    want = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for n in names or known:
        for line in ["new fixture"] if n not in want else token_moves(got[n], want[n]):
            print(f"{n} {line}")
    if names:
        others = [(n, ["missing"] if n not in want else moved(got[n], want[n])) for n in known if n not in names]
        stray = [f"{n} ({', '.join(files)})" for n, files in others if files]
        if stray:
            print(f"golden: output moved for fixture(s) not named: {'; '.join(stray)}; nothing written", file=sys.stderr)
            return 1
        got = {n: got[n] if n in names else want[n] for n in known}
    REFERENCE.write_text(json.dumps(got, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main_golden(sys.argv[1:]))
