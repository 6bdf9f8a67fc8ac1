"""Every name the benchmark's traced mode wraps still exists in the package.

`perfbench/spans.py` replaces each `TARGETS` site (a module attribute such
as `cli.price_posting_curve`) at run time; a site that no longer resolves
would break traced runs, so it is checked here, outside the benchmark's own
tests.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for targets, _ in spans.TARGETS.values() for site in targets]
    assert sites
    missing = [f"{mod}.{attr}" for mod, attr in sites
               if not hasattr(importlib.import_module(f"anonpricing.{mod}"), attr)]
    assert missing == []
