"""Spans around calls into the program, recorded from outside it.

`Tracer.install()` replaces each traced function at the name its caller
looks it up under (a module attribute such as `closeness.build_curves`),
and `Tracer.restore()` puts every original object back.  The program's
own files are never edited, so the untraced run executes exactly the
code a user runs.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np


def _lp_cells(args, kwargs, result):
    objective = args[0] if args else kwargs["objective"]
    senses = args[2] if len(args) > 2 else kwargs["senses"]
    return len(senses) * len(objective)


def _matrix_cells(args, kwargs, result):
    prices, curve = args[0], args[1]
    if curve.offer is not None:  # offer-backed curves skip the knots x prices matrix
        return 0
    return np.atleast_1d(prices).size * len(curve.qs)


def _knots(args, kwargs, result):
    return len(result.qs)


# span name -> the module attributes its callers look up, and an optional
# work counter computed from the call's arguments and result
TARGETS = {
    "oracle.simplex_solve": ([("oracle", "simplex_solve")], _lp_cells),
    "oracle.ex_ante_curve_oracle": ([("closeness", "ex_ante_curve_oracle")], None),
    "closeness.build_curves": ([("cli", "build_curves"), ("closeness", "build_curves")], None),
    "closeness.params": ([("closeness", "alpha_for_beta"), ("closeness", "zeta"), ("closeness", "eta")], None),
    "closeness.verify_instance": ([("cli", "verify_instance"), ("closeness", "verify_instance")], None),
    "mechanisms.ap_optimize": ([("cli", "ap_optimize"), ("closeness", "ap_optimize")], None),
    "curves.quantiles_at_prices": ([("mechanisms", "quantiles_at_prices")], _matrix_cells),
    "mechanisms.risk_two_priced_bound": (
        [("cli", "risk_two_priced_bound"), ("closeness", "risk_two_priced_bound")], None),
    "mechanisms.myerson_reserve": ([("mechanisms", "myerson_reserve")], None),
    "mechanisms.ear_optimize": ([("cli", "ear_optimize"), ("closeness", "ear_optimize")], None),
    "curves.price_posting_curve": (
        [("cli", "price_posting_curve"), ("closeness", "price_posting_curve"), ("curves", "price_posting_curve")],
        _knots),
    "curves.concave_hull": ([("cli", "concave_hull"), ("closeness", "concave_hull")], None),
    "distributions.discretize": ([("distributions", "discretize")], None),
    "distributions.diagnostics": ([("closeness", "regularity_report"), ("closeness", "mhr_report")], None),
    "fixtures.get_fixture": ([("cli", "get_fixture"), ("fixtures", "get_fixture")], None),
    "cli.run_scenario": ([("cli", "run_scenario")], None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end, self.parent, self.op = name, start, None, parent, op
        self.work = 0


class Tracer:
    """Keeps spans in memory; `summary()` turns them into per-layer totals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def install(self) -> None:
        for name, (sites, counter) in TARGETS.items():
            for mod_name, attr in sites:
                module = importlib.import_module(f"anonpricing.{mod_name}")
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.work = counter(args, kwargs, result)
            return result

        return traced

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run(self, op_id, fn):
        """Call fn() under a root span named "op" with the wrappers installed."""
        self._op = op_id
        self.install()
        root = self.open("op")
        try:
            return fn()
        finally:
            self.close(root)
            self.restore()
            self._op = None

    def summary(self, op_ids) -> dict:
        """Per span name over the given ops: calls, inclusive seconds, self
        seconds and work, each summed (divide by the op count for per-op)."""
        wanted = set(op_ids)
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for i, span in enumerate(self.spans):
            if span.op not in wanted:
                continue
            row = out[span.name]
            dur = span.end - span.start
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["work"] += span.work
        return dict(out)
