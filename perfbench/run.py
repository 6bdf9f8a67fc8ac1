"""Verifier benchmark for anonpricing.

    python3 perfbench/run.py --workload budget-lp --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from `src/` of
this checkout; nothing is installed.  One process runs one workload, one
verification op at a time (a closed loop with one client), with BLAS
pinned to one thread.  Ops repeat until `--seconds` have passed; an op is
never cut short, so a run holds at least one op (two when traced).

Workloads (inputs come from `--seed` only; see workloads.py):
  budget-lp    `anonpricing verify` on 2 private- and 2 public-budget
               buyers: the dense-simplex ex-ante oracle.
  many-linear  `anonpricing verify` on 16 linear buyers: the anonymous-price
               search over offer-less hull curves; no LP.
  capacitated  library `verify_instance` on risk-equal-revenue(h, C) at
               price grid 512: the two-priced bound; writes no files.

`--trace 0` reports the end-to-end metrics:
  verify_s     median wall seconds of one op
  setup_s      median, over fresh interpreters, of the seconds to import the
               program, generate the seeded input and load it
  peak_rss_mb  peak resident memory of this process

`--trace 1` alternates untraced and traced ops and reports per-layer
metrics from the traced ones.  Times and counts are per op, except
`fixtures.get_fixture.s`, which is per set-up; `*.calls_per_agent` divides
the calls of one op by its number of agents; `trace.overhead_s` is the
traced ops' median minus the untraced ops' median.

Every op is checked (see workloads.py).  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (environment, output digest, op times, problems), which is
also written to perfbench/results/.  Exit code 2 means the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("budget-lp", "many-linear", "capacitated")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

# (metric, unit, span, field): the span is a name in spans.TARGETS and the
# field says what of it is summed per op ("calls/agent" divides by the
# agents of one op; "setup_s" is taken from the traced set-up instead).
# Metrics without a span are computed by run() itself.
PER_LAYER = [
    ("oracle.simplex_solve.calls", "count/op", "oracle.simplex_solve", "calls"),
    ("oracle.simplex_solve.s", "s/op", "oracle.simplex_solve", "s"),
    ("oracle.ex_ante_curve_oracle.s", "s/op", "oracle.ex_ante_curve_oracle", "s"),
    ("oracle.lp_cells", "cells/op", "oracle.simplex_solve", "work"),
    ("closeness.build_curves.calls_per_agent", "calls/agent", "closeness.build_curves", "calls/agent"),
    ("closeness.build_curves.self_s", "s/op", "closeness.build_curves", "self_s"),
    ("closeness.params.s", "s/op", "closeness.params", "s"),
    ("closeness.verify_instance.s", "s/op", "closeness.verify_instance", "s"),
    ("mechanisms.ap_optimize.calls", "count/op", "mechanisms.ap_optimize", "calls"),
    ("mechanisms.ap_optimize.s", "s/op", "mechanisms.ap_optimize", "s"),
    ("curves.quantiles_at_prices.calls", "count/op", "curves.quantiles_at_prices", "calls"),
    ("curves.quantiles_at_prices.s", "s/op", "curves.quantiles_at_prices", "s"),
    ("curves.quantiles_at_prices.cells", "cells/op", "curves.quantiles_at_prices", "work"),
    ("mechanisms.risk_two_priced_bound.calls", "count/op", "mechanisms.risk_two_priced_bound", "calls"),
    ("mechanisms.risk_two_priced_bound.s", "s/op", "mechanisms.risk_two_priced_bound", "s"),
    ("mechanisms.myerson_reserve.calls_per_agent", "calls/agent", "mechanisms.myerson_reserve", "calls/agent"),
    ("mechanisms.myerson_reserve.s", "s/op", "mechanisms.myerson_reserve", "s"),
    ("mechanisms.ear_optimize.s", "s/op", "mechanisms.ear_optimize", "s"),
    ("curves.price_posting_curve.calls", "count/op", "curves.price_posting_curve", "calls"),
    ("curves.price_posting_curve.s", "s/op", "curves.price_posting_curve", "s"),
    ("curves.price_posting_curve.knots", "count/op", "curves.price_posting_curve", "work"),
    ("curves.concave_hull.s", "s/op", "curves.concave_hull", "s"),
    ("distributions.discretize.s", "s/op", "distributions.discretize", "s"),
    ("distributions.diagnostics.s", "s/op", "distributions.diagnostics", "s"),
    ("fixtures.get_fixture.s", "s/setup", "fixtures.get_fixture", "setup_s"),
    ("cli.run_scenario.s", "s/op", "cli.run_scenario", "s"),
    ("cli.bytes_written", "B/op", None, None),
    ("trace.verify_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
]


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def pin_blas_threads() -> None:
    """Pin BLAS to one thread for this process and its children; numpy
    reads these only when it is first imported."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_program():
    """Import the program from this checkout's src/, or exit with code 2."""
    if not (SRC / "anonpricing" / "__init__.py").is_file():
        die(f"no program at {SRC / 'anonpricing'}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import anonpricing
    import workloads

    if not Path(anonpricing.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"anonpricing imported from {anonpricing.__file__}, not from {SRC}")
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time import, input generation and load."""
    t0 = time.perf_counter()
    workloads = import_program()
    workloads.WORKLOADS[workload]().prepare(seed, WORK / f"{workload}-setup")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", {}).get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": _git_commit(ROOT),
        "src_sha256": src_hash.hexdigest(),
    }


def layer_metrics(ops: dict, n_ops: int, n_agents: int, setup: dict) -> dict:
    """Per-layer values from span summaries of the traced ops and set-up."""
    values = {}
    for name, _, span, field in PER_LAYER:
        if span is None:
            continue
        if field == "setup_s":
            values[name] = setup.get(span, {}).get("s", 0.0)
        elif field == "calls/agent":
            values[name] = ops.get(span, {}).get("calls", 0) / n_ops / n_agents
        else:
            values[name] = ops.get(span, {}).get(field, 0) / n_ops
    return values


def print_shares(workload: str, summary: dict, n_ops: int) -> None:
    op_s = summary["op"]["s"] / n_ops
    print(f"layer shares of a traced {workload} op ({op_s:.4g} s, mean of {n_ops}); "
          "op self time is time outside every traced call:")
    modules = {}
    for span, row in sorted(summary.items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {span:<36} calls/op {row['calls'] / n_ops:>9.1f}  incl {row['s'] / n_ops / op_s:7.1%}"
              f"  self {row['self_s'] / n_ops / op_s:7.1%}")
        module = span.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"] / n_ops / op_s
    print("  self time by module: " + ", ".join(f"{m} {s:.1%}" for m, s in sorted(modules.items(), key=lambda kv: -kv[1])))


def run(workload: str, seed: int, seconds: float, trace: bool, setup_samples: list[float] | None) -> dict:
    """Run ops of one workload for `seconds`; return the full record."""
    import spans  # imports numpy, so only after pin_blas_threads()

    workloads = import_program()
    bench = workloads.WORKLOADS[workload]()
    tracer = spans.Tracer() if trace else None
    workdir = WORK / workload
    if tracer:
        tracer.run("setup", lambda: bench.prepare(seed, workdir))
    else:
        bench.prepare(seed, workdir)

    op_times, op_cpu, traced_times, untraced_times = [], [], [], []
    problems, below_one, digests = [], set(), []
    attempted = failed = written = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        bench.reset()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = tracer.run(attempted, bench.run) if traced else bench.run()
            error = None
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        op_times.append(dt)
        op_cpu.append(time.process_time() - c0)
        (traced_times if traced else untraced_times).append(dt)
        if error is None:
            try:
                outcome = bench.check(result)
                errs = list(outcome.problems)
                if digests and outcome.digest != digests[0]:
                    errs.append("output digest differs from the first op's")
                digests.append(outcome.digest)
                below_one.update(outcome.below_one)
                if traced:
                    written += outcome.bytes_written
            except Exception:  # a check that raises is a failed op
                errs = [traceback.format_exc(limit=3)]
        else:
            errs = [error]
        attempted += 1
        if errs:
            failed += 1
            problems.append({"op": attempted - 1, "problems": errs})
        if time.perf_counter() - start >= seconds and (tracer is None or attempted >= 2):
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "op_times_s": op_times,
        "op_cpu_s": op_cpu,
        "digest": sorted(set(digests)),
        "per_agent_below_1": sorted(below_one),
        "problems": problems[:5],
        "environment": environment(),
    }
    if tracer is None:
        record["setup_samples_s"] = setup_samples
        record["metrics"] = {
            "verify_s": {"value": statistics.median(op_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        return record
    traced_ids = list(range(1, attempted, 2))
    n = len(traced_ids)
    summary = tracer.summary(traced_ids)
    values = layer_metrics(summary, n, bench.n_agents, tracer.summary(["setup"]))
    values["cli.bytes_written"] = written / n
    values["trace.verify_s"] = statistics.median(traced_times)
    values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(untraced_times)
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    record["untraced_op_times_s"] = untraced_times
    record["layers"] = {span: {k: v / n for k, v in row.items()} for span, row in summary.items()}
    print_shares(workload, summary, n)
    print(f"tracing overhead: {values['trace.overhead_s']:+.4f} s per op "
          f"({values['trace.overhead_s'] / statistics.median(untraced_times):+.2%})")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()  # fail fast, before the probes, when the program is missing
    setup_samples = None if args.trace else measure_setup(args.workload, args.seed)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), setup_samples)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
