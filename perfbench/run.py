"""Certifier benchmark: one workload per process, stdlib only.

    python3 perfbench/run.py --workload hlt_certify --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory.  Set-up (import plus input preparation) is repeated
SETUP_REPEATS times, then passes over the workload's operations run until
`--seconds` have elapsed; the last pass is allowed to finish.  Every operation's result is checked (see workloads.py).

With `--trace 0` the run reports the end-to-end metrics: medians over
passes or set-ups, with times in normalised seconds (speed.py).  With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics as means per traced pass: self time (wall seconds,
including the sampler's ~1 %) and calls of each traced function,
enumeration counters, and the tracing overhead in normalised seconds.

Standard output ends with two JSON lines: a report (environment, one row
per operation, every metric and the fail ratio), then the result
`{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import metrics
import speed
import workloads
from tracing import COUNTERS, PACKAGE, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A single set-up varies by +-20 % on a shared host; the median of 15 is
# steady.  The count is fixed because every set-up leaves the allocator a
# little more fragmented, which shows in the peak RSS.
SETUP_REPEATS = 15

END_TO_END_UNITS = {
    "pass_s": "s",
    "slowest_op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "defined_per_index": "ratio",
    "peak_cosets_per_index": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _module, _fn, span in TRACED:
        units[f"{span}_s"] = "s"
        units[f"{span}.calls"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units.update({
        "coset_enum.useful_ratio": "ratio",
        "coset_enum.defined_per_s": "1/s",
        "trace.pass_s": "s",
        "trace.untraced_pass_s": "s",
        "trace.overhead_s": "s",
        "trace.unattributed_s": "s",
    })
    return units


def import_package():
    """A fresh import of the package from SRC (a set-up cost a user pays)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}")
    fast = importlib.import_module(f"{PACKAGE}._fast")
    return pkg, ("numba" if fast.HAS_NUMBA else "pure")


def environment(engine: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        # certify asks for the compiled engine; it runs HLT when numba is
        # importable, so timings of different engines must not be compared
        "hlt_engine": engine,
    }


def run_pass(ops, tracer: Tracer | None = None) -> list[dict]:
    """One row per operation: its wall seconds, the sampler's share of
    them, the mean reference time around and during it, and its normalised
    seconds."""
    rows = []
    sampler = speed.Sampler()
    ref = speed.reference_seconds()
    for op in ops:
        before = tracer.snapshot() if tracer else None
        sampler.reset()
        with sampler.running():
            row = op.execute()
        if tracer:
            row["layers"] = tracer.self_since(before)
        after = speed.reference_seconds()
        row["sampler_s"] = sampler.spent_s
        row["ref_s"], row["norm_s"] = speed.normalise_sampled(
            row["seconds"], sampler, ref, after)
        ref = after
        rows.append(row)
    return rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops, seconds: float, trace: bool):
    """Passes until `seconds` have elapsed; with `trace`, each round is an
    untraced pass followed by a traced one.  Returns the untraced and the
    traced passes (lists of rows), the tracer, and the peak RSS after the
    first pass: later passes repeat the same work, and the allocator's
    fragmentation over them would tie the peak to the number of passes."""
    untraced, traced = [], []
    tracer = Tracer()
    start = perf_counter()
    while True:
        untraced.append(run_pass(ops))
        if len(untraced) == 1:
            first_pass_rss_mb = peak_rss_mb()
        if trace:
            with tracer.installed():
                traced.append(run_pass(ops, tracer))
        if perf_counter() - start >= seconds:
            return untraced, traced, tracer, first_pass_rss_mb


def pass_seconds(passes, key: str = "norm_s") -> list[float]:
    return [sum(row[key] for row in rows) for rows in passes]


def layer_metrics(tracer: Tracer, untraced, traced) -> tuple[dict, str | None]:
    """Per-layer metrics as means per traced pass, and a problem if the
    traced layers leave part of the traced operations' time unattributed."""
    n = len(traced)
    out = {}
    for _module, _fn, span in TRACED:
        out[f"{span}_s"] = tracer.self_s.get(span, 0.0) / n
        out[f"{span}.calls"] = tracer.calls.get(span, 0) / n
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0) / n
    out["coset_enum.useful_ratio"] = metrics.ratio(
        out["coset_enum.index"], out["coset_enum.defined"])
    out["coset_enum.defined_per_s"] = metrics.ratio(
        out["coset_enum.defined"], out["coset_enum.todd_coxeter_s"])
    out["trace.pass_s"] = metrics.median(pass_seconds(traced))
    out["trace.untraced_pass_s"] = metrics.median(pass_seconds(untraced))
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    # self times are wall seconds, so they are checked against wall time
    traced_wall = sum(pass_seconds(traced, "seconds"))
    self_total = sum(tracer.self_s.values())
    out["trace.unattributed_s"] = (traced_wall - self_total) / n
    return out, metrics.unattributed_problem(traced_wall, self_total)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_wall, setup_norm = [], []
    sampler = speed.Sampler(speed.SETUP_TICK_S)
    ref = speed.reference_seconds()
    for _ in range(SETUP_REPEATS):
        # a fresh process holds neither the inputs nor the garbage of
        # earlier set-ups
        pkg = prepared = None
        gc.collect()
        sampler.reset()
        t0 = perf_counter()
        with sampler.running():
            pkg, engine = import_package()
            prepared = workloads.prepare(pkg, args.workload, args.seed)
        setup_wall.append(perf_counter() - t0)
        after = speed.reference_seconds()
        setup_norm.append(speed.normalise_sampled(setup_wall[-1], sampler, ref, after)[1])
        ref = after

    untraced, traced, tracer, rss_mb = measure(prepared.ops, args.seconds,
                                               bool(args.trace))
    rows = [dict(row, traced=is_traced, pass_no=no)
            for is_traced, passes in ((False, untraced), (True, traced))
            for no, pass_rows in enumerate(passes, 1) for row in pass_rows]
    attempted, failed = metrics.count_failures(rows)
    # the pass's own enumerations, or the prepared ones it queries
    enum_rows = [r for r in untraced[0] if "defined" in r] or prepared.setup_rows
    end_to_end = metrics.end_to_end(
        pass_seconds=pass_seconds(untraced),
        op_seconds=[[rows[i]["norm_s"] for rows in untraced]
                    for i in range(len(prepared.ops))],
        setup_seconds=setup_norm, enum_rows=enum_rows,
        peak_rss_mb=rss_mb)
    problem = None
    if args.trace:
        values, problem = layer_metrics(tracer, untraced, traced)
        units = per_layer_units()
    else:
        values, units = end_to_end, END_TO_END_UNITS

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(engine),
        "reference_s": speed.REFERENCE_S,
        "setup_s": setup_norm, "setup_wall_s": setup_wall,
        "pass_s": pass_seconds(untraced),
        "pass_wall_s": pass_seconds(untraced, "seconds"),
        "traced_pass_s": pass_seconds(traced),
        "end_to_end": end_to_end, "fail_ratio": metrics.ratio(failed, attempted),
        "per_layer": values if args.trace else None,
        "trace_problem": problem,
        "setup_rows": prepared.setup_rows, "rows": rows,
    }
    result = {
        "correct": failed == 0 and problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
