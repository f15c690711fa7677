"""Repeat the benchmark over seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median)
against its bound in BENCHMARK.json.

    python3 perfbench/repeat.py --runs 10 [--workload hlt_certify ...]

Seeds 1..runs are used.  A spread above a third of the bound is flagged:
the metric is then too noisy for its bound, and the exit code is 1.  Runs
are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = [run_once(workload, seed, bench["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed={failed}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = metrics.quartiles(values)
            share = metrics.spread(values)
            flag = "" if share <= metric["bound"] / 3 else "  <-- above bound/3"
            steady = steady and not flag
            print(f"  {metric['name']:24s} median {q2:12.6g} {metric['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:.4f} "
                  f"bound {metric['bound']}{flag}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
