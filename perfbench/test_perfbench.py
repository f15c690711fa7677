"""Tests of the certifier benchmark itself.

    python3 -m pytest perfbench

The smoke runs execute one pass of every workload, untraced and traced
(about two minutes).
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import metrics
import speed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric arithmetic ----------------------------------------------------------

def test_median_and_quartiles_follow_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert metrics.median(values) == 3.75
    assert metrics.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    with pytest.raises(ValueError):
        metrics.median([])
    with pytest.raises(ValueError):
        metrics.quartiles([1.0])


def test_spread_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / q2)
    assert metrics.spread([2.0] * 10) == 0.0
    assert metrics.spread([0.0, 0.0, 0.0]) == 0.0


def test_ratio_of_empty_base_is_zero():
    assert metrics.ratio(3, 4) == 0.75
    assert metrics.ratio(0, 0) == 0.0


def test_fail_counting():
    rows = [{"ok": True}, {"ok": False}, {}, {"ok": "yes"}, {"ok": True}]
    assert metrics.count_failures(rows) == (5, 3)
    assert metrics.count_failures([]) == (0, 0)


def test_enumeration_ratios_sum_before_dividing():
    rows = [{"defined": 377, "peak": 377, "index": 72},
            {"defined": 478_722, "peak": 436_915, "index": 2352},
            {"op": "verify"}]
    per_index, peak_per_index = metrics.enumeration_ratios(rows)
    assert per_index == (377 + 478_722) / (72 + 2352)
    assert peak_per_index == (377 + 436_915) / (72 + 2352)


def test_end_to_end_takes_medians():
    out = metrics.end_to_end(
        pass_seconds=[5.0, 7.0, 6.0],
        op_seconds=[[4.0, 4.2, 9.0], [1.0, 5.0, 1.1]],
        setup_seconds=[0.5, 0.1, 0.2, 0.3, 0.4],
        enum_rows=[{"defined": 30, "peak": 20, "index": 10}], peak_rss_mb=50.0)
    assert out == {"pass_s": 6.0, "slowest_op_s": 4.2, "setup_s": 0.3,
                   "peak_rss_mb": 50.0, "defined_per_index": 3.0,
                   "peak_cosets_per_index": 2.0}


def test_normalise_scales_by_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.normalise(3.0, ref) == 3.0
    assert speed.normalise(3.0, 2 * ref) == 1.5     # machine at half speed
    with pytest.raises(ValueError):
        speed.normalise(1.0, 0.0)
    sampler = speed.Sampler()
    sampler.ticks, sampler.spent_s = [2 * ref, 2 * ref], 0.5
    # the sampler's time is left out, its ticks join the reference times
    assert speed.normalise_sampled(3.5, sampler, ref, ref) == (1.5 * ref, 2.0)


def test_sampler_ticks_during_a_long_call_and_stops():
    sampler = speed.Sampler()
    with sampler.running():
        t0 = perf_counter()
        while perf_counter() - t0 < 3 * speed.TICK_S:
            sum(range(1000))
    assert len(sampler.ticks) >= 2
    assert 0 < sampler.spent_s < 3 * speed.TICK_S
    count = len(sampler.ticks)
    t0 = perf_counter()
    while perf_counter() - t0 < 2 * speed.TICK_S:
        sum(range(1000))
    assert len(sampler.ticks) == count


# -- independent checks ----------------------------------------------------------

@pytest.mark.parametrize("a, index", [(1, 1), (2, 12), (3, 72), (4, 192),
                                      (5, 600), (6, 864), (7, 2352), (9, 5832),
                                      (11, 14520)])
def test_formula_index(a, index):
    assert workloads.formula_index(a) == index


def test_ab_word_matrix():
    m = Fraction(3, 2)
    assert workloads.ab_word_matrix([("A", 2), ("A", -2)], m) == workloads.IDENTITY
    # A^2 B = [[1, 2m], [0, 1]] [[1, 0], [m, 1]]
    assert workloads.ab_word_matrix([("A", 2), ("B", 1)], m) == \
        (1 + 2 * m * m, 2 * m, m, Fraction(1))
    with pytest.raises(ValueError):
        workloads.ab_word_matrix([("s", 1)], m)


@pytest.mark.parametrize("a", [2, 3, 4, 5, 7])
def test_random_outside_is_not_identity_mod_a(a):
    rng = random.Random(a)
    for _ in range(20):
        h = workloads.random_outside(rng, a)
        assert h[0] * h[3] - h[1] * h[2] == 1
        assert all(e.denominator == 1 for e in h)
        assert any((e - d) % a for e, d in zip(h, workloads.IDENTITY))


def test_failed_operations_are_counted_not_skipped():
    def boom():
        raise RuntimeError("enumeration blew up")
    rows = [
        workloads.Op("x", "1/2", lambda: 1, lambda r, row: None).execute(),
        workloads.Op("x", "1/2", lambda: 1, lambda r, row: "wrong").execute(),
        workloads.Op("x", "1/2", boom, lambda r, row: None).execute(),
    ]
    assert [r["ok"] for r in rows] == [True, False, False]
    assert rows[2]["problem"] == "RuntimeError: enumeration blew up"
    assert metrics.count_failures(rows) == (3, 2)


def _spin(seconds: float) -> None:
    t0 = perf_counter()
    while perf_counter() - t0 < seconds:
        pass


def test_tracer_self_times_exclude_traced_children():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: _spin(0.01))
    outer = tracer._wrap("outer", lambda: [inner() for _ in range(3)])
    t0 = perf_counter()
    outer()
    inner()
    wall = perf_counter() - t0
    assert tracer.calls == {"inner": 4, "outer": 1}
    assert tracer.self_s["inner"] >= 0.04
    assert 0 < tracer.self_s["outer"] < 0.01
    assert metrics.unattributed_problem(wall, sum(tracer.self_s.values())) is None


def test_unattributed_time_is_a_problem():
    tracer = Tracer()
    traced = tracer._wrap("traced", lambda: _spin(0.02))
    t0 = perf_counter()
    traced()
    _spin(0.02)             # work that no traced function covers
    wall = perf_counter() - t0
    problem = metrics.unattributed_problem(wall, sum(tracer.self_s.values()))
    assert problem is not None and "outside every traced function" in problem
    assert metrics.unattributed_problem(10.0, 9.95) is None
    assert metrics.unattributed_problem(10.0, 9.8) is not None


def _certificate(a: int, peak: int, max_cosets: int):
    return SimpleNamespace(
        status="Arithmetic", index=workloads.formula_index(a), reason="",
        resources={"defined_cosets": 2 * peak, "peak_cosets": peak,
                   "max_cosets": max_cosets})


def test_budget_runs_must_fill_their_table():
    full, roomy = _certificate(7, 120_000, 120_000), _certificate(7, 90_000, 120_000)
    row = {}
    assert workloads.check_certificate(full, row, 7, must_fill=True) is None
    assert row["filled"] is True
    row = {}
    problem = workloads.check_certificate(roomy, row, 7, must_fill=True)
    assert problem is not None and "never filled" in problem
    assert row["filled"] is False
    assert workloads.check_certificate(roomy, {}, 7) is None


# -- smoke runs ---------------------------------------------------------------------

def _run(cwd: Path, workload: str, trace: int, seconds: float = 0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-2])["report"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["environment"]["hlt_engine"] in ("pure", "numba")
    for row in report["rows"]:
        assert {"op", "spec", "seconds", "ok"} <= set(row)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "hlt_certify", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
