"""Metric arithmetic of the certifier benchmark: medians, quartiles,
ratios and failure counts.  Pure functions, tested on synthetic inputs in
test_perfbench.py."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

# Every operation of every workload is one call of a traced function, so
# only call overhead (~0.01 % measured) lies outside the traced layers.
MAX_UNATTRIBUTED_SHARE = 0.01


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median; 0 when every value is 0."""
    q1, q2, q3 = quartiles(values)
    return ratio(q3 - q1, abs(q2))


def ratio(num: float, den: float) -> float:
    """num / den, with 0 for an empty base (no work of that kind was done)."""
    return num / den if den else 0.0


def unattributed_problem(traced_wall_s: float, attributed_s: float) -> str | None:
    """None when the traced layers' self times cover all but
    MAX_UNATTRIBUTED_SHARE of the traced operations' wall time, else what
    is missing: time spent outside every traced function would make the
    per-layer metrics miss a layer."""
    unattributed = traced_wall_s - attributed_s
    if unattributed <= MAX_UNATTRIBUTED_SHARE * traced_wall_s:
        return None
    return (f"{unattributed:.6f} s of {traced_wall_s:.6f} s traced lie outside "
            f"every traced function (more than {MAX_UNATTRIBUTED_SHARE:.0%})")


def count_failures(rows: Iterable[dict]) -> tuple[int, int]:
    """(attempted, failed) over operation rows; a row fails unless its
    `ok` field is exactly True."""
    attempted = failed = 0
    for row in rows:
        attempted += 1
        if row.get("ok") is not True:
            failed += 1
    return attempted, failed


def enumeration_ratios(rows: Iterable[dict]) -> tuple[float, float]:
    """(sum defined / sum index, sum peak / sum index) over the rows that
    carry enumeration counters."""
    defined = peak = index = 0
    for row in rows:
        if "defined" in row:
            defined += row["defined"]
            peak += row["peak"]
            index += row["index"] or 0
    return ratio(defined, index), ratio(peak, index)


def end_to_end(pass_seconds: Sequence[float],
               op_seconds: Sequence[Sequence[float]],
               setup_seconds: Sequence[float], enum_rows: Iterable[dict],
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one run, keyed by name.

    `pass_seconds` holds one value per measured pass, `op_seconds` one list
    per operation with its time in each pass, `setup_seconds` one value per
    set-up repetition, and `enum_rows` the rows of the enumerations the
    workload relies on.  The slowest operation is the one with the largest
    median time: taking the largest time of each pass would pick up noise.
    """
    defined_per_index, peak_per_index = enumeration_ratios(enum_rows)
    return {
        "pass_s": median(pass_seconds),
        "slowest_op_s": max(median(times) for times in op_seconds),
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "defined_per_index": defined_per_index,
        "peak_cosets_per_index": peak_per_index,
    }
