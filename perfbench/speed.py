"""Correction for the machine's changing speed.

On a shared host the same pure-Python work runs up to ~40 % slower for
stretches of tens of seconds, so raw wall times of runs made minutes apart
are not comparable.  The benchmark therefore times a fixed reference loop
in short bursts before and after every operation, and from a timer signal
every TICK_S while it runs (SETUP_TICK_S during the shorter set-ups), and
scales the operation's wall time (less the timer's own time) to the speed
at which that loop takes REFERENCE_S:

    normalised = wall * REFERENCE_S / mean(reference times)

The end-to-end times are these normalised seconds; raw wall seconds stay
in the report beside them.
"""

from __future__ import annotations

import signal
from array import array
from contextlib import contextmanager
from time import perf_counter

import metrics

# The loop's typical time on the 2-core machine (Python 3.11) on which the
# benchmark was defined, so normalised seconds read close to wall seconds
# there.  A constant: changing it rescales every time metric.
REFERENCE_S = 0.004
BURST = 7
TICK_S = 0.5
# set-ups take 0.05-0.5 s, and the speed changes within that
SETUP_TICK_S = 0.05


def _reference_loop(n: int = 20_000) -> int:
    # array indexing and small-dict stores, like the enumerator's inner loop
    tab = array("i", range(1024))
    seen = {}
    x = 0
    for i in range(n):
        x = tab[(x + i) & 1023] ^ i
        seen[i & 255] = x
    return x


def reference_seconds() -> float:
    """Median time of BURST runs of the reference loop."""
    times = []
    for _ in range(BURST):
        t0 = perf_counter()
        _reference_loop()
        times.append(perf_counter() - t0)
    return metrics.median(times)


def normalise(wall_s: float, reference_s: float) -> float:
    """Wall seconds scaled to the speed at which the loop takes REFERENCE_S."""
    if reference_s <= 0:
        raise ValueError("reference time must be positive")
    return wall_s * REFERENCE_S / reference_s


def normalise_sampled(wall_s: float, sampler: "Sampler", before_s: float,
                      after_s: float) -> tuple[float, float]:
    """(mean reference time, normalised seconds) of a call that took
    `wall_s` under `sampler`, with reference times `before_s` and `after_s`
    taken around it; the sampler's own time is left out."""
    refs = [before_s, after_s, *sampler.ticks]
    reference_s = sum(refs) / len(refs)
    return reference_s, normalise(wall_s - sampler.spent_s, reference_s)


class Sampler:
    """Times one reference loop every `tick_s` of wall time from SIGALRM,
    so that the speed of a call is followed while it runs."""

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.ticks: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _reference_loop()
        t1 = perf_counter()
        self.ticks.append(t1 - t0)
        self.spent_s += perf_counter() - t0

    def reset(self) -> None:
        self.ticks = []
        self.spent_s = 0.0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
