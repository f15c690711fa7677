"""Layer tracing for the certifier benchmark.

The tracer wraps the public functions each layer exports, in every
`moebius_arith` module that holds them, so a call from `certifier` into
`todd_coxeter` is timed as the caller sees it and nothing in `src/` is
edited.  Spans are accumulated in memory as self time (span duration minus
the time of the traced spans it called) and call counts, together with the
enumeration counters read off the results.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name).  Each span's time metric is "<span>_s"
# (self time) and its count metric "<span>.calls".
TRACED = (
    ("presentation", "build_presentation", "presentation.build_presentation"),
    ("modular_words", "decompose_st", "modular_words.decompose_st"),
    ("exact", "evaluate_word", "exact.evaluate_word"),
    ("congruence", "surjects_mod_p", "congruence.surjects_mod_p"),
    ("congruence", "generator_image_closure", "congruence.generator_image_closure"),
    ("congruence", "level_data", "congruence.level_data"),
    ("congruence", "member_of_closure", "congruence.member_of_closure"),
    ("coset_enum", "todd_coxeter", "coset_enum.todd_coxeter"),
    ("coset_enum", "word_stabilizes_one", "coset_enum.word_stabilizes_one"),
    ("coset_enum", "find_relator", "coset_enum.find_relator"),
    ("certifier", "gamma_level_words", "certifier.gamma_level_words"),
    ("certifier", "express_generators", "certifier.express_generators"),
    ("certifier", "certify_with_table", "certifier.certify_self"),
    ("certifier", "membership_report", "certifier.membership_report"),
    ("certifier", "verify_certificate", "certifier.verify_certificate"),
)

COUNTERS = (
    "coset_enum.defined",
    "coset_enum.peak_cosets",
    "coset_enum.index",
    "coset_enum.overflows",
    "coset_enum.witnesses_found",
    "certifier.inconclusive",
)

PACKAGE = "moebius_arith"


def _observe_enumeration(outcome, counts) -> None:
    counts["coset_enum.defined"] += outcome.defined_total
    counts["coset_enum.peak_cosets"] += outcome.peak_cosets
    if outcome.completed:
        counts["coset_enum.index"] += outcome.index
    else:
        counts["coset_enum.overflows"] += 1


def _observe_relator(witness, counts) -> None:
    counts["coset_enum.witnesses_found"] += witness is not None


def _observe_certificate(result, counts) -> None:
    cert, _table = result
    counts["certifier.inconclusive"] += cert.status != "Arithmetic"


_OBSERVERS = {
    "coset_enum.todd_coxeter": _observe_enumeration,
    "coset_enum.find_relator": _observe_relator,
    "certifier.certify_self": _observe_certificate,
}


class Tracer:
    """Self times, call counts and enumeration counters of traced spans."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # child-time accumulators of the open spans; [0] is a sink for the
        # duration of top-level spans
        self._open = [0.0]

    def _wrap(self, span: str, fn):
        observe = _OBSERVERS.get(span)
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = open_spans.pop()
                self.self_s[span] += duration - child
                self.calls[span] += 1
                open_spans[-1] += duration
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every reference to a traced function in the loaded
        package modules by its wrapper; restore them on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        patched = []
        try:
            for module, fn_name, span in TRACED:
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], fn_name)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)

    def snapshot(self) -> dict[str, float]:
        return dict(self.self_s)

    def self_since(self, before: dict[str, float]) -> dict[str, float]:
        """Self time per span accrued since `before` was taken."""
        return {span: s - before.get(span, 0.0)
                for span, s in self.self_s.items()
                if s != before.get(span, 0.0)}
