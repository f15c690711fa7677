"""The C kernel (`_fast`) against the pure reference engine.

The kernel ports `_Engine`, HLT and Felsch alike, with the same queue
and deduction orders, representatives and counters (only its union-find
links differ), so every run must give the same table bytes, index,
definition count, peak and overflow reason.  `TestEquivalence` and
`TestRunControl` run under HLT and their `Felsch` subclasses repeat them
under Felsch; the loader's fallback test covers both.  The reference
side runs with the kernel loader patched to report no kernel, which is
also what happens when no C compiler is available.  `TestRelatorSearch`
checks the kernel's relator search against the Python one.
"""

import ctypes
import functools
import hashlib
import os
import random
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import moebius_arith
from moebius_arith import _fast, coset_enum
from moebius_arith.certifier import MoebiusSpec, certify, express_generators
from moebius_arith.coset_enum import (_SYLLABLE_DEPTH, EnumerationLimits,
                                      _SyllableBall, find_relator,
                                      todd_coxeter)
from moebius_arith.exact import GroupWord, parse_word
from moebius_arith.modular_words import decompose_st
from moebius_arith.presentation import _schreier_pairs, build_presentation

from test_coset_enum import CORPUS, fake_presentation

pytestmark = pytest.mark.skipif(_fast.kernel() is None,
                                reason="the C kernel could not be built")

# the prime-power specs the certifier benchmark certifies
CERTIFY_SPECS = ((3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (5, 7), (5, 8),
                 (5, 9), (7, 5), (7, 9), (7, 4))


# SL(2, Z) = <s, t | s^4, (s t)^3 s^-2>
MODULAR = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])


def package_env():
    """The environment of a child Python that imports the package as it
    is imported here, whether or not PYTHONPATH names it."""
    src = os.path.dirname(os.path.dirname(moebius_arith.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def moebius(a, b):
    pres = build_presentation(b)
    return pres, list(express_generators(MoebiusSpec(a, b), pres))


def pure(monkeypatch, pres, subs, limits, **kw):
    with monkeypatch.context() as m:
        m.setattr(_fast, "kernel", lambda: None)
        return todd_coxeter(pres, subs, limits, **kw)


def assert_identical(monkeypatch, pres, subs, strategy, **limits):
    limits = EnumerationLimits(strategy=strategy, **limits)
    fast = todd_coxeter(pres, subs, limits)
    ref = pure(monkeypatch, pres, subs, limits)
    assert (fast.engine, ref.engine) == ("c", "pure")
    assert fast.completed == ref.completed
    assert fast.reason == ref.reason
    assert fast.index == ref.index
    assert fast.defined_total == ref.defined_total
    assert fast.peak_cosets == ref.peak_cosets
    if ref.completed:
        assert fast.table._tab.tobytes() == ref.table._tab.tobytes()
    else:
        assert fast.table is None
    return fast


class TestEquivalence:
    strategy = "hlt"
    # (defined, peak, index) of each of CERTIFY_SPECS at the default
    # budget, pinned so that a change made in both engines at once shows
    moebius_counts = {
        (3, 2): (377, 377, 72),
        (4, 3): (1_323, 1_323, 192),
        (4, 5): (1_311, 1_311, 192),
        (5, 3): (28_340, 27_309, 600),
        (5, 4): (3_491, 3_491, 600),
        (5, 7): (9_885, 7_885, 600),
        (5, 8): (2_934, 2_934, 600),
        (5, 9): (2_552, 2_552, 600),
        (7, 5): (32_768, 32_768, 2_352),
        (7, 9): (12_997, 9_905, 2_352),
        (7, 4): (276_938, 239_296, 2_352),
    }

    def identical(self, monkeypatch, pres, subs, **limits):
        return assert_identical(monkeypatch, pres, subs, self.strategy,
                                **limits)

    @pytest.mark.parametrize("entry", CORPUS, ids=[e[0] for e in CORPUS])
    def test_identical_on_corpus(self, entry, monkeypatch):
        name, gens, rels, subs, _ = entry
        out = self.identical(monkeypatch, fake_presentation(gens, rels),
                             [parse_word(s) for s in subs])
        assert out.completed

    def test_identical_on_gamma0(self, monkeypatch):
        pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
        subs = [decompose_st(mat) for _, mat in _schreier_pairs(7)]
        assert self.identical(monkeypatch, pres, subs).index == 8

    @pytest.mark.parametrize("a,b", CERTIFY_SPECS,
                             ids=[f"{a}/{b}" for a, b in CERTIFY_SPECS])
    def test_identical_on_moebius(self, a, b, monkeypatch):
        out = self.identical(monkeypatch, *moebius(a, b))
        assert out.completed
        assert ((out.defined_total, out.peak_cosets, out.index)
                == self.moebius_counts[a, b])

    # HLT completes these only through table-full recovery; (defined,
    # peak, index) are pinned, so a change made in both engines at once
    # shows too.  7/4 meets growth lookaheads before its table fills; the
    # others stay below the first, at 32,768 rows
    @pytest.mark.parametrize("a,b,budget,counts", [
        (7, 4, 120_000, (177_259, 120_000, 2_352)),
        (5, 3, 12_000, (13_031, 12_000, 600)),
        (5, 3, 6_000, (8_938, 6_000, 600)),
        (4, 3, 600, (643, 600, 192)),
    ], ids=["7/4@120000", "5/3@12000", "5/3@6000", "4/3@600"])
    def test_identical_through_recovery(self, a, b, budget, counts,
                                        monkeypatch):
        out = self.identical(monkeypatch, *moebius(a, b), max_cosets=budget)
        assert out.completed
        assert (out.defined_total, out.peak_cosets, out.index) == counts

    def test_identical_overflow(self, monkeypatch):
        out = self.identical(monkeypatch, *moebius(7, 4), max_cosets=50_000)
        assert out.reason == "max_cosets"

    def test_identical_when_recovery_fails(self, monkeypatch):
        # at 3,000 cosets the table-full lookahead frees too little room
        out = self.identical(monkeypatch, *moebius(7, 5), max_cosets=3_000)
        assert out.reason == "max_cosets" and out.peak_cosets == 3_000

    def test_overflow_verdicts_match(self, monkeypatch):
        pres = fake_presentation(["a", "b"], [])
        out = self.identical(monkeypatch, pres, [parse_word("a")],
                             max_cosets=500)
        assert out.reason == "max_cosets" and out.peak_cosets >= 500

    # budgets so small that recovery queues deductions which compaction
    # then drops (see test_coset_enum's test_felsch_drops_stale_deductions)
    @pytest.mark.parametrize("rels,subs,budget,index", [
        (["b"], [], 500, None),
        (["b^-3 a^3 b a^2", "a^-1 b^-3", "b^-3"], ["b^-3 a^3"], 5, 1),
    ], ids=["Z@500", "trivial@5"])
    def test_identical_at_tiny_budgets(self, rels, subs, budget, index,
                                       monkeypatch):
        out = self.identical(monkeypatch, fake_presentation(["a", "b"], rels),
                             [parse_word(s) for s in subs], max_cosets=budget)
        assert out.index == index

    def test_identical_on_random_presentations(self, monkeypatch):
        # coincidence-heavy presentations with small budgets, many of
        # which fill the table or overflow
        rng = random.Random(1)

        def rand_word(gens, n):
            syllables = []
            for _ in range(n):
                sym = rng.choice(gens)
                if not syllables or syllables[-1][0] != sym:
                    syllables.append((sym, rng.choice((-3, -2, -1, 1, 2, 3))))
            return GroupWord(tuple(syllables))

        reasons = set()
        for _ in range(200):
            gens = ["a", "b", "c"][:rng.choice((1, 2, 2, 3))]
            rels = [str(rand_word(gens, rng.randint(1, 5)))
                    for _ in range(rng.randint(len(gens), len(gens) + 3))]
            subs = [rand_word(gens, rng.randint(1, 3))
                    for _ in range(rng.randint(0, 2))]
            out = self.identical(
                monkeypatch, fake_presentation(gens, rels), subs,
                max_cosets=rng.choice((5, 50, 500, 5000, 20_000)))
            reasons.add(out.reason)
        assert reasons == {None, "max_cosets"}

    def test_largest_budget_runs_in_kernel(self):
        # EnumerationLimits caps budgets at int32, so no budget picks the
        # engine
        pres = fake_presentation(["g"], ["g^4"])
        out = todd_coxeter(pres, [], EnumerationLimits(
            max_cosets=_fast.MAX_COSETS, strategy=self.strategy))
        assert out.engine == "c" and out.index == 4


class TestFelschEquivalence(TestEquivalence):
    strategy = "felsch"
    moebius_counts = {
        (3, 2): (93, 93, 72),
        (4, 3): (489, 489, 192),
        (4, 5): (268, 268, 192),
        (5, 3): (6_041, 6_041, 600),
        (5, 4): (853, 853, 600),
        (5, 7): (9_162, 6_944, 600),
        (5, 8): (665, 665, 600),
        (5, 9): (776, 776, 600),
        (7, 5): (4_671, 4_097, 2_352),
        (7, 9): (4_155, 4_097, 2_352),
        (7, 4): (115_070, 115_070, 2_352),
    }

    # Felsch stays below both HLT budgets; at 3,500 cosets 7/5 completes
    # only through the table-full recovery
    @pytest.mark.parametrize("a,b,budget,counts", [
        (7, 5, 3_500, (4_671, 3_500, 2_352)),
    ], ids=["7/5@3500"])
    def test_identical_through_recovery(self, a, b, budget, counts,
                                        monkeypatch):
        super().test_identical_through_recovery(a, b, budget, counts,
                                                monkeypatch)

    # the budgets at which HLT completes only through recovery
    @pytest.mark.parametrize("a,b,budget", [(7, 4, 120_000), (5, 3, 12_000)],
                             ids=["7/4@120000", "5/3@12000"])
    def test_identical_at_hlt_recovery_budgets(self, a, b, budget,
                                               monkeypatch):
        out = self.identical(monkeypatch, *moebius(a, b), max_cosets=budget)
        assert out.completed and out.peak_cosets < budget


class TestRunControl:
    strategy = "hlt"
    # definitions when the trivial subgroup of SL(2, Z) fills 80,000 rows
    full_at = 88_184

    def recovery_run(self):
        """(presentation, subgroup words, budget, polls) of a run whose
        growth and table-full lookaheads scan more than 4096 live cosets:
        7/4 at 120,000 cosets completes through them."""
        return (*moebius(7, 4), 120_000, 87)

    def test_time_limit(self, monkeypatch):
        pres = fake_presentation(["a", "b"], [])
        limits = EnumerationLimits(max_cosets=50_000_000,
                                   strategy=self.strategy, time_limit_s=0.3)
        out = todd_coxeter(pres, [], limits)
        ref = pure(monkeypatch, pres, [], limits)
        assert (out.engine, ref.engine) == ("c", "pure")
        assert not out.completed and not ref.completed
        assert out.reason == ref.reason == "time_limit"

    @pytest.mark.parametrize("budget, meant", [
        ({"max_cosets": 1e6}, {"max_cosets": 10 ** 6}),
        ({"max_cosets": 2.5e5}, {"max_cosets": 250_000}),
        ({"max_cosets": True}, {"max_cosets": 1}),
        ({"time_limit_s": True}, {"time_limit_s": 1}),
    ], ids=["max_cosets=1e6", "max_cosets=2.5e5", "max_cosets=True",
            "time_limit_s=True"])
    def test_budget_of_wrong_type_is_refused(self, monkeypatch, budget,
                                             meant):
        # a float max_cosets reached the kernel's C int argument as a
        # ctypes.ArgumentError while the pure engine ran it, and a bool
        # ran as a budget of 1; both are refused before either engine
        # runs, and the int they stand for runs alike on both
        with pytest.raises(ValueError, match="must be an int|or a number"):
            EnumerationLimits(strategy=self.strategy, **budget)
        assert_identical(monkeypatch, *moebius(3, 2), self.strategy, **meant)

    def test_progress_hook(self, monkeypatch):
        # the trivial subgroup of SL(2, Z) has infinite index, so this run
        # defines past PROGRESS_EVERY, with coincidences, and overflows
        limits = EnumerationLimits(max_cosets=80_000, strategy=self.strategy)
        calls, ref_calls = [], []
        todd_coxeter(MODULAR, [], limits,
                     progress=lambda d, l: calls.append((d, l)))
        pure(monkeypatch, MODULAR, [], limits,
             progress=lambda d, l: ref_calls.append((d, l)))
        assert [d for d, _ in calls] == [coset_enum.PROGRESS_EVERY]
        assert calls == ref_calls

    def test_poll_stops_table_full_lookahead(self, monkeypatch):
        # the trivial subgroup of SL(2, Z) fills all 80,000 rows.  Under
        # HLT a growth lookahead at 32,768 rows comes first, and its polls
        # repeat 32,768 defined, a multiple of 4096.  The table-full
        # lookahead defines nothing either, so its first poll, after 4096
        # live cosets, is the first to see a count that is not a multiple
        # of 4096, and stops the run there
        def stop_in_lookahead(limits, progress=None):
            def poll(defined, live):
                polled.append(defined)
                return defined % 4096 != 0
            return poll

        monkeypatch.setattr(coset_enum, "_poll", stop_in_lookahead)
        limits = EnumerationLimits(max_cosets=80_000, strategy=self.strategy)
        runs = []
        for enumerate_ in (todd_coxeter, functools.partial(pure, monkeypatch)):
            polled = []
            out = enumerate_(MODULAR, [], limits)
            assert out.reason == "time_limit" and out.peak_cosets == 80_000
            assert polled[-1] == out.defined_total == self.full_at
            assert all(d % 4096 == 0 for d in polled[:-1])
            runs.append((out.engine, polled))
        assert [engine for engine, _ in runs] == ["c", "pure"]
        assert runs[0][1] == runs[1][1]

    def test_poll_sequence_through_recovery(self, monkeypatch):
        # a lookahead polls every 4096 live cosets it scans, so where it
        # starts moves its polls: a start that differs between the engines
        # shows here even where the tables agree (HLT's recovery starts at
        # the walk position, and 7/4 polls 87 times, against 103 from 0)
        def record(limits, progress=None):
            def poll(defined, live):
                polled.append((defined, live))
                return False
            return poll

        pres, subs, budget, polls = self.recovery_run()
        monkeypatch.setattr(coset_enum, "_poll", record)
        limits = EnumerationLimits(max_cosets=budget, strategy=self.strategy)
        runs = []
        for enumerate_ in (todd_coxeter, functools.partial(pure, monkeypatch)):
            polled = []
            out = enumerate_(pres, subs, limits)
            assert out.peak_cosets == budget
            runs.append((out.engine, polled))
        assert [engine for engine, _ in runs] == ["c", "pure"]
        assert runs[0][1] == runs[1][1]
        assert len(polled) == polls
        # a lookahead defines nothing, so its polls repeat a count
        assert any(d == e for (d, _), (e, _) in zip(polled, polled[1:]))

    def test_progress_exception_propagates(self):
        class Stop(Exception):
            pass

        def stop(defined, live):
            raise Stop(defined)

        limits = EnumerationLimits(max_cosets=80_000, strategy=self.strategy)
        with pytest.raises(Stop) as info:
            todd_coxeter(MODULAR, [], limits, progress=stop)
        assert info.value.args == (coset_enum.PROGRESS_EVERY,)
        # the aborted run left nothing behind
        assert todd_coxeter(*moebius(5, 3), limits).index == 600


class TestFelschRunControl(TestRunControl):
    strategy = "felsch"
    full_at = 80_000

    def recovery_run(self):
        """The trivial subgroup of SL(2, Z) has infinite index: its run
        fills 80,000 rows, recovers by lookaheads from coset 0 and
        overflows."""
        return MODULAR, [], 80_000, 57


# one kernel run of about 6 s: every relator holds in Z^2, so the trivial
# subgroup has infinite index, and scanning 64 relators at each coset keeps
# the table growing slowly; "ready" comes just before the run
INTERRUPTED = """
import signal, sys
from moebius_arith.coset_enum import EnumerationLimits, todd_coxeter
from moebius_arith.exact import UniModularMatrix, parse_word
from moebius_arith.presentation import Presentation

# a parent that ignores SIGINT passes that on to this process
signal.signal(signal.SIGINT, signal.default_int_handler)
pres = Presentation(
    generators=("a", "b"),
    relators=tuple(parse_word(f"a^{i} b^{j} a^-{i} b^-{j}")
                   for i in range(1, 9) for j in range(1, 9)),
    assignment=dict.fromkeys("ab", UniModularMatrix.identity()))
progress = print if sys.argv[1] == "progress" else None
todd_coxeter(pres, [], EnumerationLimits(max_cosets=10))   # loads the kernel
print("ready", flush=True)
todd_coxeter(pres, [], EnumerationLimits(time_limit_s=6), progress)
"""


@pytest.mark.parametrize("progress", ["progress", "no-progress"])
def test_sigint_stops_kernel_run(progress):
    child = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED, progress], env=package_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "ready\n"
        time.sleep(1.0)
        child.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, err = child.communicate(timeout=60)
        latency = time.monotonic() - sent
    finally:
        child.kill()
        child.wait()
    assert "IndexError" not in err
    assert err.rstrip().endswith("KeyboardInterrupt"), err
    assert latency < 1.0


def recording_kernel(code, calls=()):
    """A stand-in for the kernel library whose `tc_enumerate` calls the
    poll once for each (defined, live) of `calls`, stopping at the first
    that does not return 0, and otherwise returns `code`; counts are
    (rows, peak, defined) = (7, 8, 9)."""
    poll_type = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int64, ctypes.c_int64)

    def tc_enumerate(*args):
        poll, counts = args[12], args[14]
        counts[:] = [7, 8, 9]
        for defined, live in calls:
            verdict = poll(defined, live)
            if verdict:
                return verdict
        return code
    return SimpleNamespace(poll_type=poll_type, tc_enumerate=tc_enumerate)


class TestRunWrapper:
    """`_fast.run` on each code `tc_enumerate` can return."""

    def run(self, monkeypatch, lib, poll=lambda defined, live: False):
        monkeypatch.setattr(_fast, "kernel", lambda: lib)
        return _fast.run(2, [(0, 0)], [], EnumerationLimits(), poll)

    @pytest.mark.parametrize("code,reason", [
        (_fast._MAX_COSETS, "max_cosets"), (_fast._TIME_LIMIT, "time_limit")])
    def test_overflow(self, code, reason, monkeypatch):
        assert self.run(monkeypatch, recording_kernel(code)) == \
            (None, 7, 8, 9, reason)

    def test_no_memory(self, monkeypatch):
        with pytest.raises(MemoryError):
            self.run(monkeypatch, recording_kernel(_fast._NO_MEMORY))

    def test_poll_decides_time_limit(self, monkeypatch):
        polled = []

        def poll(defined, live):
            polled.append((defined, live))
            return defined >= 8192

        lib = recording_kernel(_fast._OK, [(4096, 10), (8192, 20), (12288, 5)])
        assert self.run(monkeypatch, lib, poll)[4] == "time_limit"
        assert polled == [(4096, 10), (8192, 20)]

    def test_poll_exception_propagates(self, monkeypatch):
        def poll(defined, live):
            raise LookupError(defined)

        lib = recording_kernel(_fast._OK, [(4096, 10)])
        with pytest.raises(LookupError, match="4096"):
            self.run(monkeypatch, lib, poll)

    def test_abort_with_nothing_recorded(self, monkeypatch):
        # ctypes drops an exception raised as a callback is entered, so
        # the kernel can stop with nothing recorded
        with pytest.raises(KeyboardInterrupt):
            self.run(monkeypatch, recording_kernel(_fast._ABORTED))

    class Interrupted(Exception):
        pass

    @pytest.fixture
    def sigint_raises(self):
        """SIGINT raises `Interrupted` in this test, not KeyboardInterrupt,
        which would stop the test session."""
        def handler(signum, frame):
            raise self.Interrupted

        old = signal.signal(signal.SIGINT, handler)
        yield
        signal.signal(signal.SIGINT, old)

    def test_sigint_handler_runs_at_the_poll(self, monkeypatch,
                                             sigint_raises):
        # a SIGINT held back during the run reaches its handler at the
        # next poll, and the run stops with whatever the handler raises
        def poll(defined, live):
            polled.append(defined)
            if defined == 4096:
                signal.pthread_kill(threading.get_ident(), signal.SIGINT)
                held.append(signal.SIGINT in signal.sigpending())
            return False

        polled, held = [], []
        lib = recording_kernel(_fast._OK, [(4096, 1), (8192, 1), (12288, 1)])
        with pytest.raises(self.Interrupted):
            self.run(monkeypatch, lib, poll)
        assert polled == [4096] and held == [True]

    def test_sigint_blocked_by_caller_stays_blocked(self, monkeypatch,
                                                    sigint_raises):
        def poll(defined, live):
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
            return False

        lib = recording_kernel(_fast._MAX_COSETS, [(4096, 1), (8192, 1)])
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            assert self.run(monkeypatch, lib, poll)[4] == "max_cosets"
            assert signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK,
                                                           ())
            assert signal.SIGINT in signal.sigpending()
        finally:
            if signal.SIGINT in signal.sigpending():
                signal.sigwait({signal.SIGINT})
            signal.pthread_sigmask(signal.SIG_SETMASK, old)


class TestLoader:
    def test_broken_compiler_falls_back_to_pure(self, monkeypatch, tmp_path):
        spec = MoebiusSpec(5, 3)
        limits = [EnumerationLimits(strategy=s) for s in ("hlt", "felsch")]
        fast = [certify(spec, lim) for lim in limits]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(_fast, "_kernel", _fast._UNSET)
        refs = [certify(spec, lim) for lim in limits]
        assert _fast.kernel() is None
        for fast_cert, ref in zip(fast, refs):
            assert (fast_cert.resources["engine"], ref.resources["engine"]) \
                == ("c", "pure")
            assert (ref.status, ref.index, ref.checks) == \
                (fast_cert.status, fast_cert.index, fast_cert.checks)
            for key in ("peak_cosets", "defined_cosets"):
                assert ref.resources[key] == fast_cert.resources[key]
        # the two strategies did different work
        assert fast[0].resources["defined_cosets"] != \
            fast[1].resources["defined_cosets"]

    def test_unparsable_compiler_falls_back_to_pure(self, monkeypatch,
                                                   tmp_path):
        # shlex cannot split an unclosed quote; the loader gives up on the
        # kernel as it does for a missing compiler
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", 'cc "')
        monkeypatch.setattr(_fast, "_kernel", _fast._UNSET)
        cert = certify(MoebiusSpec(3, 2))
        assert _fast.kernel() is None
        assert (cert.status, cert.index, cert.resources["engine"]) == \
            ("Arithmetic", 72, "pure")

    def test_kernel_compiles_without_warnings(self, tmp_path):
        # -Wconversion makes every implicit narrowing or sign change an
        # error too
        command = shlex.split(os.environ.get("CC", "")) or ["cc"]
        if shutil.which(command[0]) is None:
            pytest.skip("no C compiler")
        built = subprocess.run(
            [*command, *_fast.FLAGS, "-Wall", "-Wextra", "-Wconversion",
             "-Werror", "-o", str(tmp_path / "_tc.so"), _fast.SOURCE],
            capture_output=True, text=True, timeout=300)
        assert built.returncode == 0, built.stderr

    def test_library_cached_by_key(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _fast._build()
        assert os.path.dirname(path) == str(tmp_path / "moebius_arith")
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        stamp = os.stat(path).st_mtime_ns
        assert _fast._build() == path
        assert os.stat(path).st_mtime_ns == stamp

    @pytest.mark.parametrize("blocked", [[], ["_sha2", "_sha256"]],
                             ids=["builtin", "hashlib"])
    def test_key_is_sha256_of_source_command_and_machine(self, monkeypatch,
                                                         blocked):
        # the cache is warm, so _build only names the library; with the
        # interpreter's own SHA-256 blocked it takes hashlib's
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        command = [*(shlex.split(os.environ.get("CC", "")) or ["cc"]),
                   *_fast.FLAGS]
        with open(_fast.SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read())
        key.update("\0".join([*command, os.uname().machine]).encode())
        assert os.path.basename(_fast._build()) == \
            f"_tc-{key.hexdigest()[:24]}.so"

    def test_key_covers_the_machine(self, monkeypatch, tmp_path):
        # a cache shared by two architectures holds one library for each
        built = []
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_fast, "_compile",
                            lambda command, target: built.append(target))
        for machine in ("x86_64", "aarch64"):
            monkeypatch.setattr(os, "uname",
                                lambda: SimpleNamespace(machine=machine))
            assert _fast._build() == built[-1]
        assert len(set(built)) == 2

    @pytest.mark.parametrize("cc", ["", "  "], ids=["empty", "blank"])
    def test_blank_compiler_is_cc(self, monkeypatch, tmp_path, cc):
        # shlex splits an empty or blank $CC into no words; taken as the
        # command, that would make "-O2" the compiler and send every run
        # to the pure engine
        built = []
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_fast, "_compile",
                            lambda command, target: built.append(
                                (command, target)))
        monkeypatch.setenv("CC", cc)
        _fast._build()
        monkeypatch.delenv("CC")
        _fast._build()
        assert built[0] == built[1]
        assert built[0][0] == ["cc", *_fast.FLAGS]

    def test_cache_hit_imports_no_openssl_or_subprocess(self):
        # in a fresh interpreter on the cache this process warmed; site
        # hooks may import some of these before, so only new ones count
        code = ("import sys, moebius_arith._fast as fast; "
                "before = set(sys.modules); "
                "assert fast.kernel() is not None; "
                "new = set(sys.modules) - before; "
                "heavy = {'hashlib', '_hashlib', 'subprocess', 'tempfile'}; "
                "assert not new & heavy, sorted(new & heavy)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=package_env())

    def test_import_loads_no_kernel(self):
        code = ("import sys, moebius_arith, moebius_arith._fast; "
                "assert 'ctypes' not in sys.modules; "
                "assert moebius_arith._fast._kernel is "
                "moebius_arith._fast._UNSET")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=package_env())

    def test_checker_follows_engine(self, monkeypatch, tmp_path):
        # the kernel's tables are checked by the kernel's checker, the pure
        # engine's by _verify_table, each exactly once
        calls = []

        def recording(name, fn):
            def record(*args):
                calls.append(name)
                return fn(*args)
            return record

        monkeypatch.setattr(_fast, "verify", recording("c", _fast.verify))
        monkeypatch.setattr(coset_enum, "_verify_table",
                            recording("pure", coset_enum._verify_table))
        pres, subs = moebius(5, 3)
        assert todd_coxeter(pres, subs).engine == "c"
        assert calls == ["c"]
        calls.clear()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(_fast, "_kernel", _fast._UNSET)
        assert todd_coxeter(pres, subs).engine == "pure"
        assert calls == ["pure"]


class TestRelatorSearch:
    """The kernel's syllable ball and equal evaluations (`_fast.ball`)
    against the Python reference (`_SyllableBall`), and the candidates of
    `_collision_relator_search` on both: the same ball, records and
    candidates, in content and order."""

    @staticmethod
    def both(m, bound):
        erange = max(12, m.denominator + 2)
        ball = _fast.ball(m, _SYLLABLE_DEPTH, erange, coset_enum._BALL_CAP)
        ref = _SyllableBall(m, _SYLLABLE_DEPTH, erange)
        assert isinstance(ball, _fast.Ball)
        assert ball.complete == ref.complete and ball.n == len(ref.nums)
        search = coset_enum._collision_relator_search
        return ball, ref, search(ball, m, bound), search(ref, m, bound)

    @staticmethod
    def record_searches(monkeypatch):
        """(kind of ball, candidates) of each collision search run."""
        search = coset_enum._collision_relator_search
        seen = []

        def recording(ball, m, bound):
            seen.append((type(ball), search(ball, m, bound)))
            return seen[-1][1]
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            recording)
        return seen

    @pytest.mark.parametrize("bound", [40, 300])
    @pytest.mark.parametrize("a, b", [
        (1, 2), (2, 5),                      # equal evaluations
        (5, 4), (4, 5), (2, 7), (4, 11),     # conjugations
        (5, 6), (7, 10),                     # multi-prime b
        (3, 2),                              # no candidates
    ], ids=str)
    def test_candidates_match_reference(self, a, b, bound):
        ball, ref, got, want = self.both(Fraction(a, b), bound)
        assert ball.complete
        assert got == want
        if bound == 300:
            assert bool(got) == ((a, b) != (3, 2))

    def test_ball_matches_reference(self):
        ball, ref, _, _ = self.both(Fraction(4, 11), 300)
        nums, weights, parents, _ = ball.arrays
        assert nums.tolist() == [x for num in ref.nums for x in num]
        assert weights.tolist() == ref.weights
        assert parents.tolist() == ref.parents
        assert all(ball.syllables_of(i) == ref.syllables_of(i)
                   for i in range(0, ball.n, 7))
        # the conjugation search reads these lists off either ball
        assert ball.nums == ref.nums and ball.weights == ref.weights

    @pytest.mark.parametrize("a, b, found", [(1, 2, 426), (4, 11, 0)],
                             ids=["1/2", "4/11"])
    def test_equal_evaluations_match_reference(self, a, b, found):
        # 1/2's 426 records outgrow the kernel's first room for 64 three
        # times
        ball, ref, _, _ = self.both(Fraction(a, b), 300)
        got = ball.equal_evaluations()
        assert got == ref.equal_evaluations() and len(got) == found

    @pytest.mark.parametrize("cap", [0, 1_000, 5_000, 28_847, 28_848])
    @pytest.mark.parametrize("a, b", [(1, 2), (4, 5)], ids=str)
    def test_capped_ball_matches_reference(self, monkeypatch, a, b, cap):
        # both balls of 28,848 words stop after the same parent, and the
        # searches on the prefixes agree
        monkeypatch.setattr(coset_enum, "_BALL_CAP", cap)
        ball, ref, got, want = self.both(Fraction(a, b), 300)
        assert ball.complete == (cap >= 28_848)
        assert ball.nums == ref.nums and ball.weights == ref.weights
        assert got == want

    @pytest.mark.parametrize("pair_cap", [0, 1_000, 100_000])
    def test_pair_cap_matches_reference(self, monkeypatch, pair_cap):
        # 4/11's candidates all come from conjugation collisions
        monkeypatch.setattr(coset_enum, "_PAIR_CAP", pair_cap)
        ball, ref, got, want = self.both(Fraction(4, 11), 300)
        assert got == want
        if pair_cap == 0:
            assert got == []

    def test_records_freed_once(self):
        # the records come back in a buffer tc_ball allocates; Ball copies
        # them and releases it
        lib, freed = _fast.kernel(), []

        def free(buffer):
            freed.append(buffer)
            lib.tc_free(buffer)
        ball = _fast.Ball(SimpleNamespace(tc_ball=lib.tc_ball, tc_free=free),
                          Fraction(1, 2), _SYLLABLE_DEPTH, 12,
                          coset_enum._BALL_CAP)
        assert len(freed) == 1 and len(ball.equal_evaluations()) == 426

    def test_allocation_failure_raises_memory_error(self):
        # tc_ball then hands nothing over, so there is nothing to free
        freed = []
        lib = SimpleNamespace(tc_ball=lambda *args: _fast._NO_MEMORY,
                              tc_free=freed.append)
        with pytest.raises(MemoryError):
            _fast.Ball(lib, Fraction(1, 2), _SYLLABLE_DEPTH, 12,
                       coset_enum._BALL_CAP)
        assert freed == []

    def test_no_kernel_path_gives_reference(self, monkeypatch):
        seen = self.record_searches(monkeypatch)
        pres, (wa, wb) = moebius(4, 5)
        table = todd_coxeter(pres, [wa, wb]).table
        with_kernel = find_relator(pres, wa, wb, table, bound=300)
        monkeypatch.setattr(_fast, "kernel", lambda: None)
        without = find_relator(pres, wa, wb, table, bound=300)
        assert [kind for kind, _ in seen] == [_fast.Ball, _SyllableBall]
        assert seen[0][1] == seen[1][1] and seen[0][1]
        assert with_kernel == without

    def test_entries_past_the_guard_go_to_python(self, monkeypatch):
        # an entry of a 3-syllable word is at most 4 c^3 with c = den(m)
        # + erange * |num(m)|: 42/13 gives 4 * 643^3 <= 2^30 and runs in
        # the kernel, 43/13 and 1000/3 do not
        cap = coset_enum._BALL_CAP
        assert _fast.ball(Fraction(43, 13), 3, 15, cap) is None
        assert _fast.ball(Fraction(1000, 3), 3, 12, cap) is None
        ball, ref, got, want = self.both(Fraction(42, 13), 300)
        assert max(abs(x) for num in ref.nums for x in num) <= 2 ** 30
        assert got == want
        # find_relator searches 1000/3's Python ball; a table past
        # _AUGMENTED_MAX_INDEX keeps the labelled fallback out
        search = coset_enum._collision_relator_search
        seen = self.record_searches(monkeypatch)
        pres = build_presentation(3)
        wa, wb = express_generators(MoebiusSpec(1000, 3), pres)
        table = SimpleNamespace(n=coset_enum._AUGMENTED_MAX_INDEX + 1)
        assert find_relator(pres, wa, wb, table, bound=300) is None
        ref = _SyllableBall(Fraction(1000, 3), _SYLLABLE_DEPTH, 12)
        assert seen == [(_SyllableBall,
                         search(ref, Fraction(1000, 3), 300))]
