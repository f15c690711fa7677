"""The C kernel (`_fast`) against the pure reference engine.

The kernel is a step-for-step port of `_Engine`'s HLT path, so every run
must give the same table bytes, index, definition count, peak and overflow
reason.  The reference side runs with the kernel loader patched to report
no kernel, which is also what happens when no C compiler is available.
"""

import os
import random
import subprocess
import sys

import pytest

from moebius_arith import _fast
from moebius_arith.certifier import MoebiusSpec, certify, express_generators
from moebius_arith.coset_enum import EnumerationLimits, todd_coxeter
from moebius_arith.exact import GroupWord, parse_word
from moebius_arith.modular_words import decompose_st
from moebius_arith.presentation import _schreier_pairs, build_presentation

from test_coset_enum import CORPUS, fake_presentation

pytestmark = pytest.mark.skipif(_fast.kernel() is None,
                                reason="the C kernel could not be built")

# the prime-power specs the certifier benchmark certifies
CERTIFY_SPECS = ((3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (5, 7), (5, 8),
                 (5, 9), (7, 5), (7, 9), (7, 4))


def moebius(a, b):
    pres = build_presentation(b)
    return pres, list(express_generators(MoebiusSpec(a, b), pres))


def pure(monkeypatch, pres, subs, limits, **kw):
    with monkeypatch.context() as m:
        m.setattr(_fast, "kernel", lambda: None)
        return todd_coxeter(pres, subs, limits, **kw)


def assert_identical(monkeypatch, pres, subs, **limits):
    limits = EnumerationLimits(**limits)
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
    @pytest.mark.parametrize("entry", CORPUS, ids=[e[0] for e in CORPUS])
    def test_identical_on_corpus(self, entry, monkeypatch):
        name, gens, rels, subs, _ = entry
        out = assert_identical(monkeypatch, fake_presentation(gens, rels),
                               [parse_word(s) for s in subs])
        assert out.completed

    def test_identical_on_gamma0(self, monkeypatch):
        pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
        subs = [decompose_st(mat) for _, mat in _schreier_pairs(7)]
        assert assert_identical(monkeypatch, pres, subs).index == 8

    @pytest.mark.parametrize("a,b", CERTIFY_SPECS,
                             ids=[f"{a}/{b}" for a, b in CERTIFY_SPECS])
    def test_identical_on_moebius(self, a, b, monkeypatch):
        out = assert_identical(monkeypatch, *moebius(a, b))
        assert out.completed

    @pytest.mark.parametrize("a,b,budget", [(7, 4, 120_000), (5, 3, 12_000)],
                             ids=["7/4@120000", "5/3@12000"])
    def test_identical_through_recovery(self, a, b, budget, monkeypatch):
        out = assert_identical(monkeypatch, *moebius(a, b), max_cosets=budget)
        assert out.completed and out.peak_cosets == budget

    def test_identical_overflow(self, monkeypatch):
        out = assert_identical(monkeypatch, *moebius(7, 4), max_cosets=50_000)
        assert out.reason == "max_cosets"

    def test_overflow_verdicts_match(self, monkeypatch):
        pres = fake_presentation(["a", "b"], [])
        out = assert_identical(monkeypatch, pres, [parse_word("a")],
                               max_cosets=500)
        assert out.reason == "max_cosets" and out.peak_cosets >= 500

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
            out = assert_identical(
                monkeypatch, fake_presentation(gens, rels), subs,
                max_cosets=rng.choice((5, 50, 500, 5000, 20_000)))
            reasons.add(out.reason)
        assert reasons == {None, "max_cosets"}

    def test_budget_beyond_int32_runs_pure(self):
        pres = fake_presentation(["g"], ["g^4"])
        out = todd_coxeter(pres, [], EnumerationLimits(max_cosets=2 ** 31))
        assert out.engine == "pure" and out.index == 4


class TestRunControl:
    def test_time_limit(self):
        pres = fake_presentation(["a", "b"], [])
        out = todd_coxeter(pres, [],
                           EnumerationLimits(max_cosets=50_000_000,
                                             time_limit_s=0.3))
        assert out.engine == "c"
        assert not out.completed
        assert out.reason == "time_limit"

    def test_progress_hook(self, monkeypatch):
        pres, subs = moebius(5, 3)
        calls, ref_calls = [], []
        todd_coxeter(pres, subs, EnumerationLimits(),
                     progress=lambda d, l: calls.append((d, l)),
                     progress_every=1000)
        pure(monkeypatch, pres, subs, EnumerationLimits(),
             progress=lambda d, l: ref_calls.append((d, l)),
             progress_every=1000)
        assert calls and calls == ref_calls

    def test_progress_exception_propagates(self):
        class Stop(Exception):
            pass

        def stop(defined, live):
            raise Stop(defined)

        pres, subs = moebius(5, 3)
        with pytest.raises(Stop) as info:
            todd_coxeter(pres, subs, EnumerationLimits(), progress=stop,
                         progress_every=1000)
        assert info.value.args == (1000,)
        # the aborted run left nothing behind
        assert todd_coxeter(pres, subs, EnumerationLimits()).index == 600

    def test_progress_every_validated(self):
        pres, subs = moebius(3, 2)
        with pytest.raises(ValueError):
            todd_coxeter(pres, subs, progress=print, progress_every=0)


class TestLoader:
    def test_broken_compiler_falls_back_to_pure(self, monkeypatch, tmp_path):
        spec = MoebiusSpec(5, 3)
        fast = certify(spec)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
        monkeypatch.setattr(_fast, "_kernel", _fast._UNSET)
        ref = certify(spec)
        assert _fast.kernel() is None
        assert (fast.resources["engine"], ref.resources["engine"]) == \
            ("c", "pure")
        assert (ref.status, ref.index, ref.checks) == \
            (fast.status, fast.index, fast.checks)
        for key in ("peak_cosets", "defined_cosets"):
            assert ref.resources[key] == fast.resources[key]

    def test_library_cached_by_key(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _fast._build()
        assert os.path.dirname(path) == str(tmp_path / "moebius_arith")
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        stamp = os.stat(path).st_mtime_ns
        assert _fast._build() == path
        assert os.stat(path).st_mtime_ns == stamp

    def test_import_loads_no_kernel(self):
        code = ("import sys, moebius_arith, moebius_arith._fast; "
                "assert 'ctypes' not in sys.modules; "
                "assert moebius_arith._fast._kernel is "
                "moebius_arith._fast._UNSET")
        subprocess.run([sys.executable, "-c", code], check=True)
