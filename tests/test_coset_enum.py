"""Todd-Coxeter enumeration: small-group oracle corpus, table invariants,
overflow contract, relator recovery."""

import math
import random
import time
from array import array
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from moebius_arith import _fast
from moebius_arith.certifier import MoebiusSpec, express_generators
from moebius_arith.congruence import ResidueMatrix, subgroup_order
from moebius_arith.coset_enum import (
    PROGRESS_EVERY,
    CosetTable,
    EnumerationLimits,
    _LOOKAHEAD_MIN_ROWS,
    _Engine,
    _VERIFY_MESSAGES,
    _cyclic_reduce_letters,
    _enumeration_letters,
    _labelled_relator_search,
    _poll,
    _relator_words,
    _run_pure,
    _verify_table,
    find_relator,
    todd_coxeter,
    word_stabilizes_one,
    word_to_letters,
)
from moebius_arith.exact import (
    GroupWord,
    UniModularMatrix,
    evaluate_word,
    parse_word,
    word,
)
from moebius_arith.modular_words import decompose_st
from moebius_arith.presentation import Presentation, _schreier_pairs, build_presentation

IDENT = UniModularMatrix.identity()


def perm_mul(p, q):
    return tuple(q[i] for i in p)


def perm_pow(p, k):
    n = len(p)
    out = tuple(range(n))
    base = p if k >= 0 else tuple(sorted(range(n), key=lambda i: p[i]))
    for _ in range(abs(k)):
        out = perm_mul(out, base)
    return out


def perm_closure(gens):
    n = len(gens[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def perm_of_word(w: GroupWord, asg):
    n = len(next(iter(asg.values())))
    out = tuple(range(n))
    for sym, exp in w.syllables:
        out = perm_mul(out, perm_pow(asg[sym], exp))
    return out


def cyc(n, *cycles):
    p = list(range(n))
    for c in cycles:
        for i in range(len(c)):
            p[c[i]] = c[(i + 1) % len(c)]
    return tuple(p)


def fake_presentation(gens, relator_strs):
    """Presentation without a matrix assignment (enumeration only)."""
    return Presentation(
        generators=tuple(gens),
        relators=tuple(parse_word(r) for r in relator_strs),
        assignment={g: IDENT for g in gens},
    )


# (name, generators, relators, subgroup words, permutation realization)
CORPUS = [
    ("C4", ["g"], ["g^4"], [], {"g": cyc(4, (0, 1, 2, 3))}),
    ("C4/C2", ["g"], ["g^4"], ["g^2"], {"g": cyc(4, (0, 1, 2, 3))}),
    ("C7", ["g"], ["g^7"], [], {"g": cyc(7, (0, 1, 2, 3, 4, 5, 6))}),
    ("C12/C4", ["g"], ["g^12"], ["g^3"],
     {"g": cyc(12, tuple(range(12)))}),
    ("C2xC2", ["a", "b"], ["a^2", "b^2", "a b a^-1 b^-1"], [],
     {"a": cyc(4, (0, 1), (2, 3)), "b": cyc(4, (0, 2), (1, 3))}),
    ("S3", ["a", "b"], ["a^3", "b^2", "a b a b"], [],
     {"a": cyc(3, (0, 1, 2)), "b": cyc(3, (0, 1))}),
    ("S3/C2", ["a", "b"], ["a^3", "b^2", "a b a b"], ["b"],
     {"a": cyc(3, (0, 1, 2)), "b": cyc(3, (0, 1))}),
    ("D4", ["r", "f"], ["r^4", "f^2", "r f r f"], [],
     {"r": cyc(4, (0, 1, 2, 3)), "f": cyc(4, (1, 3))}),
    ("D4/<f>", ["r", "f"], ["r^4", "f^2", "r f r f"], ["f"],
     {"r": cyc(4, (0, 1, 2, 3)), "f": cyc(4, (1, 3))}),
    ("D6", ["r", "f"], ["r^6", "f^2", "r f r f"], [],
     {"r": cyc(6, tuple(range(6))), "f": cyc(6, (1, 5), (2, 4))}),
    ("A4/C3", ["a", "b"], ["a^2", "b^3", "a b a b a b"], ["b"],
     {"a": cyc(4, (0, 1), (2, 3)), "b": cyc(4, (1, 2, 3))}),
    ("S4", ["a", "b"], ["a^2", "b^3", "(a b)"*0 + "a b a b a b a b"], [],
     {"a": cyc(4, (0, 1)), "b": cyc(4, (1, 2, 3))}),
    ("Q8", ["a", "b"], ["a^4", "a^2 b^-2", "b^-1 a b a"], [],
     None),  # matrix realization below
    ("A5/C5", ["a", "b"], ["a^2", "b^3", "a b a b a b a b a b"],
     ["a b^-1 a b^-1"],
     {"a": cyc(5, (0, 1), (2, 3)), "b": cyc(5, (1, 2, 4))}),
]


def residue_closure_order(gens3):
    return subgroup_order(gens3, gens3[0].n)


def oracle_index(entry):
    name, gens, rels, subs, realization = entry
    if realization is None:   # Q8 inside SL(2, 3)
        i = ResidueMatrix(3, 0, 2, 1, 0)
        j = ResidueMatrix(3, 1, 1, 1, 2)
        asg = {"a": i, "b": j}
        # the realization must satisfy the relators
        for r in rels:
            m = ResidueMatrix(3, 1, 0, 0, 1)
            for sym, exp in parse_word(r).syllables:
                g = asg[sym]
                step = g if exp > 0 else ResidueMatrix(3, g.d, (-g.b) % 3,
                                                       (-g.c) % 3, g.a)
                for _ in range(abs(exp)):
                    m = m * step
            assert m == ResidueMatrix(3, 1, 0, 0, 1), (name, r)
        order = residue_closure_order(list(asg.values()))
        assert order == 8
        sub_order = 1
        return order // sub_order
    asg = realization
    for r in rels:
        assert perm_of_word(parse_word(r), asg) == \
            tuple(range(len(next(iter(asg.values()))))), (name, r)
    order = len(perm_closure(list(asg.values())))
    if not subs:
        return order
    sub_perms = [perm_of_word(parse_word(s), asg) for s in subs]
    sub_order = len(perm_closure(sub_perms))
    return order // sub_order


class TestOracleCorpus:
    @pytest.mark.parametrize("entry", CORPUS, ids=[e[0] for e in CORPUS])
    def test_index_matches_oracle_both_strategies(self, entry):
        name, gens, rels, subs, _ = entry
        pres = fake_presentation(gens, rels)
        sub_words = [parse_word(s) for s in subs]
        expm = oracle_index(entry)
        for strategy in ("hlt", "felsch"):
            out = todd_coxeter(pres, sub_words,
                               EnumerationLimits(strategy=strategy))
            assert out.completed, (name, strategy)
            assert out.index == expm, (name, strategy)

    def test_sl2_quotient_presentations(self):
        # adding t^p = 1 to the s,t presentation of SL(2,Z) gives SL(2,Z_p)
        from moebius_arith.congruence import sl2_order
        for p in (3, 5):
            pres = fake_presentation(
                ["s", "t"], ["s^4", "s t s t s t s^-2", f"t^{p}"])
            for strategy in ("hlt", "felsch"):
                out = todd_coxeter(pres, [], EnumerationLimits(strategy=strategy))
                assert out.index == sl2_order(p)


class TestGamma0Indices:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_index_p_plus_one(self, p):
        pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
        subs = [decompose_st(mat) for _, mat in _schreier_pairs(p)]
        out = todd_coxeter(pres, subs, EnumerationLimits())
        assert out.completed and out.index == p + 1


class TestTableInvariants:
    def _table(self):
        pres = fake_presentation(["r", "f"], ["r^6", "f^2", "r f r f"])
        out = todd_coxeter(pres, [parse_word("f")], EnumerationLimits())
        return pres, out.table

    def test_relators_close_everywhere(self):
        pres, table = self._table()
        for rel in pres.relators:
            for i in range(table.n):
                assert table.trace(i, rel) == i

    def _letters(self, pres, words):
        col_of = {g: 2 * i for i, g in enumerate(pres.generators)}
        return [tuple(word_to_letters(w, col_of)) for w in words]

    def test_verify_rejects_wrong_inverse_entry(self):
        pres, table = self._table()
        relators = self._letters(pres, pres.relators)
        subgroup = self._letters(pres, [parse_word("f")])
        _verify_table(table, relators, subgroup)
        # swap two entries of the r^-1 column: both columns stay
        # permutations, but r^-1 no longer inverts r at those cosets
        tab, w = table._tab, table.width
        tab[0 * w + 1], tab[1 * w + 1] = tab[1 * w + 1], tab[0 * w + 1]
        for col in range(w):
            column = [tab[i * w + col] for i in range(table.n)]
            assert sorted(column) == list(range(table.n))
        with pytest.raises(RuntimeError, match="inverse column"):
            _verify_table(table, relators, subgroup)

    def test_verify_rejects_unreachable_coset(self):
        # two fixed points of every generator: permutations, inverses and
        # relators all hold, but coset 1 lies outside the orbit of coset 0
        pres = fake_presentation(["a"], ["a"])
        table = CosetTable(pres.generators, array("i", [0, 0, 1, 1]), 2)
        with pytest.raises(RuntimeError, match="not reachable"):
            _verify_table(table, self._letters(pres, pres.relators), [])

    def test_verify_rejects_non_permutation(self):
        pres, table = self._table()
        relators = self._letters(pres, pres.relators)
        tab, w = table._tab, table.width
        for bad in (tab[1 * w + 2], -1, table.n):
            # a repeated target, an undefined entry, an out-of-range one
            corrupt = CosetTable(table.generators, array("i", tab), table.n)
            corrupt._tab[0 * w + 2] = bad
            with pytest.raises(RuntimeError, match="not a permutation"):
                _verify_table(corrupt, relators, [])

    def test_verify_rejects_relator_open_off_coset_0(self):
        # a = (1 2), b = (0 1 2): permutations, inverses, reachable, a^2
        # and b^3 close everywhere; the relator a closes at coset 0 only
        pres = fake_presentation(["a", "b"], ["a^2", "b^3", "a"])
        table = CosetTable(pres.generators, array("i", [
            0, 0, 1, 2,
            2, 2, 2, 0,
            1, 1, 0, 1]), 3)
        relators = self._letters(pres, pres.relators)
        _verify_table(table, relators[:2], [])
        assert table.trace(0, parse_word("a")) == 0
        with pytest.raises(RuntimeError, match="relator does not close"):
            _verify_table(table, relators, [])

    def test_verify_rejects_subgroup_word_moving_coset_0(self):
        pres, table = self._table()
        relators = self._letters(pres, pres.relators)
        with pytest.raises(RuntimeError, match="does not fix coset 0"):
            _verify_table(table, relators,
                          self._letters(pres, [parse_word("r")]))

    def test_word_stabilizes_one(self):
        _, table = self._table()
        assert word_stabilizes_one(table, GroupWord())
        assert word_stabilizes_one(table, parse_word("f"))
        assert word_stabilizes_one(table, parse_word("r^6 f"))
        assert not word_stabilizes_one(table, parse_word("r"))

    def test_trace_rejects_unknown_generator(self):
        _, table = self._table()
        with pytest.raises(ValueError):
            table.trace(0, parse_word("z"))

    def test_progress_hook(self):
        # the trivial subgroup of SL(2, Z) has infinite index
        pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
        calls = []
        out = todd_coxeter(pres, [], EnumerationLimits(max_cosets=150_000),
                           progress=lambda d, l: calls.append((d, l)))
        assert out.reason == "max_cosets"
        assert [d for d, _ in calls] == [PROGRESS_EVERY, 2 * PROGRESS_EVERY]
        assert all(live <= defined for defined, live in calls)

    def test_progress_once_per_count(self):
        # a lookahead's polls repeat the count of the last definition, and
        # `progress` skips a multiple of PROGRESS_EVERY it has reported
        calls = []
        poll = _poll(EnumerationLimits(), lambda d, l: calls.append(d))
        for defined in (4096, PROGRESS_EVERY, PROGRESS_EVERY,
                        PROGRESS_EVERY + 4096, 2 * PROGRESS_EVERY,
                        2 * PROGRESS_EVERY):
            assert poll(defined, 1) is False
        assert calls == [PROGRESS_EVERY, 2 * PROGRESS_EVERY]


def reference_verify(table, pres, subgroup_words):
    """Slow reference for `_verify_table`: the message fragment of the
    first check that fails, in the verifier's order, or None.  Relators
    are traced from every coset one letter at a time."""
    n, w, tab = table.n, table.width, table._tab
    cols = [[tab[i * w + c] for i in range(n)] for c in range(w)]
    if any(sorted(col) != list(range(n)) for col in cols):
        return "not a permutation"
    if any(cols[c ^ 1][cols[c][i]] != i for c in range(w) for i in range(n)):
        return "inverse column"
    seen = {0}
    queue = [0]
    for i in queue:
        for c in range(w):
            if cols[c][i] not in seen:
                seen.add(cols[c][i])
                queue.append(cols[c][i])
    if len(seen) != n:
        return "not reachable"
    if any(table.trace(i, rel) != i
           for rel in pres.relators for i in range(n)):
        return "relator does not close"
    if any(table.trace(0, g) != 0 for g in subgroup_words):
        return "does not fix coset 0"
    return None


def consistent_transposition(tab, w, n, rng):
    """Swap the targets of two cosets in one generator column and repair
    its inverse column, so both stay mutually inverse permutations."""
    c = 2 * rng.randrange(w // 2)
    i, j = rng.randrange(n), rng.randrange(n)
    ti, tj = tab[i * w + c], tab[j * w + c]
    tab[i * w + c], tab[j * w + c] = tj, ti
    tab[tj * w + c + 1], tab[ti * w + c + 1] = i, j


def relabelled(tab, w, n, perm):
    """The table with coset i renamed perm[i]."""
    out = array("i", [0]) * len(tab)
    for i in range(n):
        for c in range(w):
            out[perm[i] * w + c] = perm[tab[i * w + c]]
    return out


class TestVerifyDifferential:
    """`_verify_table` against `reference_verify` on perturbed certifier
    tables: it must raise exactly when the reference finds a fault, and
    with the same check's message.  `TestKernelVerifyDifferential` repeats
    every test on the kernel's checker."""

    check = staticmethod(_verify_table)

    def assert_verdict(self, table, relators, subgroup, expected):
        """The check passes if `expected` is None, else raises in full the
        message of the check that `expected`, a fragment, names."""
        if expected is None:
            self.check(table, relators, subgroup)
            return
        [message] = [m for m in _VERIFY_MESSAGES if expected in m]
        with pytest.raises(RuntimeError) as info:
            self.check(table, relators, subgroup)
        assert str(info.value) == message

    def _moebius_table(self, a, b):
        pres = build_presentation(b)
        subs = list(express_generators(MoebiusSpec(a, b), pres))
        table = todd_coxeter(pres, subs, EnumerationLimits()).table
        _, relators, subgroup = _enumeration_letters(pres, subs)
        return pres, subs, table, relators, subgroup

    @pytest.mark.parametrize("a,b", [(3, 2), (5, 3)])
    def test_perturbed_tables(self, a, b):
        pres, subs, table, relators, subgroup = self._moebius_table(a, b)
        n, w = table.n, table.width
        rng = random.Random(1000 * a + b)
        seen = set()
        for trial in range(120):
            tab = array("i", table._tab)
            if trial < 100:
                for _ in range(rng.choice((1, 2))):
                    consistent_transposition(tab, w, n, rng)
            else:
                perm = list(range(n))
                rng.shuffle(perm)
                if trial % 2:
                    # coset 0 kept: a valid table under new names
                    perm[perm.index(0)] = perm[0]
                    perm[0] = 0
                tab = relabelled(tab, w, n, perm)
            perturbed = CosetTable(table.generators, tab, n)
            expected = reference_verify(perturbed, pres, subs)
            seen.add(expected)
            self.assert_verdict(perturbed, relators, subgroup, expected)
        assert {None, "relator does not close", "does not fix coset 0"} <= seen

    def test_single_entry_faults(self):
        # one entry off either end of the range, or repeating another
        # row's target, at the first, a middle and the last row of every
        # column
        pres, subs, table, relators, subgroup = self._moebius_table(3, 2)
        n, w = table.n, table.width
        for row in (0, n // 2, n - 1):
            for col in range(w):
                repeated = table._tab[(row + 1) % n * w + col]
                for bad in (-1, n, 2 ** 31 - 1, repeated):
                    tab = array("i", table._tab)
                    tab[row * w + col] = bad
                    corrupt = CosetTable(table.generators, tab, n)
                    assert reference_verify(corrupt, pres, subs) == \
                        "not a permutation"
                    self.assert_verdict(corrupt, relators, subgroup,
                                        "not a permutation")

    def test_inverse_and_reachability_faults(self):
        # the two checks that no perturbation above reaches
        pres, subs, table, relators, subgroup = self._moebius_table(3, 2)
        tab, w = array("i", table._tab), table.width
        tab[0 * w + 1], tab[1 * w + 1] = tab[1 * w + 1], tab[0 * w + 1]
        corrupt = CosetTable(table.generators, tab, table.n)
        assert reference_verify(corrupt, pres, subs) == "inverse column"
        self.assert_verdict(corrupt, relators, subgroup, "inverse column")
        # two fixed points of every generator
        pres = fake_presentation(["a"], ["a"])
        split = CosetTable(pres.generators, array("i", [0, 0, 1, 1]), 2)
        assert reference_verify(split, pres, []) == "not reachable"
        self.assert_verdict(split, [(0,)], [], "not reachable")

    def test_one_coset_table(self):
        pres = fake_presentation(["a", "b"], ["a^2", "a b a^-1 b^-1"])
        _, relators, subgroup = _enumeration_letters(
            pres, [parse_word("a"), parse_word("b^3")])
        table = CosetTable(pres.generators, array("i", [0] * 4), 1)
        self.check(table, relators, subgroup)
        for bad in (1, -1):
            corrupt = CosetTable(pres.generators,
                                 array("i", [0, 0, bad, 0]), 1)
            self.assert_verdict(corrupt, relators, subgroup,
                                "not a permutation")

    def test_empty_relator_closes(self):
        # a = (1 2), b = (0 1 2) as in the relator test above
        pres = fake_presentation(["a", "b"], ["a^2", "b^3", "a"])
        table = CosetTable(pres.generators, array("i", [
            0, 0, 1, 2,
            2, 2, 2, 0,
            1, 1, 0, 1]), 3)
        _, relators, _ = _enumeration_letters(pres, [])
        self.check(table, [()], [])
        self.check(table, [(), *relators[:2], ()], [()])
        self.assert_verdict(table, [(), *relators], [],
                            "relator does not close")


@pytest.mark.skipif(_fast.kernel() is None,
                    reason="the C kernel could not be built")
class TestKernelVerifyDifferential(TestVerifyDifferential):
    check = staticmethod(_fast.verify)

    def test_letter_out_of_range(self):
        pres = fake_presentation(["a", "b"], ["a^2", "b^3", "a"])
        table = CosetTable(pres.generators, array("i", [
            0, 0, 1, 2,
            2, 2, 2, 0,
            1, 1, 0, 1]), 3)
        for bad in (-1, 4, 2 ** 31 - 1, 2 ** 40):
            with pytest.raises(ValueError, match="range\\(4\\)"):
                self.check(table, [(0, bad)], [])
            with pytest.raises(ValueError, match="range\\(4\\)"):
                self.check(table, [], [(bad,)])

    def test_allocation_failure_is_memory_error(self, monkeypatch):
        # the kernel's scratch allocation cannot be made to fail here, so a
        # stand-in kernel returns that code to the wrapper
        monkeypatch.setattr(_fast, "kernel", lambda: SimpleNamespace(
            tc_verify=lambda *args: _fast._VERIFY_NO_MEMORY))
        table = CosetTable(("a",), array("i", [0, 0]), 1)
        with pytest.raises(MemoryError):
            self.check(table, [], [])

    def test_table_shorter_than_its_rows(self):
        pres = fake_presentation(["a"], ["a"])
        for flat, n in ((array("i", [0]), 1), (array("i"), 0)):
            with pytest.raises(ValueError):
                self.check(CosetTable(pres.generators, flat, n), [], [])


class TestLetterReduction:
    # letters here are s = 0, s^-1 = 1, t = 2, t^-1 = 3
    def test_group_word_letters_are_freely_reduced(self):
        # what lets todd_coxeter skip free reduction of the letters
        col_of = {"s": 0, "t": 2, "x5": 4, "y5": 6}
        rng = random.Random(4405)
        for _ in range(500):
            w = word((rng.choice(list(col_of)), rng.randint(-4, 4))
                     for _ in range(rng.randint(0, 12)))
            letters = word_to_letters(w, col_of)
            assert all(a != b ^ 1 for a, b in zip(letters, letters[1:]))

    def test_cyclic_reduction(self):
        assert _cyclic_reduce_letters([2, 0, 3]) == (0,)       # t s t^-1
        assert _cyclic_reduce_letters([0, 2, 0]) == (0, 2, 0)  # s t s


class TestClosingPass:
    def test_undefined_entry_keeps_table_open(self):
        # one coset, one generator, no relators: nothing merges, but the
        # open entries alone must keep the table from closing
        engine = _Engine(2, [], [], EnumerationLimits())
        assert engine._closing_pass() is False
        engine.tab[0] = engine.tab[1] = 0
        assert engine._closing_pass() is True


class TestOverflow:
    def test_free_group_overflows(self):
        pres = fake_presentation(["a", "b"], [])
        out = todd_coxeter(pres, [parse_word("a")],
                           EnumerationLimits(max_cosets=500))
        assert not out.completed
        assert out.reason == "max_cosets"
        assert out.peak_cosets >= 500
        assert out.table is None and out.index is None

    def test_time_limit(self):
        pres = fake_presentation(["a", "b"], [])
        out = todd_coxeter(pres, [],
                           EnumerationLimits(max_cosets=50_000_000,
                                             time_limit_s=0.2))
        assert not out.completed
        assert out.reason == "time_limit"

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            EnumerationLimits(max_cosets=0)
        with pytest.raises(ValueError):
            EnumerationLimits(strategy="magic")

    def test_budget_fits_int32(self):
        # both engines hold coset ids as int32
        assert EnumerationLimits(max_cosets=2 ** 31 - 1).max_cosets \
            == 2 ** 31 - 1
        with pytest.raises(ValueError, match="max_cosets must be <= "
                                             "2147483647"):
            EnumerationLimits(max_cosets=2 ** 31)
        with pytest.raises(ValueError, match="max_cosets must be >= 1"):
            EnumerationLimits(max_cosets=-1)

    @pytest.mark.parametrize("seconds", [0, -1])
    def test_time_limit_must_be_positive(self, seconds):
        with pytest.raises(ValueError, match="time_limit_s must be None or > 0"):
            EnumerationLimits(time_limit_s=seconds)

    # a value that is not a real number reached `> 0` and raised
    # TypeError, which a caller catching ValueError missed
    @pytest.mark.parametrize("seconds", ["5", 1j, b"1", Decimal(5), True],
                             ids=["str", "complex", "bytes", "Decimal",
                                  "bool"])
    def test_time_limit_must_be_a_number(self, seconds):
        with pytest.raises(ValueError,
                           match="time_limit_s must be None or a number"):
            EnumerationLimits(time_limit_s=seconds)

    def test_no_time_limit_is_an_infinite_deadline(self):
        assert EnumerationLimits().deadline() == math.inf
        assert EnumerationLimits(time_limit_s=60).deadline() < math.inf
        assert _poll(EnumerationLimits())(1, 1) is False

    def test_malformed_subgroup_word(self):
        pres = fake_presentation(["a"], ["a^2"])
        with pytest.raises(ValueError):
            todd_coxeter(pres, [parse_word("z^2")], EnumerationLimits())


class TestStrategyEquivalence:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_gamma0(self, p):
        pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
        subs = [decompose_st(mat) for _, mat in _schreier_pairs(p)]
        hlt = todd_coxeter(pres, subs, EnumerationLimits(strategy="hlt"))
        fel = todd_coxeter(pres, subs, EnumerationLimits(strategy="felsch"))
        assert hlt.index == fel.index == p + 1

    # Felsch counts on the benchmark's specs; 7/4 is the one whose deduction
    # stack outgrows its bound.  7/5 completes at 3,500 cosets only through
    # the table-full recovery, and overflows at 3,000.  Peaks below
    # `defined` come from mid-run compaction.
    @pytest.mark.parametrize("a,b,max_cosets,defined,peak,reason", [
        (3, 2, 10**7, 93, 93, None),
        (4, 3, 10**7, 489, 489, None),
        (4, 5, 10**7, 268, 268, None),
        (5, 3, 10**7, 6_041, 6_041, None),
        (5, 4, 10**7, 853, 853, None),
        (5, 7, 10**7, 9_162, 6_944, None),
        (5, 8, 10**7, 665, 665, None),
        (5, 9, 10**7, 776, 776, None),
        (7, 5, 10**7, 4_671, 4_097, None),
        (7, 9, 10**7, 4_155, 4_097, None),
        (7, 4, 10**7, 115_070, 115_070, None),
        (7, 5, 3_500, 4_671, 3_500, None),
        (7, 5, 3_000, 3_000, 3_000, "max_cosets"),
    ], ids=["3/2", "4/3", "4/5", "5/3", "5/4", "5/7", "5/8", "5/9", "7/5",
            "7/9", "7/4", "7/5@3500", "7/5@3000"])
    def test_moebius_small(self, a, b, max_cosets, defined, peak, reason):
        from moebius_arith.certifier import MoebiusSpec, express_generators
        from moebius_arith.congruence import sl2_order
        spec = MoebiusSpec(a, b)
        pres = build_presentation(b)
        wa, wb = express_generators(spec, pres)
        hlt = todd_coxeter(pres, [wa, wb], EnumerationLimits(strategy="hlt"))
        fel = todd_coxeter(pres, [wa, wb], EnumerationLimits(
            strategy="felsch", max_cosets=max_cosets))
        assert hlt.index == a * sl2_order(a)
        assert fel.index == (None if reason else hlt.index)
        assert (fel.defined_total, fel.peak_cosets, fel.reason) == \
            (defined, peak, reason)


    # budgets so small that each recovery lookahead queues deductions,
    # which compaction drops since it renumbers their cosets: on Z the run
    # must overflow cleanly, and on the trivial group the closing pass
    # finds what was dropped, re-opens the table and the walk completes it
    @pytest.mark.parametrize("rels,subs,budget,index", [
        (["b"], [], 500, None),
        (["b^-3 a^3 b a^2", "a^-1 b^-3", "b^-3"], ["b^-3 a^3"], 5, 1),
    ], ids=["Z@500", "trivial@5"])
    def test_felsch_drops_stale_deductions(self, rels, subs, budget, index):
        out = todd_coxeter(fake_presentation(["a", "b"], rels),
                           [parse_word(s) for s in subs],
                           EnumerationLimits(strategy="felsch",
                                             max_cosets=budget))
        assert out.index == index
        assert out.reason == (None if index else "max_cosets")


class TestRecoveryLookahead:
    """HLT's table-full lookahead starts at the walk position, because HLT
    has closed every relator cycle at the live cosets below it; every
    other lookahead starts at coset 0."""

    @staticmethod
    def watched_run(monkeypatch, a, b, limits):
        """A pure run that records ("recover", alpha) at each table-full
        recovery and ("lookahead", start) at each lookahead.  At each HLT
        recovery every live coset below alpha must close every relator:
        walked letter by letter, every entry defined, back to itself."""
        recover, lookahead = _Engine._recover, _Engine._lookahead
        events = []

        def watched_recover(engine, alpha):
            events.append(("recover", alpha))
            if engine.deductions is None:
                tab, p, w = engine.tab, engine.p, engine.w
                for c in range(alpha):
                    if p[c] != c:
                        continue
                    for rel in engine.relators:
                        d = c
                        for x in rel:
                            d = tab[d * w + x]
                            assert d != -1
                        assert d == c
            return recover(engine, alpha)

        def watched_lookahead(engine, start):
            events.append(("lookahead", start))
            return lookahead(engine, start)

        monkeypatch.setattr(_Engine, "_recover", watched_recover)
        monkeypatch.setattr(_Engine, "_lookahead", watched_lookahead)
        pres = build_presentation(b)
        subs = list(express_generators(MoebiusSpec(a, b), pres))
        engine = _Engine(*_enumeration_letters(pres, subs), limits)
        _, n, peak, defined, reason = _run_pure(engine)
        alphas = [alpha for kind, alpha in events if kind == "recover"]
        # the start only matters where some recovery cuts the walk off
        # past coset 0
        assert max(alphas) > 0
        return (defined, peak, n, reason), events

    # (defined, peak, index) through recovery, the same in the kernel
    # (test_fast_engine's test_identical_through_recovery)
    @pytest.mark.parametrize("a,b,budget,counts", [
        (4, 3, 600, (643, 600, 192)),
        (5, 3, 6_000, (8_938, 6_000, 600)),
        (5, 3, 12_000, (13_031, 12_000, 600)),
    ], ids=["4/3@600", "5/3@6000", "5/3@12000"])
    def test_hlt_starts_at_the_walk_position(self, monkeypatch, a, b, budget,
                                             counts):
        result, events = self.watched_run(
            monkeypatch, a, b, EnumerationLimits(max_cosets=budget))
        assert result == (*counts, None)
        for before, after in zip(events, events[1:]):
            if before[0] == "recover":
                assert after == ("lookahead", before[1])
        # the closing pass's lookaheads
        others = [e for before, e in zip([("",), *events], events)
                  if e[0] == "lookahead" and before[0] != "recover"]
        assert others and set(others) == {("lookahead", 0)}

    def test_felsch_starts_at_zero(self, monkeypatch):
        # compaction drops Felsch's queued deductions, so its recovery
        # lookahead must scan from coset 0 to find them again
        result, events = self.watched_run(
            monkeypatch, 7, 5,
            EnumerationLimits(max_cosets=3_500, strategy="felsch"))
        assert result == (4_671, 3_500, 2_352, None)
        starts = [start for kind, start in events if kind == "lookahead"]
        assert len(starts) > 1 and set(starts) == {0}


class TestFindRelator:
    def _setup(self, a, b):
        from moebius_arith.certifier import MoebiusSpec, express_generators
        spec = MoebiusSpec(a, b)
        pres = build_presentation(b)
        wa, wb = express_generators(spec, pres)
        out = todd_coxeter(pres, [wa, wb], EnumerationLimits())
        return pres, wa, wb, out.table

    def test_conjugated_syllables_match_word_product(self):
        # the relator search skips v == A^k u A^-k by comparing keys
        # (core, lead + trail, quotient - lead) of the words split at A,
        # where k is v's quotient less u's; equal keys must agree with
        # the reduced word product
        from moebius_arith.coset_enum import _split_at
        words = [(), (("A", 2),), (("B", -1),), (("A", -3), ("B", 1)),
                 (("B", 2), ("A", 1), ("B", -2)),
                 (("A", 1), ("B", 4), ("A", -2)),
                 # off by the core, then by the trailing exponent
                 (("A", 2), ("B", 1), ("A", -3)),
                 (("A", 2), ("B", 4), ("A", -2))]
        for u in words:
            for sym in ("A", "B"):
                lead_u, core_u, trail_u = _split_at(sym, u)
                for k in (-3, -2, -1, 1, 2, 3):
                    conj = (GroupWord(((sym, k),)) * GroupWord(u)
                            * GroupWord(((sym, -k),))).syllables
                    for v in {*words, conj} - {u}:
                        lead_v, core_v, trail_v = _split_at(sym, v)
                        # quotients 0 for u and k for v
                        literal = ((core_u, lead_u + trail_u, -lead_u)
                                   == (core_v, lead_v + trail_v, k - lead_v))
                        assert literal == (v == conj)

    def test_trivial_bound_finds_nothing(self):
        pres, wa, wb, table = self._setup(1, 2)
        assert find_relator(pres, wa, wb, table, bound=1) is None

    @pytest.mark.parametrize("bound", [0, -5])
    def test_bound_below_one_is_refused(self, bound):
        pres, wa, wb, table = self._setup(1, 2)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            find_relator(pres, wa, wb, table, bound=bound)

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "pure"])
    @pytest.mark.parametrize("bound", [40.0, 40.5, True, "40"], ids=repr)
    def test_bound_of_wrong_type_is_refused(self, monkeypatch, bound,
                                             kernel):
        # 40.0 reached the kernel's int64 argument as a ctypes error while
        # the Python search ran it, and True searched at bound 1
        pres, wa, wb, table = self._setup(1, 2)
        if not kernel:
            monkeypatch.setattr(_fast, "kernel", lambda: None)
        with pytest.raises(ValueError, match="bound must be an int"):
            find_relator(pres, wa, wb, table, bound=bound)

    @pytest.mark.parametrize("shape", ["transposed", "diagonal", "B(2m)"])
    def test_generators_must_be_a_and_b_of_m(self, shape):
        # the ball reads every step off m = A's upper-right entry, so a
        # word_a that is not A(m), or a word_b that is B(m') for m' != m,
        # would be searched with the wrong steps
        pres, wa, wb, table = self._setup(1, 2)
        if shape == "transposed":
            wa = wb
        elif shape == "diagonal":
            wa = parse_word("s x2")
            assert evaluate_word(wa, pres.assignment) == \
                UniModularMatrix(-2, 0, 0, Fraction(-1, 2))
        else:
            wb = wb ** 2
        with pytest.raises(ValueError, match="must evaluate to"):
            find_relator(pres, wa, wb, table)

    def test_one_half(self):
        pres, wa, wb, table = self._setup(1, 2)
        rel = find_relator(pres, wa, wb, table, bound=300)
        assert rel is not None and not rel.is_empty()
        a, b = UniModularMatrix.identity(), None
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(1, 2)
        assert evaluate_word(rel, {"A": ma, "B": mb}) == IDENT
        # Newman form: alternating with all exponents nonzero
        syms = [s for s, _ in rel.syllables]
        assert all(syms[i] != syms[i + 1] for i in range(len(syms) - 1))
        assert rel.weight <= 300

    def test_known_identity_validates(self):
        # (A^2 B^-2 A^2)^4 evaluates to a fourth power of an order-4 element
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(1, 2)
        w = parse_word("A^2 B^-2 A^2") ** 4
        assert evaluate_word(w, {"A": ma, "B": mb}) == IDENT

    def test_four_elevenths(self):
        pres, wa, wb, table = self._setup(4, 11)
        rel = find_relator(pres, wa, wb, table, bound=300)
        assert rel is not None
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(4, 11)
        assert evaluate_word(rel, {"A": ma, "B": mb}) == IDENT
        assert 0 < rel.weight <= 300

    @pytest.mark.parametrize("a, b, bound, witness, candidates", [
        (1, 2, 40, "A^-1 B^2 A^-2 B^-1 A^2 B^-2", 426),
        (1, 3, 40, "A^-1 B^3 A^-3 B^-1 A^3 B^-3", 400),
        (2, 3, 40, "A^2 B^-3 A^3 B^-2 A^3 B^-3", 42),
        (4, 11, 300, "A^22 B^-11 A^-11 B A^-22 B^11 A^11 B^-1", 2),
    ], ids=["1/2", "1/3", "2/3", "4/11"])
    def test_witness_and_candidate_count(self, monkeypatch, a, b, bound,
                                         witness, candidates):
        # the lightest verified candidate, first among equal weights
        from moebius_arith import coset_enum
        search = coset_enum._collision_relator_search
        found = []

        def recording(*args):
            found.append(search(*args))
            return found[-1]
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            recording)
        pres, wa, wb, table = self._setup(a, b)
        rel = find_relator(pres, wa, wb, table, bound=bound)
        assert str(rel) == witness
        assert [len(c) for c in found] == [candidates]

    @pytest.mark.parametrize("a, b", [(1, 2), (4, 11)])
    def test_ball_matches_matrix_products(self, a, b):
        # each element is stored as den * M over one fixed denominator;
        # spot-check it against the product of its spelled syllables
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(a, b)
        # the exponent range the search uses for these two
        ball = _SyllableBall(ma.e12, _SYLLABLE_DEPTH, max(12, b + 2))
        assert len(ball.nums) > 20_000
        for i in range(0, len(ball.nums), 97):
            word_i = word(ball.syllables_of(i))
            stored = UniModularMatrix(*(Fraction(x, ball.den)
                                        for x in ball.nums[i]))
            assert stored == evaluate_word(word_i, {"A": ma, "B": mb})
            assert ball.weights[i] == word_i.weight

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (4, 11)])
    def test_ball_child_is_parent_times_step(self, a, b):
        # the ball builds children as shears; every element must equal
        # its parent times its step by the generic integer product
        from math import lcm
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(a, b)
        erange = max(12, b + 2)
        ball = _SyllableBall(ma.e12, _SYLLABLE_DEPTH, erange)
        powers = {(sym, e): mat.pow(e) for sym, mat in (("A", ma), ("B", mb))
                  for e in range(-erange, erange + 1) if e}
        l = lcm(*(x.denominator for p in powers.values()
                  for x in (p.e11, p.e12, p.e21, p.e22)))
        assert ball.den == l ** _SYLLABLE_DEPTH
        # l is a common denominator, so each L*S is integral
        scaled = {key: tuple(int(x * l) for x in (p.e11, p.e12, p.e21, p.e22))
                  for key, p in powers.items()}
        root = (ball.den, 0, 0, ball.den)
        for i, num in enumerate(ball.nums):
            parent = ball.parents[i]
            n11, n12, n21, n22 = root if parent < 0 else ball.nums[parent]
            s11, s12, s21, s22 = scaled[ball.syllables[i]]
            product = (n11 * s11 + n12 * s21, n11 * s12 + n12 * s22,
                       n21 * s11 + n22 * s21, n21 * s12 + n22 * s22)
            assert all(x % l == 0 for x in product)
            assert num == tuple(x // l for x in product), i

    @pytest.mark.parametrize("a, b, bound, digest", [
        (1, 2, 40,
         "83e521e570e86c8e651d3ce667f635e061736c18803fe39060e37f54e34f0a8a"),
        (1, 3, 40,
         "b76e125739aac03027e7ff9cc13879c26c4a99cbf08fb26545ec5dee8051716e"),
        (2, 3, 40,
         "8c9e1728aa2937976beee076696a2f369e1e8f4988568a3b1d910b286cf1248d"),
        (4, 11, 300,
         "2729ed868a3d344d42c96d65ec539532b0f8379aa2fa53f515f58e401aae7105"),
    ], ids=["1/2", "1/3", "2/3", "4/11"])
    def test_candidate_list_pinned(self, monkeypatch, a, b, bound, digest):
        # the collision search's candidates, in content and order, as
        # the SHA-256 of their spellings one per line
        import hashlib
        from moebius_arith import coset_enum
        search = coset_enum._collision_relator_search
        found = []

        def recording(*args):
            found.append(search(*args))
            return found[-1]
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            recording)
        pres, wa, wb, table = self._setup(a, b)
        find_relator(pres, wa, wb, table, bound=bound)
        text = "\n".join(map(str, found[0]))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_ball_cap_stops_growth(self, monkeypatch):
        # the cap is checked after each parent's children, so a capped
        # ball ends within one parent's children past the cap, as a
        # prefix of the uncapped ball
        from moebius_arith import coset_enum
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        m, erange = Fraction(1, 2), 12
        full = _SyllableBall(m, _SYLLABLE_DEPTH, erange)
        cap = 1000
        assert len(full.nums) > cap
        monkeypatch.setattr(coset_enum, "_BALL_CAP", cap)
        capped = _SyllableBall(m, _SYLLABLE_DEPTH, erange)
        n = len(capped.nums)
        # past the first layer a parent has one symbol's 2*erange children
        assert cap < n <= cap + 2 * erange
        for name in ("nums", "weights", "parents", "syllables"):
            assert getattr(capped, name) == getattr(full, name)[:n], name

    def test_pair_cap_stops_conjugation_search(self, monkeypatch):
        # 4/11's candidates all come from conjugation collisions, so with
        # no pair allowed the search returns none
        from moebius_arith import coset_enum
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(4, 11)
        ball = _SyllableBall(ma.e12, _SYLLABLE_DEPTH, max(12, 11 + 2))
        search = coset_enum._collision_relator_search
        assert len(search(ball, ma.e12, 300)) == 2
        monkeypatch.setattr(coset_enum, "_PAIR_CAP", 0)
        assert search(ball, ma.e12, 300) == []

    @pytest.mark.parametrize("a, b", [
        (1, 2), (2, 5),                      # equal evaluations
        (5, 4), (4, 5), (2, 7), (4, 11),     # conjugations
        (5, 6), (7, 10),                     # multi-prime b
        (3, 2),                              # no candidates
    ], ids=str)
    def test_every_candidate_is_a_relator(self, a, b):
        # a conjugation pair is exact by the bucket arithmetic alone, and
        # the search returns it without a matrix product, so every
        # candidate must evaluate exactly to the identity
        from moebius_arith import coset_enum
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        from moebius_arith.exact import make_moebius_generators
        ma, mb = make_moebius_generators(a, b)
        ball = _SyllableBall(ma.e12, _SYLLABLE_DEPTH, max(12, b + 2))
        found = coset_enum._collision_relator_search(ball, ma.e12, 300)
        assert bool(found) == ((a, b) != (3, 2))
        for rel in found:
            assert not rel.is_empty()
            assert evaluate_word(rel, {"A": ma, "B": mb}) == IDENT

    def test_only_evaluated_candidates_are_rotated(self, monkeypatch):
        # a lighter candidate that is not a relator comes first and must be
        # skipped; the real relator is returned rotated to start with A,
        # and the heavier one after it is never rotated
        from moebius_arith import coset_enum
        bogus = parse_word("B^3 A")
        real = parse_word("B^-2 A^-1 B^2 A^-2 B^-1 A^2")
        heavier = real ** 2
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            lambda *args: [heavier, real, bogus])
        rotate = GroupWord.rotated_to
        rotated = []

        def counting(self, sym):
            rotated.append(self)
            return rotate(self, sym)
        monkeypatch.setattr(GroupWord, "rotated_to", counting)
        pres, wa, wb, table = self._setup(1, 2)
        rel = find_relator(pres, wa, wb, table, bound=40)
        assert str(rel) == "A^-1 B^2 A^-2 B^-1 A^2 B^-2"
        assert rotated == [bogus, real]

    def test_none_is_not_a_proof_of_freeness(self, monkeypatch):
        # None means only that the searches found nothing: past
        # _AUGMENTED_MAX_INDEX the fallback does not run, and 3/2 then
        # gets None although it has a relator of weight 27
        from moebius_arith import coset_enum
        pres, wa, wb, table = self._setup(3, 2)
        rel = find_relator(pres, wa, wb, table, bound=300)
        assert rel is not None and rel.weight == 27
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            lambda *args: [])
        monkeypatch.setattr(coset_enum, "_AUGMENTED_MAX_INDEX", 0)
        assert find_relator(pres, wa, wb, table, bound=300) is None

    def test_small_bound_skips_fallback_on_complete_ball(self, monkeypatch):
        # 7/4 has no relator of weight <= 5; its ball is complete and 5 <=
        # 2 * _SYLLABLE_DEPTH, so the equal-evaluation phase proves that
        # and the labelled run, which would take seconds, is not started
        from moebius_arith import coset_enum

        def fallback(*args, **kwargs):
            raise AssertionError("the labelled fallback ran")
        monkeypatch.setattr(coset_enum, "_labelled_relator_search", fallback)
        pres, wa, wb, table = self._setup(7, 4)
        assert find_relator(pres, wa, wb, table, bound=5) is None

    @pytest.mark.parametrize("left", [0, -1.5])
    def test_no_time_left_skips_fallback(self, monkeypatch, left):
        # a certify run whose enumeration used up its time limit passes
        # what is left, and the fallback does not start with none
        from moebius_arith import coset_enum

        def fallback(*args, **kwargs):
            raise AssertionError("the labelled fallback ran")
        monkeypatch.setattr(coset_enum, "_labelled_relator_search", fallback)
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            lambda *args: [])
        pres, wa, wb, table = self._setup(3, 2)
        assert find_relator(pres, wa, wb, table, bound=300,
                            time_limit_s=left) is None

    def test_fallback_runs_on_capped_ball(self, monkeypatch):
        # a capped ball may miss a short relator's halves, so the
        # fallback still runs at a small bound
        from moebius_arith import coset_enum
        calls = []

        def fallback(*args, **kwargs):
            calls.append(args)
            return []
        monkeypatch.setattr(coset_enum, "_labelled_relator_search", fallback)
        monkeypatch.setattr(coset_enum, "_BALL_CAP", 1_000)
        pres, wa, wb, table = self._setup(7, 4)
        assert find_relator(pres, wa, wb, table, bound=5) is None
        assert len(calls) == 1

    @pytest.mark.parametrize("cap", [1_000, 28_847, 28_848])
    def test_ball_complete_counts_the_ball(self, monkeypatch, cap):
        # a ball is complete exactly when the cap holds every word of it
        from moebius_arith import coset_enum
        from moebius_arith.coset_enum import _SYLLABLE_DEPTH, _SyllableBall
        m = Fraction(7, 4)
        full = _SyllableBall(m, _SYLLABLE_DEPTH, max(12, 4 + 2))
        assert len(full.nums) == 28_848 and full.complete
        monkeypatch.setattr(coset_enum, "_BALL_CAP", cap)
        ball = _SyllableBall(m, _SYLLABLE_DEPTH, max(12, 4 + 2))
        assert ball.complete == (cap >= len(full.nums))

    def test_augmented_fallback(self, monkeypatch):
        # with the collision search finding nothing, the labelled run is
        # what supplies the relator
        from moebius_arith import coset_enum
        from moebius_arith.exact import make_moebius_generators
        pres, wa, wb, table = self._setup(3, 2)
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            lambda *args: [])
        rel = find_relator(pres, wa, wb, table, bound=300)
        assert rel is not None and not rel.is_empty()
        ma, mb = make_moebius_generators(3, 2)
        assert evaluate_word(rel, {"A": ma, "B": mb}) == IDENT
        assert rel.weight <= 300


class TestLabelledRun:
    def _setup(self, a, b):
        from moebius_arith.certifier import MoebiusSpec, express_generators
        pres = build_presentation(b)
        return pres, express_generators(MoebiusSpec(a, b), pres)

    @pytest.mark.parametrize("a, b", [(3, 2), (5, 3), (4, 11)])
    def test_labels_never_steer_the_walk(self, a, b):
        # the same table bytes, rows, peak and definitions with and
        # without labels.  At this budget the plain run meets no growth
        # lookahead, which labelled runs skip: 4/11 fills its table there
        # and both runs recover alike
        pres, words = self._setup(a, b)
        width, relators, subgroup = _enumeration_letters(pres, words)
        limits = EnumerationLimits(max_cosets=_LOOKAHEAD_MIN_ROWS)
        plain = _run_pure(_Engine(width, relators, subgroup, limits))
        labelled = _Engine(width, relators, subgroup, limits,
                           symbols=("A", "B"))
        run = _run_pure(labelled)
        assert plain[4] is None and run[4] is None
        assert run[0].tobytes() == plain[0].tobytes()
        assert run[1:] == plain[1:]
        assert len(labelled.labels) == len(run[0])

    def test_growth_lookahead_is_unlabelled_only(self):
        # at the default budget the plain 7/5 run stops for a growth
        # lookahead at 32,768 rows, which closes its table; the labelled
        # run has none and goes on to 38,269 definitions
        pres, words = self._setup(7, 5)
        width, relators, subgroup = _enumeration_letters(pres, words)
        limits = EnumerationLimits()
        plain = _run_pure(_Engine(width, relators, subgroup, limits))
        labelled = _run_pure(_Engine(width, relators, subgroup, limits,
                                     symbols=("A", "B")))
        assert plain[1:] == (2_352, 32_768, 32_768, None)
        assert labelled[1:] == (2_352, 38_260, 38_269, None)

    @pytest.mark.parametrize("a, b", [(3, 2), (4, 3)])
    def test_every_labelled_word_is_a_relator(self, a, b):
        from moebius_arith.exact import make_moebius_generators
        pres, words = self._setup(a, b)
        found = _labelled_relator_search(pres, words, 200_000)
        assert found
        asg = dict(zip("AB", make_moebius_generators(a, b)))
        for w in found:
            assert not w.is_empty()
            assert evaluate_word(w, asg) == IDENT

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["gc-enabled", "gc-disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_relator_words_restore_gc_state(self, monkeypatch, enabled,
                                            fails):
        # cyclic GC is off while labels are materialised, and the caller's
        # setting comes back however the call ends
        import gc
        from moebius_arith import coset_enum

        class Stop(Exception):
            pass
        materialize = coset_enum._wmaterialize
        seen = []

        def watched(node, memo):
            seen.append(gc.isenabled())
            if fails:
                raise Stop
            return materialize(node, memo)
        pres, words = self._setup(3, 2)
        width, relators, subgroup = _enumeration_letters(pres, words)
        engine = _Engine(width, relators, subgroup,
                         EnumerationLimits(max_cosets=200_000),
                         symbols=("A", "B"))
        assert _run_pure(engine)[4] is None
        monkeypatch.setattr(coset_enum, "_wmaterialize", watched)
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if fails:
                with pytest.raises(Stop):
                    coset_enum._relator_words(engine)
            else:
                assert coset_enum._relator_words(engine)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if before else gc.disable)()
        assert seen and not any(seen)

    def test_overflow_yields_no_candidates(self):
        pres, words = self._setup(3, 2)
        assert _labelled_relator_search(pres, words, 50) == []

    def test_relator_words_past_the_deadline_are_none(self):
        # reading 7/5's relators took 13.7 s after a 0.5 s run, so the
        # deadline is checked there too
        pres, words = self._setup(3, 2)
        width, relators, subgroup = _enumeration_letters(pres, words)
        engine = _Engine(width, relators, subgroup,
                         EnumerationLimits(max_cosets=200_000),
                         symbols=("A", "B"))
        assert _run_pure(engine)[4] is None
        assert len(_relator_words(engine)) == 71
        assert _relator_words(engine, time.monotonic() - 1) == []

    def test_fallback_past_its_deadline_finds_nothing(self):
        # 5/3's labelled run makes 28,340 definitions and yields relators;
        # its first poll, at 4,096 definitions, is past a 1 µs limit
        pres, words = self._setup(5, 3)
        assert _labelled_relator_search(pres, words, 200_000)
        assert _labelled_relator_search(pres, words, 200_000,
                                        time_limit_s=1e-6) == []

    @pytest.mark.parametrize("a, b, witness, candidates", [
        (3, 2, "A^-1 B A^-1 B^8 A^-1 B A^-2 B A^-1 B^2 A^-2 B A^-1 B^4", 71),
        (4, 3, "A^-1 B A^-1 B^-3 A^3 B^-1 A B^9 A B^-1 A B^3 A^-3 B A^-1 "
               "B^-9", 443),
    ], ids=["3/2", "4/3"])
    def test_fallback_witness(self, monkeypatch, a, b, witness, candidates):
        # the collision search finds nothing here; the labelled run's
        # lightest verified candidate, first among equal weights, is pinned
        from moebius_arith import coset_enum
        search = coset_enum._labelled_relator_search
        found = []

        def recording(*args, **kwargs):
            found.append(search(*args, **kwargs))
            return found[-1]
        monkeypatch.setattr(coset_enum, "_labelled_relator_search", recording)
        pres, (wa, wb) = self._setup(a, b)
        table = todd_coxeter(pres, [wa, wb], EnumerationLimits()).table
        rel = find_relator(pres, wa, wb, table, bound=300)
        assert str(rel) == witness
        assert [len(c) for c in found] == [candidates]
