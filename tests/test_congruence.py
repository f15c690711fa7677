"""Congruence images, subgroup orders, level data, membership."""

import random
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from moebius_arith import certifier, congruence
from moebius_arith.congruence import (
    ResidueMatrix,
    conjugate_by_x,
    generator_image_closure,
    level_data,
    member_of_closure,
    reduce_mod,
    sl2_order,
    subgroup_image,
    subgroup_order,
    surjects_mod_p,
)
from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    make_moebius_generators,
    parse_matrix,
    word,
)

from test_exact import random_unimodular


def brute_force_sl2_order(n: int) -> int:
    count = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if (a * d - b * c) % n == 1 % n:
                        count += 1
    return count


class TestReduceMod:
    def test_identity(self):
        r = reduce_mod(UniModularMatrix.identity(), 9)
        assert (r.a, r.b, r.c, r.d) == (1, 0, 0, 1)

    def test_inverts_denominator(self):
        a, _ = make_moebius_generators(1, 2)
        r = reduce_mod(a, 5)
        assert (r.a, r.b, r.c, r.d) == (1, 3, 0, 1)  # 1/2 = 3 mod 5

    def test_rejects_shared_factor(self):
        a, _ = make_moebius_generators(1, 2)
        with pytest.raises(ValueError):
            reduce_mod(a, 4)

    def test_multiplicative(self):
        rng = random.Random(2024)
        done = 0
        while done < 500:
            m = random_unimodular(rng, size=6)
            n = random_unimodular(rng, size=6)
            try:
                rm, rn = reduce_mod(m, 11), reduce_mod(n, 11)
                rmn = reduce_mod(m * n, 11)
            except ValueError:
                continue
            assert rm * rn == rmn
            done += 1


class TestSl2Order:
    def test_one(self):
        assert sl2_order(1) == 1

    def test_modulus_must_be_a_count(self):
        # 2.0 used to give 6.0; a modulus is an int, not a bool or float
        a, _ = make_moebius_generators(1, 2)
        for bad in (0, 2.0, True):
            with pytest.raises(ValueError, match="modulus must be"):
                sl2_order(bad)
        for bad in (1, 5.0, True):
            with pytest.raises(ValueError, match="modulus must be"):
                reduce_mod(a, bad)
            with pytest.raises(ValueError, match="modulus must be"):
                ResidueMatrix(bad, 1, 0, 0, 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_against_brute_force(self, n):
        assert sl2_order(n) == brute_force_sl2_order(n)

    def test_prime_power_formula(self):
        # |SL(2, Z_{p^k})| = p^{3(k-1)} |SL(2, Z_p)|
        assert sl2_order(9) == 3 ** 3 * sl2_order(3) == 648
        assert sl2_order(8) == 4 ** 3 * sl2_order(2)
        assert sl2_order(25) == 5 ** 3 * sl2_order(5)


class TestSubgroupClosure:
    def test_trivial(self):
        # A(7/2) and B(7/2) are the identity mod 7
        img = generator_image_closure(7, 2, 7)
        assert img.order == 1 and img.is_abelian and img.exponent == 1

    def test_full_sl2_5(self):
        img = generator_image_closure(1, 2, 5)
        assert img.order == 120
        assert not img.is_abelian

    def test_level_quotient_structure_3_2(self):
        img = generator_image_closure(3, 2, 9)
        assert img.order == 9
        assert img.is_abelian
        assert img.exponent == 3

    def test_exponent_nonabelian(self):
        img = generator_image_closure(1, 2, 3)
        assert img.order == 24 and not img.is_abelian
        # only an abelian closure's exponent is computed: its generators'
        with pytest.raises(ValueError, match="abelian"):
            img.exponent

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (7, 1)])
    def test_prime_power_level_structure(self, p, e):
        b = 3 if p == 2 else 2
        a = p ** e
        n = p ** (2 * e)
        img = generator_image_closure(a, b, n)
        assert img.order == n
        assert img.is_abelian
        assert img.exponent == p ** e
        assert sl2_order(n) // img.order == p ** (4 * e) - p ** (4 * e - 2)

    def test_surjection_lifting_to_prime_squares(self):
        # images that fill SL(2, Z_p) also fill SL(2, Z_{p^2})
        for p in (2, 3, 5):
            a, b = {2: (3, 7), 3: (2, 7), 5: (2, 7)}[p]
            img = generator_image_closure(a, b, p * p)
            assert img.order == sl2_order(p * p)


def reference_closure(gens, n):
    """Breadth-first closure of `gens` in SL(2, Z_n), listed as residue
    4-tuples: (element set, abelianness of the generators)."""
    steps = [(g.a, g.b, g.c, g.d) for g in gens]
    ident = (1 % n, 0, 0, 1 % n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for ga, gb, gc, gd in steps:
                prod = ((a * ga + b * gc) % n, (a * gb + b * gd) % n,
                        (c * ga + d * gc) % n, (c * gb + d * gd) % n)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    abelian = all(g * h == h * g for g in gens for h in gens)
    return seen, abelian


def random_residue(rng, n):
    while True:
        a, b, c = (rng.randrange(n) for _ in range(3))
        # solve a d - b c = 1 for d when a is a unit, else retry
        try:
            d = (1 + b * c) * pow(a, -1, n) % n
        except ValueError:
            continue
        return ResidueMatrix(n, a, b, c, d)


class TestClosureParity:
    @pytest.mark.parametrize("n", list(range(2, 13)) + [25, 49])
    def test_matches_reference_bfs(self, n):
        # order, abelianness, and membership by sifting, against the
        # listed closure, on random members and random matrices
        rng = random.Random(600 + n)
        g = random_residue(rng, n)
        pairs = [[g, g * g]]            # abelian
        for _ in range(2):
            pairs.append([random_residue(rng, n), random_residue(rng, n)])
        for gens in pairs:
            keys, abelian = reference_closure(gens, n)
            img = subgroup_image(gens, n)
            assert img.order == len(keys) == subgroup_order(gens, n)
            assert img.is_abelian == abelian
            members = [gens[0] * gens[1] * gens[0], gens[1] * gens[1]]
            others = [random_residue(rng, n) for _ in range(20)]
            for m in members + others:
                key = (m.a, m.b, m.c, m.d)
                assert img.contains(m) == (key in keys), (n, key)

    def test_modulus_past_16_bits(self):
        n = 65_537
        gen = ResidueMatrix(n, 1, 256, 0, 1)
        img = subgroup_image([gen], n)
        assert img.order == n and img.exponent == n
        assert img.contains(ResidueMatrix(n, 1, 1, 0, 1))
        assert not img.contains(ResidueMatrix(n, n - 1, 0, 0, n - 1))

    def test_sift_reads_the_built_orbit(self, monkeypatch):
        # <[[1, 3], [0, 1]]> mod 9 has orbit {e1} and stabilizer 3: a
        # member, a matrix fixing e1 with 3 not dividing x, and one moving
        # e1 are told apart without another orbit-stabilizer run
        img = subgroup_image([ResidueMatrix(9, 1, 3, 0, 1)], 9)
        assert img.order == 3 and img.stabilizer == 3

        def refuse(*args):
            raise AssertionError("membership ran a new orbit-stabilizer")
        monkeypatch.setattr(congruence, "subgroup_image", refuse)
        monkeypatch.setattr(congruence, "subgroup_order", refuse)
        assert img.contains(ResidueMatrix(9, 1, 6, 0, 1))
        assert not img.contains(ResidueMatrix(9, 1, 1, 0, 1))
        assert not img.contains(ResidueMatrix(9, 1, 0, 1, 1))

    def test_rejects_determinant_off_one(self):
        # a matrix built around ResidueMatrix's own check
        bad = SimpleNamespace(n=5, a=2, b=0, c=0, d=1)
        with pytest.raises(ValueError, match="determinant"):
            generator_image_closure(1, 2, 5).contains(bad)

    def test_order_only_never_computes_element_orders(self, monkeypatch):
        def refuse(self):
            raise AssertionError("element order computed")
        monkeypatch.setattr(ResidueMatrix, "order", refuse)
        assert surjects_mod_p(3, 2, 5) is True
        img = generator_image_closure(1, 2, 7)
        assert img.order == 336 and not img.is_abelian


def order_grid():
    """(a, b, n): primes n <= 13, n = r^2 for r <= 7 and the composites
    12, 20, 25, with numerators that n divides or shares a prime with.
    The full SL(2, Z_n) for n = 36, 49 (10^5 elements) is left out."""
    moduli = [(n, range(1, 14)) for n in (2, 3, 5, 7, 11, 13)]
    moduli += [(r * r, (r, 2 * r, r * r) + ((1,) if r <= 5 else ()))
               for r in range(2, 8)]
    moduli += [(n, (1, 2, 3, 5, 6, 10)) for n in (12, 20, 25)]
    for n, numerators in moduli:
        for a in numerators:
            yield a, next(b for b in range(2, 20) if gcd(b, a * n) == 1), n


class TestSubgroupOrder:
    def test_matches_closure_order(self):
        for a, b, n in order_grid():
            gens = [reduce_mod(m, n) for m in make_moebius_generators(a, b)]
            assert subgroup_order(gens, n) == \
                len(reference_closure(gens, n)[0]), (a, b, n)

    def test_random_generators_match_closure(self):
        rng = random.Random(900)
        for n in (4, 6, 8, 9, 10, 12, 15):
            g = random_residue(rng, n)
            for gens in ([], [g], [g, g * g],
                         [random_residue(rng, n), random_residue(rng, n)]):
                assert subgroup_order(gens, n) == \
                    len(reference_closure(gens, n)[0])

    @pytest.mark.parametrize("bad", [
        SimpleNamespace(n=5, a=2, b=0, c=0, d=1),   # moves e1
        SimpleNamespace(n=5, a=1, b=0, c=0, d=2),   # fixes e1
    ])
    def test_rejects_determinant_two(self, bad):
        with pytest.raises(ValueError, match="determinant"):
            subgroup_order([ResidueMatrix(5, 1, 0, 0, 1), bad], 5)

    def test_rejects_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            subgroup_order([ResidueMatrix(7, 1, 0, 0, 1)], 5)


class TestSurjectsModP:
    def test_divides_numerator(self):
        assert surjects_mod_p(3, 2, 3) is False

    def test_coprime_numerator(self):
        assert surjects_mod_p(3, 2, 5) is True

    def test_rejects_base_prime(self):
        with pytest.raises(ValueError):
            surjects_mod_p(3, 2, 2)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            surjects_mod_p(1, 7, 6)

    def test_law_small_sample(self):
        # exhaustive sweep lives in the acceptance suite
        for a in (1, 2, 3, 10):
            for p in (3, 5, 7):
                if p == 3 and a % 3 == 0:
                    continue
                assert surjects_mod_p(a, 11, p) == (a % p != 0)

    def test_law_grid(self):
        primes = [p for p in range(2, 32)
                  if all(p % d for d in range(2, p))]
        for b in (2, 3, 5, 7):
            for a in range(1, 14):
                if gcd(a, b) != 1:
                    continue
                for p in primes:
                    if b % p:
                        assert surjects_mod_p(a, b, p) == (a % p != 0)


class TestLevelData:
    def test_trivial_level(self):
        ld = level_data(1, 2)
        assert ld.level == 1 and ld.expected_index == 1

    def test_three_halves(self):
        ld = level_data(3, 2)
        assert ld.level == 9
        assert ld.expected_index == 72

    def test_five_thirds(self):
        ld = level_data(5, 3)
        assert ld.level == 25 and ld.expected_index == 600

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            level_data(2, 4)

    @pytest.mark.parametrize("a,b", [(0, 2), (-1, 2), (1, 1), (2, 4)])
    def test_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            level_data(a, b)


class TestQuotientStructure:
    def test_verified_by_closure(self):
        for a, b in ((3, 2), (4, 3)):
            img = generator_image_closure(a, b, a * a)
            assert img.order == a * a
            assert img.exponent == a
            assert img.is_abelian


class TestClosureGenerators:
    def test_conjugate_matches_direct_formula(self):
        # x = [[-1,1],[0,1]] is an involution; conjugation computed entrywise
        b = make_moebius_generators(2, 3)[1].pow(2)   # B(4/3)
        c = b.e21
        expect = UniModularMatrix(1 - c, c, -c, c + 1)
        assert conjugate_by_x(b) == expect


class TestMembership:
    def test_identity_always_member(self):
        assert member_of_closure(UniModularMatrix.identity(), 3, 2)

    def test_s_not_in_closure_3_2(self):
        s = parse_matrix("[[0,1],[-1,0]]")
        assert not member_of_closure(s, 3, 2)

    def test_level_one_trivial(self):
        s = parse_matrix("[[0,1],[-1,0]]")
        assert member_of_closure(s, 1, 2)

    @pytest.mark.parametrize("a,b", [(0, 2), (-1, 2), (1, 1), (2, 4)])
    def test_rejects_bad_parameters(self, a, b):
        with pytest.raises(ValueError):
            member_of_closure(UniModularMatrix.identity(), a, b)

    def test_random_words_are_members(self):
        rng = random.Random(515)
        a, b = make_moebius_generators(3, 2)
        asg = {"A": a, "B": b}
        for _ in range(50):
            w = word([(rng.choice("AB"), rng.randint(-4, 4))
                      for _ in range(20)])
            g = evaluate_word(w, asg)
            assert member_of_closure(g, 3, 2)

    def test_incompatible_denominator_is_nonmember(self):
        g = parse_matrix("[[1,1/3],[0,1]]")
        assert not member_of_closure(g, 3, 2)


def residue_tuple_order(m, n):
    a, b, c, d = m
    acc, k = m, 1
    while acc != (1 % n, 0, 0, 1 % n):
        p, q, r, s = acc
        acc = ((p * a + q * c) % n, (p * b + q * d) % n,
               (r * a + s * c) % n, (r * b + s * d) % n)
        k += 1
    return k


# the 90 specs with 2 <= a, b <= 13 and gcd(a, b) = 1
GRID_SPECS = [(a, b) for a in range(2, 14) for b in range(2, 14)
              if gcd(a, b) == 1]


class TestMembershipGrid:
    """`member_of_closure` and check 2 against the closure mod a^2 listed
    by `reference_closure`, on seeded random words in A, B, their
    inverses, s, integer lower shears and A(k/b): words in A and B alone
    are members, the others mostly are not."""

    @pytest.mark.parametrize("a,b", GRID_SPECS,
                             ids=[f"{a}/{b}" for a, b in GRID_SPECS])
    def test_against_reference_closure(self, a, b):
        n = a * a
        mat_a, mat_b = make_moebius_generators(a, b)
        keys, abelian = reference_closure(
            [reduce_mod(mat_a, n), reduce_mod(mat_b, n)], n)
        exponent = lcm(*(residue_tuple_order(k, n) for k in keys))
        assert certifier._closure_is_CaxCa(a, b) == (
            len(keys) == n and abelian and exponent == a)

        rng = random.Random(1000 * a + b)
        members = [mat_a, mat_a.inv(), mat_b, mat_b.inv()]
        others = [parse_matrix("[[0,1],[-1,0]]")]
        others += [UniModularMatrix(1, 0, k, 1) for k in (1, 2, -3)]
        others += [UniModularMatrix(1, Fraction(k, b), 0, 1)
                   for k in (1, b - 1)]
        verdicts = set()
        for i in range(30):
            pool = members if i % 2 else members + others
            g = UniModularMatrix.identity()
            for _ in range(rng.randint(1, 8)):
                g = g * rng.choice(pool)
            r = reduce_mod(g, n)
            expect = (r.a, r.b, r.c, r.d) in keys
            assert member_of_closure(g, a, b) == expect, (a, b, g)
            verdicts.add(expect)
        assert verdicts == {True, False}
