"""Congruence images, closures, level data, membership."""

import random

import pytest

from moebius_arith.congruence import (
    ClosureOverflowError,
    ResidueMatrix,
    closure_generators,
    closure_quotient_structure,
    conjugate_by_x,
    generator_image_closure,
    level_data,
    member_of_closure,
    reduce_mod,
    sl2_order,
    subgroup_closure,
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
        img = subgroup_closure([ResidueMatrix.identity(7)], 7)
        assert img.order == 1 and img.is_abelian and img.exponent == 1

    def test_cap_overflow(self):
        gens = [reduce_mod(m, 5) for m in make_moebius_generators(1, 2)]
        with pytest.raises(ClosureOverflowError):
            subgroup_closure(gens, 5, cap=10)

    def test_full_sl2_5(self):
        gens = [reduce_mod(m, 5) for m in make_moebius_generators(1, 2)]
        img = subgroup_closure(gens, 5)
        assert img.order == 120
        assert not img.is_abelian

    def test_level_quotient_structure_3_2(self):
        img = generator_image_closure(3, 2, 9)
        assert img.order == 9
        assert img.is_abelian
        assert img.exponent == 3

    def test_exponent_nonabelian(self):
        gens = [reduce_mod(m, 3) for m in make_moebius_generators(1, 2)]
        img = subgroup_closure(gens, 3)
        assert img.order == 24
        # SL(2,3) has elements of orders 1,2,3,4,6
        assert img.exponent == 12

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


class TestQuotientStructure:
    def test_values(self):
        assert closure_quotient_structure(1) == ()
        assert closure_quotient_structure(3) == (3, 3)
        assert closure_quotient_structure(4) == (4, 4)

    def test_verified_by_closure(self):
        for a, b in ((3, 2), (4, 3)):
            img = generator_image_closure(a, b, a * a)
            assert img.order == a * a
            assert img.exponent == a
            assert img.is_abelian


class TestClosureGenerators:
    def test_count_and_identities(self):
        gens = closure_generators(3, 2)
        assert len(gens) == 5
        a, b = make_moebius_generators(3, 2)
        assert gens[0] == a and gens[1] == b
        assert gens[2] == a.pow(3)           # A(am) = A(m)^a
        assert gens[3] == b.pow(3)
        assert gens[4] == conjugate_by_x(b.pow(3))

    def test_conjugate_matches_direct_formula(self):
        # x = [[-1,1],[0,1]] is an involution; conjugation computed entrywise
        b = make_moebius_generators(2, 3)[1].pow(2)   # B(4/3)
        c = b.e21
        expect = UniModularMatrix(1 - c, c, -c, c + 1)
        assert conjugate_by_x(b) == expect

    def test_unipotent_scaling(self):
        gens = closure_generators(2, 3)
        assert gens[2] == parse_matrix("[[1,4/3],[0,1]]")

    def test_congruence_level_of_x_conjugate(self):
        # all three level generators reduce to the identity mod a^2
        for a, b in ((3, 2), (2, 3), (4, 3)):
            for g in closure_generators(a, b)[2:]:
                r = reduce_mod(g, a * a)
                ident = ResidueMatrix.identity(a * a)
                assert r == ident


class TestMembership:
    def test_identity_always_member(self):
        assert member_of_closure(UniModularMatrix.identity(), 3, 2)

    def test_s_not_in_closure_3_2(self):
        s = parse_matrix("[[0,1],[-1,0]]")
        assert not member_of_closure(s, 3, 2)

    def test_level_one_trivial(self):
        s = parse_matrix("[[0,1],[-1,0]]")
        assert member_of_closure(s, 1, 2)

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
