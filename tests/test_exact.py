"""Exact arithmetic core: scalars, matrices, words."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from moebius_arith.exact import (
    GroupWord,
    UniModularMatrix,
    check_count,
    check_moebius_parameters,
    evaluate_word,
    format_matrix,
    format_word,
    make_moebius_generators,
    parse_matrix,
    parse_word,
    word,
)

IDENT = UniModularMatrix.identity()


def random_unimodular(rng, size=10):
    """Random det-1 matrix as a product of elementary transvections."""
    m = IDENT
    for _ in range(rng.randint(1, size)):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            m = m * UniModularMatrix(Fraction(1), x, Fraction(0), Fraction(1))
        else:
            m = m * UniModularMatrix(Fraction(1), Fraction(0), x, Fraction(1))
    return m


def random_localized(rng, b, size=8):
    """Random element of SL(2, Z[1/b]) as a product of transvections."""
    m = IDENT
    for _ in range(rng.randint(1, size)):
        x = Fraction(rng.randint(-40, 40), b ** rng.randint(0, 3))
        if rng.random() < 0.5:
            m = m * UniModularMatrix(1, x, 0, 1)
        else:
            m = m * UniModularMatrix(1, 0, x, 1)
    return m


def rows(m):
    return ((m.e11, m.e12), (m.e21, m.e22))


def reference_product(x, y):
    """The 2x2 product computed entry by entry in Fractions."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


class TestLocalizedScalars:
    def test_arithmetic_against_integer_oracle(self):
        # independent oracle: cross-multiplication on (num, den) pairs
        rng = random.Random(20240817)
        for _ in range(1000):
            a, b = rng.randint(-50, 50), rng.randint(1, 50)
            c, d = rng.randint(-50, 50), rng.randint(1, 50)
            x, y = Fraction(a, b), Fraction(c, d)
            s = (a * d + c * b, b * d)
            p = (a * c, b * d)
            g = gcd(abs(s[0]), s[1]) or 1
            assert (x + y).numerator == s[0] // g
            assert (x + y).denominator == s[1] // g
            g = gcd(abs(p[0]), p[1]) or 1
            assert (x * y).numerator == p[0] // g
            assert (x * y).denominator == p[1] // g


class TestMatrices:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UniModularMatrix(Fraction(1), Fraction(0), Fraction(0), Fraction(2))

    def test_moebius_generators(self):
        a, b = make_moebius_generators(1, 2)
        assert a == parse_matrix("[[1,1/2],[0,1]]")
        assert b == parse_matrix("[[1,0],[1/2,1]]")
        a, b = make_moebius_generators(3, 2)
        assert a.e12 == Fraction(3, 2) and b.e21 == Fraction(3, 2)
        a, _ = make_moebius_generators(4, 11)
        assert a == parse_matrix("[[1,4/11],[0,1]]")

    @pytest.mark.parametrize("a,b", [(0, 2), (-1, 2), (2, 1), (2, 0), (2, 4)])
    def test_moebius_generator_validation(self, a, b):
        with pytest.raises(ValueError):
            make_moebius_generators(a, b)

    @pytest.mark.parametrize("a,b,reason", [
        (0, 2, "numerator must be >= 1, got 0"),
        (-1, 2, "numerator must be >= 1, got -1"),
        (2, 1, "denominator must be >= 2, got 1"),
        (2, 4, r"gcd\(2, 4\) != 1"),
        (True, 2, "numerator must be an int, got True"),
        (3, 2.0, "denominator must be an int, got 2.0"),
    ])
    def test_moebius_parameter_reasons(self, a, b, reason):
        # one check, with one reason per fault, behind every entry point
        for check in (check_moebius_parameters, make_moebius_generators):
            with pytest.raises(ValueError, match=reason):
                check(a, b)

    def test_check_count(self):
        assert check_count("n", 1) == 1
        assert check_count("n", 7, least=2, most=7) == 7
        for value, reason in [
                (0, "n must be >= 1, got 0"),
                (8, "n must be <= 7, got 8"),
                (True, "n must be an int, got True"),
                (False, "n must be an int, got False"),
                (3.0, "n must be an int, got 3.0"),
                ("3", "n must be an int, got '3'"),
                (None, "n must be an int, got None")]:
            with pytest.raises(ValueError) as info:
                check_count("n", value, most=7)
            assert str(info.value) == reason

    def test_mul_inv_identity(self):
        a, _ = make_moebius_generators(1, 2)
        assert a * a.inv() == IDENT

    def test_unipotent_power_shortcut(self):
        a, _ = make_moebius_generators(1, 2)
        assert a.pow(2) == parse_matrix("[[1,1],[0,1]]")
        assert a.pow(-3) == parse_matrix("[[1,-3/2],[0,1]]")

    def test_random_products_keep_determinant(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_unimodular(rng)
            n = random_unimodular(rng)
            p = m * n
            assert p.e11 * p.e22 - p.e12 * p.e21 == 1
            assert m * m.inv() == IDENT

    @pytest.mark.parametrize("b", [2, 6, 35])
    def test_product_matches_fraction_reference(self, b):
        rng = random.Random(b)
        for _ in range(200):
            m = random_localized(rng, b)
            n = random_localized(rng, b)
            assert rows(m * n) == reference_product(rows(m), rows(n))
            assert rows(m.inv()) == ((m.e22, -m.e12), (-m.e21, m.e11))

    def test_equal_and_hash_across_entry_forms(self):
        forms = [
            UniModularMatrix(3, 1, 2, 1),
            UniModularMatrix(Fraction(3), Fraction(1), Fraction(2), Fraction(1)),
            UniModularMatrix(Fraction(6, 2), Fraction(2, 2), Fraction(4, 2),
                             Fraction(3, 3)),
        ]
        half = [
            UniModularMatrix(1, Fraction(1, 2), 0, 1),
            UniModularMatrix(Fraction(1), Fraction(2, 4), Fraction(0), Fraction(1)),
            UniModularMatrix(Fraction(3, 3), Fraction(-3, -6), 0, Fraction(8, 8)),
        ]
        for group in (forms, half):
            for m in group:
                assert m == group[0] and hash(m) == hash(group[0])
        assert forms[0] != half[0]

    def test_determinant_enforced_with_denominators(self):
        with pytest.raises(ValueError):
            UniModularMatrix(Fraction(1, 2), 0, 0, 1)
        with pytest.raises(ValueError):
            UniModularMatrix(Fraction(1, 2), 1, Fraction(1, 3), 2)

    def test_rejects_float_entries(self):
        with pytest.raises(TypeError):
            UniModularMatrix(1, 0.5, 0, 1)
        with pytest.raises(TypeError):
            UniModularMatrix.from_rows([[1.0, 0], [0, 1]])

    def test_immutable_and_picklable(self):
        m = UniModularMatrix(1, Fraction(3, 2), 0, 1) * \
            UniModularMatrix(1, 0, Fraction(-5, 6), 1)
        with pytest.raises(AttributeError):
            m.e11 = Fraction(2)
        with pytest.raises(AttributeError):
            m.n11 = 2
        with pytest.raises(AttributeError):
            del m._key
        copy = pickle.loads(pickle.dumps(m))
        assert copy == m and hash(copy) == hash(m)
        # unpickling re-runs the determinant check on the stored integers
        make, key = m.__reduce__()
        with pytest.raises(ValueError):
            make(*key[:4], key[4] + 1)

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_unimodular(rng, size=4)
            acc = IDENT
            for k in range(6):
                assert m.pow(k) == acc
                assert m.pow(-k) == acc.inv()
                acc = acc * m

    def test_pow_of_minus_identity(self):
        neg = -IDENT
        for k in range(-5, 6):
            assert neg.pow(k) == (IDENT if k % 2 == 0 else neg)


def _letters(w):
    """w spelled one letter at a time, each (symbol, 1) or (symbol, -1)."""
    return [(sym, 1 if e > 0 else -1)
            for sym, e in w.syllables for _ in range(abs(e))]


def _free_reduce(letters):
    """Free reduction of a letter list: cancel x x^-1 pairs on a stack."""
    out = []
    for sym, e in letters:
        if out and out[-1] == (sym, -e):
            out.pop()
        else:
            out.append((sym, e))
    return out


class TestWords:
    def test_free_reduction(self):
        w = word([("a", 2), ("a", -2), ("b", 1)])
        assert w.syllables == (("b", 1),)
        w = word([("a", 1), ("b", 2), ("b", -2), ("a", 3)])
        assert w.syllables == (("a", 4),)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GroupWord((("a", 0),))
        with pytest.raises(ValueError):
            GroupWord((("a", 1), ("a", 2)))

    def test_concat_reduces_at_seam(self):
        u = word([("a", 1), ("b", 2)])
        v = word([("b", -2), ("a", 5)])
        assert (u * v).syllables == (("a", 6),)

    def test_product_matches_full_reduction(self):
        # the product reduces only at the seam; word() reduces everything
        rng = random.Random(23)
        for _ in range(500):
            u = word([(rng.choice("ab"), rng.randint(-2, 2)) for _ in range(6)])
            v = word([(rng.choice("ab"), rng.randint(-2, 2)) for _ in range(6)])
            if rng.random() < 0.5:
                v = u.inv() * v       # long cancellations across the seam
            assert u * v == word(u.syllables + v.syllables)

    def test_products_and_powers_match_letter_reduction(self):
        # products and powers against free reduction letter by letter;
        # conjugates u = x y x^-1 make powers cancel across every seam
        rng = random.Random(2024)

        def random_word():
            syls = [(rng.choice("abc"), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.4:
                outer = [(rng.choice("abc"), rng.randint(-3, 3))
                         for _ in range(rng.randint(1, 3))]
                syls = outer + syls + [(s, -e) for s, e in reversed(outer)]
            return word(syls)
        for _ in range(300):
            u, v = random_word(), random_word()
            if rng.random() < 0.3:
                v = word([(s, -e) for s, e in reversed(u.syllables)]
                         + list(v.syllables))
            assert _letters(u * v) == _free_reduce(_letters(u) + _letters(v))
            inverse = [(s, -e) for s, e in reversed(_letters(u))]
            for k in range(-5, 6):
                base = _letters(u) if k >= 0 else inverse
                assert _letters(u ** k) == _free_reduce(base * abs(k)), k

    def test_inverse_and_power(self):
        w = word([("a", 2), ("b", -1)])
        assert (w * w.inv()).is_empty()
        assert (w ** 3).weight == 3 * w.weight
        assert (w ** 0).is_empty()
        assert w ** -1 == w.inv()

    def test_cyclic_reduction_and_rotation(self):
        w = word([("A", -1), ("B", 2), ("A", 1)])
        assert w.cyclically_reduced().syllables == (("B", 2),)
        w = word([("B", 1), ("A", 2), ("B", 3)])
        assert w.cyclically_reduced().syllables == (("B", 4), ("A", 2))
        assert w.cyclically_reduced().rotated_to("A").syllables[0][0] == "A"
        # a long conjugate u r u^-1 trims down to r, merging one end pair
        u = word([("A", 2), ("B", -1)] * 500)
        r = word([("A", 1), ("B", 3), ("A", 4)])
        assert (u * r * u.inv()).cyclically_reduced().syllables == (
            ("A", 5), ("B", 3))
        assert (u * r * u.inv()).weight == 2 * u.weight + r.weight

    def test_format_parse_round_trip(self):
        rng = random.Random(5)
        syms = ["s", "t", "x5", "y5", "A", "B"]
        for _ in range(300):
            syll = [(rng.choice(syms), rng.randint(-9, 9)) for _ in range(6)]
            w = word(syll)
            assert parse_word(format_word(w)) == w
        assert format_word(GroupWord()) == "1"
        assert parse_word("1").is_empty()

    def test_evaluate_empty_word(self):
        assert evaluate_word(GroupWord(), {}) == IDENT

    def test_evaluate_unknown_symbol(self):
        with pytest.raises(ValueError):
            evaluate_word(word([("z", 1)]), {"a": IDENT})

    def test_homomorphism_property(self):
        rng = random.Random(11)
        a, b = make_moebius_generators(3, 5)
        asg = {"A": a, "B": b}
        for _ in range(100):
            u = word([(rng.choice("AB"), rng.randint(-3, 3)) for _ in range(5)])
            v = word([(rng.choice("AB"), rng.randint(-3, 3)) for _ in range(5)])
            assert evaluate_word(u * v, asg) == \
                evaluate_word(u, asg) * evaluate_word(v, asg)

    def test_long_relator_of_4_11_evaluates_to_identity(self):
        a, b = make_moebius_generators(4, 11)
        w = parse_word("A^121 B A^-11 B^2 A^-121 B^-1 A^11 B^-2")
        assert evaluate_word(w, {"A": a, "B": b}) == IDENT


class TestMatrixLiterals:
    def test_parse_format_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            m = random_unimodular(rng)
            assert parse_matrix(format_matrix(m)) == m

    def test_integer_shorthand(self):
        assert parse_matrix("[[1,0],[0,1]]") == IDENT
        assert parse_matrix(" [[ 0 , 1 ] , [ -1 , 0 ]] ").e12 == 1

    @pytest.mark.parametrize("bad", [
        "[[1.5,0],[0,1]]", "[[1,0],[0,1]", "[[1e3,0],[0,1]]",
        "[1,0,0,1]", "[[1,0],[0,2]]", "[[0x1,0],[0,1]]",
    ])
    def test_rejects_non_exact_input(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)
