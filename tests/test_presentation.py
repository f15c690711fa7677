"""Amalgam presentations of SL(2, Z[1/b]) and their serialization."""

import json
from fractions import Fraction
from math import comb

import pytest

from moebius_arith.congruence import reduce_mod, subgroup_order
from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    parse_matrix,
    parse_word,
    prime_factors,
    word,
)
from moebius_arith.modular_words import ST_ASSIGNMENT
from moebius_arith.presentation import (
    _act,
    _schreier_pairs,
    build_presentation,
    presentation_to_json,
    presentation_to_text,
    verify_presentation_soundness,
    x_matrix,
    y_matrix,
)

IDENT = UniModularMatrix.identity()

ALL_BASES = [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 25, 30, 35, 49, 210]


def same_subgroup_mod(mats_s, mats_t, q):
    """S and T generate the same subgroup mod q: |<S>| = |<T>| = |<S, T>|."""
    s = [reduce_mod(m, q) for m in mats_s]
    t = [reduce_mod(m, q) for m in mats_t]
    order = subgroup_order(s, q)
    return subgroup_order(t, q) == order == subgroup_order(s + t, q)


class TestSchreierGenerators:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_count_and_membership(self, p):
        pairs = _schreier_pairs(p)
        assert 1 <= len(pairs) <= p + 2
        for w, value in pairs:
            assert evaluate_word(w, {f"x{p}": x_matrix(p),
                                     f"y{p}": y_matrix(p)}) == value
            assert value.is_integral()
            assert int(value.e21) % p == 0       # upper triangular mod p
            assert value != IDENT

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            _schreier_pairs(4)

    def test_act_needs_an_integral_matrix(self):
        assert _act(UniModularMatrix(1, 1, 0, 1), (0, 1), 5) == (1, 1)
        with pytest.raises(ValueError, match="integral"):
            _act(UniModularMatrix(1, Fraction(1, 2), 0, 1), (0, 1), 5)

    def test_p2_evaluations_have_even_lower_left(self):
        for w, _ in _schreier_pairs(2):
            value = evaluate_word(w, {"x2": x_matrix(2), "y2": y_matrix(2)})
            assert int(value.e21) % 2 == 0

    def test_p5_matches_reference_generating_set(self):
        # a reference generating set for the level-5 subgroup, up to
        # transversal choice: compare subgroup closures in several quotients
        mine = [v for _, v in _schreier_pairs(5)]
        reference = [
            UniModularMatrix.from_rows([[-1, 0], [0, -1]]),   # x^-2
            UniModularMatrix.from_rows([[1, 0], [5, 1]]),     # x y x^-1
            UniModularMatrix.from_rows([[1, -1], [0, 1]]),    # y^5
            UniModularMatrix.from_rows([[2, 1], [-5, -2]]),   # y^2 x y^-2
        ]
        for q in (7, 9, 11, 13):
            assert same_subgroup_mod(mine, reference, q)

    def test_orbit_transversal_deterministic(self):
        assert _schreier_pairs(7) == _schreier_pairs(7)

    def test_p7_matches_reference_generating_set(self):
        # reference pairs for p = 7, read off the matching relators
        # x^-2 s^2, x y x^-1 t^-7, y^3 x^-1 y^-2 t^-3 s t^2,
        # y^-3 x^-1 y^2 t^3 s t^-2; the x,y-side value equals the inverse
        # of the s,t tail's value
        mine = [v for _, v in _schreier_pairs(7)]
        reference = [
            evaluate_word(parse_word(tail), ST_ASSIGNMENT).inv()
            for tail in ("s^2", "t^-7", "t^-3 s t^2", "t^3 s t^-2")
        ]
        for m in reference:
            assert m.is_integral() and int(m.e21) % 7 == 0
        for q in (5, 9, 11):
            assert same_subgroup_mod(mine, reference, q)


class TestBuildPresentation:
    @pytest.mark.parametrize("b", ALL_BASES)
    def test_soundness_and_counts(self, b):
        # the amalgam over each prime, then three relators per prime pair
        pres = build_presentation(b)
        assert verify_presentation_soundness(pres)
        primes = prime_factors(b)
        assert len(pres.generators) == 2 + 2 * len(primes)
        blocks = 2 + sum(2 + len(_schreier_pairs(p)) for p in primes)
        assert len(pres.relators) == blocks + 3 * comb(len(primes), 2)

    def test_generators_depend_on_prime_support_only(self):
        assert build_presentation(4).generators == \
            build_presentation(2).generators
        assert build_presentation(8).generators == \
            build_presentation(2).generators

    def test_rejects_bad_base(self):
        for bad in (1, 4.0, True):
            with pytest.raises(ValueError, match="base must be"):
                build_presentation(bad)

    def test_b35_shares_st_copy(self):
        pres = build_presentation(35)
        assert pres.generators == ("s", "t", "x5", "y5", "x7", "y7")

    def test_corrupted_relator_detected(self):
        pres = build_presentation(2)
        bad = list(pres.relators)
        bad[0] = bad[0] * word([("t", 1)])      # bump an exponent
        from moebius_arith.presentation import Presentation
        broken = Presentation(pres.generators, tuple(bad), pres.assignment)
        assert not verify_presentation_soundness(broken)


class TestSerialization:
    @pytest.mark.parametrize("b", [2, 5, 35])
    def test_text_round_trip(self, b):
        # every relator line reads back exactly through parse_word
        pres = build_presentation(b)
        lines = presentation_to_text(pres).splitlines()
        assert lines[0].split()[1:] == list(pres.generators)
        assert tuple(parse_word(l[len("rel:"):]) for l in lines[1:]) == \
            pres.relators

    @pytest.mark.parametrize("b", [2, 5, 35])
    def test_json_round_trip(self, b):
        # words and matrices read back exactly through the literal parsers
        pres = build_presentation(b)
        payload = json.loads(presentation_to_json(pres))
        assert tuple(payload["generators"]) == pres.generators
        assert tuple(map(parse_word, payload["relators"])) == pres.relators
        assert {sym: parse_matrix(lit)
                for sym, lit in payload["assignment"].items()} == \
            pres.assignment

    def test_text_format_shape(self):
        text = presentation_to_text(build_presentation(5))
        lines = text.strip().splitlines()
        assert lines[0] == "gen: s t x5 y5"
        assert all(l.startswith("rel: ") for l in lines[1:])
        assert "rel: s^4" in text
