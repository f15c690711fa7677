"""Decomposition of SL(2, Z) matrices over s, t."""

import random

import pytest

from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    parse_matrix,
    parse_word,
    word,
)
from moebius_arith.modular_words import (
    MAT_S,
    MAT_T,
    ST_ASSIGNMENT,
    decompose_st,
)

IDENT = UniModularMatrix.identity()


def random_integer_unimodular(rng, length):
    m = IDENT
    w = []
    for _ in range(length):
        sym = rng.choice("st")
        exp = rng.choice((-1, 1))
        w.append((sym, exp))
        m = m * ST_ASSIGNMENT[sym].pow(exp)
    return m, word(w)


class TestDecompose:
    def test_identity_is_empty(self):
        assert decompose_st(IDENT).is_empty()

    def test_minus_identity(self):
        m = parse_matrix("[[-1,0],[0,-1]]")
        w = decompose_st(m)
        assert evaluate_word(w, ST_ASSIGNMENT) == m

    def test_generators_themselves(self):
        assert evaluate_word(decompose_st(MAT_S), ST_ASSIGNMENT) == MAT_S
        assert evaluate_word(decompose_st(MAT_T), ST_ASSIGNMENT) == MAT_T

    def test_known_gamma0_matrices(self):
        # the matrix paired with t^-2 s t^2 in the index-6 subgroup of level 5
        m = parse_matrix("[[2,1],[-5,-2]]")
        w = decompose_st(m)
        assert evaluate_word(w, ST_ASSIGNMENT) == m
        assert evaluate_word(parse_word("t^-2 s t^2"), ST_ASSIGNMENT) == m

        m = parse_matrix("[[1,-1],[0,1]]")
        w = decompose_st(m)
        assert evaluate_word(w, ST_ASSIGNMENT) == m
        assert evaluate_word(parse_word("t s t"), ST_ASSIGNMENT) == m.inv()

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            decompose_st(parse_matrix("[[1,1/2],[0,1]]"))

    def test_round_trip_random_products(self):
        rng = random.Random(424242)
        for _ in range(1000):
            m, _ = random_integer_unimodular(rng, rng.randint(1, 30))
            w = decompose_st(m)
            assert evaluate_word(w, ST_ASSIGNMENT) == m

    def test_syllable_count_logarithmic_in_entries(self):
        # syllable count <= C * (bit length of the largest entry + 1)
        rng = random.Random(986)
        C = 8
        for _ in range(300):
            m, _ = random_integer_unimodular(rng, rng.randint(1, 30))
            w = decompose_st(m)
            biggest = max(abs(int(e)) for e in
                          (m.e11, m.e12, m.e21, m.e22))
            assert len(w.syllables) <= C * (biggest.bit_length() + 1)

    def test_large_entries(self):
        m = MAT_T.pow(10 ** 6) * MAT_S * MAT_T.pow(-997)
        w = decompose_st(m)
        assert evaluate_word(w, ST_ASSIGNMENT) == m
        assert len(w.syllables) < 40

