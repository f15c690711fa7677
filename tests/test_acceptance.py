"""Acceptance suite.

Each criterion is exact (no tolerances anywhere: all arithmetic is integer
or rational) and carries the stated wall-clock budget.  One pass/fail line
is printed per criterion; run with `pytest tests/test_acceptance.py -v -s`
to see them live.
"""

import random
import time

from moebius_arith.certifier import (
    MoebiusSpec,
    certify,
    certify_with_table,
    gamma_level_words,
    membership_report,
    verify_certificate,
)
from moebius_arith.congruence import (
    generator_image_closure,
    member_of_closure,
    sl2_order,
    surjects_mod_p,
)
from moebius_arith.coset_enum import EnumerationLimits, todd_coxeter, word_stabilizes_one
from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    make_moebius_generators,
    parse_matrix,
    parse_word,
    prime_factors,
    word,
)
from moebius_arith.modular_words import decompose_st
from moebius_arith.presentation import (
    _schreier_pairs,
    build_presentation,
    verify_presentation_soundness,
)

from test_coset_enum import CORPUS, fake_presentation, oracle_index


def report(n, ok, detail, budget_s=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.2f}s / {budget_s:.0f}s]" if budget_s else ""
    print(f"ACCEPTANCE {n}: {status} - {detail}{timing}")
    assert ok, f"criterion {n} failed: {detail}"
    if budget_s is not None and elapsed is not None:
        assert elapsed <= budget_s, \
            f"criterion {n} exceeded budget: {elapsed:.1f}s > {budget_s}s"


def test_criterion_1_presentation_soundness():
    t0 = time.monotonic()
    ok = True
    for b in (2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 35, 49):
        pres = build_presentation(b)
        if not verify_presentation_soundness(pres):
            ok = False
        if len(pres.generators) != 2 + 2 * len(prime_factors(b)):
            ok = False
    elapsed = time.monotonic() - t0
    report(1, ok, "presentation soundness and generator counts "
                  "for b in {2,3,4,5,7,8,9,11,13,25,35,49}", 5.0, elapsed)


def test_criterion_2_gamma0_indices():
    t0 = time.monotonic()
    pres = fake_presentation(["s", "t"], ["s^4", "s t s t s t s^-2"])
    ok = True
    for p in (2, 3, 5, 7, 11):
        subs = [decompose_st(mat) for _, mat in _schreier_pairs(p)]
        out = todd_coxeter(pres, subs, EnumerationLimits())
        if not (out.completed and out.index == p + 1):
            ok = False
    elapsed = time.monotonic() - t0
    report(2, ok, "coset enumeration of the level-p subgroup gives index "
                  "p+1 for p in {2,3,5,7,11}", 5.0, elapsed)


TABLE_ENTRIES = [
    (1, 2, 1),
    (3, 2, 72),
    (5, 3, 600),
    (7, 4, 2352),
    (9, 5, 5832),
    (5, 9, 600),
    (11, 7, 14520),
]


def test_criterion_3_table_subset():
    ok = True
    details = []
    for a, b, expected in TABLE_ENTRIES:
        t0 = time.monotonic()
        cert = certify(MoebiusSpec(a, b))
        elapsed = time.monotonic() - t0
        good = (cert.status == "Arithmetic"
                and cert.index == expected
                and cert.index == a * sl2_order(a)
                and elapsed <= 600.0)
        ok = ok and good
        details.append(f"{a}/{b}:{cert.index}@{elapsed:.0f}s")
    report(3, ok, "certified indices " + " ".join(details))


def test_criterion_4_four_elevenths_witness():
    t0 = time.monotonic()
    a, b = make_moebius_generators(4, 11)
    w = parse_word("A^121 B A^-11 B^2 A^-121 B^-1 A^11 B^-2")
    ok = evaluate_word(w, {"A": a, "B": b}) == UniModularMatrix.identity()
    elapsed = time.monotonic() - t0
    report(4, ok, "the long 4/11 relator evaluates to the identity",
           1.0, elapsed)


def test_criterion_5_level_structure():
    t0 = time.monotonic()
    ok = True
    for p, e in ((2, 1), (3, 1), (5, 1), (2, 2), (7, 1)):
        b = 3 if p == 2 else 2
        a = p ** e
        n = p ** (2 * e)
        img = generator_image_closure(a, b, n)
        good = (img.order == n and img.is_abelian
                and img.exponent == p ** e
                and sl2_order(n) // img.order
                == p ** (4 * e) - p ** (4 * e - 2))
        ok = ok and good
    elapsed = time.monotonic() - t0
    report(5, ok, "closure mod p^2e is C_{p^e} x C_{p^e} with index "
                  "p^4e - p^(4e-2)", 30.0, elapsed)


def test_criterion_6_prime_surjection_law():
    from math import gcd
    t0 = time.monotonic()
    ok = True
    for b in (2, 3, 7):
        for a in range(1, 11):
            if gcd(a, b) != 1:
                continue
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                if b % p == 0:
                    continue
                if surjects_mod_p(a, b, p) != (a % p != 0):
                    ok = False
    elapsed = time.monotonic() - t0
    report(6, ok, "mod-p surjectivity holds exactly for p not dividing a "
                  "(a <= 10, b in {2,3,7}, p <= 19)", 60.0, elapsed)


def test_criterion_7_enumerator_oracle():
    t0 = time.monotonic()
    ok = len(CORPUS) >= 10
    for entry in CORPUS:
        name, gens, rels, subs, _ = entry
        pres = fake_presentation(gens, rels)
        sub_words = [parse_word(s) for s in subs]
        expected = oracle_index(entry)
        for strategy in ("hlt", "felsch"):
            out = todd_coxeter(pres, sub_words,
                               EnumerationLimits(strategy=strategy))
            if not (out.completed and out.index == expected):
                ok = False
    elapsed = time.monotonic() - t0
    report(7, ok, f"{len(CORPUS)} small-group presentations match the "
                  "brute-force oracle under both strategies", 30.0, elapsed)


def test_criterion_8_membership():
    t0 = time.monotonic()
    spec = MoebiusSpec(3, 2)
    cert, table = certify_with_table(spec)
    pres = build_presentation(2)
    rng = random.Random(32)
    ma, mb = spec.matrices()
    asg = {"A": ma, "B": mb}
    ok = cert.status == "Arithmetic"
    for _ in range(200):
        w = word([(rng.choice("AB"), rng.randint(-4, 4))
                  for _ in range(rng.randint(1, 14))])
        g = evaluate_word(w, asg)
        if not member_of_closure(g, 3, 2):
            ok = False
    s = parse_matrix("[[0,1],[-1,0]]")
    if membership_report(spec, s, cert) != "NotInClosure":
        ok = False
    for _, w in gamma_level_words(spec, pres):
        if not word_stabilizes_one(table, w):
            ok = False
    elapsed = time.monotonic() - t0
    report(8, ok, "200 random words pass the closure test, the rotation "
                  "fails it, level-9 words stabilize coset 0", 60.0, elapsed)


def test_criterion_9_overflow_contract():
    t0 = time.monotonic()
    cert = certify(MoebiusSpec(5, 2), EnumerationLimits(max_cosets=100_000))
    ok = (cert.status == "Inconclusive"
          and cert.index is None
          and not cert.not_free
          and cert.reason == "max_cosets")
    valid, _ = verify_certificate(cert)
    ok = ok and valid
    elapsed = time.monotonic() - t0
    report(9, ok, "budgeted run of 5/2 is Inconclusive and claims nothing",
           elapsed=elapsed, budget_s=120.0)
