"""Certification pipeline, membership verdicts, offline verification."""

import json
import random
from math import gcd

import pytest

from moebius_arith.certifier import (
    Certificate,
    IndexMismatchError,
    MoebiusSpec,
    WordSearchError,
    a_generator_word,
    certify,
    certify_with_table,
    express_generators,
    gamma_level_words,
    matrix_word_search,
    membership_report,
    table_sweep,
    verify_certificate,
)
from moebius_arith.congruence import sl2_order
from moebius_arith.coset_enum import EnumerationLimits, word_stabilizes_one
from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    is_finite_order,
    make_moebius_generators,
    parse_matrix,
    parse_word,
    word,
)
from moebius_arith.presentation import build_presentation


@pytest.fixture(scope="module")
def cert_table_32():
    return certify_with_table(MoebiusSpec(3, 2))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoebiusSpec(2, 4)
        with pytest.raises(ValueError):
            MoebiusSpec(0, 2)
        with pytest.raises(ValueError):
            MoebiusSpec(1, 1)


class TestExpressGenerators:
    @pytest.mark.parametrize("a,b", [(1, 2), (3, 2), (5, 3), (1, 4), (7, 4),
                                     (5, 9), (4, 11), (1, 6), (2, 15)])
    def test_words_evaluate_exactly(self, a, b):
        spec = MoebiusSpec(a, b)
        pres = build_presentation(b)
        wa, wb = express_generators(spec, pres)
        mat_a, mat_b = spec.matrices()
        assert evaluate_word(wa, pres.assignment) == mat_a
        assert evaluate_word(wb, pres.assignment) == mat_b

    def test_prime_base_fast_path(self):
        spec = MoebiusSpec(3, 5)
        pres = build_presentation(5)
        wa, wb = express_generators(spec, pres)
        assert wa == parse_word("y5^-3")
        assert wb == parse_word("s y5^3 s^-1")

    def test_search_path_finds_quarter(self):
        # contract is evaluation equality only
        pres = build_presentation(4)
        target = parse_matrix("[[1,1/4],[0,1]]")
        w = matrix_word_search(pres, target, max_len=8)
        assert evaluate_word(w, pres.assignment) == target

    def test_search_raises_when_out_of_reach(self):
        pres = build_presentation(2)
        target = make_moebius_generators(1, 2)[0].pow(999)
        with pytest.raises(WordSearchError):
            matrix_word_search(pres, target, max_len=3)

    def test_unit_word_scaling(self):
        # words for A(k/b) stay short as k grows
        w1 = a_generator_word(1, 9)
        w5 = a_generator_word(5, 9)
        assert w5.length == w1.length


class TestCertify:
    def test_whole_group(self):
        cert = certify(MoebiusSpec(1, 2))
        assert cert.status == "Arithmetic"
        assert cert.index == 1 and cert.level == 1
        assert cert.not_free

    def test_three_halves(self, cert_table_32):
        cert, table = cert_table_32
        assert cert.status == "Arithmetic"
        assert cert.index == 72
        assert cert.level == 9
        assert cert.expected_index == 3 * sl2_order(3)
        assert all(ok for _, ok in cert.checks)
        assert table is not None and table.n == 72

    def test_level_words_stabilize(self, cert_table_32):
        cert, table = cert_table_32
        pres = build_presentation(2)
        for name, w in gamma_level_words(MoebiusSpec(3, 2), pres):
            assert word_stabilizes_one(table, w), name

    def test_overflow_is_inconclusive(self):
        cert = certify(MoebiusSpec(5, 2),
                       EnumerationLimits(max_cosets=100_000))
        assert cert.status == "Inconclusive"
        assert cert.index is None
        assert cert.reason == "max_cosets"
        assert not cert.not_free          # no claim either way
        assert cert.resources["peak_cosets"] <= 100_000

    def test_witness_requested(self):
        cert = certify(MoebiusSpec(1, 2), find_witness=True)
        assert cert.status == "Arithmetic"
        assert cert.witness is not None
        w = parse_word(cert.witness)
        ma, mb = make_moebius_generators(1, 2)
        assert evaluate_word(w, {"A": ma, "B": mb}).is_identity()

    def test_certificate_invariants_enforced(self):
        with pytest.raises(ValueError):
            Certificate(spec=MoebiusSpec(3, 2), status="Arithmetic",
                        level=9, expected_index=72, index=71,
                        word_a="", word_b="", checks=(), resources={})
        with pytest.raises(ValueError):
            Certificate(spec=MoebiusSpec(3, 2), status="Arithmetic",
                        level=9, expected_index=72, index=72,
                        word_a="", word_b="", checks=(("x", False),),
                        resources={})


class TestTorsionFreeness:
    def test_random_subgroup_words_have_infinite_order(self, cert_table_32):
        # a > 1: the certified group is torsion-free
        rng = random.Random(808)
        ma, mb = make_moebius_generators(3, 2)
        asg = {"A": ma, "B": mb}
        for _ in range(100):
            w = word([(rng.choice("AB"), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 12))])
            if w.is_empty():
                continue
            g = evaluate_word(w, asg)
            if g == UniModularMatrix.identity():
                continue
            assert is_finite_order(g) is None

    def test_whole_group_has_torsion(self):
        # a = 1 keeps all of SL(2, Z), e.g. the order-4 rotation
        s = parse_matrix("[[0,1],[-1,0]]")
        assert is_finite_order(s) == 4


class TestMembershipReport:
    def test_generator_in_g(self, cert_table_32):
        cert, table = cert_table_32
        pres = build_presentation(2)
        spec = MoebiusSpec(3, 2)
        ma, _ = spec.matrices()
        assert membership_report(spec, ma, cert, table, pres) == "InG"

    def test_s_not_in_closure(self, cert_table_32):
        cert, _ = cert_table_32
        s = parse_matrix("[[0,1],[-1,0]]")
        assert membership_report(MoebiusSpec(3, 2), s, cert) == "NotInClosure"

    def test_unknown_under_inconclusive(self):
        spec = MoebiusSpec(5, 2)
        cert = certify(spec, EnumerationLimits(max_cosets=50_000))
        assert cert.status == "Inconclusive"
        g = spec.matrices()[0]
        assert membership_report(spec, g, cert) == "Unknown"

    def test_rejects_foreign_denominators(self, cert_table_32):
        cert, _ = cert_table_32
        g = parse_matrix("[[1,1/3],[0,1]]")
        with pytest.raises(ValueError):
            membership_report(MoebiusSpec(3, 2), g, cert)

    def test_closure_monotone_under_base_growth(self):
        # if certify(a, b) is Arithmetic then G(a/b) elements stay in the
        # closure for base k*b, checked at congruence level
        from moebius_arith.congruence import member_of_closure
        rng = random.Random(110)
        for (a, b) in ((3, 2), (2, 3)):
            ma, mb = make_moebius_generators(a, b)
            asg = {"A": ma, "B": mb}
            for k in (2, 3):
                if gcd(a, k * b) != 1:
                    continue
                for _ in range(25):
                    w = word([(rng.choice("AB"), rng.randint(-3, 3))
                              for _ in range(8)])
                    g = evaluate_word(w, asg)
                    assert member_of_closure(g, a, k * b)


class TestSweep:
    def test_order_and_statuses(self):
        certs = table_sweep(2, [1, 3], EnumerationLimits())
        assert [c.spec.a for c in certs] == [1, 3]
        assert all(c.status == "Arithmetic" for c in certs)
        assert [c.index for c in certs] == [1, 72]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            table_sweep(2, [2], EnumerationLimits())

    def test_failures_recorded_not_raised(self):
        certs = table_sweep(2, [1, 5],
                            EnumerationLimits(max_cosets=20_000))
        assert len(certs) == 2
        assert certs[0].status == "Arithmetic"
        assert certs[1].status == "Inconclusive"

    def test_errors_kept_apart_from_budget_reasons(self, monkeypatch):
        import moebius_arith.certifier as certifier
        real = certifier.certify

        def certify(spec, *args, **kw):
            if spec.a == 3:
                raise IndexMismatchError("index 71, formula 72")
            return real(spec, *args, **kw)

        monkeypatch.setattr(certifier, "certify", certify)
        certs = table_sweep(2, [1, 3, 5], EnumerationLimits(max_cosets=20_000))
        assert [c.status for c in certs] == \
            ["Arithmetic", "Inconclusive", "Inconclusive"]
        assert certs[1].reason == \
            "error: IndexMismatchError: index 71, formula 72"
        assert certs[2].reason == "max_cosets"

    def test_worker_pool(self):
        certs = table_sweep(3, [1, 2], EnumerationLimits(), workers=2)
        assert [(c.spec.a, c.status) for c in certs] == \
            [(1, "Arithmetic"), (2, "Arithmetic")]

    def test_full_row_base_three(self):
        certs = table_sweep(3, [1, 2, 4, 5], EnumerationLimits())
        assert all(c.status == "Arithmetic" for c in certs)
        assert [c.index for c in certs] == \
            [a * sl2_order(a) for a in (1, 2, 4, 5)]


class TestOfflineVerification:
    def test_round_trip(self, cert_table_32):
        cert, _ = cert_table_32
        payload = json.loads(json.dumps(cert.to_json_dict()))
        ok, problems = verify_certificate(payload)
        assert ok, problems
        back = Certificate.from_json_dict(payload)
        assert back == cert

    def test_verifies_every_arithmetic_certificate(self):
        for (a, b) in ((1, 2), (2, 3), (4, 11)):
            cert = certify(MoebiusSpec(a, b))
            ok, problems = verify_certificate(cert)
            assert ok, (a, b, problems)

    def test_inconclusive_carries_no_claim(self):
        cert = certify(MoebiusSpec(5, 2),
                       EnumerationLimits(max_cosets=50_000))
        ok, problems = verify_certificate(cert)
        assert ok, problems

    def test_detects_tampered_index(self, cert_table_32):
        cert, _ = cert_table_32
        payload = cert.to_json_dict()
        payload["index"] = 73
        payload["expected_index"] = 73
        ok, problems = verify_certificate(payload)
        assert not ok and problems

    def test_detects_tampered_word(self, cert_table_32):
        cert, _ = cert_table_32
        payload = cert.to_json_dict()
        payload["words"]["A"] = "y2^-2"
        ok, problems = verify_certificate(payload)
        assert not ok

    def test_detects_bogus_witness(self, cert_table_32):
        cert, _ = cert_table_32
        payload = cert.to_json_dict()
        payload["witness"] = "A B"
        ok, problems = verify_certificate(payload)
        assert not ok

    def test_rejects_arithmetic_claim_without_checks(self):
        # 5/2 is beyond the default budget; a hand-written Arithmetic
        # certificate with the right index and words but no cross-checks
        # must not verify
        spec = MoebiusSpec(5, 2)
        wa, wb = express_generators(spec, build_presentation(2))
        payload = {
            "spec": {"a": 5, "b": 2}, "status": "Arithmetic",
            "index": 5 * sl2_order(5), "level": 25,
            "expected_index": 5 * sl2_order(5),
            "words": {"A": str(wa), "B": str(wb)}, "witness": None,
            "checks": [], "resources": {}, "reason": None,
        }
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems == [
            "certificate lacks the cross-checks index_formula, "
            "closure_mod_level_is_CaxCa, level_subgroup_words_stabilize, "
            "surjects_outside_level_primes"]
        payload["checks"] = [{"name": "index_formula", "passed": True}]
        ok, problems = verify_certificate(payload)
        assert not ok and "index_formula" not in problems[0]

    def test_rejects_malformed(self):
        ok, problems = verify_certificate({"status": "Arithmetic"})
        assert not ok
