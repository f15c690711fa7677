"""Certification pipeline, membership verdicts, offline verification."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from moebius_arith.certifier import (
    Certificate,
    IndexMismatchError,
    MoebiusSpec,
    a_generator_word,
    certify,
    certify_with_table,
    express_generators,
    gamma_level_words,
    membership_report,
    table_sweep,
    verify_certificate,
)
from moebius_arith.congruence import ResidueMatrix, reduce_mod, sl2_order
from moebius_arith.coset_enum import (
    DEFAULT_WITNESS_BOUND,
    EnumerationLimits,
    word_stabilizes_one,
)
from moebius_arith.exact import (
    UniModularMatrix,
    evaluate_word,
    make_moebius_generators,
    parse_matrix,
    parse_word,
    word,
)
from moebius_arith.presentation import build_presentation


@pytest.fixture(scope="module")
def cert_table_32():
    return certify_with_table(MoebiusSpec(3, 2))


def scale_enumerated_index(monkeypatch, factor):
    """Make every enumeration that `certify` runs report `factor` times
    the index it completed with."""
    import moebius_arith.certifier as certifier
    real = certifier.todd_coxeter

    def scaled(*args, **kw):
        out = real(*args, **kw)
        return dataclasses.replace(out, index=int(out.index * factor))
    monkeypatch.setattr(certifier, "todd_coxeter", scaled)


def forged_certificates(cert_32):
    """(payload, reason) pairs: JSON certificates with a field of the wrong
    type, made from a 1/2 certificate and from `cert_32` for 3/2, and the
    reason each is malformed.  Every one of them used to verify."""
    one_half = certify(MoebiusSpec(1, 2)).to_json_dict()
    three_halves = cert_32.to_json_dict()
    check_types = "each check needs a name string and a boolean"
    optional = "witness and reason must be strings or null"
    forgeries = [
        (one_half, lambda p: p["spec"].update(a=True),
         "numerator must be an int, got True"),
        (three_halves,
         lambda p: p.update(index=72.0, expected_index=72.0, level=9.0),
         "level must be an int, got 9.0"),
        (three_halves, lambda p: p.update(expected_index=72.0),
         "expected_index must be an int, got 72.0"),
        (three_halves, lambda p: p.update(index=72.0),
         "index must be an int, got 72.0"),
        (three_halves,
         lambda p: [c.update(passed="false") for c in p["checks"]],
         check_types),
        (three_halves, lambda p: p["checks"][0].update(name=1), check_types),
        (three_halves, lambda p: p["words"].update(B=5),
         "the words for A and B must be strings"),
        (three_halves, lambda p: p.update(witness=7), optional),
        (three_halves, lambda p: p.update(reason=["x"]), optional),
        (three_halves, lambda p: p.update(resources=[]),
         "resources must be an object"),
    ]
    out = []
    for base, forge, reason in forgeries:
        payload = json.loads(json.dumps(base))
        forge(payload)
        out.append((payload, reason))
    return out


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MoebiusSpec(2, 4)
        with pytest.raises(ValueError):
            MoebiusSpec(0, 2)
        with pytest.raises(ValueError):
            MoebiusSpec(1, 1)
        # True used to pass as 1 and print as True/2
        with pytest.raises(ValueError, match="numerator must be an int"):
            MoebiusSpec(True, 2)
        with pytest.raises(ValueError, match="denominator must be an int"):
            MoebiusSpec(3, 2.0)


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

    @pytest.mark.parametrize("a,b", [(3, 2), (5, 3), (7, 4)])
    def test_level_words_lie_in_level_subgroup(self, a, b):
        # A(am), B(am), B(am)^x are the identity mod a^2; nothing more
        # about the subgroup they generate is claimed
        spec = MoebiusSpec(a, b)
        pres = build_presentation(b)
        words = gamma_level_words(spec, pres)
        assert [name for name, _ in words] == ["A(am)", "B(am)", "B(am)^x"]
        ident = ResidueMatrix(a * a, 1, 0, 0, 1)
        for _, wrd in words:
            g = evaluate_word(wrd, pres.assignment)
            assert g != UniModularMatrix.identity()
            assert reduce_mod(g, a * a) == ident

    def test_unit_word_scaling(self):
        # words for A(k/b) stay short as k grows
        w1 = a_generator_word(1, 9)
        w5 = a_generator_word(5, 9)
        assert len(w5.syllables) == len(w1.syllables)


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

    def test_presentation_built_once_per_prime_set(self, monkeypatch):
        # 2 and 4 have the same primes, so 5/4 reuses the build for 3/2
        import moebius_arith.certifier as certifier
        builds = []

        def build(b):
            builds.append(b)
            return build_presentation(b)

        monkeypatch.setattr(certifier, "_PRESENTATIONS", {})
        monkeypatch.setattr(certifier, "build_presentation", build)
        assert certify(MoebiusSpec(3, 2)).status == "Arithmetic"
        assert certify(MoebiusSpec(5, 4)).status == "Arithmetic"
        assert builds == [2]

    def test_multi_prime_certificate(self):
        # the presentation over 2 and 3 may be a cover of SL(2, Z[1/12]),
        # but a completed index equal to the formula proves that index
        cert = certify(MoebiusSpec(5, 12))
        assert (cert.status, cert.index) == ("Arithmetic", 600)
        payload = json.loads(json.dumps(cert.to_json_dict()))
        assert "presentation" not in payload["resources"]
        assert Certificate.from_json_dict(payload) == cert
        assert verify_certificate(payload) == (True, [])
        payload["index"] = 1200
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems[0].startswith("malformed certificate: ")

    def test_overflow_is_inconclusive(self):
        cert = certify(MoebiusSpec(5, 2),
                       EnumerationLimits(max_cosets=100_000))
        assert cert.status == "Inconclusive"
        assert cert.index is None
        assert cert.reason == "max_cosets"
        assert not cert.not_free          # no claim either way
        assert cert.resources["peak_cosets"] <= 100_000

    def test_witness_requested(self):
        cert = certify(MoebiusSpec(1, 2), witness_bound=DEFAULT_WITNESS_BOUND)
        assert cert.status == "Arithmetic"
        assert cert.witness is not None
        w = parse_word(cert.witness)
        ma, mb = make_moebius_generators(1, 2)
        assert evaluate_word(w, {"A": ma, "B": mb}).is_identity()
        assert "witness_not_found_within" not in cert.resources

    def test_no_witness_search_by_default(self):
        cert = certify(MoebiusSpec(1, 2))
        assert cert.witness is None
        assert "witness_not_found_within" not in cert.resources
        assert "relator_witness_validates" not in dict(cert.checks)

    def test_witness_not_found_is_recorded(self):
        # find_relator finds nothing within total exponent 1 on 1/2
        cert, table = certify_with_table(MoebiusSpec(1, 2), witness_bound=1)
        assert cert.status == "Arithmetic" and table is not None
        assert cert.witness is None
        assert cert.resources["witness_not_found_within"] == 1
        assert "relator_witness_validates" not in dict(cert.checks)
        assert verify_certificate(cert.to_json_dict()) == (True, [])

    @pytest.mark.parametrize("limit", [None, 60.0])
    def test_witness_fallback_gets_the_time_left(self, monkeypatch, limit):
        # --time-limit covers the certifying enumeration and the labelled
        # fallback together: the fallback gets what the enumeration left
        from moebius_arith import coset_enum
        given = []

        def fallback(*args, time_limit_s=None, **kwargs):
            given.append(time_limit_s)
            return []
        monkeypatch.setattr(coset_enum, "_collision_relator_search",
                            lambda *args: [])
        monkeypatch.setattr(coset_enum, "_labelled_relator_search", fallback)
        cert = certify(MoebiusSpec(3, 2), EnumerationLimits(time_limit_s=limit),
                       witness_bound=300)
        assert cert.resources["witness_not_found_within"] == 300
        assert len(given) == 1
        if limit is None:
            assert given == [None]
        else:
            assert 0 < given[0] < limit

    @pytest.mark.parametrize("bound", [0, -5])
    def test_witness_bound_below_one_refused_before_enumerating(
            self, monkeypatch, bound):
        import moebius_arith.certifier as certifier
        runs = []
        monkeypatch.setattr(certifier, "todd_coxeter",
                            lambda *args, **kw: runs.append(args))
        with pytest.raises(ValueError, match="witness_bound must be >= 1"):
            certify_with_table(MoebiusSpec(1, 2), witness_bound=bound)
        assert runs == []

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "pure"])
    @pytest.mark.parametrize("bound", [40.0, 40.5, True, "40"], ids=repr)
    def test_witness_bound_of_wrong_type_refused(self, monkeypatch, bound,
                                                 kernel):
        # with the kernel, 40.0 raised ctypes.ArgumentError after the
        # enumeration; without it the search ran, and True searched at
        # bound 1 and recorded witness_not_found_within: true
        from moebius_arith import _fast
        if not kernel:
            monkeypatch.setattr(_fast, "kernel", lambda: None)
        with pytest.raises(ValueError, match="witness_bound must be an int"):
            certify(MoebiusSpec(1, 2), witness_bound=bound)

    def test_index_mismatch_raises(self, monkeypatch):
        # a completed run whose index is not the formula's is a bug, and
        # certify_with_table raises it, naming both numbers
        import moebius_arith.certifier as certifier
        from moebius_arith.coset_enum import EnumerationOutcome
        monkeypatch.setattr(
            certifier, "todd_coxeter",
            lambda *args, **kw: EnumerationOutcome(completed=True, index=71))
        with pytest.raises(IndexMismatchError,
                           match=r"index 71, .* gives 72;"):
            certify_with_table(MoebiusSpec(3, 2))

    def test_index_above_formula(self, monkeypatch):
        # above the formula is Inconclusive where the presentation may be
        # a cover (5/12), and a bug where it is exact (5/4)
        scale_enumerated_index(monkeypatch, 2)
        cert, table = certify_with_table(MoebiusSpec(5, 12))
        assert (cert.status, cert.index, table) == ("Inconclusive", None,
                                                     None)
        assert cert.reason == "index_above_formula: 1200 > 600"
        with pytest.raises(IndexMismatchError,
                           match=r"index 1200, .* gives 600;"):
            certify(MoebiusSpec(5, 4))

    @pytest.mark.parametrize("b", [4, 12])
    def test_index_below_formula_raises(self, monkeypatch, b):
        scale_enumerated_index(monkeypatch, Fraction(1, 2))
        with pytest.raises(IndexMismatchError,
                           match=r"index 300, .* gives 600;"):
            certify(MoebiusSpec(5, b))

    def test_progress_reported(self):
        # 7/4 makes 276,938 definitions, so `progress` hears of every
        # multiple of PROGRESS_EVERY up to that
        from moebius_arith.coset_enum import PROGRESS_EVERY
        calls = []
        cert = certify(MoebiusSpec(7, 4), EnumerationLimits(),
                       progress=lambda defined, live: calls.append(defined))
        assert cert.status == "Arithmetic"
        assert cert.resources["defined_cosets"] == 276_938
        assert calls == [k * PROGRESS_EVERY
                         for k in range(1, 276_938 // PROGRESS_EVERY + 1)]

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
            # in SL(2, Q), finite order means +-I or trace in {-1, 0, 1}
            assert g != -UniModularMatrix.identity()
            assert g.e11 + g.e22 not in (-1, 0, 1)

    def test_whole_group_has_torsion(self):
        # a = 1 keeps all of SL(2, Z), e.g. the order-4 rotation
        s = parse_matrix("[[0,1],[-1,0]]")
        assert s.e11 + s.e22 == 0
        assert s.pow(2) != UniModularMatrix.identity()
        assert s.pow(4) == UniModularMatrix.identity()


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

    def test_rejects_certificate_for_another_spec(self, cert_table_32):
        # 3/2's Arithmetic certificate says nothing about G(5/2), whose
        # own certificate at the default budget is Inconclusive
        cert, _ = cert_table_32
        spec = MoebiusSpec(5, 2)
        ma, mb = spec.matrices()
        with pytest.raises(ValueError, match="certificate is for 3/2, not 5/2"):
            membership_report(spec, ma * mb, cert)

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

    @pytest.mark.parametrize("a_values,match", [
        ([1, 0], "numerator must be >= 1"),
        ([1, -3], "numerator must be >= 1"),
        ([1, 4], r"gcd\(4, 2\) != 1"),
    ])
    def test_bad_numerator_refused_before_any_work(self, monkeypatch,
                                                   a_values, match):
        import moebius_arith.certifier as certifier
        runs = []
        monkeypatch.setattr(certifier, "certify",
                            lambda *args, **kw: runs.append(args))
        with pytest.raises(ValueError, match=match):
            table_sweep(2, a_values, EnumerationLimits())
        assert runs == []

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

    def test_corrupt_level_word_fails_loudly(self, monkeypatch):
        # a level word that no longer evaluates to its matrix is a bug:
        # gamma_level_words raises, and sweep records the error, never a
        # failed check
        import moebius_arith.certifier as certifier
        real = certifier.a_generator_word

        def corrupt(a, b):
            out = real(a, b)
            return out * word([("t", 1)]) if a == 9 else out

        monkeypatch.setattr(certifier, "a_generator_word", corrupt)
        spec, pres = MoebiusSpec(3, 2), build_presentation(2)
        express_generators(spec, pres)
        with pytest.raises(RuntimeError, match="congruence generator word"):
            gamma_level_words(spec, pres)
        with pytest.raises(RuntimeError, match="congruence generator word"):
            certify(spec)
        certs = table_sweep(2, [1, 3], EnumerationLimits())
        assert certs[0].status == "Arithmetic"
        assert certs[1].status == "Inconclusive"
        assert certs[1].reason.startswith("error: RuntimeError: ")

    # one numerator used to run serially whatever the worker count
    @pytest.mark.parametrize("workers", [0, -1, True, 2.0])
    @pytest.mark.parametrize("a_values", [[1], [1, 3]], ids=["one", "two"])
    def test_workers_below_one_refused(self, workers, a_values):
        with pytest.raises(ValueError, match="workers must be (>= 1|an int)"):
            table_sweep(2, a_values, EnumerationLimits(), workers=workers)

    def test_pool_no_larger_than_the_sweep(self, monkeypatch):
        # a stand-in for the process pool records its size and maps in
        # this process, so no worker process starts
        import concurrent.futures
        opened = []

        class Pool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        certs = table_sweep(3, [1, 2], EnumerationLimits(), workers=64)
        assert opened == [2]
        assert [(c.spec.a, c.status) for c in certs] == \
            [(1, "Arithmetic"), (2, "Arithmetic")]
        # one entry runs here, with no pool at all
        assert table_sweep(3, [1], EnumerationLimits(), workers=64)[0].index == 1
        assert opened == [2]

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
        # a word over a symbol the presentation lacks
        payload["words"]["A"] = "z"
        assert verify_certificate(payload) == (False, [
            "word evaluation failed: no matrix assigned to symbol 'z'"])

    def test_presentation_shared_across_verifies(self, cert_table_32,
                                                  monkeypatch):
        # two verifies over one prime set build one presentation
        import moebius_arith.certifier as certifier
        builds = []

        def build(b):
            builds.append(b)
            return build_presentation(b)

        monkeypatch.setattr(certifier, "_PRESENTATIONS", {})
        monkeypatch.setattr(certifier, "build_presentation", build)
        cert, _ = cert_table_32
        for _ in range(2):
            ok, problems = verify_certificate(cert.to_json_dict())
            assert ok, problems
        assert builds == [2]

    def test_shared_presentation_catches_altered_word(self, cert_table_32):
        # s^2 = -I, so the altered word evaluates to -A(a/b)
        cert, _ = cert_table_32
        assert verify_certificate(cert.to_json_dict())[0]
        payload = cert.to_json_dict()
        payload["words"]["A"] += " s^2"
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems == ["word for A does not evaluate to A(a/b)"]

    def test_shared_presentation_is_read_only(self):
        import moebius_arith.certifier as certifier
        pres = certifier._presentation(2)
        with pytest.raises(TypeError):
            pres.assignment["s"] = pres.assignment["t"]
        with pytest.raises(TypeError):
            del pres.assignment["s"]

    def test_detects_closure_that_is_not_CaxCa(self, cert_table_32,
                                                monkeypatch):
        import moebius_arith.certifier as certifier
        from types import SimpleNamespace
        cert, _ = cert_table_32
        monkeypatch.setattr(
            certifier, "generator_image_closure",
            lambda a, b, n: SimpleNamespace(order=a * a, is_abelian=False,
                                            exponent=a))
        ok, problems = verify_certificate(cert.to_json_dict())
        assert not ok
        assert problems == ["closure mod a^2 is not C_a x C_a"]

    def test_detects_wrong_level(self, cert_table_32):
        cert, _ = cert_table_32
        payload = cert.to_json_dict()
        payload["level"] = 3
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems == ["level 3 != 9"]

    def test_detects_inconclusive_with_wrong_index(self):
        cert = certify(MoebiusSpec(5, 2),
                       EnumerationLimits(max_cosets=50_000))
        assert cert.status == "Inconclusive" and cert.index is None
        payload = cert.to_json_dict()
        payload["index"] = 7
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems == ["inconclusive certificate carries a wrong index"]

    @pytest.mark.parametrize("witness,problem", [
        ("A B", "relator witness does not evaluate to 1"),
        ("A^x", "witness check failed: "),
        ("A B$", "witness check failed: bad generator symbol 'B$'"),
    ])
    def test_checks_witness_of_inconclusive(self, witness, problem):
        # certify records a witness on an Inconclusive certificate when a
        # cross-check fails, so verify checks a witness whatever the status
        payload = certify(MoebiusSpec(1, 2)).to_json_dict()
        payload["status"] = "Inconclusive"
        payload["witness"] = witness
        ok, problems = verify_certificate(payload)
        assert not ok
        assert len(problems) == 1 and problems[0].startswith(problem)

    def test_detects_empty_witness(self, cert_table_32):
        cert, _ = cert_table_32
        payload = cert.to_json_dict()
        payload["witness"] = "1"
        ok, problems = verify_certificate(payload)
        assert not ok
        assert problems == ["empty relator witness"]

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

    def test_rejects_malformed(self, cert_table_32):
        ok, problems = verify_certificate({"status": "Arithmetic"})
        assert not ok
        # certificates whose fields have the wrong JSON type, each of which
        # verified before
        for payload, reason in forged_certificates(cert_table_32[0]):
            assert verify_certificate(payload) == (
                False, [f"malformed certificate: {reason}"])

    def test_unknown_status_is_malformed(self, cert_table_32):
        payload = cert_table_32[0].to_json_dict()
        payload["status"] = "Free"
        assert verify_certificate(payload) == (
            False, ["malformed certificate: bad status 'Free'"])

    def test_failed_cross_check_is_malformed(self, cert_table_32):
        payload = cert_table_32[0].to_json_dict()
        payload["checks"][0]["passed"] = False
        assert verify_certificate(payload) == (False, [
            "malformed certificate: Arithmetic certificate with failed "
            "checks"])
