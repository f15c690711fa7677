"""Certification pipeline for Moebius groups G(a/b) inside SL(2, Z[1/b]).

`certify` expresses the parabolic generators A(a/b), B(a/b) as words in the
amalgam presentation of SL(2, Z[1/b]), runs coset enumeration against that
subgroup, and cross-validates a completed run on four independent fronts:

  1. the index must equal a * |SL(2, Z_a)| exactly,
  2. the generator images mod a^2 must close to an abelian group of order
     a^2 and exponent a,
  3. the three words generating the level-a^2 congruence subgroup must
     stabilize coset 0 of the table,
  4. the generators must surject onto SL(2, Z_p) for primes p away from ab.

A certificate with status Arithmetic witnesses finite index, hence
non-freeness of the group.  Overflowed or failed runs yield Inconclusive
certificates that carry no claim whatsoever about infinite index.

Certificates serialize to JSON and are re-checkable offline by
`verify_certificate`, which recomputes every arithmetic claim from the
certificate content alone (no enumeration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .congruence import (
    conjugate_by_x,
    generator_image_closure,
    is_prime,
    level_data,
    member_of_closure,
    sl2_order,
    surjects_mod_p,
)
from .coset_enum import (
    CosetTable,
    EnumerationLimits,
    find_relator,
    todd_coxeter,
    word_stabilizes_one,
)
from .exact import (
    GroupWord,
    UniModularMatrix,
    evaluate_word,
    format_word,
    make_moebius_generators,
    parse_word,
    prime_factors,
    word,
)
from .presentation import Presentation, build_presentation

# the four cross-checks above, by the names certificates record them under;
# an Arithmetic certificate lacking any of them does not verify
ARITHMETIC_CHECKS = (
    "index_formula",
    "closure_mod_level_is_CaxCa",
    "level_subgroup_words_stabilize",
    "surjects_outside_level_primes",
)


class WordSearchError(RuntimeError):
    """No word for the target matrix was found within the length bound."""


class IndexMismatchError(RuntimeError):
    """Completed enumeration disagreeing with the index formula.

    The index of an S-arithmetic G(a/b) is unconditionally a*|SL(2,Z_a)|,
    so a mismatch is an implementation bug, never a discovery.
    """


@dataclass(frozen=True)
class MoebiusSpec:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b <= 1 or gcd(self.a, self.b) != 1:
            raise ValueError(f"invalid Moebius parameters ({self.a}, {self.b})")

    def matrices(self) -> tuple[UniModularMatrix, UniModularMatrix]:
        return make_moebius_generators(self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


@dataclass(frozen=True)
class Certificate:
    spec: MoebiusSpec
    status: str                          # "Arithmetic" | "Inconclusive"
    level: int
    expected_index: int
    index: Optional[int]
    word_a: str
    word_b: str
    checks: tuple[tuple[str, bool], ...]
    resources: dict
    witness: Optional[str] = None
    reason: Optional[str] = None

    def __post_init__(self):
        if self.status not in ("Arithmetic", "Inconclusive"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "Arithmetic":
            if self.index != self.expected_index:
                raise ValueError("Arithmetic certificate with wrong index")
            if not all(ok for _, ok in self.checks):
                raise ValueError("Arithmetic certificate with failed checks")

    @property
    def not_free(self) -> bool:
        """An Arithmetic certificate implies the group is not free."""
        return self.status == "Arithmetic"

    def to_json_dict(self) -> dict:
        return {
            "spec": {"a": self.spec.a, "b": self.spec.b},
            "status": self.status,
            "index": self.index,
            "level": self.level,
            "expected_index": self.expected_index,
            "words": {"A": self.word_a, "B": self.word_b},
            "witness": self.witness,
            "checks": [{"name": n, "passed": ok} for n, ok in self.checks],
            "resources": self.resources,
            "reason": self.reason,
        }

    @staticmethod
    def from_json_dict(payload: dict) -> "Certificate":
        return Certificate(
            spec=MoebiusSpec(payload["spec"]["a"], payload["spec"]["b"]),
            status=payload["status"],
            level=payload["level"],
            expected_index=payload["expected_index"],
            index=payload["index"],
            word_a=payload["words"]["A"],
            word_b=payload["words"]["B"],
            checks=tuple((c["name"], c["passed"]) for c in payload["checks"]),
            resources=dict(payload["resources"]),
            witness=payload.get("witness"),
            reason=payload.get("reason"),
        )


# -- words for the generators --------------------------------------------------

def _unit_word(p: int, e: int) -> GroupWord:
    """Word over {s, t, x<p>, y<p>} evaluating to A(1/p^e).

    Recursion: A(1) = s t^-1 s^-1, A(1/p) = y^-1, A(1/p^2) = x t^-1 x^-1,
    and A(1/p^(e+2)) = x s A(1/p^e)-word s^-1 x^-1, all by direct
    conjugation identities for x_p = D s D^-1 with D = diag(1, p).
    """
    xs, ys = f"x{p}", f"y{p}"
    if e == 0:
        return word([("s", 1), ("t", -1), ("s", -1)])
    if e == 1:
        return word([(ys, -1)])
    if e == 2:
        return word([(xs, 1), ("t", -1), (xs, -1)])
    inner = _unit_word(p, e - 2)
    return word([(xs, 1), ("s", 1)]) * inner * word([("s", -1), (xs, -1)])


def a_generator_word(a: int, b: int) -> GroupWord:
    """Word over the presentation generators evaluating to A(a/b).

    Splits a/b into partial fractions a/b = -K + sum_p c_p / p^e_p over the
    prime powers of b, each summand handled by the unit-word recursion;
    upper unitriangular factors commute, so concatenation in any order
    works.  For prime b this reduces to y^-a.
    """
    factors: dict[int, int] = {}
    bb = b
    for p in prime_factors(b):
        e = 0
        while bb % p == 0:
            bb //= p
            e += 1
        factors[p] = e
    total = 0
    out = GroupWord()
    for p, e in factors.items():
        m = p ** e
        c = pow(b // m, -1, m)
        out = out * _unit_word(p, e) ** (a * c)
        total += c * (b // m)
    # sum_p c_p/p^e = (1 + k b)/b, so subtract the integer excess k
    k = (total - 1) // b
    assert k * b == total - 1
    if k:
        # A(-ka) = s t^(ka) s^-1
        out = out * word([("s", 1), ("t", k * a), ("s", -1)])
    return out


def express_generators(spec: MoebiusSpec, pres: Presentation,
                       max_len: int = 14) -> tuple[GroupWord, GroupWord]:
    """Words over pres generators evaluating exactly to A(a/b) and B(a/b).

    The closed form above always succeeds for the presentations built here
    (it is verified by evaluation before returning).  `max_len` bounds the
    bidirectional word search kept as a fallback for foreign assignments.
    """
    mat_a, mat_b = spec.matrices()
    wa = a_generator_word(spec.a, spec.b)
    if evaluate_word(wa, pres.assignment) != mat_a:
        wa = matrix_word_search(pres, mat_a, max_len)
    s_word = word([("s", 1)])
    wb = s_word * wa.inv() * s_word.inv()
    assert evaluate_word(wa, pres.assignment) == mat_a
    if evaluate_word(wb, pres.assignment) != mat_b:
        wb = matrix_word_search(pres, mat_b, max_len)
        assert evaluate_word(wb, pres.assignment) == mat_b
    return wa, wb


def matrix_word_search(pres: Presentation, target: UniModularMatrix,
                       max_len: int = 12,
                       state_cap: int = 250_000) -> GroupWord:
    """Bidirectional breadth-first search for a word evaluating to target.

    Words are built letter by letter over all generators and inverses;
    the forward ball is met by suffixes of the remaining length.  Raises
    WordSearchError when nothing is found within max_len letters.
    """
    if target == UniModularMatrix.identity():
        return GroupWord()
    steps = []
    for sym in pres.generators:
        m = pres.assignment[sym]
        steps.append((sym, 1, m))
        steps.append((sym, -1, m.inv()))
    half = max(1, max_len // 2)
    forward: dict[UniModularMatrix, GroupWord] = {
        UniModularMatrix.identity(): GroupWord()}
    frontier = [(UniModularMatrix.identity(), GroupWord())]
    for _ in range(half):
        nxt = []
        for mat, wrd in frontier:
            for sym, exp, step in steps:
                if wrd.syllables and wrd.syllables[-1] == (sym, -exp):
                    continue
                nmat = mat * step
                if nmat in forward:
                    continue
                nwrd = wrd * word([(sym, exp)])
                if nmat == target:
                    return nwrd
                forward[nmat] = nwrd
                nxt.append((nmat, nwrd))
                if len(forward) > state_cap:
                    raise WordSearchError(
                        f"word search exceeded {state_cap} states")
        frontier = nxt
    # backward half: suffix v with target * v^-1 in the forward ball
    back_frontier = [(UniModularMatrix.identity(), GroupWord())]
    seen_back = {UniModularMatrix.identity()}
    for _ in range(max_len - half):
        nxt = []
        for mat, wrd in back_frontier:
            for sym, exp, step in steps:
                if wrd.syllables and wrd.syllables[0] == (sym, -exp):
                    continue
                nmat = step * mat                 # prefix letters of the suffix
                if nmat in seen_back:
                    continue
                seen_back.add(nmat)
                nwrd = word([(sym, exp)]) * wrd
                hit = forward.get(target * nmat.inv())
                if hit is not None:
                    result = hit * nwrd
                    if evaluate_word(result, pres.assignment) == target:
                        return result
                nxt.append((nmat, nwrd))
                if len(seen_back) > state_cap:
                    raise WordSearchError(
                        f"word search exceeded {state_cap} states")
        back_frontier = nxt
    raise WordSearchError(f"no word of length <= {max_len} for {target}")


def gamma_level_words(spec: MoebiusSpec, pres: Presentation) \
        -> list[tuple[str, GroupWord]]:
    """Words for the three generators A(am), B(am), B(am)^x of the level-a^2
    congruence subgroup, m = a/b, verified by evaluation."""
    a, b = spec.a, spec.b
    mat_a, mat_b = spec.matrices()
    # A(a*m) = A(a^2/b); exponent scaling keeps this short
    wa2 = a_generator_word(a * a, b)
    s_word = word([("s", 1)])
    wb2 = s_word * wa2.inv() * s_word.inv()
    # B^x with x = [[-1,1],[0,1]] = diag(-1,1) * A(-1): the diagonal part
    # inverts a lower unitriangular, so B^x = A(-1)^-1 B^-1 A(-1)
    u_word = word([("s", 1), ("t", 1), ("s", -1)])      # evaluates to A(-1)
    wbx = u_word.inv() * wb2.inv() * u_word
    expect_a2 = mat_a.pow(a)
    expect_b2 = mat_b.pow(a)
    expect_bx = conjugate_by_x(expect_b2)
    for wrd, expect in ((wa2, expect_a2), (wb2, expect_b2), (wbx, expect_bx)):
        if evaluate_word(wrd, pres.assignment) != expect:
            raise AssertionError("congruence generator word mismatch")
    return [("A(am)", wa2), ("B(am)", wb2), ("B(am)^x", wbx)]


# -- certification -------------------------------------------------------------

def _first_primes_coprime_to(n: int, count: int) -> list[int]:
    out = []
    q = 2
    while len(out) < count:
        if is_prime(q) and n % q != 0:
            out.append(q)
        q += 1
    return out


def certify(spec: MoebiusSpec,
            limits: Optional[EnumerationLimits] = None,
            find_witness: bool = False,
            witness_bound: int = 300,
            progress=None) -> Certificate:
    cert, _table = certify_with_table(spec, limits, find_witness,
                                      witness_bound, progress)
    return cert


def certify_with_table(spec: MoebiusSpec,
                       limits: Optional[EnumerationLimits] = None,
                       find_witness: bool = False,
                       witness_bound: int = 300,
                       progress=None) -> tuple[Certificate, Optional[CosetTable]]:
    """Full pipeline; also returns the coset table of a completed run."""
    if limits is None:
        limits = EnumerationLimits(time_limit_s=1800.0)
    t0 = time.monotonic()
    a, b = spec.a, spec.b
    ld = level_data(a, b)
    pres = build_presentation(b)
    try:
        wa, wb = express_generators(spec, pres)
    except WordSearchError as exc:
        return (_inconclusive(spec, ld, "", "", _resources(t0, limits),
                              reason=f"word search failed: {exc}"), None)
    outcome = todd_coxeter(pres, [wa, wb], limits, progress=progress)
    resources = _resources(t0, limits, outcome)
    wa_s, wb_s = format_word(wa), format_word(wb)
    if not outcome.completed:
        return (_inconclusive(spec, ld, wa_s, wb_s, resources,
                              reason=outcome.reason), None)

    table = outcome.table
    if outcome.index != ld.expected_index:
        raise IndexMismatchError(
            f"enumeration for {spec} completed with index {outcome.index}, "
            f"but the unconditional formula gives {ld.expected_index}; "
            f"resources={resources}")

    checks: list[tuple[str, bool]] = [("index_formula", True)]

    if a > 1:
        img = generator_image_closure(a, b, a * a)
        ok = (img.order == a * a and img.is_abelian and img.exponent == a)
    else:
        ok = True
    checks.append(("closure_mod_level_is_CaxCa", ok))

    try:
        words3 = gamma_level_words(spec, pres)
        ok = all(word_stabilizes_one(table, w) for _, w in words3)
    except AssertionError:
        ok = False
    checks.append(("level_subgroup_words_stabilize", ok))

    ok = all(surjects_mod_p(a, b, q)
             for q in _first_primes_coprime_to(a * b, 3))
    checks.append(("surjects_outside_level_primes", ok))

    witness_s = None
    if find_witness:
        wit = find_relator(pres, wa, wb, table, bound=witness_bound)
        if wit is not None:
            mat_a, mat_b = spec.matrices()
            valid = evaluate_word(wit, {"A": mat_a, "B": mat_b}).is_identity()
            checks.append(("relator_witness_validates", valid))
            witness_s = format_word(wit)

    status = "Arithmetic" if all(ok for _, ok in checks) else "Inconclusive"
    resources["wall_time_s"] = round(time.monotonic() - t0, 3)
    cert = Certificate(
        spec=spec, status=status, level=ld.level,
        expected_index=ld.expected_index,
        index=outcome.index, word_a=wa_s, word_b=wb_s,
        checks=tuple(checks), resources=resources, witness=witness_s,
        reason=None if status == "Arithmetic" else "cross-check failed")
    return cert, table


def _resources(t0, limits, outcome=None) -> dict:
    """Certificate resources; without an outcome, no enumeration ran."""
    out = {
        "peak_cosets": outcome.peak_cosets if outcome else 0,
        "defined_cosets": outcome.defined_total if outcome else 0,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "strategy": limits.strategy,
        "max_cosets": limits.max_cosets,
    }
    if outcome is not None:
        out["engine"] = outcome.engine
    return out


def _inconclusive(spec, ld, wa_s, wb_s, resources, reason) -> Certificate:
    return Certificate(
        spec=spec, status="Inconclusive", level=ld.level,
        expected_index=ld.expected_index, index=None,
        word_a=wa_s, word_b=wb_s, checks=(), witness=None,
        resources=resources, reason=reason)


# -- membership ---------------------------------------------------------------

VERDICT_IN = "InG"
VERDICT_NOT_IN = "NotInG"
VERDICT_NOT_IN_CLOSURE = "NotInClosure"
VERDICT_UNKNOWN = "Unknown"


def membership_report(spec: MoebiusSpec, g: UniModularMatrix,
                      cert: Certificate,
                      table: Optional[CosetTable] = None,
                      pres: Optional[Presentation] = None,
                      search_len: int = 10) -> str:
    """Membership verdict for g relative to G(a/b) under a certificate.

    NotInClosure is always conclusive (g is not even in the arithmetic
    closure, hence not in G).  With an Arithmetic certificate the closure
    test is decisive, so success upgrades to InG; a coset table, when
    supplied, corroborates via the word test.  Without arithmeticity a
    passing closure test proves nothing: Unknown.
    """
    if not set(g.denominator_primes()) <= set(prime_factors(spec.b)):
        raise ValueError(
            f"matrix is not in SL(2, Z[1/{spec.b}]): denominators {g}")
    if not member_of_closure(g, spec.a, spec.b):
        return VERDICT_NOT_IN_CLOSURE
    if cert.status != "Arithmetic":
        return VERDICT_UNKNOWN
    if table is not None and pres is not None:
        try:
            wrd = matrix_word_search(pres, g, max_len=search_len)
        except WordSearchError:
            return VERDICT_IN
        return VERDICT_IN if word_stabilizes_one(table, wrd) else VERDICT_NOT_IN
    return VERDICT_IN


# -- sweeps --------------------------------------------------------------------

def _sweep_entry(args) -> Certificate:
    a, b, limits, find_witness = args
    spec = MoebiusSpec(a, b)
    try:
        return certify(spec, limits, find_witness=find_witness)
    except Exception as exc:                      # recorded, never raised
        # "error:" keeps faults such as IndexMismatchError apart from the
        # budget reasons "max_cosets" and "time_limit"
        ld = level_data(a, b)
        return _inconclusive(spec, ld, "", "",
                             _resources(time.monotonic(), limits),
                             reason=f"error: {type(exc).__name__}: {exc}")


def table_sweep(b: int, a_values: Iterable[int],
                limits: Optional[EnumerationLimits] = None,
                workers: int = 1,
                find_witness: bool = False) -> list[Certificate]:
    """One certificate per numerator, in input order; an entry that raises
    is recorded as an Inconclusive certificate whose reason starts with
    "error:", never raised."""
    if limits is None:
        limits = EnumerationLimits(time_limit_s=1800.0)
    todo = [(a, b, limits, find_witness) for a in a_values]
    for a, _, _, _ in todo:
        if gcd(a, b) != 1:
            raise ValueError(f"numerator {a} is not coprime to {b}")
    if workers == 1 or len(todo) <= 1:
        return [_sweep_entry(t) for t in todo]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_entry, todo))


# -- offline verification --------------------------------------------------------

def verify_certificate(payload) -> tuple[bool, list[str]]:
    """Re-check a certificate from its JSON content alone.

    Re-evaluates the generator words against a freshly built presentation,
    recomputes the index formula and the mod-a^2 closure structure, and
    validates the relator witness by exact evaluation.  No enumeration is
    re-run; an Inconclusive certificate carries no claim and only gets a
    structural check.
    """
    problems: list[str] = []
    try:
        cert = (payload if isinstance(payload, Certificate)
                else Certificate.from_json_dict(payload))
    except Exception as exc:
        return False, [f"malformed certificate: {exc}"]
    a, b = cert.spec.a, cert.spec.b
    if cert.level != a * a:
        problems.append(f"level {cert.level} != {a * a}")
    expected = a * sl2_order(a)
    if cert.expected_index != expected:
        problems.append(f"expected_index {cert.expected_index} != {expected}")
    if cert.status == "Inconclusive":
        if cert.index is not None and cert.index != expected:
            problems.append("inconclusive certificate carries a wrong index")
        return (not problems), problems

    # Arithmetic claims
    if cert.index != expected:
        problems.append(f"index {cert.index} != {expected}")
    if not all(ok for _, ok in cert.checks):
        problems.append("certificate records a failed cross-check")
    recorded = {name for name, _ in cert.checks}
    missing = [name for name in ARITHMETIC_CHECKS if name not in recorded]
    if missing:
        problems.append(f"certificate lacks the cross-checks {', '.join(missing)}")
    try:
        pres = build_presentation(b)
        mat_a, mat_b = cert.spec.matrices()
        if evaluate_word(parse_word(cert.word_a), pres.assignment) != mat_a:
            problems.append("word for A does not evaluate to A(a/b)")
        if evaluate_word(parse_word(cert.word_b), pres.assignment) != mat_b:
            problems.append("word for B does not evaluate to B(a/b)")
    except Exception as exc:
        problems.append(f"word evaluation failed: {exc}")
    if a > 1:
        img = generator_image_closure(a, b, a * a)
        if not (img.order == a * a and img.is_abelian and img.exponent == a):
            problems.append("closure mod a^2 is not C_a x C_a")
    if cert.witness is not None:
        try:
            wit = parse_word(cert.witness)
            mat_a, mat_b = cert.spec.matrices()
            if wit.is_empty():
                problems.append("empty relator witness")
            elif not evaluate_word(wit, {"A": mat_a, "B": mat_b}).is_identity():
                problems.append("relator witness does not evaluate to 1")
        except Exception as exc:
            problems.append(f"witness check failed: {exc}")
    return (not problems), problems
