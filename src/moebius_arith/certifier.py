"""Certification pipeline for Moebius groups G(a/b) inside SL(2, Z[1/b]).

`certify` expresses the parabolic generators A(a/b), B(a/b) as words in the
amalgam presentation of SL(2, Z[1/b]), runs coset enumeration against that
subgroup, and cross-validates a completed run on four independent fronts:

  1. the index must equal a * |SL(2, Z_a)| exactly,
  2. the generator images mod a^2 must close to an abelian group of order
     a^2 and exponent a,
  3. the words for A(am), B(am), B(am)^x (m = a/b), three matrices that lie
     in the level-a^2 principal congruence subgroup, must stabilize coset
     0 of the table,
  4. the generators must surject onto SL(2, Z_p) for primes p away from ab.

With `witness_bound` set, a completed run also searches for a relator in
A and B (`find_relator`), checks one found by exact evaluation and records
it, or records the bound under `resources["witness_not_found_within"]`.

Why the presentation need not be complete.  Let P be the presentation,
H_P the subgroup of P generated by the words for A and B, and H = G(a/b)
its image in SL(2, Z[1/b]).  Every relator evaluates to the identity
(checked at build), and the generators' matrices generate SL(2, Z[1/b]):
Z[1/b] is Euclidean, so elementary matrices generate, and an entry
k/(p^i q^j) splits as alpha/p^i + beta/q^j, so the per-prime generators
suffice.  Then P maps onto SL(2, Z[1/b]), the coset map P/H_P -> SL/H is
onto, and [SL : H] <= [P : H_P] = n.  Check 2 gives [SL : H] >= the
formula.  So a completed table whose index n equals the formula proves
that index.  An n below the formula is a bug for every b.  For
prime-power b the amalgam presents SL(2, Z[1/b]) exactly, so an n above
it is a bug too; for b with two or more distinct primes P may be a proper
cover, and such an n ends Inconclusive with reason
`index_above_formula: <n> > <formula>`.

A certificate with status Arithmetic witnesses finite index, hence
non-freeness of the group.  Overflowed or failed runs yield Inconclusive
certificates that carry no claim whatsoever about infinite index.

Certificates serialize to JSON and are re-checkable offline by
`verify_certificate`, from the certificate content alone (no enumeration).
It recomputes the level a^2 and the index formula (check 1, against the
recorded index), re-evaluates the words for A and B in the presentation
for b's primes (built once per process, its assignment read-only),
recomputes the closure mod a^2 (check 2) and evaluates the relator
witness.  Checks 3 and 4 are not recomputed: check 3 needs the coset
table, which the certificate does not carry, and surjectivity mod p is
only required to be recorded as passed.  Nor is finite index re-proved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .congruence import (
    conjugate_by_x,
    generator_image_closure,
    is_prime,
    level_data,
    member_of_closure,
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
    check_count,
    check_moebius_parameters,
    evaluate_word,
    format_word,
    make_moebius_generators,
    parse_word,
    prime_factors,
    word,
)
from .presentation import Presentation, build_presentation

# the four cross-checks above, in order, by the names certificates record
# them under; an Arithmetic certificate lacking any of them does not verify
ARITHMETIC_CHECKS = (
    "index_formula",
    "closure_mod_level_is_CaxCa",
    "level_subgroup_words_stabilize",
    "surjects_outside_level_primes",
)

# the budgets of a certifier run given none
DEFAULT_LIMITS = EnumerationLimits(time_limit_s=1800.0)


class IndexMismatchError(RuntimeError):
    """Completed enumeration disagreeing with the index formula.

    The index of an S-arithmetic G(a/b) is unconditionally a*|SL(2,Z_a)|,
    and the enumerated index bounds it from above.  So an index below the
    formula is always an implementation bug, never a discovery; one above
    it is a bug only for prime-power b, whose presentation is exact (see
    the module docstring).
    """


@dataclass(frozen=True)
class MoebiusSpec:
    a: int
    b: int

    def __post_init__(self):
        check_moebius_parameters(self.a, self.b)

    def matrices(self) -> tuple[UniModularMatrix, UniModularMatrix]:
        return make_moebius_generators(self.a, self.b)

    def __str__(self) -> str:
        return f"{self.a}/{self.b}"


@dataclass(frozen=True)
class Certificate:
    """What `certify` found, as `verify_certificate` re-reads it.  A field
    of the wrong JSON type raises ValueError: `level`, `expected_index`
    and a non-null `index` are counts (`check_count`), the words and the
    check names strings, each check's result a bool, `witness` and
    `reason` strings or None, and `resources` a dict."""

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
        check_count("level", self.level)
        check_count("expected_index", self.expected_index)
        if self.index is not None:
            check_count("index", self.index)
        if not (isinstance(self.word_a, str) and isinstance(self.word_b, str)):
            raise ValueError("the words for A and B must be strings")
        if not all(isinstance(name, str) and isinstance(ok, bool)
                   for name, ok in self.checks):
            raise ValueError("each check needs a name string and a boolean")
        if not all(isinstance(v, (str, type(None)))
                   for v in (self.witness, self.reason)):
            raise ValueError("witness and reason must be strings or null")
        if not isinstance(self.resources, dict):
            raise ValueError("resources must be an object")
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
            resources=payload["resources"],
            witness=payload.get("witness"),
            reason=payload.get("reason"),
        )


# build_presentation depends on b only through its primes, so each prime
# set is built once per process
_PRESENTATIONS: dict[tuple[int, ...], Presentation] = {}


def _presentation(b: int) -> Presentation:
    key = tuple(prime_factors(b))
    if key not in _PRESENTATIONS:
        _PRESENTATIONS[key] = build_presentation(b)
    return _PRESENTATIONS[key]


# -- words for the generators --------------------------------------------------

def _unit_word(p: int, e: int) -> GroupWord:
    """Word over {s, t, x<p>, y<p>} evaluating to A(1/p^e), for e >= 1.

    Recursion: A(1/p) = y^-1, A(1/p^2) = x t^-1 x^-1, and
    A(1/p^(e+2)) = x s A(1/p^e)-word s^-1 x^-1, all by direct conjugation
    identities for x_p = D s D^-1 with D = diag(1, p).
    """
    xs, ys = f"x{p}", f"y{p}"
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
    if k * b != total - 1:
        raise RuntimeError(f"unit word exponents for b={b} do not sum to 1/b")
    if k:
        # A(-ka) = s t^(ka) s^-1
        out = out * word([("s", 1), ("t", k * a), ("s", -1)])
    return out


def express_generators(spec: MoebiusSpec, pres: Presentation) \
        -> tuple[GroupWord, GroupWord]:
    """Words over pres generators evaluating exactly to A(a/b) and B(a/b):
    the closed form above and its conjugate by s, verified by evaluation;
    a mismatch is a bug and raises RuntimeError."""
    wa = a_generator_word(spec.a, spec.b)
    s_word = word([("s", 1)])
    wb = s_word * wa.inv() * s_word.inv()
    for wrd, expect in zip((wa, wb), spec.matrices()):
        if evaluate_word(wrd, pres.assignment) != expect:
            raise RuntimeError("generator word mismatch")
    return wa, wb


def gamma_level_words(spec: MoebiusSpec, pres: Presentation) \
        -> list[tuple[str, GroupWord]]:
    """Words for A(am), B(am), B(am)^x, m = a/b, verified by evaluation;
    a mismatch is a bug and raises RuntimeError.

    The three matrices lie in the level-a^2 principal congruence subgroup;
    that they generate it is not claimed."""
    # A(am) = A(a^2/b) and B(am) are the generators of G(a^2/b)
    spec_am = MoebiusSpec(spec.a * spec.a, spec.b)
    try:
        wa2, wb2 = express_generators(spec_am, pres)
    except RuntimeError as exc:
        raise RuntimeError("congruence generator word mismatch") from exc
    # B^x with x = [[-1,1],[0,1]] = diag(-1,1) * A(-1): the diagonal part
    # inverts a lower unitriangular, so B^x = A(-1)^-1 B^-1 A(-1)
    u_word = word([("s", 1), ("t", 1), ("s", -1)])      # evaluates to A(-1)
    wbx = u_word.inv() * wb2.inv() * u_word
    if evaluate_word(wbx, pres.assignment) != \
            conjugate_by_x(spec_am.matrices()[1]):
        raise RuntimeError("congruence generator word mismatch")
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
            limits: EnumerationLimits = DEFAULT_LIMITS, *,
            witness_bound: Optional[int] = None,
            progress=None) -> Certificate:
    return certify_with_table(spec, limits, witness_bound=witness_bound,
                              progress=progress)[0]


def certify_with_table(spec: MoebiusSpec,
                       limits: EnumerationLimits = DEFAULT_LIMITS, *,
                       witness_bound: Optional[int] = None,
                       progress=None) -> tuple[Certificate, Optional[CosetTable]]:
    """Full pipeline; also returns the coset table of a completed run.
    `witness_bound` None searches for no relator witness, else for one of
    at most that total exponent; unless it is an int >= 1 (a bool is not),
    it raises ValueError before enumerating."""
    if witness_bound is not None:
        check_count("witness_bound", witness_bound)
    t0 = time.monotonic()
    a, b = spec.a, spec.b
    ld = level_data(a, b)
    pres = _presentation(b)
    wa, wb = express_generators(spec, pres)
    outcome = todd_coxeter(pres, [wa, wb], limits, progress=progress)
    resources = _resources(t0, limits, outcome)
    wa_s, wb_s = format_word(wa), format_word(wb)
    if not outcome.completed:
        return (_inconclusive(spec, ld, wa_s, wb_s, resources,
                              reason=outcome.reason), None)

    table = outcome.table
    if outcome.index != ld.expected_index:
        if outcome.index > ld.expected_index and len(prime_factors(b)) > 1:
            # P may be a proper cover of SL(2, Z[1/b]), and then the index
            # only bounds [SL : H] from above (see the module docstring)
            return (_inconclusive(
                spec, ld, wa_s, wb_s, resources,
                reason=f"index_above_formula: {outcome.index} > "
                       f"{ld.expected_index}"), None)
        raise IndexMismatchError(
            f"enumeration for {spec} completed with index {outcome.index}, "
            f"but the unconditional formula gives {ld.expected_index}; "
            f"resources={resources}")

    checks = list(zip(ARITHMETIC_CHECKS, (
        True,
        _closure_is_CaxCa(a, b),
        all(word_stabilizes_one(table, w)
            for _, w in gamma_level_words(spec, pres)),
        all(surjects_mod_p(a, b, q)
            for q in _first_primes_coprime_to(a * b, 3)),
    )))

    witness_s = None
    if witness_bound is not None:
        left = None   # the time limit also bounds the labelled fallback
        if limits.time_limit_s is not None:
            left = limits.time_limit_s - (time.monotonic() - t0)
        wit = find_relator(pres, wa, wb, table, bound=witness_bound,
                           time_limit_s=left)
        if wit is None:
            resources["witness_not_found_within"] = witness_bound
        else:
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


def _closure_is_CaxCa(a: int, b: int) -> bool:
    """Check 2: the generator images mod a^2 close to C_a x C_a."""
    if a == 1:
        return True
    img = generator_image_closure(a, b, a * a)
    return img.order == a * a and img.is_abelian and img.exponent == a


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
VERDICT_NOT_IN_CLOSURE = "NotInClosure"
VERDICT_UNKNOWN = "Unknown"


def check_ambient_matrix(spec: MoebiusSpec, g: UniModularMatrix) -> None:
    """Raise ValueError unless g lies in SL(2, Z[1/b]), the group that
    G(a/b) is a subgroup of."""
    if not set(g.denominator_primes()) <= set(prime_factors(spec.b)):
        raise ValueError(
            f"matrix is not in SL(2, Z[1/{spec.b}]): denominators {g}")


def membership_report(spec: MoebiusSpec, g: UniModularMatrix,
                      cert: Certificate,
                      table: Optional[CosetTable] = None,
                      pres: Optional[Presentation] = None) -> str:
    """Membership verdict for g relative to G(a/b) under a certificate
    for that spec; a certificate for another spec raises ValueError.

    NotInClosure is always conclusive (g is not even in the arithmetic
    closure, hence not in G).  With an Arithmetic certificate G is its
    closure, so the closure test decides and success is InG.  Without
    arithmeticity a passing closure test proves nothing: Unknown.  The
    closure test needs neither `table` nor `pres`; both are accepted so
    that callers holding them can pass them along, and are not used.
    """
    if cert.spec != spec:
        raise ValueError(f"certificate is for {cert.spec}, not {spec}")
    check_ambient_matrix(spec, g)
    if not member_of_closure(g, spec.a, spec.b):
        return VERDICT_NOT_IN_CLOSURE
    if cert.status != "Arithmetic":
        return VERDICT_UNKNOWN
    return VERDICT_IN


# -- sweeps --------------------------------------------------------------------

def _sweep_entry(args) -> Certificate:
    spec, limits = args
    try:
        return certify(spec, limits)
    except Exception as exc:                      # recorded, never raised
        # "error:" keeps faults such as IndexMismatchError apart from the
        # budget reasons "max_cosets" and "time_limit"
        ld = level_data(spec.a, spec.b)
        return _inconclusive(spec, ld, "", "",
                             _resources(time.monotonic(), limits),
                             reason=f"error: {type(exc).__name__}: {exc}")


def table_sweep(b: int, a_values: Iterable[int],
                limits: EnumerationLimits = DEFAULT_LIMITS,
                workers: int = 1) -> list[Certificate]:
    """One certificate per numerator, in input order; an entry that raises
    is recorded as an Inconclusive certificate whose reason starts with
    "error:", never raised.  Raises ValueError, before any work, unless
    `workers` is an int >= 1 and every numerator is valid.  At most one
    worker process runs per entry."""
    check_count("workers", workers)
    todo = [(MoebiusSpec(a, b), limits) for a in a_values]
    workers = min(workers, len(todo))
    if workers <= 1:
        return [_sweep_entry(t) for t in todo]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_entry, todo))


# -- offline verification --------------------------------------------------------

def verify_certificate(payload) -> tuple[bool, list[str]]:
    """Re-check a certificate from its JSON content alone.

    Re-evaluates the generator words against the presentation `certify`
    uses for b's primes (built once per process, with a read-only
    assignment), recomputes the index formula and the mod-a^2 closure
    structure, and validates the relator witness by exact evaluation.  No
    enumeration is re-run.  An Inconclusive certificate claims no index, so
    it only gets the structural checks and, if it records one, the witness
    check.

    Finite index is not re-proved.  An Arithmetic certificate's index is
    compared with the formula a*|SL(2, Z_a)|, but the certificate carries
    no coset table or other proof, so a valid result means the recorded
    claims are consistent, not that the index was shown again.
    """
    problems: list[str] = []
    try:
        cert = (payload if isinstance(payload, Certificate)
                else Certificate.from_json_dict(payload))
    except Exception as exc:
        return False, [f"malformed certificate: {exc}"]
    a, b = cert.spec.a, cert.spec.b
    ld = level_data(a, b)
    mats = dict(zip("AB", cert.spec.matrices()))
    if cert.level != ld.level:
        problems.append(f"level {cert.level} != {ld.level}")
    expected = ld.expected_index
    if cert.expected_index != expected:
        problems.append(f"expected_index {cert.expected_index} != {expected}")
    if cert.status == "Inconclusive":
        if cert.index is not None and cert.index != expected:
            problems.append("inconclusive certificate carries a wrong index")
    else:   # the claims of an Arithmetic certificate
        if cert.index != expected:
            problems.append(f"index {cert.index} != {expected}")
        recorded = {name for name, _ in cert.checks}
        missing = [name for name in ARITHMETIC_CHECKS if name not in recorded]
        if missing:
            problems.append("certificate lacks the cross-checks "
                            + ", ".join(missing))
        try:
            pres = _presentation(b)
            for sym, text in (("A", cert.word_a), ("B", cert.word_b)):
                if evaluate_word(parse_word(text), pres.assignment) != mats[sym]:
                    problems.append(f"word for {sym} does not evaluate to "
                                    f"{sym}(a/b)")
        except Exception as exc:
            problems.append(f"word evaluation failed: {exc}")
        if not _closure_is_CaxCa(a, b):
            problems.append("closure mod a^2 is not C_a x C_a")
    if cert.witness is not None:
        try:
            wit = parse_word(cert.witness)
            if wit.is_empty():
                problems.append("empty relator witness")
            elif not evaluate_word(wit, mats).is_identity():
                problems.append("relator witness does not evaluate to 1")
        except Exception as exc:
            problems.append(f"witness check failed: {exc}")
    return (not problems), problems
