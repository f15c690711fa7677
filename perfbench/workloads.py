"""Workloads of the certifier benchmark.

Each workload is made from a seed: `prepare` builds its inputs through the
package's public API and returns the operations of one pass.  An operation
calls one public function and checks its result with this file's own
arithmetic (the index formula, exact 2x2 products over Q), never with the
code under test.

Why these workloads:
  hlt_certify      certify at the default strategy and budget; the
                   enumerator's scan-and-fill path does ~92 % of the work.
  felsch_certify   the same specs under Felsch, which drives coset_enum
                   through its deduction stack instead.
  budget_edge      certify runs that finish only through the table-full
                   lookahead recovery, a scaled-down stand-in for 9/5 and
                   11/7 at the 10^7 edge.
  offline_queries  verify, membership and relator search on prepared
                   certificates: exact, congruence and the certifier's
                   word search work, the enumerator almost never does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Optional

# The prime-power specs that certify at the default budget in seconds.
# Multi-prime b is left out: its presentations are incomplete and the runs
# overflow by design.
CERTIFY_SPECS = ((3, 2), (4, 3), (4, 5), (5, 3), (5, 4), (5, 7), (5, 8),
                 (5, 9), (7, 5), (7, 9), (7, 4))
# (a, b, max_cosets): budgets far below the unconstrained peaks (436,915
# for 7/4, 27,309 for 5/3) at which both still certify; each run must fill
# its table, or the workload no longer times the recovery path.
BUDGET_EDGE = ((7, 4, 120_000), (5, 3, 12_000))
RELATOR_SPECS = ((1, 2), (1, 3), (2, 3))
RELATOR_BOUND = 40
MEMBER_SPECS = ((3, 2), (4, 3), (5, 4), (5, 9))
MEMBERS_IN_G = 1          # per spec and pass
MEMBERS_OUTSIDE = 2       # per spec and pass
DEFAULT_MAX_COSETS = 10_000_000
# far above the slowest operation (~8 s), far below the run's time limit
OP_TIME_LIMIT_S = 60.0

WORKLOADS = ("hlt_certify", "felsch_certify", "budget_edge", "offline_queries")

IN_G = "InG"
NOT_IN_CLOSURE = "NotInClosure"


# -- independent arithmetic ----------------------------------------------------

def prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def formula_index(a: int) -> int:
    """a * |SL(2, Z_a)| = a^4 * prod_{p | a} (1 - p^-2)."""
    r = a ** 4
    for p in prime_divisors(a):
        r = r // (p * p) * (p * p - 1)
    return r


Mat = tuple[Fraction, Fraction, Fraction, Fraction]
IDENTITY: Mat = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mat_mul(x: Mat, y: Mat) -> Mat:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def ab_word_matrix(syllables, m: Fraction) -> Mat:
    """Exact value of a word in A = [[1,m],[0,1]] and B = [[1,0],[m,1]],
    using A^k = [[1,km],[0,1]] and B^k = [[1,0],[km,1]]."""
    out = IDENTITY
    one, zero = Fraction(1), Fraction(0)
    for sym, k in syllables:
        if sym == "A":
            step = (one, k * m, zero, one)
        elif sym == "B":
            step = (one, zero, k * m, one)
        else:
            raise ValueError(f"symbol {sym!r} is neither A nor B")
        out = mat_mul(out, step)
    return out


def random_ab_word(rng: random.Random) -> list[tuple[str, int]]:
    """Four alternating syllables with exponents of size 2 or 3; such words
    are too long for membership's bounded word search to shorten, so each
    query costs about the same."""
    first, second = rng.choice((("A", "B"), ("B", "A")))
    return [(first if i % 2 == 0 else second, rng.choice((-3, -2, 2, 3)))
            for i in range(4)]


def random_outside(rng: random.Random, a: int) -> Mat:
    """An integral matrix of determinant 1 that is not the identity mod a.

    Every element of the closure of G(a/b) is the identity mod a (the
    generators are, and so is the level-a^2 congruence subgroup), so any
    product w * h with w in G and h such a matrix is NotInClosure.
    """
    s = (Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
    while True:
        h = IDENTITY
        for _ in range(3):
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            h = mat_mul(mat_mul(h, s), (Fraction(1), Fraction(0), Fraction(k), Fraction(1)))
        if any((e - d) % a for e, d in zip(h, IDENTITY)):
            return h


# -- operations ------------------------------------------------------------------

@dataclass
class Op:
    """One call into the package and the check of its result.

    `check(result, row)` records result fields in `row` and returns None
    when the result is right, else what is wrong with it.
    """

    kind: str
    spec: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], Optional[str]]
    fields: dict = field(default_factory=dict)

    def execute(self) -> dict:
        row = {"op": self.kind, "spec": self.spec, **self.fields}
        t0 = perf_counter()
        try:
            result = self.call()
            row["seconds"] = perf_counter() - t0
            problem = self.check(result, row)
        except Exception as exc:        # counted as a failure, never skipped
            row.setdefault("seconds", perf_counter() - t0)
            problem = f"{type(exc).__name__}: {exc}"
        row["ok"] = problem is None
        if problem is not None:
            row["problem"] = problem
        return row


def check_certificate(cert, row: dict, a: int,
                      must_fill: bool = False) -> Optional[str]:
    """With `must_fill`, the run must also have filled its table (peak at
    the budget), so that it finished through the lookahead recovery."""
    res = cert.resources
    row.update(status=cert.status, index=cert.index,
               defined=res["defined_cosets"], peak=res["peak_cosets"])
    if cert.status != "Arithmetic":
        return f"status {cert.status} ({cert.reason})"
    if cert.index != formula_index(a):
        return f"index {cert.index} != {formula_index(a)}"
    if must_fill:
        row["filled"] = res["peak_cosets"] >= res["max_cosets"]
        if not row["filled"]:
            return (f"peak {res['peak_cosets']} below the budget "
                    f"{res['max_cosets']}: the table never filled, so the "
                    f"recovery path did not run; choose a smaller budget")
    return None


def certify_op(pkg, a: int, b: int, strategy: str, max_cosets: int,
               must_fill: bool = False) -> Op:
    limits = pkg.EnumerationLimits(max_cosets=max_cosets, strategy=strategy,
                                   time_limit_s=OP_TIME_LIMIT_S)
    spec = pkg.MoebiusSpec(a, b)
    return Op("certify", f"{a}/{b}", lambda: pkg.certify(spec, limits),
              lambda cert, row: check_certificate(cert, row, a, must_fill),
              {"strategy": strategy, "max_cosets": max_cosets})


def verify_op(pkg, spec: str, payload: dict) -> Op:
    def check(result, row):
        ok, problems = result
        return None if ok and not problems else f"rejected: {problems}"
    return Op("verify", spec, lambda: pkg.verify_certificate(payload), check)


def member_op(pkg, prepared: dict, g: Mat, expected: str) -> Op:
    spec = prepared["spec"]
    matrix = pkg.UniModularMatrix(*g)

    def check(verdict, row):
        row["verdict"] = verdict
        return None if verdict == expected else f"verdict {verdict}, expected {expected}"
    return Op("member", str(spec),
              lambda: pkg.membership_report(spec, matrix, prepared["cert"],
                                            prepared["table"], prepared["pres"]),
              check, {"expected": expected})


def relator_op(pkg, prepared: dict) -> Op:
    spec = prepared["spec"]
    m = Fraction(spec.a, spec.b)

    def check(witness, row):
        if witness is None:
            return "no witness"
        row["witness_weight"] = witness.weight
        if witness.is_empty() or witness.weight > RELATOR_BOUND:
            return f"witness weight {witness.weight} outside 1..{RELATOR_BOUND}"
        if ab_word_matrix(witness.syllables, m) != IDENTITY:
            return "witness does not evaluate to the identity"
        return None
    return Op("relator", str(spec),
              lambda: pkg.find_relator(prepared["pres"], prepared["wa"],
                                       prepared["wb"], prepared["table"],
                                       bound=RELATOR_BOUND),
              check, {"bound": RELATOR_BOUND})


# -- workloads -------------------------------------------------------------------

@dataclass
class Prepared:
    ops: list[Op]
    # rows of the enumerations the workload relies on but does not time
    # (offline_queries' certificates); empty when the pass enumerates
    setup_rows: list[dict]


def _prepare_offline(pkg, rng: random.Random) -> Prepared:
    limits = pkg.EnumerationLimits(max_cosets=DEFAULT_MAX_COSETS,
                                   time_limit_s=OP_TIME_LIMIT_S)
    specs = sorted(set(RELATOR_SPECS) | set(MEMBER_SPECS))
    presentations = {b: pkg.build_presentation(b) for b in {b for _, b in specs}}
    prepared, setup_rows, ops = {}, [], []
    for a, b in specs:
        spec = pkg.MoebiusSpec(a, b)
        pres = presentations[b]
        cert, table = pkg.certify_with_table(spec, limits)
        row = {"op": "setup_certify", "spec": str(spec), "strategy": "hlt",
               "max_cosets": DEFAULT_MAX_COSETS}
        problem = check_certificate(cert, row, a)
        if problem is not None:
            raise RuntimeError(f"set-up certificate for {spec}: {problem}")
        setup_rows.append(row)
        wa, wb = pkg.express_generators(spec, pres)
        prepared[(a, b)] = {"spec": spec, "cert": cert, "table": table,
                            "pres": pres, "wa": wa, "wb": wb}
        # a JSON round trip, as an offline verifier receives it
        payload = json.loads(json.dumps(cert.to_json_dict()))
        ops.append(verify_op(pkg, str(spec), payload))
    for a, b in RELATOR_SPECS:
        ops.append(relator_op(pkg, prepared[(a, b)]))
    for a, b in MEMBER_SPECS:
        m = Fraction(a, b)
        for _ in range(MEMBERS_IN_G):
            g = ab_word_matrix(random_ab_word(rng), m)
            ops.append(member_op(pkg, prepared[(a, b)], g, IN_G))
        for _ in range(MEMBERS_OUTSIDE):
            g = mat_mul(ab_word_matrix(random_ab_word(rng), m),
                        random_outside(rng, a))
            ops.append(member_op(pkg, prepared[(a, b)], g, NOT_IN_CLOSURE))
    rng.shuffle(ops)
    return Prepared(ops, setup_rows)


def prepare(pkg, workload: str, seed: int) -> Prepared:
    """The operations of one pass of `workload`, made from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("hlt_certify", "felsch_certify"):
        strategy = workload.split("_")[0]
        ops = [certify_op(pkg, a, b, strategy, DEFAULT_MAX_COSETS)
               for a, b in CERTIFY_SPECS]
    elif workload == "budget_edge":
        ops = [certify_op(pkg, a, b, "hlt", budget, must_fill=True)
               for a, b, budget in BUDGET_EDGE]
    elif workload == "offline_queries":
        return _prepare_offline(pkg, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return Prepared(ops, [])
