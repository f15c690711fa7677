"""Finite presentations of SL(2, Z[1/b]) on 2 + 2|pi(b)| generators.

The construction amalgamates two copies of SL(2, Z) over the index-(p+1)
subgroup Gamma_0(p) of matrices that are upper triangular mod p, once per
prime p dividing b.  Copy one is generated by

    s = [[0,1],[-1,0]],  t = [[1,0],[1,1]],

copy two by the conjugates x_p = D s D^-1, y_p = D ybar D^-1 with
D = diag(1, p) and ybar = [[1,-1],[0,1]].  Both copies carry the standard
relators g^4 and (gh)^3 g^-2.  The amalgam is glued by matching relators
w(x_p, y_p) * w'(s, t)^-1 where the w range over Schreier generators of
Gamma_0(p) and w' rewrites the same integer matrix over {s, t}.

When b has two or more distinct primes, every pair p < q adds three
relators in d_p = x_p s^-1 = diag(1/p, p): the commutator of d_p and d_q,
and d_p^-1 y_q d_p y_q^-(p^2) with its mirror, since conjugating by d_p
multiplies the upper-right entry by p^2.  For prime-power b the amalgam
presents SL(2, Z[1/b]) exactly; for other b the presentation may be a
proper cover, which `certifier` explains is enough.

Every relator evaluates to the identity under the matrix assignment; that
soundness invariant is checked at construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .congruence import is_prime
from .exact import (
    GroupWord,
    UniModularMatrix,
    check_count,
    evaluate_word,
    format_matrix,
    format_word,
    prime_factors,
    word,
)
from .modular_words import MAT_S, MAT_T, decompose_st

# Generating pair of the untwisted second copy: xbar equals the s matrix,
# ybar is its companion [[1,-1],[0,1]]; D-conjugation sends them to x_p, y_p.
MAT_XBAR = MAT_S
MAT_YBAR = UniModularMatrix.from_rows([[1, -1], [0, 1]])


def x_matrix(p: int) -> UniModularMatrix:
    """x_p = [[0, 1/p], [-p, 0]]."""
    return UniModularMatrix.from_rows([[0, Fraction(1, p)], [-p, 0]])


def y_matrix(p: int) -> UniModularMatrix:
    """y_p = [[1, -1/p], [0, 1]]."""
    return UniModularMatrix.from_rows([[1, Fraction(-1, p)], [0, 1]])


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[GroupWord, ...]
    assignment: Mapping[str, UniModularMatrix]


def _normalize_point(u: int, v: int, p: int) -> tuple[int, int]:
    u %= p
    v %= p
    if u != 0:
        inv = pow(u, -1, p)
        return (1, v * inv % p)
    return (0, 1)


def _act(m: UniModularMatrix, pt: tuple[int, int], p: int) -> tuple[int, int]:
    u, v = pt
    a, b, c, d, den = m._key
    if den != 1:
        raise ValueError("only an integral matrix acts on P^1(F_p)")
    return _normalize_point(a * u + b * v, c * u + d * v, p)


def _schreier_pairs(p: int) -> list[tuple[GroupWord, UniModularMatrix]]:
    """Schreier generators of Gamma_0(p), as words over {x<p>, y<p>} paired
    with their values.

    The orbit of the distinguished point of P^1(F_p) under the untwisted
    matrices xbar, ybar has exactly p + 1 points; the breadth-first
    transversal (generator order x, x^-1, y, y^-1) yields at most p + 2
    nontrivial Schreier words.  Evaluated at the twisted matrices
    (x_p, y_p) each word becomes an integer matrix with lower-left entry
    divisible by p.  The distinguished point is the one that makes those
    evaluations integral.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    xsym, ysym = f"x{p}", f"y{p}"
    xm, ym = x_matrix(p), y_matrix(p)
    twisted = {xsym: xm, ysym: ym}

    steps = [
        ((xsym, 1), MAT_XBAR),
        ((xsym, -1), MAT_XBAR.inv()),
        ((ysym, 1), MAT_YBAR),
        ((ysym, -1), MAT_YBAR.inv()),
    ]
    base = (0, 1)
    transversal: dict[tuple[int, int], GroupWord] = {base: GroupWord()}
    queue = [base]
    while queue:
        pt = queue.pop(0)
        rep = transversal[pt]
        for syl, mat in steps:
            img = _act(mat, pt, p)
            if img not in transversal:
                transversal[img] = rep * word([syl])
                queue.append(img)
    if len(transversal) != p + 1:
        raise RuntimeError("projective orbit must have p+1 points")

    pairs: list[tuple[GroupWord, UniModularMatrix]] = []
    seen_values: set = set()
    identity = UniModularMatrix.identity()
    for pt in transversal:
        rep = transversal[pt]
        for syl, mat in ((s, m) for s, m in steps if s[1] == 1):
            img = _act(mat, pt, p)
            gen = rep * word([syl]) * transversal[img].inv()
            if gen.is_empty():
                continue  # tree edge
            value = evaluate_word(gen, twisted)
            if value == identity:
                continue  # represents the trivial element
            if value in seen_values:
                continue  # duplicate of an earlier generator
            if not value.is_integral() or int(value.e21) % p != 0:
                raise RuntimeError(
                    f"Schreier generator {gen} leaves Gamma_0({p})")
            seen_values.add(value)
            pairs.append((gen, value))
    if len(pairs) > p + 2:
        raise RuntimeError("more than p+2 nontrivial Schreier generators")
    return pairs


def _power_braid_relators(g: str, h: str) -> list[GroupWord]:
    """g^4 and (gh)^3 g^-2, the SL(2, Z) relators for either copy."""
    return [
        word([(g, 4)]),
        word([(g, 1), (h, 1)] * 3 + [(g, -2)]),
    ]


def _prime_pair_relators(p: int, q: int) -> list[GroupWord]:
    """d_p d_q d_p^-1 d_q^-1, d_p^-1 y_q d_p y_q^-(p^2) and
    d_q^-1 y_p d_q y_p^-(q^2), with d_r = x_r s^-1 = diag(1/r, r)."""
    dp, dq = (word([(f"x{r}", 1), ("s", -1)]) for r in (p, q))
    yp, yq = (word([(f"y{r}", 1)]) for r in (p, q))
    return [dp * dq * dp.inv() * dq.inv(),
            dp.inv() * yq * dp * yq ** (-p * p),
            dq.inv() * yp * dq * yp ** (-q * q)]


def build_presentation(b: int) -> Presentation:
    """Sound presentation on generators of SL(2, Z[1/b]): the amalgam over
    each prime of b, then three relators per pair of distinct primes (see
    the module docstring).  It depends on b only through its primes.  For
    prime-power b it presents SL(2, Z[1/b]); for other b it may present a
    cover.  The assignment is a read-only mapping, so one build can be
    shared."""
    check_count("base", b, least=2)
    primes = prime_factors(b)
    generators = ["s", "t"]
    assignment: dict[str, UniModularMatrix] = {"s": MAT_S, "t": MAT_T}
    relators: list[GroupWord] = _power_braid_relators("s", "t")
    for p in primes:
        xsym, ysym = f"x{p}", f"y{p}"
        generators += [xsym, ysym]
        assignment[xsym] = x_matrix(p)
        assignment[ysym] = y_matrix(p)
        relators += _power_braid_relators(xsym, ysym)
        for gen_word, value in _schreier_pairs(p):
            relators.append(gen_word * decompose_st(value).inv())
    for p, q in combinations(primes, 2):
        relators += _prime_pair_relators(p, q)
    pres = Presentation(
        generators=tuple(generators),
        relators=tuple(relators),
        assignment=MappingProxyType(assignment),
    )
    if not verify_presentation_soundness(pres):
        raise RuntimeError(f"unsound presentation for b={b}")
    return pres


def verify_presentation_soundness(pres: Presentation) -> bool:
    """True iff every relator evaluates to the identity matrix."""
    ident = UniModularMatrix.identity()
    return all(evaluate_word(r, pres.assignment) == ident
               for r in pres.relators)


# -- serialization ------------------------------------------------------------

def presentation_to_text(pres: Presentation) -> str:
    lines = ["gen: " + " ".join(pres.generators)]
    lines += ["rel: " + format_word(r) for r in pres.relators]
    return "\n".join(lines) + "\n"


def presentation_to_json(pres: Presentation) -> str:
    payload = {
        "generators": list(pres.generators),
        "relators": [format_word(r) for r in pres.relators],
        "assignment": {sym: format_matrix(m)
                       for sym, m in pres.assignment.items()},
    }
    return json.dumps(payload, indent=2)

