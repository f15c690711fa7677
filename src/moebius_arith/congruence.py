"""Congruence homomorphisms and everything computable about the arithmetic
closure of a Moebius group G(a/b) inside SL(2, Z[1/b]):

  * reduction of rational matrices mod n (denominators inverted mod n),
  * |SL(2, Z_n)| by the multiplicative formula n^3 * prod_{p|n} (1 - p^-2),
  * breadth-first closures of generator images in SL(2, Z_n),
  * the exact order of a subgroup of SL(2, Z_n) by orbit-stabilizer on
    e1 = (1, 0)^T, without listing its elements (`subgroup_order`),
  * level data: the closure of G(a/b) has level a^2 and index a*|SL(2,Z_a)|,
    with quotient mod a^2 isomorphic to C_a x C_a,
  * conjugation by x = [[-1,1],[0,1]], which gives B(am)^x, one of the
    three matrices that lie in the level-a^2 principal congruence subgroup,
  * the level-a^2 membership test.

All group computations here are exact and finite; closures are materialized
in full and overflow loudly past an element cap.  Surjectivity mod p needs
only the order, O(p^2) work where the closure is O(p^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exact import (
    UniModularMatrix,
    check_moebius_parameters,
    make_moebius_generators,
    prime_factors,
)

# Materialization cap: full materialization is guaranteed for moduli n <= 49,
# desk-scale memory for anything larger.
DEFAULT_CLOSURE_CAP = 2_000_000


def conjugate_by_x(m: UniModularMatrix) -> UniModularMatrix:
    """x^-1 * m * x for x = [[-1,1],[0,1]] (an involution of GL(2, Z)),
    the convention B^x of the third closure generator.  x has determinant
    -1, but the conjugate keeps m's: x [[p,q],[r,s]] x = [[p-r, s-p+r-q],
    [-r, r+s]]."""
    p, q, r, s = m.e11, m.e12, m.e21, m.e22
    return UniModularMatrix(p - r, s - p + r - q, -r, r + s)


class ClosureOverflowError(RuntimeError):
    """Raised when a subgroup closure exceeds its element cap."""


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


@dataclass(frozen=True)
class ResidueMatrix:
    """Element of SL(2, Z_n): four residues with det = 1 mod n."""

    n: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        if (self.a * self.d - self.b * self.c) % self.n != 1 % self.n:
            raise ValueError(f"determinant is not 1 mod {self.n}")

    @staticmethod
    def identity(n: int) -> "ResidueMatrix":
        return ResidueMatrix(n, 1 % n, 0, 0, 1 % n)

    def __mul__(self, other: "ResidueMatrix") -> "ResidueMatrix":
        n = self.n
        return ResidueMatrix(
            n,
            (self.a * other.a + self.b * other.c) % n,
            (self.a * other.b + self.b * other.d) % n,
            (self.c * other.a + self.d * other.c) % n,
            (self.c * other.b + self.d * other.d) % n,
        )

    def key(self) -> tuple[int, int, int, int]:
        """Hash key: the four residues."""
        return (self.a, self.b, self.c, self.d)

    def order(self) -> int:
        ident = (1 % self.n, 0, 0, 1 % self.n)
        acc = self
        k = 1
        while (acc.a, acc.b, acc.c, acc.d) != ident:
            acc = acc * self
            k += 1
        return k


def reduce_mod(m: UniModularMatrix, n: int) -> ResidueMatrix:
    """Entry-wise reduction mod n with modular inversion of denominators.

    Multiplicative in m.  Raises ValueError when a denominator is not
    invertible mod n (the modulus must be coprime to the localized base).
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")

    def red(e: Fraction) -> int:
        den = e.denominator
        if gcd(den, n) != 1:
            raise ValueError(
                f"denominator {den} is not invertible mod {n}")
        return (e.numerator % n) * pow(den, -1, n) % n

    return ResidueMatrix(n, red(m.e11), red(m.e12), red(m.e21), red(m.e22))


def sl2_order(n: int) -> int:
    """|SL(2, Z_n)| = n^3 * prod_{p | n} (1 - p^-2); sl2_order(1) = 1."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n == 1:
        return 1
    r = n ** 3
    for p in prime_factors(n):
        r = r // (p * p) * (p * p - 1)
    return r


@dataclass(frozen=True)
class SubgroupImage:
    """Closure of a generator set inside SL(2, Z_n)."""

    order: int
    elements: frozenset  # of key() values
    is_abelian: bool = False
    generators: tuple[ResidueMatrix, ...] = ()

    @cached_property
    def exponent(self) -> int:
        """lcm of the element orders of an abelian closure, which is the
        lcm of its generators' orders; computed when first read.  Raises
        ValueError on a non-abelian closure."""
        if not self.is_abelian:
            raise ValueError("exponent is only computed for an abelian closure")
        return lcm(*(g.order() for g in self.generators))

    def contains(self, m: ResidueMatrix) -> bool:
        return m.key() in self.elements


def subgroup_closure(gens: Sequence[ResidueMatrix], n: int,
                     cap: int = DEFAULT_CLOSURE_CAP) -> SubgroupImage:
    """Breadth-first closure of `gens` under multiplication in SL(2, Z_n).

    The group is finite, so closing under right multiplication by the
    generators alone suffices.  The search runs on plain residue 4-tuples,
    which are the `ResidueMatrix.key` values; every new product is checked
    to have determinant 1 mod n.  Raises ClosureOverflowError past `cap`.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for g in gens:
        if g.n != n:
            raise ValueError("generator modulus mismatch")
    one = 1 % n
    steps = [(g.a, g.b, g.c, g.d) for g in gens]
    ident = (one, 0, 0, one)
    seen = {ResidueMatrix.identity(n).key()}
    frontier = [ident]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for ga, gb, gc, gd in steps:
                pa = (a * ga + b * gc) % n
                pb = (a * gb + b * gd) % n
                pc = (c * ga + d * gc) % n
                pd = (c * gb + d * gd) % n
                k = (pa, pb, pc, pd)
                if k not in seen:
                    # a product already seen was checked when first found
                    if (pa * pd - pb * pc) % n != one:
                        raise ValueError(f"determinant is not 1 mod {n}")
                    seen.add(k)
                    if len(seen) > cap:
                        raise ClosureOverflowError(
                            f"closure mod {n} exceeded cap {cap}")
                    nxt.append(k)
        frontier = nxt
    abelian = all(g * h == h * g for i, g in enumerate(gens)
                  for h in gens[i + 1:])
    if sl2_order(n) % len(seen):
        raise RuntimeError(f"closure of order {len(seen)} mod {n} "
                           "violates Lagrange")
    return SubgroupImage(order=len(seen),
                         elements=frozenset(seen),
                         is_abelian=abelian, generators=tuple(gens))


def subgroup_order(gens: Sequence[ResidueMatrix], n: int) -> int:
    """Exact order of the subgroup of SL(2, Z_n) generated by `gens`.

    Orbit-stabilizer on e1 = (1, 0)^T: a breadth-first search over the
    orbit keeps one transversal matrix T_v with T_v e1 = v per orbit
    vector.  By Schreier's lemma the stabilizer of e1 is generated by
    U^-1 g T_v, U = T_{gv}, over the edges that leave the tree; each lies
    in {[[1, x], [0, 1]]}, the stabilizer of e1 in SL(2, Z_n), cyclic of
    order n.  So the order is |orbit| * n / gcd(n, all x).  Every new
    transversal matrix is checked to have determinant 1 mod n.
    """
    one = 1 % n
    for g in gens:
        if g.n != n:
            raise ValueError("generator modulus mismatch")
        if (g.a * g.d - g.b * g.c) % n != one:
            raise ValueError(f"determinant is not 1 mod {n}")
    steps = [(g.a, g.b, g.c, g.d) for g in gens]
    # transversal keyed by v = (x, y) as x*n + y
    trans = {one * n: (one, 0, 0, one)}
    frontier = [(one, 0, 0, one)]
    stab = n
    while frontier:
        nxt = []
        for ta, tb, tc, td in frontier:
            for ga, gb, gc, gd in steps:
                pa = (ga * ta + gb * tc) % n
                pb = (ga * tb + gb * td) % n
                pc = (gc * ta + gd * tc) % n
                pd = (gc * tb + gd * td) % n
                key = pa * n + pc
                u = trans.get(key)
                if u is None:
                    if (pa * pd - pb * pc) % n != one:
                        raise ValueError(f"determinant is not 1 mod {n}")
                    trans[key] = (pa, pb, pc, pd)
                    nxt.append((pa, pb, pc, pd))
                    continue
                # Schreier generator U^-1 (g T), U^-1 = [[ud, -ub], [-uc, ua]]
                ua, ub, uc, ud = u
                if ((ud * pa - ub * pc) % n != one
                        or (ua * pc - uc * pa) % n
                        or (ua * pd - uc * pb) % n != one):
                    raise RuntimeError(
                        f"Schreier generator mod {n} does not fix e1 "
                        "as [[1, x], [0, 1]]")
                stab = gcd(stab, ud * pb - ub * pd)
        frontier = nxt
    order = len(trans) * (n // stab)
    if sl2_order(n) % order:
        raise RuntimeError(f"subgroup of order {order} mod {n} "
                           "violates Lagrange")
    return order


def _generator_images(a: int, b: int, n: int) -> list[ResidueMatrix]:
    return [reduce_mod(m, n) for m in make_moebius_generators(a, b)]


def generator_image_closure(a: int, b: int, n: int) -> SubgroupImage:
    """Closure of {A(a/b) mod n, B(a/b) mod n} in SL(2, Z_n)."""
    return subgroup_closure(_generator_images(a, b, n), n)


def surjects_mod_p(a: int, b: int, p: int) -> bool:
    """True iff the generator images fill all of SL(2, Z_p): their
    `subgroup_order` equals |SL(2, Z_p)|.

    Holds exactly when p does not divide a (for p coprime to b); p | b is
    rejected because reduction mod p is undefined there.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if b % p == 0:
        raise ValueError(f"prime {p} divides the base {b}")
    return subgroup_order(_generator_images(a, b, p), p) == sl2_order(p)


@dataclass(frozen=True)
class LevelData:
    """Level and index data for the arithmetic closure of G(a/b)."""

    a: int
    level: int
    expected_index: int

    def __post_init__(self):
        if (self.level != self.a * self.a
                or self.expected_index != self.a * sl2_order(self.a)):
            raise ValueError(f"inconsistent level data for a={self.a}")


def level_data(a: int, b: int) -> LevelData:
    check_moebius_parameters(a, b)
    return LevelData(
        a=a,
        level=a * a,
        expected_index=a * sl2_order(a),
    )


def member_of_closure(g: UniModularMatrix, a: int, b: int) -> bool:
    """Level-a^2 membership test for the arithmetic closure of G(a/b).

    True iff g mod a^2 lands in the image of the generators; this is
    necessary for g in G(a/b) and equivalent to it when G(a/b) is known to
    be S-arithmetic.  Matrices whose denominators are not coprime to a
    cannot lie in SL(2, Z[1/b]) at all and report False.
    """
    check_moebius_parameters(a, b)
    if a == 1:
        return True
    n = a * a
    try:
        img = reduce_mod(g, n)
    except ValueError:
        return False
    return generator_image_closure(a, b, n).contains(img)
