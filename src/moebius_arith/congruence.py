"""Congruence homomorphisms and everything computable about the arithmetic
closure of a Moebius group G(a/b) inside SL(2, Z[1/b]):

  * reduction of rational matrices mod n (denominators inverted mod n),
  * |SL(2, Z_n)| by the multiplicative formula n^3 * prod_{p|n} (1 - p^-2),
  * breadth-first closures of generator images in SL(2, Z_n),
  * level data: the closure of G(a/b) has level a^2 and index a*|SL(2,Z_a)|,
    with quotient mod a^2 isomorphic to C_a x C_a,
  * an explicit generating set for the closure, and the level-a^2
    membership test.

All group computations here are exact and finite; closures are materialized
up to a configurable element cap and overflow loudly beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .exact import (
    UniModularMatrix,
    make_moebius_generators,
    prime_factors,
)

# Materialization cap: full materialization is guaranteed for moduli n <= 49,
# desk-scale memory for anything larger.
DEFAULT_CLOSURE_CAP = 2_000_000

# Companion of the conjugator x = [[-1,1],[0,1]] used for the third closure
# generator (convention B^x = x^-1 B x).  x itself has determinant -1, but
# x = diag(-1,1) * A(-1) and conjugation by diag(-1,1) is an off-diagonal
# sign flip, so B^x is computed without leaving SL(2).
MAT_CONJ_UNIPOTENT = UniModularMatrix.from_rows([[1, -1], [0, 1]])


def conjugate_by_x(m: UniModularMatrix) -> UniModularMatrix:
    """x^-1 * m * x for x = [[-1,1],[0,1]] (an involution of GL(2, Z))."""
    flipped = UniModularMatrix(m.e11, -m.e12, -m.e21, m.e22)
    return MAT_CONJ_UNIPOTENT.inv() * flipped * MAT_CONJ_UNIPOTENT


class ClosureOverflowError(RuntimeError):
    """Raised when a subgroup closure exceeds its element cap."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


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

    def mul(self, other: "ResidueMatrix") -> "ResidueMatrix":
        n = self.n
        return ResidueMatrix(
            n,
            (self.a * other.a + self.b * other.c) % n,
            (self.a * other.b + self.b * other.d) % n,
            (self.c * other.a + self.d * other.c) % n,
            (self.c * other.b + self.d * other.d) % n,
        )

    __mul__ = mul

    def key(self):
        """Compact hash key: four residues packed into one 64-bit int when
        n < 2^16, tuple fallback otherwise."""
        if self.n < 65536:
            return self.a | (self.b << 16) | (self.c << 32) | (self.d << 48)
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

    modulus: int
    order: int
    elements: Optional[frozenset] = None  # of key() values, when materialized
    is_abelian: bool = False
    exponent: int = 1

    def contains(self, m: ResidueMatrix) -> bool:
        if self.elements is None:
            raise ClosureOverflowError("closure was not materialized")
        return m.key() in self.elements


def subgroup_closure(gens: Sequence[ResidueMatrix], n: int,
                     cap: int = DEFAULT_CLOSURE_CAP) -> SubgroupImage:
    """Breadth-first closure of `gens` under multiplication in SL(2, Z_n).

    The group is finite, so closing under right multiplication by the
    generators alone suffices.  Raises ClosureOverflowError past `cap`.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for g in gens:
        if g.n != n:
            raise ValueError("generator modulus mismatch")
    ident = ResidueMatrix.identity(n)
    seen = {ident.key()}
    frontier = [ident]
    elements = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = m * g
                k = prod.key()
                if k not in seen:
                    seen.add(k)
                    if len(seen) > cap:
                        raise ClosureOverflowError(
                            f"closure mod {n} exceeded cap {cap}")
                    nxt.append(prod)
                    elements.append(prod)
        frontier = nxt
    abelian = all(g * h == h * g for i, g in enumerate(gens)
                  for h in gens[i + 1:])
    if abelian:
        exponent = lcm(*(g.order() for g in gens)) if gens else 1
    else:
        exponent = lcm(*(m.order() for m in elements))
    assert sl2_order(n) % len(elements) == 0, "closure violates Lagrange"
    return SubgroupImage(modulus=n, order=len(elements),
                         elements=frozenset(seen),
                         is_abelian=abelian, exponent=exponent)


def generator_image_closure(a: int, b: int, n: int,
                            cap: int = DEFAULT_CLOSURE_CAP) -> SubgroupImage:
    """Closure of {A(a/b) mod n, B(a/b) mod n} in SL(2, Z_n)."""
    ma, mb = make_moebius_generators(a, b)
    return subgroup_closure([reduce_mod(ma, n), reduce_mod(mb, n)], n, cap)


def surjects_mod_p(a: int, b: int, p: int,
                   cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """True iff the generator images fill all of SL(2, Z_p).

    Holds exactly when p does not divide a (for p coprime to b); p | b is
    rejected because reduction mod p is undefined there.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if b % p == 0:
        raise ValueError(f"prime {p} divides the base {b}")
    target = sl2_order(p)
    img = generator_image_closure(a, b, p, cap=min(cap, target))
    return img.order == target


@dataclass(frozen=True)
class LevelData:
    """Level and index data for the arithmetic closure of G(a/b)."""

    a: int
    level: int
    expected_index: int

    def __post_init__(self):
        assert self.level == self.a * self.a
        assert self.expected_index == self.a * sl2_order(self.a)


def level_data(a: int, b: int) -> LevelData:
    if a < 1 or b <= 1 or gcd(a, b) != 1:
        raise ValueError(f"invalid Moebius parameters ({a}, {b})")
    return LevelData(
        a=a,
        level=a * a,
        expected_index=a * sl2_order(a),
    )


def closure_quotient_structure(a: int) -> tuple[int, ...]:
    """Abelian invariants of cl(G)/Gamma_{a^2}: (a, a), trivial for a = 1."""
    if a < 1:
        raise ValueError(f"numerator must be positive, got {a}")
    if a == 1:
        return ()
    return (a, a)


def closure_generators(a: int, b: int) -> list[UniModularMatrix]:
    """Generators of the arithmetic closure of G(a/b).

    Returns [A(m), B(m), A(am), B(am), B(am)^x] with m = a/b and
    x = [[-1,1],[0,1]]; the first two generate G itself, the last three
    generate the level-a^2 principal congruence subgroup.
    """
    if a < 1 or b <= 1 or gcd(a, b) != 1:
        raise ValueError(f"invalid Moebius parameters ({a}, {b})")
    ma, mb = make_moebius_generators(a, b)
    maa = ma.pow(a)   # A(am) = A(m)^a
    mbb = mb.pow(a)   # B(am) = B(m)^a
    return [ma, mb, maa, mbb, conjugate_by_x(mbb)]


def member_of_closure(g: UniModularMatrix, a: int, b: int,
                      cap: int = DEFAULT_CLOSURE_CAP) -> bool:
    """Level-a^2 membership test for the arithmetic closure of G(a/b).

    True iff g mod a^2 lands in the image of the generators; this is
    necessary for g in G(a/b) and equivalent to it when G(a/b) is known to
    be S-arithmetic.  Matrices whose denominators are not coprime to a
    cannot lie in SL(2, Z[1/b]) at all and report False.
    """
    if a < 1 or b <= 1 or gcd(a, b) != 1:
        raise ValueError(f"invalid Moebius parameters ({a}, {b})")
    if a == 1:
        return True
    n = a * a
    try:
        img = reduce_mod(g, n)
    except ValueError:
        return False
    closure = generator_image_closure(a, b, n, cap)
    return closure.contains(img)
