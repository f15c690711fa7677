"""Exact arithmetic core: rational scalars, 2x2 unimodular
matrices over Q, and freely reduced group words with matrix evaluation.

Everything here is exact; no floating point is accepted anywhere.  Scalars
are `fractions.Fraction` values.  A matrix stores its four entries over one
common denominator, as five integers `(n11, n12, n21, n22, den)` in
canonical form (`den > 0`, no common factor), so equality and hashing are
structural and a product is eight integer multiplications and one gcd.
Every construction checks the determinant identity
`n11*n22 - n12*n21 == den*den`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Tuple

_ENTRY_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of |n|, in increasing order."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


_new = object.__new__
_set = object.__setattr__


def _make(n11: int, n12: int, n21: int, n22: int, den: int) -> "UniModularMatrix":
    """The matrix [[n11, n12], [n21, n22]] / den, brought to canonical form
    and checked to have determinant exactly 1.  Every construction ends
    here."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    g = gcd(n11, n12, n21, n22, den)
    if g != 1:
        n11 //= g
        n12 //= g
        n21 //= g
        n22 //= g
        den //= g
    if n11 * n22 - n12 * n21 != den * den:
        raise ValueError(
            f"determinant is not 1: [[{Fraction(n11, den)},{Fraction(n12, den)}],"
            f"[{Fraction(n21, den)},{Fraction(n22, den)}]]")
    m = _new(UniModularMatrix)
    _set(m, "_key", (n11, n12, n21, n22, den))
    return m


class UniModularMatrix:
    """2x2 matrix over Q with determinant exactly 1.

    Built from four int or Fraction entries (floats raise TypeError).
    Immutable and hashable; arithmetic returns new instances.  The entries
    `e11..e22` read back as Fractions.
    """

    __slots__ = ("_key",)  # (n11, n12, n21, n22, den), canonical

    def __new__(cls, e11, e12, e21, e22) -> "UniModularMatrix":
        entries = (e11, e12, e21, e22)
        for e in entries:
            if not isinstance(e, (int, Fraction)):
                raise TypeError(f"matrix entries must be int or Fraction, "
                                f"got {type(e).__name__} {e!r}")
        den = lcm(*(e.denominator for e in entries))
        return _make(*(e.numerator * (den // e.denominator) for e in entries),
                     den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _make, self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniModularMatrix):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (f"UniModularMatrix({self.e11!r}, {self.e12!r}, "
                f"{self.e21!r}, {self.e22!r})")

    # -- entries -----------------------------------------------------------

    @property
    def e11(self) -> Fraction:
        return Fraction(self._key[0], self._key[4])

    @property
    def e12(self) -> Fraction:
        return Fraction(self._key[1], self._key[4])

    @property
    def e21(self) -> Fraction:
        return Fraction(self._key[2], self._key[4])

    @property
    def e22(self) -> Fraction:
        return Fraction(self._key[3], self._key[4])

    # -- construction ------------------------------------------------------

    @staticmethod
    def identity() -> "UniModularMatrix":
        return _IDENTITY

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "UniModularMatrix":
        (a, b), (c, d) = rows
        return UniModularMatrix(a, b, c, d)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: "UniModularMatrix") -> "UniModularMatrix":
        if not isinstance(other, UniModularMatrix):
            return NotImplemented
        a11, a12, a21, a22, ad = self._key
        b11, b12, b21, b22, bd = other._key
        return _make(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                     a21 * b11 + a22 * b21, a21 * b12 + a22 * b22, ad * bd)

    def inv(self) -> "UniModularMatrix":
        # det = 1, so the adjugate is the inverse
        n11, n12, n21, n22, den = self._key
        return _make(n22, -n12, -n21, n11, den)

    def __neg__(self) -> "UniModularMatrix":
        n11, n12, n21, n22, den = self._key
        return _make(-n11, -n12, -n21, -n22, den)

    def pow(self, k: int) -> "UniModularMatrix":
        """Binary exponentiation; unipotent matrices short-circuit since
        [[1,x],[0,1]]^k = [[1,kx],[0,1]] (and the lower triangular twin)."""
        if k == 0:
            return _IDENTITY
        if k < 0:
            return self.inv().pow(-k)
        n11, n12, n21, n22, den = self._key
        if n11 == den and n22 == den:
            if n21 == 0:
                return _make(den, k * n12, 0, den, den)
            if n12 == 0:
                return _make(den, 0, k * n21, den, den)
        base = self
        acc = _IDENTITY
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    __pow__ = pow

    # -- predicates --------------------------------------------------------

    def is_identity(self) -> bool:
        return self._key == _IDENTITY._key

    def is_integral(self) -> bool:
        return self._key[4] == 1

    def denominator_primes(self) -> set[int]:
        # den is the lcm of the reduced entry denominators
        return set(prime_factors(self._key[4]))

    def __str__(self) -> str:
        return format_matrix(self)


_IDENTITY = _make(1, 0, 0, 1, 1)


def check_count(name: str, value, least: int = 1,
                most: Optional[int] = None) -> int:
    """`value` if it is an int in least..most (`most` None for no upper
    bound), else ValueError naming `name`: the one rule for every count.
    A bool is refused, since it would pass as 0 or 1, and so is a float,
    which the kernel does not take."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")
    return value


def check_moebius_parameters(a: int, b: int) -> None:
    """Raise ValueError unless the numerator a >= 1 and the denominator
    b >= 2 are ints with gcd(a, b) = 1: the one check of Moebius
    parameters, which every entry point taking them calls."""
    check_count("numerator", a)
    check_count("denominator", b, least=2)
    if gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")


def make_moebius_generators(a: int, b: int) -> tuple[UniModularMatrix, UniModularMatrix]:
    """The parabolic pair A(a/b) = [[1,a/b],[0,1]], B(a/b) = [[1,0],[a/b,1]];
    raises ValueError for parameters `check_moebius_parameters` refuses."""
    check_moebius_parameters(a, b)
    return (_make(b, a, 0, b, b), _make(b, 0, a, b, b))


# -- group words -------------------------------------------------------------

Syllable = Tuple[str, int]


def _reduce_syllables(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    stack: list[list] = []
    for sym, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == sym:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([sym, exp])
    return tuple((s, e) for s, e in stack)


def _extend_reduced(acc: list, red: Sequence[Syllable]) -> None:
    """Append the reduced syllables `red` to the reduced list `acc`,
    cancelling across the seam: the one place two reduced words are
    joined."""
    ri = 0
    while acc and ri < len(red) and acc[-1][0] == red[ri][0]:
        e = acc[-1][1] + red[ri][1]
        ri += 1
        if e == 0:
            acc.pop()
        else:
            acc[-1] = (acc[-1][0], e)
            break
    acc.extend(red[ri:])


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word over abstract generator symbols.

    Syllables are (symbol, exponent) pairs with nonzero integer exponents
    and distinct adjacent symbols.  Use `word()` to build one from raw
    syllables; the constructor trusts its input.
    """

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        prev = None
        for sym, exp in self.syllables:
            if exp == 0:
                raise ValueError("zero exponent in word")
            if sym == prev:
                raise ValueError("word is not freely reduced")
            prev = sym

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        acc = list(self.syllables)
        _extend_reduced(acc, other.syllables)
        return GroupWord(tuple(acc))

    def inv(self) -> "GroupWord":
        return GroupWord(tuple((s, -e) for s, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "GroupWord":
        base = self if k >= 0 else self.inv()
        return word(base.syllables * abs(k))

    def is_empty(self) -> bool:
        return not self.syllables

    @property
    def weight(self) -> int:
        """Total of absolute exponents."""
        return sum(abs(e) for _, e in self.syllables)

    def cyclically_reduced(self) -> "GroupWord":
        # trim cancelling end pairs by index, then slice once
        syl = self.syllables
        i, j = 0, len(syl) - 1
        while i < j and syl[i][0] == syl[j][0]:
            merged = syl[i][1] + syl[j][1]
            if merged:
                return GroupWord(((syl[i][0], merged),) + syl[i + 1:j])
            i += 1
            j -= 1
        return GroupWord(syl[i:j + 1])

    def rotated_to(self, sym: str) -> "GroupWord":
        """Cyclic rotation placing a syllable of `sym` first, if present."""
        for i, (s, _) in enumerate(self.syllables):
            if s == sym:
                return GroupWord(_reduce_syllables(
                    self.syllables[i:] + self.syllables[:i]))
        return self

    def __str__(self) -> str:
        return format_word(self)


def word(syllables: Iterable[Syllable]) -> GroupWord:
    """Build a freely reduced GroupWord from raw syllables."""
    return GroupWord(_reduce_syllables(syllables))


def format_word(w: GroupWord) -> str:
    """Render as space-separated syllables, `g` or `g^k` (k != 1)."""
    if w.is_empty():
        return "1"
    parts = []
    for sym, exp in w.syllables:
        parts.append(sym if exp == 1 else f"{sym}^{exp}")
    return " ".join(parts)


def parse_word(text: str) -> GroupWord:
    """Inverse of format_word; accepts `1` for the empty word."""
    text = text.strip()
    if text in ("", "1"):
        return GroupWord()
    syllables = []
    for tok in text.split():
        if "^" in tok:
            sym, _, exp = tok.partition("^")
            if not re.fullmatch(r"[+-]?\d+", exp):
                raise ValueError(f"bad exponent in token {tok!r}")
            syllables.append((sym, int(exp)))
        else:
            syllables.append((tok, 1))
    for sym, _ in syllables:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sym):
            raise ValueError(f"bad generator symbol {sym!r}")
    return word(syllables)


GeneratorAssignment = Mapping[str, UniModularMatrix]


def evaluate_word(w: GroupWord, asg: GeneratorAssignment) -> UniModularMatrix:
    """Left-to-right product of assigned matrices raised to the syllable
    exponents; the empty word evaluates to the identity."""
    out = UniModularMatrix.identity()
    for sym, exp in w.syllables:
        try:
            m = asg[sym]
        except KeyError:
            raise ValueError(f"no matrix assigned to symbol {sym!r}") from None
        out = out * m.pow(exp)
    return out


# -- exact matrix literals ----------------------------------------------------

def parse_matrix(text: str) -> UniModularMatrix:
    """Parse `[[p/q,r/s],[t/u,v/w]]` with optional integer shorthand.

    Parsing is exact; anything that looks like floating point is rejected.
    """
    stripped = re.sub(r"\s+", "", text)
    m = re.fullmatch(
        r"\[\[([^,\[\]]+),([^,\[\]]+)\],\[([^,\[\]]+),([^,\[\]]+)\]\]", stripped)
    if not m:
        raise ValueError(f"not a 2x2 matrix literal: {text!r}")
    entries = []
    for tok in m.groups():
        if not _ENTRY_RE.match(tok):
            raise ValueError(f"bad exact entry {tok!r} (floats are not accepted)")
        entries.append(Fraction(tok))
    return UniModularMatrix(*entries)


def format_matrix(m: UniModularMatrix) -> str:
    return f"[[{m.e11!s},{m.e12!s}],[{m.e21!s},{m.e22!s}]]"
