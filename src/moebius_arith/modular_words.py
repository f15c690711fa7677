"""Word decomposition in SL(2, Z) over the generators

    s = [[0,1],[-1,0]],   t = [[1,0],[1,1]].

`decompose_st` writes any integer determinant-1 matrix as a word in s and t
by a continued-fraction style reduction of the first column: powers of t add
multiples of the first row to the second, s rotates the rows.  The word
evaluates to the input exactly, including sign; -1 is absorbed as s^2 last.
"""

from __future__ import annotations

from .exact import GroupWord, UniModularMatrix, evaluate_word, word

MAT_S = UniModularMatrix.from_rows([[0, 1], [-1, 0]])
MAT_T = UniModularMatrix.from_rows([[1, 0], [1, 1]])

ST_ASSIGNMENT = {"s": MAT_S, "t": MAT_T}


def _as_int_entries(m: UniModularMatrix) -> tuple[int, int, int, int]:
    entries = (m.e11, m.e12, m.e21, m.e22)
    if any(e.denominator != 1 for e in entries):
        raise ValueError(f"matrix is not integral: {m}")
    return tuple(int(e) for e in entries)  # type: ignore[return-value]


def decompose_st(m: UniModularMatrix) -> GroupWord:
    """Word w over {s, t} with evaluate_word(w) == m exactly.

    Output length is O(number of euclidean steps), i.e. the syllable count
    grows with the bit length of the entries, not their magnitude.
    """
    a, b, c, d = _as_int_entries(m)
    # ops records left factors in order of application; E_k ... E_1 * m = 1
    ops: list[tuple[str, int]] = []

    def apply_s():
        nonlocal a, b, c, d
        a, b, c, d = c, d, -a, -b
        ops.append(("s", 1))

    def apply_t(k: int):
        # t^k adds k * row1 to row2
        nonlocal c, d
        c += k * a
        d += k * b
        ops.append(("t", k))

    while c != 0:
        if a == 0:
            apply_s()
            continue
        q0 = c // a
        r0 = c - q0 * a
        # balanced remainder keeps the euclidean descent short
        if abs(r0 - a) < abs(r0):
            q0 += 1
            r0 -= a
        if q0 != 0:
            apply_t(-q0)
        if c != 0:
            apply_s()

    # now the first column is (a, 0) with a = d = +-1
    if a == -1:
        apply_s()
        apply_s()
    # clear the remaining upper entry: [[1,u],[0,1]]^-1 = s t^u s^-1 applied left
    u = b
    if u != 0:
        ops.append(("s", -1))
        ops.append(("t", u))
        ops.append(("s", 1))

    # m = E_1^-1 E_2^-1 ... E_k^-1
    w = word((sym, -exp) for sym, exp in ops)
    if evaluate_word(w, ST_ASSIGNMENT) != m:
        raise RuntimeError("decompose_st round trip failed")
    return w

