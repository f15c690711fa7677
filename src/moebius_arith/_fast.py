"""Compiled coset enumeration and relator search: loader and wrappers for
the C kernel in `_tc.c`.

`_tc.c` ports the unlabelled `coset_enum._Engine`, HLT and Felsch alike,
with the same queue and deduction orders, representatives, tables and
counters, so a run yields a byte-identical table and the same definition
count, peak and overflow reason.  That includes HLT's growth lookahead,
at 32,768 rows and then at 4 times the rows each one leaves; Felsch runs
have none (see `_Engine._recover`).  Only its union-find links differ: it
halves paths where the engine compresses them.  The engine's labelled
mode, which `find_relator`'s fallback uses and which has no growth
lookahead either, stays pure Python.  The pure engine stays the
specification and the fallback.

The kernel's last section, `tc_verify` (wrapped by `verify`), is the
exhaustive table check that `todd_coxeter` runs on every kernel table.  It
ports `coset_enum._verify_table`, not the enumerator: it calls none of the
enumerator's functions, makes the same five checks in the same order and
raises the same messages.  `_verify_table` checks the pure engine's tables.

The section before it, `tc_ball` (wrapped by `ball` and `Ball`), is the
relator search's: one call builds the ball and records its equal
evaluations, the elements and records of `coset_enum._SyllableBall` and
its `equal_evaluations` in the same order, in int64 entries.  `Ball`
copies the records out of the kernel's buffer and releases it with
`tc_free`, as `run` does the table.  The conjugation collisions are found
in Python, by `coset_enum._conjugation_collisions` on either kind of
ball, which reads `Ball.nums` and `Ball.weights`, lists built from the
arrays on first read (3-11 ms for b <= 13).

The kernel is compiled on first use, not at import, with the system C
compiler (`$CC`, or `cc` when that is unset, empty or blank) and `-O2
-shared -fPIC`.  The library lands in `$XDG_CACHE_HOME/moebius_arith/`
(else `~/.cache/moebius_arith/`) under a name keyed by the SHA-256 of the
source, the compile command and the machine.  It is written under a
temporary name and renamed into place, so parallel processes never load a
partial file.  A cache hit costs `ctypes`, `shlex` and one read of the
source: the digest comes from the interpreter's own SHA-256, not
OpenSSL's, and only a miss imports `subprocess` and `tempfile`.  If
compiling or loading fails, or `$CC` cannot be split into words, `run`
and `ball` return None and the caller runs the Python code.

The kernel keeps no clock.  Every 4096 definitions, and every 4096 live
cosets a lookahead scans, it calls back into Python, to the poll that
`coset_enum.todd_coxeter` builds, which keeps the time limit and calls
`progress`.  SIGINT is held back in the calling thread while the kernel
runs and let through at each poll, so its handler runs there: Ctrl-C
stops the run at the next poll with KeyboardInterrupt, in a table-full
lookahead as elsewhere.  No exception crosses the callback: the poll
records it, the run stops, and `run` raises it.
"""

from __future__ import annotations

import os
import signal
import sys
from array import array
from functools import cached_property

# read by the certifier benchmark to label its environment; there is no
# numba engine
HAS_NUMBA = False

# coset ids are int32 in both engines; `EnumerationLimits` enforces it
MAX_COSETS = 2 ** 31 - 1

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_tc.c")
FLAGS = ("-O2", "-shared", "-fPIC")

# tc_enumerate's return codes and strategies
_OK, _MAX_COSETS, _TIME_LIMIT, _ABORTED, _NO_MEMORY = range(5)
_REASONS = {_MAX_COSETS: "max_cosets", _TIME_LIMIT: "time_limit"}
_STRATEGIES = {"hlt": 0, "felsch": 1}

_UNSET = object()
_kernel = _UNSET


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "moebius_arith")


def _sha256(data: bytes):
    """A SHA-256 of `data` from the interpreter's own module: `hashlib`
    would load OpenSSL's libcrypto, 3.5 MB of RSS, for this one digest."""
    # chosen by version, so no import fails and searches the path
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:           # an interpreter built without them
        from hashlib import sha256
    return sha256(data)


def _build() -> str:
    """Path of the compiled kernel, compiling it if it is not cached.

    The name is keyed by the SHA-256 of the source, the compile command
    and the machine (`os.uname().machine`), so hosts of two architectures
    that share a cache each build their own.  A cache hit imports neither
    OpenSSL nor `subprocess`.  Raises ValueError for a `$CC` that
    `shlex` cannot split and OSError for a failed build."""
    # imports here and in _compile run on first use, so importing the
    # package stays as cheap as it was without the kernel
    import shlex

    # an empty or blank $CC splits into no words and means cc, as unset
    command = [*(shlex.split(os.environ.get("CC", "")) or ["cc"]), *FLAGS]
    with open(SOURCE, "rb") as fh:
        key = _sha256(fh.read())
    key.update("\0".join([*command, os.uname().machine]).encode())
    target = os.path.join(_cache_dir(), f"_tc-{key.hexdigest()[:24]}.so")
    if not os.path.isfile(target):
        _compile(command, target)
    return target


def _compile(command: list[str], target: str) -> None:
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, SOURCE], check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def kernel():
    """The loaded kernel library, or None when it cannot be built or
    loaded.  Tried once per process."""
    global _kernel
    if _kernel is _UNSET:
        import ctypes

        try:
            lib = ctypes.CDLL(_build())
        except (OSError, ValueError):
            _kernel = None
            return None
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.poll_type = ctypes.CFUNCTYPE(ctypes.c_int, i64, i64)
        lib.tc_enumerate.argtypes = [
            i64, ptr, ptr, i64, ptr, ptr, i64, ctypes.c_int, ptr, ptr, ptr,
            i64, lib.poll_type,
            ctypes.POINTER(ctypes.POINTER(ctypes.c_int32)), ptr]
        lib.tc_enumerate.restype = ctypes.c_int
        lib.tc_free.argtypes = [ptr]
        lib.tc_free.restype = None
        lib.tc_verify.argtypes = [i64, i64, ptr, ptr, ptr, i64, ptr, ptr, i64]
        lib.tc_verify.restype = ctypes.c_int
        lib.tc_ball.argtypes = [i64] * 6 + [ptr] * 7
        lib.tc_ball.restype = ctypes.c_int
        _kernel = lib
    return _kernel


def _flatten(words) -> tuple[array, array]:
    flat, off = array("i"), array("q", [0])
    for wrd in words:
        flat.extend(wrd)
        off.append(len(flat))
    return flat, off


def run(width: int, relators, subgroup, limits, poll):
    """Enumeration in the kernel within the coset budget and under the
    strategy of `limits`, a `coset_enum.EnumerationLimits`; relators and
    subgroup words are letter tuples as `coset_enum._enumeration_letters`
    prepares them, the relators nonempty and cyclically reduced.
    `poll(defined, live)` is called every 4096 definitions and every 4096
    live cosets a lookahead scans, and returns True when the time limit
    has passed.

    Returns None when the kernel is unavailable, else (table, rows, peak,
    defined, reason): the compacted flat table and reason None on
    completion, no table and "max_cosets" or "time_limit" on overflow.
    An exception raised in the poll, by `poll` or by the SIGINT handler,
    aborts the run and propagates.
    """
    lib = kernel()
    if lib is None:
        return None
    import ctypes

    from .coset_enum import _rotation_buckets

    rel_flat, rel_off = _flatten(relators)
    sub_flat, sub_off = _flatten(subgroup)
    # Felsch's rotations, flattened bucket after bucket; those leading with
    # letter x are words rot_first[x] .. rot_first[x + 1] - 1
    buckets = (_rotation_buckets(relators, width)
               if limits.strategy == "felsch" else [[]] * width)
    rot_flat, rot_off = _flatten(wrd for bucket in buckets for wrd in bucket)
    rot_first = array("q", [0])
    for bucket in buckets:
        rot_first.append(rot_first[-1] + len(bucket))
    raised: list[BaseException] = []

    def kernel_poll(defined, live):
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            return _TIME_LIMIT if poll(defined, live) else _OK
        except BaseException as exc:   # ctypes would print and drop it
            raised.append(exc)
            return _ABORTED

    table = ctypes.POINTER(ctypes.c_int32)()
    counts = (ctypes.c_int64 * 3)()
    # SIGINT stays blocked in this thread while the kernel runs, except
    # inside each poll, so its handler runs only there.  The mask is read
    # before it is changed: a handler that raises as the mask changes
    # would lose the old one.
    held = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        code = lib.tc_enumerate(
            width, rel_flat.buffer_info()[0], rel_off.buffer_info()[0],
            len(rel_off) - 1, sub_flat.buffer_info()[0],
            sub_off.buffer_info()[0], len(sub_off) - 1,
            _STRATEGIES[limits.strategy], rot_flat.buffer_info()[0],
            rot_off.buffer_info()[0], rot_first.buffer_info()[0],
            limits.max_cosets, lib.poll_type(kernel_poll),
            ctypes.byref(table), counts)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
    rows, peak, defined = counts
    if code == _ABORTED:
        # with nothing recorded, ctypes dropped an exception raised as the
        # poll was entered, as a signal handler's can be
        raise raised[0] if raised else KeyboardInterrupt
    if code == _NO_MEMORY:
        raise MemoryError("coset enumeration allocation failed")
    if code != _OK:
        return None, rows, peak, defined, _REASONS[code]
    flat = array("i")
    try:
        flat.frombytes(ctypes.string_at(table, rows * width * flat.itemsize))
    finally:
        lib.tc_free(table)
    return flat, rows, peak, defined, None


# tc_verify's codes besides _OK and k in 1..5, which names the first of its
# five checks to fail
_BAD_ARGUMENT, _VERIFY_NO_MEMORY = 6, 7


def verify(table, relators, subgroup) -> None:
    """Exhaustive check of a completed `coset_enum.CosetTable` in the
    kernel's `tc_verify`, which shares no code with its enumerator.

    Makes the five checks of `coset_enum._verify_table` in its order and
    raises `RuntimeError` with its message at the first that fails;
    `MemoryError` if the kernel cannot allocate its scratch buffers, and
    `ValueError` for a table without rows or shorter than its rows, or a
    letter outside `range(table.width)`.  Call it only once `kernel()`
    has loaded, as `todd_coxeter` does after a kernel run.
    """
    from .coset_enum import _VERIFY_MESSAGES
    from .exact import check_count

    n, width, tab = table.n, table.width, table._tab
    check_count("a coset table's rows", n)
    if len(tab) < n * width:
        raise ValueError(f"{n} rows of {width} need {n * width} entries, "
                         f"got {len(tab)}")
    try:
        rel_flat, rel_off = _flatten(relators)
        sub_flat, sub_off = _flatten(subgroup)
    except OverflowError:
        # beyond int32, so certainly outside range(width)
        raise ValueError(f"a word has a letter outside range({width})")
    code = kernel().tc_verify(
        n, width, tab.buffer_info()[0], rel_flat.buffer_info()[0],
        rel_off.buffer_info()[0], len(rel_off) - 1, sub_flat.buffer_info()[0],
        sub_off.buffer_info()[0], len(sub_off) - 1)
    if code == _BAD_ARGUMENT:
        raise ValueError(f"a word has a letter outside range({width})")
    if code == _VERIFY_NO_MEMORY:
        raise MemoryError("coset table check allocation failed")
    if code != _OK:
        raise RuntimeError(_VERIFY_MESSAGES[code - 1])


# tc_ball's codes besides _OK (a complete ball) and _NO_MEMORY
_CAPPED, _DETERMINANT = 1, 2


def ball(m, depth: int, erange: int, cap: int):
    """`coset_enum._SyllableBall(m, depth, erange)` under the growth cap
    `cap`, built by tc_ball, or None when the kernel is unavailable or an
    entry could pass 2^30 in absolute value, the bound that keeps
    tc_ball's shears and its determinant products within 2^60.  An entry
    is at most 2^(depth-1) c^depth with c = den(m) + erange * |num(m)|,
    the largest entry of a scaled step."""
    lib = kernel()
    c = m.denominator + erange * abs(m.numerator)
    if lib is None or not m or 2 ** (depth - 1) * c ** depth > 2 ** 30:
        return None
    return Ball(lib, m, depth, erange, cap)


class Ball:
    """A syllable ball in arrays: four entries, a weight, a parent and a
    last syllable coded 2*e + (0 for A, 1 for B) per element, and its equal
    evaluations, found by the same tc_ball call.  `nums` and `weights` give
    the entries and weights as `_SyllableBall`'s lists, for the conjugation
    search, built on first read."""

    def __init__(self, lib, m, depth, erange, cap):
        import ctypes

        # the whole ball, or at most one parent's children past the cap
        size = min(sum(4 * erange * (2 * erange) ** k for k in range(depth)),
                   max(cap, 0) + 4 * erange)
        count, nhits = array("q", [0]), array("q", [0])
        hits = ctypes.POINTER(ctypes.c_int64)()
        self.arrays = (array("q", [0]) * (4 * size), array("q", [0]) * size,
                       array("i", [0]) * size, array("i", [0]) * size)
        code = lib.tc_ball(m.numerator, m.denominator, depth, erange,
                           min(cap, size), size,
                           *(a.buffer_info()[0] for a in self.arrays),
                           count.buffer_info()[0], ctypes.byref(hits),
                           nhits.buffer_info()[0])
        if code == _DETERMINANT:
            raise ValueError("syllable ball product has determinant != 1")
        if code == _NO_MEMORY:
            raise MemoryError("relator search allocation failed")
        if code not in (_OK, _CAPPED):
            raise ValueError("the syllable ball does not fit its arrays")
        try:
            flat = hits[:2 * nhits[0]]
        finally:
            lib.tc_free(hits)
        self.n, self.complete = count[0], code == _OK
        self._equal = [("A", 0, flat[j], flat[j + 1])
                       for j in range(0, len(flat), 2)]

    def syllables_of(self, i: int) -> list[tuple[str, int]]:
        _, _, parents, syls = self.arrays
        out = []
        while i >= 0:
            e, s = divmod(syls[i], 2)
            out.append(("AB"[s], e))
            i = parents[i]
        out.reverse()
        return out

    @cached_property
    def nums(self) -> list[tuple[int, int, int, int]]:
        flat = self.arrays[0][:4 * self.n]
        return list(zip(flat[0::4], flat[1::4], flat[2::4], flat[3::4]))

    @cached_property
    def weights(self) -> list[int]:
        return self.arrays[1][:self.n].tolist()

    def equal_evaluations(self) -> list[tuple[str, int, int, int]]:
        """`coset_enum._SyllableBall.equal_evaluations` on this ball, in its
        order, as tc_ball recorded them."""
        return self._equal
