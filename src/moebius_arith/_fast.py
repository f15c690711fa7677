"""Compiled HLT engine: loader and wrapper for the C kernel in `_tc.c`.

`_tc.c` ports the HLT path of `coset_enum._Engine` step for step, so a run
yields a byte-identical table and the same definition count, peak and
overflow reason.  The pure engine stays the specification, the fallback
and the Felsch engine; `todd_coxeter` verifies every kernel table exactly
as it verifies its own.

The kernel is compiled on the first HLT enumeration, not at import, with
the system C compiler (`$CC`, default `cc`) and `-O2 -shared -fPIC`.  The
library lands in `$XDG_CACHE_HOME/moebius_arith/` (else
`~/.cache/moebius_arith/`) under a name keyed by the SHA-256 of the source
and the compile command.  It is written under a temporary name and renamed
into place, so parallel processes never load a partial file.  If compiling
or loading fails, `run_hlt` returns None and the caller runs the pure
engine.  The kernel does not poll for signals, so an interrupt takes
effect at the next progress report or when the run ends.
"""

from __future__ import annotations

import os
import time
from array import array

# read by the certifier benchmark to label its environment; there is no
# numba engine
HAS_NUMBA = False

# coset ids are int32 in the kernel
MAX_COSETS = 2 ** 31 - 1

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_tc.c")
FLAGS = ("-O2", "-shared", "-fPIC")

# tc_hlt's return codes
_OK, _MAX_COSETS, _TIME_LIMIT, _ABORTED, _NO_MEMORY = range(5)
_REASONS = {_MAX_COSETS: "max_cosets", _TIME_LIMIT: "time_limit"}

_UNSET = object()
_kernel = _UNSET


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "moebius_arith")


def _build() -> str:
    """Path of the compiled kernel, compiling it if it is not cached."""
    # imports here and below run on first use, so importing the package
    # stays as cheap as it was without the kernel
    import hashlib
    import shlex
    import subprocess
    import tempfile

    command = [*shlex.split(os.environ.get("CC", "cc")), *FLAGS]
    with open(SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update("\0".join(command).encode())
    target = os.path.join(_cache_dir(), f"_tc-{key.hexdigest()[:24]}.so")
    if os.path.isfile(target):
        return target
    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    try:
        subprocess.run([*command, "-o", tmp, SOURCE], check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def kernel():
    """The loaded kernel library, or None when it cannot be built or
    loaded.  Tried once per process."""
    global _kernel
    if _kernel is _UNSET:
        import ctypes
        import subprocess

        try:
            lib = ctypes.CDLL(_build())
        except (OSError, subprocess.SubprocessError):
            _kernel = None
            return None
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        lib.progress_type = ctypes.CFUNCTYPE(ctypes.c_int, i64, i64)
        lib.tc_hlt.argtypes = [
            i64, ptr, ptr, i64, ptr, ptr, i64, i64, ctypes.c_int,
            ctypes.c_double, lib.progress_type, i64,
            ctypes.POINTER(ctypes.POINTER(ctypes.c_int32)), ptr]
        lib.tc_hlt.restype = ctypes.c_int
        lib.tc_free.argtypes = [ctypes.POINTER(ctypes.c_int32)]
        lib.tc_free.restype = None
        _kernel = lib
    return _kernel


def _flatten(words) -> tuple[array, array]:
    flat, off = array("i"), array("q", [0])
    for wrd in words:
        flat.extend(wrd)
        off.append(len(flat))
    return flat, off


def run_hlt(width: int, relators, subgroup, max_cosets: int,
            time_limit_s, progress, progress_every: int):
    """HLT enumeration in the kernel; relators and subgroup words are
    letter tuples as `coset_enum.todd_coxeter` prepares them.

    Returns None when the kernel is unavailable, else (table, rows, peak,
    defined, reason): the compacted flat table and reason None on
    completion, no table and "max_cosets" or "time_limit" on overflow.
    An exception raised by `progress` aborts the run and propagates.
    """
    lib = kernel()
    if lib is None:
        return None
    import ctypes

    rel_flat, rel_off = _flatten(r for r in relators if r)
    sub_flat, sub_off = _flatten(subgroup)
    raised: list[BaseException] = []

    def report(defined, live):
        try:
            progress(defined, live)
        except BaseException as exc:   # ctypes would print and drop it
            raised.append(exc)
            return 1
        return 0

    callback = lib.progress_type(report) if progress else lib.progress_type()
    table = ctypes.POINTER(ctypes.c_int32)()
    counts = (ctypes.c_int64 * 3)()
    deadline = time.monotonic() + time_limit_s if time_limit_s else 0.0
    code = lib.tc_hlt(
        width, rel_flat.buffer_info()[0], rel_off.buffer_info()[0],
        len(rel_off) - 1, sub_flat.buffer_info()[0], sub_off.buffer_info()[0],
        len(sub_off) - 1, max_cosets, bool(time_limit_s), deadline,
        callback, progress_every, ctypes.byref(table), counts)
    rows, peak, defined = counts
    if code == _ABORTED:
        raise raised[0]
    if code == _NO_MEMORY:
        raise MemoryError("coset table allocation failed")
    if code != _OK:
        return None, rows, peak, defined, _REASONS[code]
    flat = array("i")
    try:
        flat.frombytes(ctypes.string_at(table, rows * width * flat.itemsize))
    finally:
        lib.tc_free(table)
    return flat, rows, peak, defined, None
