"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

import pytest

import moebius_arith

SOURCES = sorted(Path(moebius_arith.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; every check must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    # AssertionError is the channel `assert` uses, and callers may catch
    # it as such; an invalid state raises RuntimeError or ValueError
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and "AssertionError" in {n.id for n in ast.walk(node.exc)
                                      if isinstance(n, ast.Name)}]
    assert lines == [], f"{path.name}: raise AssertionError on lines {lines}"


def _environment_reads(path):
    """The names of the environment variables `path` reads by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target, args = node.func, node.args
        elif isinstance(node, ast.Subscript):
            target, args = node.value, [node.slice]
        else:
            continue
        if (ast.unparse(target) in ("os.environ", "os.environ.get",
                                    "os.getenv")
                and args and isinstance(args[0], ast.Constant)):
            names.add(args[0].value)
    return names


def test_environment_variables_are_documented():
    # an environment variable is a setting as much as a flag is, so each
    # one the package reads must be named in the README
    read = set().union(*map(_environment_reads, SOURCES))
    assert {"CC", "XDG_CACHE_HOME"} <= read
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = sorted(n for n in read
                     if not re.search(rf"\b{re.escape(n)}\b", readme))
    assert missing == [], missing


def _defined_functions(code):
    """The names of the functions C source `code` (comments removed)
    defines or declares at the start of a line; typedefs are not
    functions."""
    return set(re.findall(r"^(?!typedef\b)\w[\w *]*?\b([A-Za-z_]\w*)\(",
                          code, flags=re.M))


def test_kernel_table_check_shares_no_code_with_enumerator():
    # tc_verify and its helpers form the last section of _tc.c; a checker
    # that reused the enumerator's code could share its faults
    source = (SOURCES[0].parent / "_tc.c").read_text()
    marker = source.index("/* -- table check")
    section = source[marker:]
    assert "Engine" not in section
    # every function of the enumerator half, read off that half
    enumerator = _defined_functions(
        re.sub(r"/\*.*?\*/", " ", source[:marker], flags=re.S))
    assert {"rep", "coincide", "define", "scan", "run", "grow",
            "tc_enumerate", "tc_free"} <= enumerator
    code = re.sub(r"/\*.*?\*/", " ", section, flags=re.S)
    assert re.search(r"^int tc_verify\(", code, flags=re.M)
    names = set(re.findall(r"\b[A-Za-z_]\w*\b", code))
    assert names.isdisjoint(enumerator), sorted(names & enumerator)
    # and it calls nothing defined outside the section but libc
    called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", code))
    keywords = {"if", "for", "while", "return", "sizeof"}
    assert called - _defined_functions(code) - keywords <= {"malloc", "free"}


# C types and the kind of value each passes
C_KINDS = {"int": "int32", "int64_t": "int64", "double": "double",
           "void": "void"}
KERNEL_CODE = re.sub(r"/\*.*?\*/", " ",
                     (SOURCES[0].parent / "_tc.c").read_text(), flags=re.S)
# the kernel's exports: its definitions that are neither static nor typedefs
KERNEL_EXPORTS = re.findall(r"^(?:int|void) (\w+)\(", KERNEL_CODE, flags=re.M)


def _c_signature(code, function):
    """The kind `function` in C `code` returns and the kind of each of its
    parameters: int32, int64, double, void, or pointer for a pointer or a
    function-pointer typedef."""
    callbacks = set(re.findall(r"typedef\s+\w+\s*\(\s*\*\s*(\w+)\s*\)",
                               code))
    returns, params = re.search(rf"^(int|void) {function}\((.*?)\)\s*\{{",
                                code, flags=re.M | re.S).groups()
    kinds = []
    for param in params.split(","):
        ctype = param.replace("const ", "").split()[0]
        if "*" in param or ctype in callbacks:
            kinds.append("pointer")
        else:
            kinds.append(C_KINDS[ctype])
    return C_KINDS[returns], kinds


def _ctypes_kind(t):
    import ctypes

    if t is None:
        return "void"
    if t is ctypes.c_double:
        return "double"
    if t in (ctypes.c_int, ctypes.c_int64):
        return f"int{8 * ctypes.sizeof(t)}"
    if t is ctypes.c_void_p or issubclass(t, (ctypes._Pointer,
                                               ctypes._CFuncPtr)):
        return "pointer"
    return repr(t)


@pytest.mark.parametrize("function", KERNEL_EXPORTS)
def test_kernel_argtypes_match_source(function):
    # ctypes passes arguments and reads the result as `argtypes` and
    # `restype` say; one that disagrees with the C definition corrupts
    # memory without any error
    from moebius_arith import _fast

    lib = _fast.kernel()
    if lib is None:
        pytest.skip("the C kernel could not be built")
    declared = getattr(lib, function)
    returns, params = _c_signature(KERNEL_CODE, function)
    assert _ctypes_kind(declared.restype) == returns
    assert [_ctypes_kind(t) for t in declared.argtypes] == params


def _c_constants(source):
    """The value of every integer `#define` and enum constant in C
    `source`; an enum constant without `= value` is one more than the one
    before it, and the first is 0."""
    code = re.sub(r"/\*.*?\*/", " ", source, flags=re.S)
    values = {name: int(value) for name, value in re.findall(
        r"^#define\s+(\w+)\s+\(?(-?\d+)\)?\s*$", code, flags=re.M)}
    for body in re.findall(r"\benum\s*\{(.*?)\}", code, flags=re.S):
        value = -1
        for item in filter(str.strip, body.split(",")):
            name, _, given = item.partition("=")
            value = int(given) if given.strip() else value + 1
            values[name.strip()] = value
    return values


def test_kernel_constants_match_python():
    # `_fast` and `coset_enum` copy these values from _tc.c by hand; a
    # return code that drifts would be read as another outcome
    from moebius_arith import _fast, coset_enum

    kernel = _c_constants(Path(_fast.SOURCE).read_text())
    copies = {
        "TC_OK": _fast._OK, "TC_MAX_COSETS": _fast._MAX_COSETS,
        "TC_TIME_LIMIT": _fast._TIME_LIMIT, "TC_ABORTED": _fast._ABORTED,
        "TC_NO_MEMORY": _fast._NO_MEMORY,
        "TC_HLT": _fast._STRATEGIES["hlt"],
        "TC_FELSCH": _fast._STRATEGIES["felsch"],
        "RS_COMPLETE": _fast._OK, "RS_CAPPED": _fast._CAPPED,
        "RS_DETERMINANT": _fast._DETERMINANT,
        "RS_NO_MEMORY": _fast._NO_MEMORY,
        "TV_OK": _fast._OK,
        "TV_SUBGROUP_MOVED": len(coset_enum._VERIFY_MESSAGES),
        "TV_BAD_ARGUMENT": _fast._BAD_ARGUMENT,
        "TV_NO_MEMORY": _fast._VERIFY_NO_MEMORY,
        "POLL_EVERY": coset_enum._POLL_EVERY,
        "COMPACT_MIN_ROWS": coset_enum._COMPACT_MIN_ROWS,
        "LOOKAHEAD_MIN_ROWS": coset_enum._LOOKAHEAD_MIN_ROWS,
        "LOOKAHEAD_GROWTH": coset_enum._LOOKAHEAD_GROWTH,
        "STACK_FLOOR": coset_enum._STACK_FLOOR,
        "UNDEF": coset_enum.UNDEF,
    }
    assert {name: kernel.get(name) for name in copies} == copies


# -- the benchmark's use of the package ------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    """perfbench/tracing.py, loaded by path: the benchmark is not a
    package and its own tests run apart from these."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_contract():
    # the public names, members and call shapes the benchmark relies on;
    # a signature change here would only show when the benchmark runs
    import importlib
    import inspect

    from moebius_arith import _fast

    tracing = _load_tracing()
    for module, name, _span in tracing.TRACED:
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(mod, name, None)), f"{module}.{name}"
    assert isinstance(_fast.HAS_NUMBA, bool)
    used = set()
    for path in BENCH.glob("*.py"):
        used |= set(re.findall(r"\bpkg\.([A-Za-z]\w*)", path.read_text()))
    assert used, "the benchmark reaches the package as `pkg`"
    missing = sorted(n for n in used if not hasattr(moebius_arith, n))
    assert missing == [], missing

    spec, limits, g, cert, table, pres, wa, wb = (object(),) * 8
    sig = inspect.signature
    sig(moebius_arith.certify).bind(spec, limits)
    sig(moebius_arith.certify_with_table).bind(spec, limits)
    sig(moebius_arith.membership_report).bind(spec, g, cert, table, pres)
    sig(moebius_arith.find_relator).bind(pres, wa, wb, table, bound=40)
    sig(moebius_arith.EnumerationLimits).bind(
        max_cosets=10, strategy="hlt", time_limit_s=1.0)
