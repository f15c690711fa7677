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


# every function of the enumerator half of _tc.c
ENUMERATOR_FUNCTIONS = (
    "rep", "merge", "coincide", "define", "scan", "scan_word", "lookahead",
    "compact", "closing_pass", "run", "recover", "drain_deductions",
    "push_deduction", "hlt_step", "felsch_step")


def test_kernel_table_check_shares_no_code_with_enumerator():
    # tc_verify and its helpers form the last section of _tc.c; a checker
    # that reused the enumerator's code could share its faults
    source = (SOURCES[0].parent / "_tc.c").read_text()
    section = source[source.index("/* -- table check"):]
    assert "Engine" not in section
    code = re.sub(r"/\*.*?\*/", " ", section, flags=re.S)
    assert re.search(r"^int tc_verify\(", code, flags=re.M)
    names = set(re.findall(r"\b[A-Za-z_]\w*\b", code))
    assert names.isdisjoint(ENUMERATOR_FUNCTIONS), \
        sorted(names.intersection(ENUMERATOR_FUNCTIONS))
    # and it calls nothing defined outside the section but libc
    called = set(re.findall(r"\b([A-Za-z_]\w*)\s*\(", code))
    defined = set(re.findall(r"^\w[\w ]*?\b([A-Za-z_]\w*)\(", code,
                             flags=re.M))
    keywords = {"if", "for", "while", "return", "sizeof"}
    assert called - defined - keywords <= {"malloc", "free"}
