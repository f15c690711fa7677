"""Source-level checks on the package itself."""

import ast
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
