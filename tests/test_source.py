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
