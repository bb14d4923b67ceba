"""Properties of the package source itself."""

import ast
import pathlib

import rostcalc

SRC = pathlib.Path(rostcalc.__file__).resolve().parent


def test_no_assert_statements():
    """Runtime invariants raise: ``python -O`` strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
