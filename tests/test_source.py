"""Properties of the package source itself."""

import ast
import importlib.util
import pathlib

import rostcalc

SRC = pathlib.Path(rostcalc.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_assert_statements():
    """Runtime invariants raise: ``python -O`` strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_attributes_exist():
    """Every attribute the benchmark's tracer wraps is still defined where
    it looks for it, so a rename cannot silently break the traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in tracer.Tracer()._targets()
               if attr not in vars(owner)]
    assert missing == []
