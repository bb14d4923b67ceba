"""Properties of the package source itself."""

import ast
import importlib.util
import pathlib
from collections import Counter

import rostcalc
from rostcalc import steenrod
from rostcalc.splitring import make_params

SRC = pathlib.Path(rostcalc.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_assert_statements():
    """Runtime invariants raise: ``python -O`` strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_attributes_exist():
    """Every attribute the benchmark's tracer wraps is still defined where
    it looks for it, so a rename cannot silently break the traced run."""
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _ in _tracer_module().Tracer()._targets()
               if attr not in vars(owner)]
    assert missing == []


def test_tracer_counts_classes_and_verdicts():
    """The audit classifies each case (one per run and bucket) through the
    module's valuation_bound, which the tracer wraps, and its report
    carries the verdict tallies the tracer reads."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        rep = steenrod.audit_rationality(make_params(3, 2), 2, 2)
        steenrod.replay(rep)
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names[i] for i in tracer.span_name)
    assert spans["steenrod.classify"] == sum(
        case.product is not None for case in rep.cases) < len(rep.cases)
    assert tracer.counts["steenrod.verdicts"] == sum(rep.counts().values())
    assert tracer.counts["steenrod.verdicts"] > 2 * len(rep.cases)
    assert spans["steenrod.audit"] == spans["steenrod.replay"] == 1
