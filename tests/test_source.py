"""Properties of the package source itself."""

import ast
import importlib.util
import pathlib
import re
from collections import Counter

import rostcalc
from rostcalc import steenrod
from rostcalc.splitring import make_params

SRC = pathlib.Path(rostcalc.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_no_assert_statements():
    """Runtime invariants raise: ``python -O`` strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_src_reads_ascii_only():
    """No src module classifies characters with a str method that accepts
    non-ASCII ones too ("\u00b2".isdigit(), "\u03c3".isalpha())."""
    unicode_classes = {"isdigit", "isalpha", "isalnum", "isdecimal",
                       "isnumeric"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in unicode_classes]
    assert found == []


def _identifiers(node):
    """The names, attribute names and identifier strings used in node (the
    benchmark's tracer names what it wraps by string)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value


def test_library_names_have_a_non_test_caller():
    """Every module-level function and class of the package is used outside
    its own definition by the package, the scripts or the benchmark, not
    only by the tests.  The package's __init__ is no caller."""
    callers = [path for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py"))
    callers += [path for path in sorted((ROOT / "perfbench").glob("*.py"))
                if not path.name.startswith("test_")]
    defined, used = {}, Counter()
    for path in callers:
        for stmt in ast.parse(path.read_text()).body:
            names = Counter(_identifiers(stmt))
            if path.parent == SRC and isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = f"{path.stem}.{stmt.name}"
                del names[stmt.name]
            used.update(names)
    assert sorted(where for name, where in defined.items()
                  if not used[name]) == []


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


def test_readme_lists_every_script():
    """README's Scripts section names exactly the files in scripts/."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\* `scripts/([^`]+)`", section, re.M)
    assert sorted(listed) == sorted(
        path.name for path in (ROOT / "scripts").iterdir() if path.is_file())
