"""Command-line front end.

Payload goes to stdout, diagnostics to stderr.  Exit codes: 0 success /
all checks pass, 1 a verification or audit failed, 2 invalid input
(bad flags, non-prime p, parse or type errors, non-unit e).

A cold start imports only what its subcommand runs.  Every subcommand
loads this module, ``splitring``, ``arith``, and ``verify`` with
``reporting`` (the parser reads the suite names from ``verify.SUITES``);
``params`` loads nothing more.  ``chow`` adds ``rostchow`` and ``motcoh``,
``motcoh`` adds ``motcoh``, ``eval`` adds ``exprlang`` with ``corresp`` and
``endalg``, ``audit`` adds ``steenrod`` with ``corresp`` and ``endalg``, and
``verify`` adds the engines of the suites it runs.  ``json`` and ``csv``
load only for ``--format json`` and ``--format csv``.
"""

import argparse
import functools
import io
import re
import sys
from fractions import Fraction

from . import verify
from .splitring import make_params

FORMATS = ("text", "json", "csv")


# int() and Fraction() read any Unicode decimal digit; options take ASCII
_INT = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _int(text):
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError:  # past Python's limit on digits
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _fraction(text):
    if not _RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid fraction value: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise argparse.ArgumentTypeError(str(err))


@functools.lru_cache(maxsize=1)
def build_parser():
    """The parser, built once per process: parse_args leaves it unchanged,
    and help text reads the terminal width when it is formatted."""
    top = argparse.ArgumentParser(
        prog="rostcalc",
        description="Exact split-model calculus for norm-variety motives.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp, with_e=True):
        sp.add_argument("-p", type=_int, required=True, help="prime")
        sp.add_argument("-n", type=_int, required=True, help="symbol length")
        if with_e:
            sp.add_argument("-e", type=_fraction, default=Fraction(1),
                            help="degree of the top power (p-unit)")

    def fmt(sp):
        sp.add_argument("--format", choices=FORMATS, default="text")

    sp = sub.add_parser("params", help="derived numerical parameters")
    common(sp)
    fmt(sp)

    sp = sub.add_parser("chow", help="Chow-group table of the motive")
    common(sp, with_e=False)
    sp.add_argument("--method", choices=("closed", "recurrence", "both"),
                    default="closed")
    sp.add_argument("--trace", action="store_true",
                    help="include the derivation note for each degree")
    fmt(sp)

    sp = sub.add_parser("motcoh", help="motivic-cohomology monomial bases")
    common(sp, with_e=False)
    sp.add_argument("--row", choices=("even", "odd"),
                    help="row family H^{2j,j} or H^{2j+1,j}")
    sp.add_argument("--j", type=_int, help="weight of the row")
    sp.add_argument("--bidegree", type=_int, nargs=2, metavar=("I", "J"),
                    help="a single bidegree (i, j)")
    fmt(sp)

    sp = sub.add_parser("verify", help="run a named identity suite")
    common(sp)
    sp.add_argument("--suite", required=True,
                    choices=(*verify.SUITES, "all"))

    sp = sub.add_parser("eval", help="evaluate an expression")
    common(sp)
    sp.add_argument("expr", help="expression, e.g. 'sigma @ sigma^2'; put "
                    "-- before one that starts with '-'")
    fmt(sp)

    sp = sub.add_parser("audit", help="p-divisibility audit")
    common(sp, with_e=False)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rationality", action="store_true",
                      help="audit deg(b_i x b_j * S^s(sigma^(p-1)) * ...)")
    mode.add_argument("--generators", action="store_true",
                      help="audit the order of deg(bY_i * S(sigma^r))")
    sp.add_argument("-m", type=_int, required=True)
    sp.add_argument("-s", type=_int,
                    help="total Steenrod degree (rationality)")
    sp.add_argument("-r", type=_int, help="sigma power (generators)")
    fmt(sp)
    return top


# --- output --------------------------------------------------------------------


def _param_doc(params):
    return {"p": params.p, "n": params.n, "b": params.b, "c": params.c,
            "d": params.d, "e": str(params.e)}


def _write(fmt, doc, header, rows, lines):
    """Write a command's payload to stdout in ``fmt``: ``doc`` as indented
    json, ``header`` and ``rows`` as csv, or ``lines`` as text."""
    if fmt == "json":
        import json
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------


def cmd_params(ns, params):
    doc = _param_doc(params)
    _write(ns.format, doc, list(doc), [list(doc.values())],
           [f"{k} = {v}" for k, v in doc.items()])
    return 0


def _provenance(desc):
    if desc.kind == "p_free":
        return f"j = b*{desc.k}"
    if desc.kind == "cyclic_p":
        return f"j = b*{desc.k} - p^{desc.i} + 1"
    return None


def cmd_chow(ns, params):
    from . import rostchow
    if ns.method == "both":
        table, other = rostchow.closed_form(params), rostchow.recurrence(params)
        diffs = rostchow.diffs(table, other)
        if diffs:
            for j, left, right in diffs:
                print(f"disagreement at j={j}: closed {left} vs "
                      f"recurrence {right}", file=sys.stderr)
            return 1
    else:
        table = (rostchow.recurrence if ns.method == "recurrence"
                 else rostchow.closed_form)(params)
    if ns.trace:
        trace = table.trace
        if ns.method == "both":
            trace = {j: f"closed: {t}; recurrence: {r}"
                     for (j, t), r in zip(trace.items(), other.trace.values())}

    provenance = {j: text for j, desc in table.entries.items() if (text := _provenance(desc))}
    rows = [(j, desc.kind) for j, desc in table.rows()]
    doc = lines = None
    if ns.format == "json":
        groups = [{"j": j, "kind": kind} for j, kind in rows]
        for j, text in provenance.items():
            groups[j]["provenance"] = text
        doc = _param_doc(params)
        doc.update(method=ns.method, groups=groups)
        if ns.trace:
            doc["trace"] = {str(j): note for j, note in trace.items()}
    elif ns.format == "text":
        lines = [f"Chow groups, p={params.p} n={params.n} (method {ns.method})"]
        lines += (f"j={j}: {kind}"
                  + (f"  [{provenance[j]}]" if j in provenance else "")
                  + (f"  -- {trace[j]}" if ns.trace else "")
                  for j, kind in rows)
    _write(ns.format, doc, ["j", "kind"], rows, lines)
    return 0


def _monomial_doc(mono, params):
    from . import motcoh
    if mono == motcoh.CONSTANT_CLASS:
        return {"m": None, "k": None, "eps": None, "text": "1"}
    return {"m": mono.m, "k": mono.k, "eps": list(mono.eps),
            "text": motcoh.render_monomial(mono, params)}


def _monomial_row(doc):
    eps = "" if doc["eps"] is None else "".join(str(b) for b in doc["eps"])
    blank = lambda v: "" if v is None else v
    return [blank(doc["m"]), blank(doc["k"]), eps, doc["text"]]


def cmd_motcoh(ns, params):
    from . import motcoh
    row_mode = ns.row is not None or ns.j is not None
    if row_mode == (ns.bidegree is not None):
        raise ValueError(
            "specify either --row even|odd with --j J, or --bidegree I J")
    doc = _param_doc(params)
    if row_mode:
        if ns.row is None or ns.j is None:
            raise ValueError("--row and --j must be given together")
        group = (motcoh.even_row if ns.row == "even" else motcoh.odd_row)(
            ns.j, params)
        monos = [_monomial_doc(mo, params) for mo in group.monomials]
        doc.update({"row": ns.row, "j": ns.j, "label": group.label,
                    "monomials": monos})
        head = (f"H^(2j{'+1' if ns.row == 'odd' else ''},j) at j={ns.j}: "
                f"{motcoh.render_group(group, params)}")
    else:
        i, j = ns.bidegree
        monos = [_monomial_doc(mo, params)
                 for mo in motcoh.enumerate_monomials(i, j, params)]
        doc.update({"i": i, "j": j, "monomials": monos})
        head = f"H^({i},{j}): {len(monos)} monomial(s)"
    lines = [head] + [f"  {mo['text']}  (m={mo['m']}, k={mo['k']}, "
                      f"eps={mo['eps']})" for mo in monos]
    _write(ns.format, doc, ["m", "k", "eps", "text"],
           [_monomial_row(mo) for mo in monos], lines)
    return 0


def cmd_verify(ns, params):
    reports = verify.run_suite(ns.suite, params)
    lines = []
    failed = 0
    total = 0
    for report in reports:
        lines.extend(report.lines())
        failed += len(report.failures())
        total += len(report.checks)
    lines.append(f"{total - failed}/{total} checks passed")
    _write("text", None, None, None, lines)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_eval(ns, params):
    from . import exprlang
    ast = exprlang.parse(ns.expr)
    result = exprlang.evaluate(ast, params)
    if ns.format == "text":
        # text prints the value alone: build no json document or csv rows
        text = (("true" if result else "false") if isinstance(result, bool)
                else result)
        _write("text", None, None, None, [text])
        return 0
    name, header, rows, json_value = exprlang.VALUE_TYPES[type(result)]
    rows = rows(result)
    doc = _param_doc(params)
    doc.update({"expr": exprlang.to_source(ast), "type": name,
                "value": ([dict(zip(header, row)) for row in rows]
                          if json_value is None else json_value(result))})
    _write(ns.format, doc, header, rows, None)
    return 0


def cmd_audit(ns, params):
    from . import steenrod
    if ns.rationality:
        if ns.s is None or ns.r is not None:
            raise ValueError("--rationality takes -m M and -s S")
        report = steenrod.audit_rationality(params, ns.m, ns.s)
    else:
        if ns.r is None or ns.s is not None:
            raise ValueError("--generators takes -m M and -r R")
        report = steenrod.audit_generators(params, ns.m, ns.r)

    counts = report.counts()
    terms = sum(counts.values())
    leading = report.leading
    doc = _param_doc(params)
    doc.update({
        "kind": report.kind,
        **dict(report.args),
        "premises": list(report.premises),
        "support": [{"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in report.support],
        "cases": terms,
        "verdicts": counts,
        "leading": leading.describe() if leading else None,
        "conclusion": report.conclusion,
        "passed": report.passed,
    })
    rows = [["kind", report.kind], *report.args, ["cases", terms],
            ["zero", counts["zero"]], ["at-least", counts["at-least"]],
            ["exact", counts["exact"]],
            ["passed", "true" if report.passed else "false"]]
    lines = report.header_lines()
    lines.append(f"cases: {terms} (zero={counts['zero']}, "
                 f"at-least={counts['at-least']}, exact={counts['exact']})")
    if leading:
        lines.append(f"leading {leading.describe()}")
    lines.append(report.conclusion)
    _write(ns.format, doc, ["key", "value"], rows, lines)
    return 0 if report.passed else 1


COMMANDS = {
    "params": cmd_params,
    "chow": cmd_chow,
    "motcoh": cmd_motcoh,
    "verify": cmd_verify,
    "eval": cmd_eval,
    "audit": cmd_audit,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        params = make_params(ns.p, ns.n, e=getattr(ns, "e", Fraction(1)))
        return COMMANDS[ns.command](ns, params)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
