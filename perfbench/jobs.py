"""Run one benchmark job through rostcalc's public entry points and check
its output.

Only ``rostcalc.cli.main(argv)`` and the public functions of steenrod,
rostchow and motcoh are called.  Each check that fails is one failed
operation.  The timed region covers the program's call and nothing the
benchmark does to check it.
"""

import contextlib
import io
import json
import os
import re
import time

from rostcalc import cli, motcoh, rostchow, steenrod
from rostcalc.splitring import make_params

import workloads

#: verdict totals (zero, at-least, exact) of the full grids, from ROADMAP.md
GRID_TOTALS = {(2, 3): (5667, 36982, 65), (3, 2): (11682, 27463, 32)}

_EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "expected_verdicts.json")

_VERIFY_LAST = re.compile(r"(\d+)/(\d+) checks passed")
_CHOW_KINDS = ("zero", "free", "p_free", "cyclic_p")


def load_expected():
    """{(p, n, kind, m, arg): (zero, at-least, exact)} for sampled audits."""
    with open(_EXPECTED_PATH) as fh:
        table = json.load(fh)
    out = {}
    for sym, rows in table.items():
        p, n = map(int, sym.split(","))
        for key, counts in rows.items():
            kind, m, arg = key.split()
            out[(p, n, kind, int(m), int(arg))] = tuple(counts)
    return out


def motcoh_oracle(i, j, p, n):
    """The (m, k, eps) of bidegree (i, j), found from base-p digits.

    From the bidegree formulas, sum_t eps_t p^t = j - w - 2 - (c+1)k with
    w = 2j - i, so eps is the base-p expansion of that value over p when
    its digits are all 0 or 1.  This is independent of the program's 2^n
    scan over eps vectors.
    """
    if (i, j) == (0, 0):
        return ["1"]
    _, c, _ = workloads.symbol(p, n)
    w = 2 * j - i
    found = []
    for k in range(j // (c - 1) + 1):
        v = j - w - 2 - (c + 1) * k
        if v < 0 or v % p:
            continue
        q, eps = v // p, []
        for _ in range(n):
            q, digit = divmod(q, p)
            eps.append(digit)
        if q or max(eps) > 1:
            continue
        m = w + 2 * k + sum(eps) - n + 2
        if m >= 0:
            found.append((m, k, tuple(eps)))
    return sorted(found)


def _as_triples(monomials):
    return [m if m == motcoh.CONSTANT_CLASS else (m.m, m.k, tuple(m.eps))
            for m in monomials]


def _row_label(monos, p):
    if monos == ["1"]:
        return "Z"
    if not monos:
        return "0"
    (m, _, _), = monos
    return f"Z/{p}" if m == 0 else f"K_{m}^s"


def _params_text(p, n, fmt):
    b, c, d = workloads.symbol(p, n)
    doc = {"p": p, "n": n, "b": b, "c": c, "d": d, "e": "1"}
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return "p,n,b,c,d,e\n" + ",".join(str(v) for v in doc.values()) + "\n"
    return "".join(f"{k} = {v}\n" for k, v in doc.items())


def _flag(argv, name):
    return argv[argv.index(name) + 1]


class Runner:
    """Runs jobs in order and keeps what later checks need: the first
    output of each eval pair and the verdict totals per (part, symbol)."""

    def __init__(self, expected, clock=None):
        self.expected = expected
        self.clock = clock or (lambda: (time.perf_counter(),
                                        time.process_time()))
        self.pair_out = {}
        self.totals = {}

    def _since(self, start):
        """(wall seconds, CPU seconds) since start = self.clock()."""
        wall, cpu = self.clock()
        return wall - start[0], cpu - start[1]

    def run(self, job):
        """Return ((wall seconds, CPU seconds), output text for the digest,
        failure or None)."""
        return getattr(self, "_" + job[0])(*job[1:])

    def _audit(self, kind, p, n, m, arg, part):
        params = make_params(p, n)
        audit = (steenrod.audit_rationality if kind == "rationality"
                 else steenrod.audit_generators)
        t0 = self.clock()
        report = audit(params, m, arg)
        replayed = steenrod.replay(report)
        counts = tuple(report.counts().values())
        elapsed = self._since(t0)
        key = (part, p, n)
        old = self.totals.get(key, (0, 0, 0))
        self.totals[key] = tuple(a + b for a, b in zip(old, counts))
        out = f"{kind} {p},{n} m={m} {arg}: {counts}"
        if not report.passed:
            return elapsed, out, f"audit did not pass: {report.conclusion}"
        if not replayed.passed:
            return elapsed, out, f"replay failed: {replayed.failures()}"
        want = self.expected.get((p, n, kind, m, arg))
        if part == "sample" and want != counts:
            return elapsed, out, f"verdicts differ from the recorded {want}"
        return elapsed, out, None

    def _compare(self, p, n):
        params = make_params(p, n)
        t0 = self.clock()
        agree, diffs = rostchow.compare(params)
        elapsed = self._since(t0)
        out = f"compare {p},{n}: {agree} {len(diffs)}"
        return elapsed, out, None if agree and not diffs else out

    def _row(self, p, n, row, j):
        params = make_params(p, n)
        fn = motcoh.even_row if row == "even" else motcoh.odd_row
        t0 = self.clock()
        group = fn(j, params)
        elapsed = self._since(t0)
        got = _as_triples(group.monomials)
        want = motcoh_oracle(2 * j + (row == "odd"), j, p, n)
        out = f"{row} row {p},{n} j={j}: {group.label} {got}"
        if got != want or group.label != _row_label(want, p):
            return elapsed, out, f"expected {_row_label(want, p)} {want}"
        return elapsed, out, None

    def _bidegree(self, p, n, i, j):
        params = make_params(p, n)
        t0 = self.clock()
        monos = motcoh.enumerate_monomials(i, j, params)
        elapsed = self._since(t0)
        got, want = _as_triples(monos), motcoh_oracle(i, j, p, n)
        out = f"H^({i},{j}) {p},{n}: {got}"
        return elapsed, out, None if got == want else f"expected {want}"

    def _cli(self, argv, check, key):
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = self.clock()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        elapsed = self._since(t0)
        text = stdout.getvalue()
        out = f"{argv} -> {code}\n{text}"
        if code != 0:
            return elapsed, out, f"exit {code}: {stderr.getvalue().strip()}"
        return elapsed, out, getattr(self, "_check_" + check)(argv, text, key)

    def _check_pair(self, argv, text, key):
        if key not in self.pair_out:
            self.pair_out[key] = text
            return None
        first = self.pair_out.pop(key)
        return None if first == text else f"pair differs: {first!r}"

    def _check_verify(self, argv, text, key):
        last = _VERIFY_LAST.fullmatch(text.rstrip("\n").rsplit("\n", 1)[-1])
        if last and last.group(1) == last.group(2):
            return None
        return "verify did not report N/N checks passed"

    def _check_params(self, argv, text, key):
        want = _params_text(int(_flag(argv, "-p")), int(_flag(argv, "-n")),
                            _flag(argv, "--format"))
        return None if text == want else f"expected {want!r}"

    def _check_chow(self, argv, text, key):
        d = workloads.symbol(int(_flag(argv, "-p")), int(_flag(argv, "-n")))[2]
        rows = text.splitlines()
        body = [r.split(",") for r in rows[1:]]
        ok = (rows[0] == "j,kind" and len(body) == d + 1
              and all(r[0] == str(j) and r[1] in _CHOW_KINDS
                      for j, r in enumerate(body))
              and body[0][1] == "free")
        return None if ok else "malformed chow table"

    def _check_motcoh(self, argv, text, key):
        p, n = int(_flag(argv, "-p")), int(_flag(argv, "-n"))
        doc = json.loads(text)
        got = [m["text"] if m["m"] is None
               else (m["m"], m["k"], tuple(m["eps"]))
               for m in doc["monomials"]]
        if "--bidegree" in argv:
            at = argv.index("--bidegree")
            want = motcoh_oracle(int(argv[at + 1]), int(argv[at + 2]), p, n)
            label = None
        else:
            j = int(_flag(argv, "--j"))
            odd = _flag(argv, "--row") == "odd"
            want = motcoh_oracle(2 * j + odd, j, p, n)
            label = _row_label(want, p)
        if got != want or doc.get("label") != label:
            return f"expected {label} {want}"
        return None

    def final_checks(self, workload):
        """Aggregate checks after the last job: [(name, failure or None)]."""
        if workload != "audit-grid":
            return []
        out = []
        for (p, n), want in GRID_TOTALS.items():
            got = self.totals.get(("grid", p, n))
            out.append((f"grid totals ({p},{n})",
                        None if got == want else f"got {got}, want {want}"))
        return out
