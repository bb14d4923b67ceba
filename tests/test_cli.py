"""Command-line interface: payloads, formats, exit codes, goldens."""

import contextlib
import functools
import io
import json
import pathlib
import resource
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROADMAP_TOTALS, child_env, verdict_totals
from rostcalc import rostchow, steenrod, verify
from rostcalc.cli import main
from rostcalc.reporting import CheckReport
from rostcalc.splitring import make_params
from rostcalc.steenrod import AuditReport

GOLDEN = pathlib.Path(__file__).parent / "golden" / "v1"

GOLDEN_ARGV = json.loads((GOLDEN / "argv.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- goldens -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_bytes(name, capsys):
    code, out, _ = run(capsys, *GOLDEN_ARGV[name])
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_payload_deterministic(name, capsys):
    _, first, _ = run(capsys, *GOLDEN_ARGV[name])
    _, second, _ = run(capsys, *GOLDEN_ARGV[name])
    assert first == second


# --- params --------------------------------------------------------------------


def test_params_text(capsys):
    code, out, _ = run(capsys, "params", "-p", "3", "-n", "2")
    assert code == 0
    assert out == "p = 3\nn = 2\nb = 4\nc = 13\nd = 8\ne = 1\n"


def test_params_custom_e(capsys):
    code, out, _ = run(capsys, "params", "-p", "3", "-n", "2", "-e", "4/5")
    assert code == 0
    assert "e = 4/5" in out


def test_params_nonprime_exit_2(capsys):
    code, out, err = run(capsys, "params", "-p", "4", "-n", "2")
    assert code == 2
    assert out == ""
    assert "p must be prime" in err


def test_params_nonunit_e_exit_2(capsys):
    code, _, err = run(capsys, "params", "-p", "3", "-n", "2", "-e", "3")
    assert code == 2
    assert "p-unit" in err


def test_params_bad_e_literal_exit_2(capsys):
    code, _, _ = run(capsys, "params", "-p", "3", "-n", "2", "-e", "1/0")
    assert code == 2


def test_missing_required_flag_exit_2(capsys):
    code, _, _ = run(capsys, "params", "-n", "2")
    assert code == 2


def test_help_exit_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "params" in out and "audit" in out


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"],
                                  ["params", "-n", "2"],
                                  ["chow", "-p", "3", "-n", "2", "--format",
                                   "xml"]])
def test_repeated_call_same_result(argv, capsys):
    # the parser is built once per process, and a second call reuses it
    first = run(capsys, *argv)
    assert first[0] in (0, 2) and first[1] + first[2]
    assert run(capsys, *argv) == first


# --- chow ----------------------------------------------------------------------


def test_chow_text_spot(capsys):
    code, out, _ = run(capsys, "chow", "-p", "3", "-n", "2")
    assert code == 0
    assert "j=0: free" in out
    assert "j=2: cyclic_p" in out
    assert "j=4: p_free" in out
    assert "j=1: zero" in out


def test_chow_csv_all_degrees(capsys):
    code, out, _ = run(capsys, "chow", "-p", "2", "-n", "2", "--format", "csv")
    assert code == 0
    assert out == "j,kind\n0,free\n1,zero\n2,cyclic_p\n3,p_free\n"


def test_chow_trace_json_keys(capsys):
    code, out, _ = run(capsys, "chow", "-p", "3", "-n", "2", "--format",
                       "json", "--trace")
    assert code == 0
    assert '"trace"' in out and '"0": "closed form' in out


def test_chow_methods_agree(capsys):
    _, closed, _ = run(capsys, "chow", "-p", "5", "-n", "2", "--format", "csv")
    _, rec, _ = run(capsys, "chow", "-p", "5", "-n", "2", "--format", "csv",
                    "--method", "recurrence")
    assert closed == rec


def test_chow_both_disagreement_exit_1(capsys, monkeypatch):
    real = rostchow.closed_form

    def closed_form(params):
        table = real(params)
        table.entries[0] = rostchow.ZERO
        return table
    monkeypatch.setattr(rostchow, "closed_form", closed_form)
    code, out, err = run(capsys, "chow", "-p", "3", "-n", "2",
                         "--method", "both")
    assert code == 1
    assert out == ""
    assert "disagreement at j=0" in err
    assert err.count("disagreement") == 1


@pytest.mark.parametrize("method,calls", [
    ("closed", {"closed_form": 1, "recurrence": 0}),
    ("recurrence", {"closed_form": 0, "recurrence": 1}),
    ("both", {"closed_form": 1, "recurrence": 1}),
])
@pytest.mark.parametrize("extra", [[], ["--trace"], ["--format", "json"]])
def test_chow_builds_each_table_once(capsys, monkeypatch, method, calls,
                                     extra):
    counts = dict.fromkeys(calls, 0)
    for name in counts:
        def counted(params, name=name, real=getattr(rostchow, name)):
            counts[name] += 1
            return real(params)
        monkeypatch.setattr(rostchow, name, counted)
    code, _, _ = run(capsys, "chow", "-p", "3", "-n", "2", "--method", method,
                     *extra)
    assert code == 0
    assert counts == calls


# --- motcoh --------------------------------------------------------------------


def test_motcoh_row_text(capsys):
    code, out, _ = run(capsys, "motcoh", "-p", "3", "-n", "2",
                       "--row", "odd", "--j", "4")
    assert code == 0
    assert "Z/3*mu" in out


def test_motcoh_constant_row(capsys):
    code, out, _ = run(capsys, "motcoh", "-p", "3", "-n", "2",
                       "--row", "even", "--j", "0", "--format", "csv")
    assert code == 0
    assert out == "m,k,eps,text\n,,,1\n"


def test_motcoh_bidegree(capsys):
    code, out, _ = run(capsys, "motcoh", "-p", "3", "-n", "2",
                       "--bidegree", "9", "4")
    assert code == 0
    assert "H^(9,4):" in out


def test_motcoh_negative_weight_exit_2(capsys):
    code, out, err = run(capsys, "motcoh", "-p", "3", "-n", "2",
                         "--bidegree", "5", "-3")
    assert code == 2
    assert out == ""
    assert "outside classification range" in err


def test_motcoh_modes_conflict_exit_2(capsys):
    code, _, err = run(capsys, "motcoh", "-p", "3", "-n", "2", "--row",
                       "even", "--j", "1", "--bidegree", "2", "1")
    assert code == 2
    assert "either --row" in err


def test_motcoh_missing_j_exit_2(capsys):
    code, _, _ = run(capsys, "motcoh", "-p", "3", "-n", "2", "--row", "even")
    assert code == 2


def test_motcoh_row_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "motcoh", "-p", "3", "-n", "2",
                       "--row", "even", "--j", "9")
    assert code == 2
    assert "outside" in err


# --- verify --------------------------------------------------------------------


def test_verify_pass_exit_0(capsys):
    code, out, err = run(capsys, "verify", "-p", "3", "-n", "2",
                         "--suite", "correspondences")
    assert code == 0
    assert "11/11 checks passed" in out
    assert err == ""


def test_verify_perturbed_e_exit_2(capsys):
    code, _, err = run(capsys, "verify", "-p", "3", "-n", "2", "-e", "3",
                       "--suite", "endalg")
    assert code == 2
    assert "p-unit" in err


def test_verify_failing_suite_exit_1(capsys, monkeypatch):
    failing = CheckReport("stub")
    failing.add("always wrong", False, "injected")

    monkeypatch.setitem(verify.SUITES, "endalg", lambda params: failing)
    code, out, err = run(capsys, "verify", "-p", "3", "-n", "2",
                         "--suite", "endalg")
    assert code == 1
    assert "FAIL: stub: always wrong -- injected" in out
    assert "1 check(s) failed" in err


def test_verify_unknown_suite_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "-p", "3", "-n", "2",
                     "--suite", "nope")
    assert code == 2


# --- eval ----------------------------------------------------------------------


def test_eval_text_zero(capsys):
    code, out, _ = run(capsys, "eval", "-p", "3", "-n", "2",
                       "t(sigma) + sigma")
    assert code == 0
    assert out == "0\n"


def test_eval_text_class_and_bool(capsys):
    _, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", "H^100")
    assert out == "0\n"
    _, out, _ = run(capsys, "eval", "-p", "3", "-n", "2",
                    "rational(tuple(pi))")
    assert out == "true\n"
    _, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", "deg(diag(pi))")
    assert out == "3\n"


def test_eval_scalar_csv(capsys):
    _, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", "2 + 3/4",
                    "--format", "csv")
    assert out == "value\n11/4\n"


_EVAL_HEAD = ('{\n  "p": 3,\n  "n": 2,\n  "b": 4,\n  "c": 13,\n  "d": 8,\n'
              '  "e": "1",\n')

# the goldens cover only a correspondence; these pin every other value type
EVAL_BYTES = [
    ("1/2 * H^0 - H^2",
     '  "expr": "1/2 * H^0 - H^2",\n  "type": "class",\n  "value": [\n'
     '    {\n      "k": 0,\n      "coeff": "1/2"\n    },\n'
     '    {\n      "k": 2,\n      "coeff": "-1"\n    }\n  ]\n}\n',
     "k,coeff\n0,1/2\n2,-1\n"),
    ("diag(rho)",
     '  "expr": "diag(rho)",\n  "type": "class",\n  "value": []\n}\n',
     "k,coeff\n"),
    ("tuple(rho)",
     '  "expr": "tuple(rho)",\n  "type": "tuple",\n  "value": [\n'
     '    "1",\n    "-2",\n    "1"\n  ]\n}\n',
     "index,entry\n0,1\n1,-2\n2,1\n"),
    ("rational(tuple(pi))",
     '  "expr": "rational(tuple(pi))",\n  "type": "boolean",\n'
     '  "value": true\n}\n',
     "value\ntrue\n"),
    ("rational(tuple(E(0,2)))",
     '  "expr": "rational(tuple(E(0,2)))",\n  "type": "boolean",\n'
     '  "value": false\n}\n',
     "value\nfalse\n"),
    ("mult(rho) - 5/7",
     '  "expr": "mult(rho) - 5/7",\n  "type": "scalar",\n'
     '  "value": "2/7"\n}\n',
     "value\n2/7\n"),
]


@pytest.mark.parametrize("expr,json_tail,csv_out", EVAL_BYTES)
def test_eval_json_csv_bytes_by_type(expr, json_tail, csv_out, capsys):
    code, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", expr,
                       "--format", "json")
    assert code == 0
    assert out == _EVAL_HEAD + json_tail
    code, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", expr,
                       "--format", "csv")
    assert code == 0
    assert out == csv_out


def test_eval_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "eval", "-p", "3", "-n", "2", "E(1,")
    assert code == 2
    assert out == ""
    assert err == "syntax error at line 1 column 5: expected INT\n"


def test_eval_type_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "-p", "3", "-n", "2", "deg(sigma)")
    assert code == 2
    assert "deg() requires a class" in err


HOSTILE_EVAL = {
    "3000 parentheses": ("(" * 3000 + "sigma" + ")" * 3000, 2, ""),
    "3000 negations": ("-" * 3000 + "sigma", 2, ""),
    "3000-term sum": ("+".join(["sigma"] * 3000), 2, ""),
    "3000 powers": ("sigma" + "^1" * 3000, 2, ""),
    "huge power": ("sigma^100000000", 0, "0\n"),
    "huge composition power": ("pi^@100000000", 0,
                               "E(0,2) + E(1,1) + E(2,0)\n"),
    "growing composition power": ("(2*pi)^@1000000000", 2, ""),
    "growing class power": ("(3*H^0+H^1)^100000000", 2, ""),
    "huge scalar power": ("2^100000000", 2, ""),
    "growing composition power 10^8": ("(2*pi)^@100000000", 2, ""),
    "product of in-bound powers": ("2^9000 * 2^9000", 2, ""),
    "zero denominator": ("1/0", 2, ""),
}


def run_subprocess(*argv):
    """Run the real CLI process, failing the test if it takes over 5 s or
    prints a traceback."""
    proc = subprocess.run([sys.executable, "-m", "rostcalc.cli", *argv],
                          capture_output=True, text=True, timeout=5,
                          env=child_env())
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("name", sorted(HOSTILE_EVAL))
def test_eval_hostile_input_subprocess(name):
    """The real CLI process ends in time with the contract's exit code and
    no traceback."""
    expr, code, out = HOSTILE_EVAL[name]
    proc = run_subprocess("eval", "-p", "3", "-n", "2", "--", expr)
    assert (proc.returncode, proc.stdout) == (code, out)


_AUDIT_TOO_LARGE = ("audit too large: d = 1152921504606846975 at p=2 n=60, "
                    "more than 128")

# name -> (argv, exit code, a line of stdout or of stderr)
HOSTILE_ARGV = {
    "motcoh at n=60": (["motcoh", "-p", "2", "-n", "60", "--bidegree",
                        "200", "100"], 0, "H^(200,100): 0 monomial(s)"),
    "motcoh at j=10^18": (["motcoh", "-p", "2", "-n", "1", "--bidegree",
                           str(2 * 10**18 + 1), str(10**18)], 0,
                          f"H^({2 * 10**18 + 1},{10**18}): 0 monomial(s)"),
    "chow at n=60": (["chow", "-p", "2", "-n", "60"], 2,
                     "table too large: d + 1 = 1152921504606846976 rows at "
                     "p=2 n=60, more than 131072"),
    "5,000-digit literal": (["eval", "-p", "3", "-n", "2", "9" * 5000], 2,
                            "eval error at line 1 column 1: value too large: "
                            "a coefficient would pass 10000 bits"),
    "rationality audit at n=60": (["audit", "-p", "2", "-n", "60",
                                   "--rationality", "-m", "1", "-s", "2"],
                                  2, _AUDIT_TOO_LARGE),
    "generators audit at n=60": (["audit", "-p", "2", "-n", "60",
                                  "--generators", "-m", "59", "-r", "1"],
                                 2, _AUDIT_TOO_LARGE),
    "steenrod verify at n=60": (["verify", "-p", "2", "-n", "60", "--suite",
                                 "steenrod"], 2, _AUDIT_TOO_LARGE),
    "steenrod verify at (2,8)": (["verify", "-p", "2", "-n", "8", "--suite",
                                  "steenrod"], 2,
                                 "audit too large: d = 255 at p=2 n=8, "
                                 "more than 128"),
    "steenrod verify at p=4": (["verify", "-p", "4", "-n", "2", "--suite",
                                "steenrod"], 2, "p must be prime, got 4"),
    # refused before the four suites ahead of steenrod run
    "all suites verify at (2,8)": (["verify", "-p", "2", "-n", "8", "--suite",
                                    "all"], 2,
                                   "audit too large: d = 255 at p=2 n=8, "
                                   "more than 128"),
    "symmpow verify at p=211": (["verify", "-p", "211", "-n", "1", "--suite",
                                 "symmpow"], 2,
                                "verify too large: p = 211, more than 61"),
    "params at n=10^18": (["params", "-p", "3", "-n", str(10**18)], 2,
                          "symbol too large: p^(n+1) would pass 10000 bits "
                          f"at p=3 n={10**18}"),
    # non-ASCII digits and letters are no tokens
    "eval of a superscript digit": (
        ["eval", "-p", "3", "-n", "1", "E(\u00b2,1)"], 2,
        "syntax error at line 1 column 3: expected a token, not '\u00b2'"),
    "eval of an Arabic-Indic digit": (
        ["eval", "-p", "3", "-n", "1", "H^\u0663"], 2,
        "syntax error at line 1 column 3: expected a token, not '\u0663'"),
    "eval of a Greek letter": (
        ["eval", "-p", "3", "-n", "1", "\u03c3 + 1"], 2,
        "syntax error at line 1 column 1: expected a token, not '\u03c3'"),
    # options read ASCII digits only: int() and Fraction() take any digit
    "params with Arabic-Indic -p -n -e": (
        ["params", "-p", "\u0663", "-n", "\u0661", "-e", "\u0664"], 2,
        "rostcalc params: error: argument -p: invalid int value: '\u0663'"),
    "params with an Arabic-Indic -n": (
        ["params", "-p", "3", "-n", "\u0661"], 2,
        "rostcalc params: error: argument -n: invalid int value: '\u0661'"),
    "params with an Arabic-Indic -e": (
        ["params", "-p", "3", "-n", "1", "-e", "\u0664/5"], 2,
        "rostcalc params: error: argument -e: invalid fraction value: "
        "'\u0664/5'"),
    "params with a decimal -e": (
        ["params", "-p", "3", "-n", "1", "-e", "0.5"], 2,
        "rostcalc params: error: argument -e: invalid fraction value: "
        "'0.5'"),
    "rationality audit with a Devanagari -m": (
        ["audit", "-p", "3", "-n", "2", "--rationality", "-m", "\u0967",
         "-s", "2"], 2,
        "rostcalc audit: error: argument -m: invalid int value: '\u0967'"),
    "rationality audit with a fullwidth -s": (
        ["audit", "-p", "3", "-n", "2", "--rationality", "-m", "1", "-s",
         "\uff12"], 2,
        "rostcalc audit: error: argument -s: invalid int value: '\uff12'"),
    "generators audit with an Arabic-Indic -r": (
        ["audit", "-p", "3", "-n", "2", "--generators", "-m", "1", "-r",
         "\u0661"], 2,
        "rostcalc audit: error: argument -r: invalid int value: '\u0661'"),
    "motcoh with an Arabic-Indic --j": (
        ["motcoh", "-p", "3", "-n", "2", "--row", "even", "--j",
         "\u0664"], 2,
        "rostcalc motcoh: error: argument --j: invalid int value: '\u0664'"),
    "motcoh with an Arabic-Indic --bidegree": (
        ["motcoh", "-p", "3", "-n", "2", "--bidegree", "4", "\u0662"], 2,
        "rostcalc motcoh: error: argument --bidegree: invalid int value: "
        "'\u0662'"),
    "rationality audit at s=10^18": (["audit", "-p", "3", "-n", "2",
                                      "--rationality", "-m", "1", "-s",
                                      str(10**18)], 2,
                                     f"Steenrod degree s = {10**18} above "
                                     "d = 8; nothing is claimed above d"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ARGV))
def test_hostile_argv_subprocess(name):
    argv, code, line = HOSTILE_ARGV[name]
    proc = run_subprocess(*argv)
    assert proc.returncode == code
    assert line in (proc.stdout if code == 0 else proc.stderr).splitlines()


#: run_capped's default address-space cap
MEMORY_CAP = 2 ** 30


def run_capped(seconds, *argv, cap=MEMORY_CAP):
    """Run the real CLI process under an address-space cap of ``cap`` bytes,
    failing the test if it takes over ``seconds`` or prints a traceback."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "rostcalc.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          env=child_env(), preexec_fn=limit)
    assert time.perf_counter() - start < seconds
    assert "Traceback" not in proc.stderr
    return proc


def _replay_line(p, n, kind, audits, zero, at_least, exact):
    """The trace replay line of a passing steenrod verify report."""
    return (f"ok: steenrod p={p} n={n}: trace replay ({kind}) -- {audits} "
            f"audits replayed; verdicts zero={zero} at-least={at_least} "
            f"exact={exact}")


# name -> (seconds, argv, exit code, a line of stdout or of stderr, or a
# tuple of such lines)
SLOW_ARGV = {
    "rationality audit at (5,3) s=124": (
        1, ["audit", "-p", "5", "-n", "3", "--rationality", "-m", "0", "-s",
            "124"], 0, "cases: 1321209811 (zero=2455969, "
                       "at-least=1318753841, exact=1)"),
    "rationality audit at (11,2) s=120": (
        1, ["audit", "-p", "11", "-n", "2", "--rationality", "-m", "0", "-s",
            "120"], 0, "cases: 4309930229 (zero=2315605, "
                       "at-least=4307614623, exact=1)"),
    # d = 127: the largest p = 2 audit in bound
    "rationality audit at (2,7) s=127": (
        1, ["audit", "-p", "2", "-n", "7", "--rationality", "-m", "0", "-s",
            "127"], 0, "cases: 6876288 (zero=707134, at-least=6169153, "
                       "exact=1)"),
    # the full rationality grid, one audit per s, and every generators
    # audit, each replayed
    "steenrod verify at (5,3)": (
        2, ["verify", "-p", "5", "-n", "3", "--suite", "steenrod"], 0,
        ("42/42 checks passed",
         _replay_line(5, 3, "rationality", 32, 1905157488, 705229276893,
                      1488),
         _replay_line(5, 3, "generators", 8, 157, 956, 8))),
    "steenrod verify at (11,2)": (
        2, ["verify", "-p", "11", "-n", "2", "--suite", "steenrod"], 0,
        ("25/25 checks passed",
         _replay_line(11, 2, "rationality", 13, 289061822, 289185997510,
                      234),
         _replay_line(11, 2, "generators", 10, 100, 20, 10))),
    "steenrod verify at (2,6)": (
        2, ["verify", "-p", "2", "-n", "6", "--suite", "steenrod"], 0,
        ("71/71 checks passed",
         _replay_line(2, 6, "rationality", 64, 103294947, 1674030078, 4095),
         _replay_line(2, 6, "generators", 5, 57, 114, 5))),
    "steenrod verify at (3,4)": (
        2, ["verify", "-p", "3", "-n", "4", "--suite", "steenrod"], 0,
        ("49/49 checks passed",
         _replay_line(3, 4, "rationality", 41, 709266680, 16148275362, 2460),
         _replay_line(3, 4, "generators", 6, 118, 440, 6))),
    # 128 audits, each replayed and dropped before the next: 0.23 s (median
    # of 5) and 22 MB peak RSS under its 128 MiB cap on a shared 2-core Xeon
    "steenrod verify at (2,7)": (
        3, ["verify", "-p", "2", "-n", "7", "--suite", "steenrod"], 0,
        ("136/136 checks passed",
         _replay_line(2, 7, "rationality", 128, 3085737923, 54697701374,
                      16383),
         _replay_line(2, 7, "generators", 6, 120, 240, 6))),
    # the largest prime verify takes, every suite
    "verify all at p = 61": (
        1, ["verify", "-p", "61", "-n", "1", "--suite", "all"], 0,
        "269/269 checks passed"),
    "params at p = 2^61 - 1": (
        1, ["params", "-p", str(2**61 - 1), "-n", "1"], 0,
        f"d = {2**61 - 2}"),
    "params at p = 2^89 - 1": (
        1, ["params", "-p", str(2**89 - 1), "-n", "1"], 2,
        "p too large: primality is decided only below "
        "3317044064679887385961981"),
    # C(10006, 5003) has 10,000 bits, C(10008, 5004) 10,002
    "rho at p = 10007": (
        1, ["eval", "-p", "10007", "-n", "1", "rational(tuple(rho))"], 0,
        "true"),
    "rho at p = 10009": (
        1, ["eval", "-p", "10009", "-n", "1", "rho"], 2,
        "power too large: a coefficient would pass 10000 bits"),
    "rho at p = 1000003": (
        1, ["eval", "-p", "1000003", "-n", "1", "rho"], 2,
        "power too large: a coefficient would pass 10000 bits"),
    # 10,007^2 term pairs, refused before the first is visited
    "rho*rho at p = 10007": (
        1, ["eval", "-p", "10007", "-n", "1", "deg(rho*rho)"], 2,
        "eval error at line 1 column 8: product too large: 10007 x 10007 "
        "terms, more than 1000000 term pairs"),
    # the lcm of the C(10006, i) has about 14,400 bits
    "inv(tuple(rho)) at p = 10007": (
        1, ["eval", "-p", "10007", "-n", "1", "rational(inv(tuple(rho)))"],
        2, "eval error at line 1 column 10: inverse too large: the lcm of "
           "the numerators would pass 10000 bits"),
    # pi has 1,000,003 terms
    "mult(pi) at p = 1000003": (
        2, ["eval", "-p", "1000003", "-n", "1", "mult(pi)"], 0, "1"),
    "sigma@pi at p = 1000003": (
        2, ["eval", "-p", "1000003", "-n", "1", "sigma@pi"], 0,
        "E(0,1) + -1*E(1,0)"),
    "chow both at (7,6)": (
        1, ["chow", "-p", "7", "-n", "6", "--method", "both", "--format",
            "csv"], 0, "117648,p_free"),
    # d + 1 = 2^17 rows, the largest table in bound
    "chow both at (2,17)": (
        1, ["chow", "-p", "2", "-n", "17", "--method", "both", "--format",
            "csv"], 0, "131071,p_free"),
    # the label loop reads both rows at each of the 131,072 j: 0.68 s
    # (median of 7) on a shared 2-core Xeon
    "motcoh verify at (2,17)": (
        2, ["verify", "-p", "2", "-n", "17", "--suite", "motcoh"], 0,
        "6/6 checks passed"),
    # 117,649 j: 0.37 s (median of 7)
    "motcoh verify at (7,6)": (
        1, ["verify", "-p", "7", "-n", "6", "--suite", "motcoh"], 0,
        "6/6 checks passed"),
}


# name -> a tighter address-space cap than MEMORY_CAP
SLOW_ARGV_CAPS = {"steenrod verify at (2,7)": 2 ** 27}


@pytest.mark.parametrize("name", sorted(SLOW_ARGV))
def test_slow_argv_capped_subprocess(name):
    """Inputs inside the bounds that used to run for minutes end in time
    under a memory cap."""
    seconds, argv, code, lines = SLOW_ARGV[name]
    proc = run_capped(seconds, *argv, cap=SLOW_ARGV_CAPS.get(name, MEMORY_CAP))
    assert proc.returncode == code
    out = (proc.stdout if code == 0 else proc.stderr).splitlines()
    for line in (lines,) if isinstance(lines, str) else lines:
        assert line in out


def test_slow_argv_pins_the_other_roadmap_totals():
    """The steenrod verify entries above pin the ROADMAP totals rows from
    (11,2) on; tests/test_steenrod.py runs those through (5,3) in process
    too."""
    pinned = {(int(argv[2]), int(argv[4])): verdict_totals(lines)
              for _, argv, _, lines in SLOW_ARGV.values()
              if argv[-2:] == ["--suite", "steenrod"]}
    assert pinned == {key: ROADMAP_TOTALS[key]
                      for key in list(ROADMAP_TOTALS)[6:]}


@functools.cache
def _loaded_modules(*argv):
    """The exit code of a fresh process that runs ``cli.main(argv)`` (a
    bare interpreter without argv), and the modules it has loaded by then."""
    script = ("import sys\n"
              "code = 0\n"
              "if sys.argv[1:]:\n"
              "    from rostcalc import cli\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(code, *sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=10,
                          env=child_env())
    code, *modules = proc.stderr.split()
    return int(code), frozenset(modules)


#: the rostcalc modules every subcommand loads
_CLI = {"cli", "splitring", "arith", "verify", "reporting"}
#: standard modules that a subcommand should load only when it uses them
_STDLIB = {"json", "csv", "dataclasses"}


@pytest.mark.parametrize("argv,engines", [
    (["params", "-p", "3", "-n", "2"], set()),
    (["eval", "-p", "3", "-n", "2", "rho"],
     {"exprlang", "corresp", "endalg", "dataclasses"}),
    (["verify", "-p", "3", "-n", "2", "--suite", "symmpow"], {"sympow"}),
    (["chow", "-p", "3", "-n", "2"], {"rostchow", "motcoh", "dataclasses"}),
    (["motcoh", "-p", "3", "-n", "2", "--row", "even", "--j", "4"],
     {"motcoh", "dataclasses"}),
    (["audit", "-p", "3", "-n", "2", "--generators", "-m", "1", "-r", "1"],
     {"steenrod", "corresp", "endalg", "dataclasses"}),
    (["verify", "-p", "3", "-n", "2", "--suite", "endalg"],
     {"endalg", "dataclasses"}),
    (["params", "-p", "3", "-n", "2", "--format", "json"], {"json"}),
    (["params", "-p", "3", "-n", "2", "--format", "csv"], {"csv"}),
])
def test_subcommand_loads_only_its_engines(argv, engines):
    """A fresh process that runs one subcommand imports, beyond the modules
    every subcommand needs, only the rostcalc modules that subcommand runs
    (rostchow needs motcoh; exprlang and steenrod need corresp and endalg),
    and of json, csv and dataclasses only those it uses that a bare
    interpreter does not already have."""
    _, bare = _loaded_modules()
    code, modules = _loaded_modules(*argv)
    assert code == 0
    loaded = {m.removeprefix("rostcalc.") for m in modules
              if m.startswith("rostcalc.")}
    assert loaded | ((modules - bare) & _STDLIB) == _CLI | (engines - bare)


@pytest.mark.parametrize("expr", ["(2*pi)^@1000000000", "2^100000000",
                                  "(3*H^0+H^1)^100000000",
                                  "tuple(2*pi)^@100000000"])
def test_eval_power_bound_message(capsys, expr):
    code, out, err = run(capsys, "eval", "-p", "3", "-n", "2", expr)
    assert (code, out) == (2, "")
    assert "power too large: a coefficient would pass 10000 bits" in err


@pytest.mark.parametrize("expr", ["2^9000 * 2^9000", "2^6000 * 2^6000",
                                  "tuple(2^6000*pi) * tuple(2^6000*pi)",
                                  "(2^9999*H^0) * (2*H^0)"])
def test_eval_value_bound_message(capsys, expr):
    code, out, err = run(capsys, "eval", "-p", "3", "-n", "2", expr)
    assert (code, out) == (2, "")
    assert "value too large: a coefficient would pass 10000 bits" in err


def test_eval_power_at_the_bound(capsys):
    # 2^9999 has 10,000 bits, 2^10000 one more
    code, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", "2^9999")
    assert (code, out) == (0, f"{2**9999}\n")
    code, _, err = run(capsys, "eval", "-p", "3", "-n", "2", "2^10000")
    assert code == 2 and "power too large" in err


# 3^5000 and 7^3500 have 7,925 and 9,826 bits, inside the bound; their
# product, the common denominator of a value holding both, has 17,751
_A, _B = 3 ** 5000, 7 ** 3500


@pytest.mark.parametrize("expr,want,size", [
    (f"1/{_A} * E(0,0) + 1/{_B} * E(0,1)", f"1/{_A}*E(0,0) + 1/{_B}*E(0,1)\n",
     5366),
    (f"tuple(1/{_A} * E(0,1) + 1/{_B} * E(1,0))", f"(1/{_A}, 1/{_B})\n", 5353),
])
def test_eval_bound_is_per_coefficient(capsys, expr, want, size):
    """The size bound reads each coefficient in lowest terms, not the
    common denominator of the value."""
    code, out, _ = run(capsys, "eval", "-p", "2", "-n", "1", expr)
    assert (code, len(out.encode())) == (0, size)
    assert out == want
    assert (_A * _B).bit_length() > 10_000


def test_eval_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "eval", "-p", "3", "-n", "2", "--", "-(sigma)")
    assert (code, out) == (0, "-1*E(0,1) + E(1,0)\n")
    assert run(capsys, "eval", "-p", "3", "-n", "2", "(-1)*sigma")[1] == out


def test_eval_json_normalizes_expr(capsys):
    _, out, _ = run(capsys, "eval", "-p", "3", "-n", "2",
                    "((sigma)) @ (sigma^2)", "--format", "json")
    assert '"expr": "sigma @ sigma^2"' in out


# --- audit ---------------------------------------------------------------------


def test_audit_rationality_pass_exit_0(capsys):
    code, out, _ = run(capsys, "audit", "-p", "3", "-n", "2",
                       "--rationality", "-m", "1", "-s", "2")
    assert code == 0
    assert "pass: leading term" in out
    assert "cases: 498" in out


def test_audit_generators_pass_exit_0(capsys):
    code, out, _ = run(capsys, "audit", "-p", "3", "-n", "2",
                       "--generators", "-m", "1", "-r", "1")
    assert code == 0
    assert "order exactly 3" in out


def test_audit_below_bound_exit_2(capsys):
    code, _, err = run(capsys, "audit", "-p", "3", "-n", "2",
                       "--rationality", "-m", "8", "-s", "2")
    assert code == 2
    assert "bound not satisfied" in err


@pytest.mark.parametrize("p,s", [(3, -2), (2, -1)])
def test_audit_negative_s_is_trivial_exit_0(capsys, p, s):
    """A negative Steenrod degree is trivial because it is negative, not
    because p - 1 fails to divide it."""
    code, out, _ = run(capsys, "audit", "-p", str(p), "-n", "2",
                       "--rationality", "-m", "1", "-s", str(s))
    assert code == 0
    assert out.splitlines()[-1] == (
        f"trivial: S^{s} = 0 since {s} < 0 (nothing to audit)")


def test_audit_m_out_of_range_with_invalid_s_exit_2(capsys):
    # s = 1 is no Steenrod index at p = 3; m is checked before that
    code, out, err = run(capsys, "audit", "-p", "3", "-n", "2",
                         "--rationality", "-m", "999", "-s", "1")
    assert code == 2
    assert out == ""
    assert "m = 999 outside [0, 8]" in err


def test_audit_mode_flag_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "audit", "-p", "3", "-n", "2",
                       "--rationality", "-m", "1", "-r", "1")
    assert code == 2
    assert "--rationality takes" in err


def test_audit_both_modes_exit_2(capsys):
    code, _, _ = run(capsys, "audit", "-p", "3", "-n", "2", "--rationality",
                     "--generators", "-m", "1", "-s", "2")
    assert code == 2


def test_audit_failing_report_exit_1(capsys, monkeypatch):
    params = make_params(3, 2)
    stub = AuditReport(kind="rationality", params=params,
                       args=(("m", 1), ("s", 2)), premises=(), support=(),
                       cases=(), conclusion="fail: injected", passed=False)
    monkeypatch.setattr(steenrod, "audit_rationality",
                        lambda params, m, s: stub)
    code, out, _ = run(capsys, "audit", "-p", "3", "-n", "2",
                       "--rationality", "-m", "1", "-s", "2")
    assert code == 1
    assert "fail: injected" in out


def test_audit_csv_summary(capsys):
    code, out, _ = run(capsys, "audit", "-p", "2", "-n", "2",
                       "--generators", "-m", "1", "-r", "1",
                       "--format", "csv")
    assert code == 0
    assert out.startswith("key,value\nkind,generators\n")
    assert "passed,true" in out


# --- argv fuzzing ----------------------------------------------------------------

# symbols whose every audit, table and suite runs well inside a second
_SYMBOLS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1))
_HOSTILE = ("-7", "-1", "0", "60", "64", str(10**18), "x", "1.5", "")
_INTS = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(_HOSTILE))
_EXPONENTS = st.sampled_from(("0", "1", "2", "3", "7", "100000000",
                              str(10**18)))
_FLAGS = {
    "-e": st.sampled_from(("1", "2", "-1", "1/2", "3", "0", "1/0", "x")),
    "-m": _INTS, "-s": _INTS, "-r": _INTS, "--j": _INTS,
    "--bidegree": st.tuples(_INTS, _INTS),
    "--row": st.sampled_from(("even", "odd", "diagonal")),
    "--suite": st.sampled_from(("correspondences", "symmpow", "endalg",
                                "motcoh", "steenrod", "all", "none")),
    "--format": st.sampled_from(("text", "json", "csv", "xml")),
    "--method": st.sampled_from(("closed", "recurrence", "both", "fast")),
    "--trace": st.just(()), "--rationality": st.just(()),
    "--generators": st.just(()), "--help": st.just(()),
}
_TOKENS = ("sigma", "rho", "pi", "E", "H", "(", ")", ",", "+", "-", "*",
           "@", "^", "^@", "0", "1", "2", "7", "1/2", "1/0", str(10**18),
           "t", "mult", "diag", "deg", "act", "tuple", "inv", "rational",
           "x", "$")
_ATOMS = st.one_of(
    st.sampled_from(("sigma", "rho", "pi", "2", "1/2", "-3/7")),
    _INTS.map(lambda k: f"H^{k}"),
    st.tuples(_INTS, _INTS).map(lambda ij: "E(%s,%s)" % ij))


def _extend(expr):
    return st.one_of(
        st.tuples(expr, st.sampled_from("+-*@"), expr).map(
            lambda t: "(%s %s %s)" % t),
        st.tuples(expr, st.sampled_from(("^", "^@")), _EXPONENTS).map(
            "".join),
        st.tuples(st.sampled_from(("t", "mult", "diag", "deg", "tuple", "inv",
                                   "rational", "-")), expr).map(
            lambda t: "%s(%s)" % t),
        st.tuples(expr, _INTS).map(lambda t: "act(%s, %s)" % t))


_EXPRS = st.one_of(
    st.recursive(_ATOMS, _extend, max_leaves=6),
    st.lists(st.sampled_from(_TOKENS), max_size=10).map(" ".join))


@st.composite
def _argvs(draw):
    """A subcommand, -p and -n (usually a small symbol, sometimes a hostile
    value or missing), a few flags and, for eval, an expression."""
    argv = [draw(st.sampled_from(("params", "chow", "motcoh", "verify",
                                  "eval", "audit", "bogus")))]
    p, n = (str(v) for v in draw(st.sampled_from(_SYMBOLS)))
    p = draw(st.sampled_from((p, p, p, draw(_INTS))))
    n = draw(st.sampled_from((n, n, n, draw(_INTS))))
    for flag, value in (("-p", p), ("-n", n)):
        if draw(st.integers(0, 9)):
            argv += [flag, value]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), max_size=4)):
        value = draw(_FLAGS[flag])
        argv += [flag, *((value,) if isinstance(value, str) else value)]
    if argv[0] == "eval":
        argv += ["--", draw(_EXPRS)]
    return argv


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime("over 1 s")


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_argv_fuzz_exit_contract(argv):
    """Any argv ends within 1 s with exit 0, 1 or 2 and no exception; a
    timer interrupts one that runs longer, which fails the example."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
