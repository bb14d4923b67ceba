"""Verification suite wiring."""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from rostcalc import cli, rostchow, steenrod, sympow, verify
from rostcalc.endalg import EndTuple
from rostcalc.reporting import CheckReport
from rostcalc.splitring import make_params
from rostcalc.verify import (
    MAX_VERIFY_PRIME,
    SUITES,
    _random_rational_tuple,
    run_suite,
    suite_endalg,
    suite_symmpow,
)

SYMMPOW_LINES = (pathlib.Path(__file__).parent / "golden"
                 / "symmpow-report-lines.txt")

P32 = make_params(3, 2)


def test_suite_names():
    assert list(SUITES) == [
        "correspondences", "symmpow", "endalg", "motcoh", "steenrod"]


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_passes_p3_n2(name):
    (report,) = run_suite(name, P32)
    assert isinstance(report, CheckReport)
    assert report.passed, report.failures()
    assert report.checks


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (5, 2)])
def test_all_suites_pass_other_params(p, n):
    reports = run_suite("all", make_params(p, n))
    assert len(reports) == len(SUITES)
    for report in reports:
        assert report.passed, report.failures()


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nope", P32)


def test_check_report_starts_empty_and_reports_each_check():
    report = CheckReport("t")
    assert (report.title, report.checks, report.passed) == ("t", [], True)
    assert report.lines() == [] and report.failures() == []
    assert CheckReport("u").checks is not report.checks
    report.add("one", 1)
    report.add("two", 0, "why")
    assert report.checks == [("one", True, ""), ("two", False, "why")]
    assert report.lines() == ["ok: t: one", "FAIL: t: two -- why"]
    assert report.failures() == [("two", "why")]
    assert not report.passed


def test_report_lines_mention_suite_and_params():
    (report,) = run_suite("correspondences", P32)
    assert all(ln.startswith(("ok: correspondences p=3 n=2:",
                              "FAIL: correspondences p=3 n=2:"))
               for ln in report.lines())


def _random_rational_tuple_oracle(rng, p):
    """The sample built with Fraction arithmetic, one entry at a time."""
    residue = rng.randrange(p)
    denoms = [q for q in range(1, 10) if q % p != 0]
    nums = rng.choices(range(-9, 10), k=p)
    dens = rng.choices(denoms, k=p)
    entries = []
    for num, den in zip(nums, dens):
        entries.append(residue + p * Fraction(num, den))
    return EndTuple(p, tuple(entries))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_random_rational_tuple_keeps_values_and_rng_order(p):
    ours, oracle = random.Random(p), random.Random(p)
    for _ in range(100):
        assert (_random_rational_tuple(ours, p)
                == _random_rational_tuple_oracle(oracle, p))
    assert ours.getstate() == oracle.getstate()


def test_endalg_deterministic():
    a = suite_endalg(P32)
    b = suite_endalg(P32)
    assert a.checks == b.checks


def test_steenrod_suite_audits_each_s_once(monkeypatch):
    """One rationality audit per grid entry, at its largest m, every
    generators audit, and a replay of each right after its audit."""
    events = []
    for name in ("audit_rationality", "audit_generators"):
        def audit(params, *args, honest=getattr(steenrod, name)):
            events.append(("audit", args))
            return honest(params, *args)
        monkeypatch.setattr(steenrod, name, audit)
    honest_replay = steenrod.replay

    def replay(report):
        events.append(("replay", tuple(value for _, value in report.args)))
        return honest_replay(report)

    monkeypatch.setattr(steenrod, "replay", replay)
    (report,) = run_suite("steenrod", P32)
    assert report.passed, report.failures()
    # (m, s) of the rationality audits, then (m, r) of the generators ones
    want = [(3, 0), (4, 2), (5, 4), (6, 6), (7, 8), (1, 1), (1, 2)]
    assert events == [(event, args) for args in want
                      for event in ("audit", "replay")]
    assert [name for name, _, _ in report.checks] == [
        "rationality s=0 m<=3", "rationality s=2 m<=4", "rationality s=4 m<=5",
        "rationality s=6 m<=6", "rationality s=8 m<=7",
        "generators m=1 r=1", "generators m=1 r=2",
        "trace replay (rationality)", "trace replay (generators)"]
    assert report.checks[-2:] == [
        ("trace replay (rationality)", True, "5 audits replayed; verdicts "
         "zero=11678 at-least=27459 exact=30"),
        ("trace replay (generators)", True, "2 audits replayed; verdicts "
         "zero=4 at-least=4 exact=2")]


def test_steenrod_suite_fails_on_any_failing_replay(monkeypatch, capsys):
    """A replay that fails on the rationality audit of the largest s, not
    the first one audited, fails the suite and verify exits 1."""
    honest = steenrod.replay

    def failing_at_s_8(report):
        check = honest(report)
        if report.kind == "rationality" and dict(report.args)["s"] == 8:
            check.add("injected failure", False)
        return check

    monkeypatch.setattr(steenrod, "replay", failing_at_s_8)
    (report,) = run_suite("steenrod", P32)
    assert report.failures() == [
        ("trace replay (rationality)", "first failure at s=8: injected "
         "failure; verdicts zero=11678 at-least=27459 exact=30")]
    assert cli.main(["verify", "-p", "3", "-n", "2",
                     "--suite", "steenrod"]) == 1
    assert ("FAIL: steenrod p=3 n=2: trace replay (rationality) -- first "
            "failure at s=8: injected failure") in capsys.readouterr().out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_symmpow_suite_builds_each_morphism_table_once(monkeypatch, p):
    built = Counter()
    build = sympow.build_morphisms

    def counting(i, params):
        built[i, params] += 1
        return build(i, params)

    monkeypatch.setattr(sympow, "build_morphisms", counting)
    params = make_params(p, 2)
    (report,) = run_suite("symmpow", params)
    assert report.passed
    assert built == {(i, params): 1 for i in range(1, p)}


def test_motcoh_suite_builds_each_table_once(monkeypatch):
    built = Counter()
    for name in ("closed_form", "recurrence"):
        engine = getattr(rostchow, name)

        def counting(params, name=name, engine=engine):
            built[name] += 1
            return engine(params)
        monkeypatch.setattr(rostchow, name, counting)
    (report,) = run_suite("motcoh", make_params(7, 2))
    assert report.passed
    assert built == {"closed_form": 1, "recurrence": 1}


def test_symmpow_report_lines_match_recorded():
    """The lines recorded before the suite shared one morphism table."""
    lines = [line for p in (2, 3, 5, 7, 31)
             for line in suite_symmpow(make_params(p, 2)).lines()]
    assert lines == SYMMPOW_LINES.read_text().splitlines()


def test_symmpow_suite_merges_subreports():
    (report,) = run_suite("symmpow", P32)
    names = [name for name, _, _ in report.checks]
    assert any("somesome" in name for name in names)
    assert any("manyi/ccom" in name or "ccom" in name for name in names)
    assert any("triangle" in name for name in names)


def test_prime_bound_before_any_suite(monkeypatch):
    def unreachable(params):
        raise AssertionError("a suite ran past the prime bound")

    for name in SUITES:
        monkeypatch.setitem(verify.SUITES, name, unreachable)
    # 31 is the largest prime the benchmark's verify requests use
    assert 31 <= MAX_VERIFY_PRIME < 67
    for name in list(SUITES) + ["all"]:
        with pytest.raises(ValueError, match="verify too large: p = 67, "
                                             "more than 61"):
            run_suite(name, make_params(67, 1))


def test_audit_size_bound_before_any_suite(monkeypatch):
    """'all' refuses a symbol past the audit size bound before it runs
    the suites that come ahead of steenrod."""
    ran = []
    for name, fn in SUITES.items():
        def recording(params, name=name, fn=fn):
            ran.append(name)
            return fn(params)
        monkeypatch.setitem(verify.SUITES, name, recording)
    with pytest.raises(ValueError, match="audit too large: d = 255 at p=2 "
                                         "n=8, more than 128"):
        run_suite("all", make_params(2, 8))
    assert ran == []
    run_suite("all", make_params(2, 2))
    assert ran == list(SUITES)
