"""Verification suite wiring."""

import pytest

from rostcalc import verify
from rostcalc.reporting import CheckReport
from rostcalc.splitring import make_params
from rostcalc.verify import (
    MAX_VERIFY_PRIME,
    SUITES,
    _steenrod_args,
    run_suite,
    suite_endalg,
)

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


def test_report_lines_mention_suite_and_params():
    (report,) = run_suite("correspondences", P32)
    assert all(ln.startswith(("ok: correspondences p=3 n=2:",
                              "FAIL: correspondences p=3 n=2:"))
               for ln in report.lines())


def test_endalg_deterministic():
    a = suite_endalg(P32)
    b = suite_endalg(P32)
    assert a.checks == b.checks


def test_steenrod_args_full_grid_small_d():
    rat, gen = _steenrod_args(P32)
    # d = 8 <= 10: the full argument grid
    assert (0, 0) in rat and (7, 8) in rat
    assert all(s > (m - 4) * 2 for m, s in rat)
    assert gen == [(1, 1), (1, 2)]


def test_steenrod_args_sampled_large_d():
    params = make_params(7, 2)  # d = 48
    rat, gen = _steenrod_args(params)
    assert rat == [(0, 0), (0, 6), (1, 0)]
    assert len(gen) == 6


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
