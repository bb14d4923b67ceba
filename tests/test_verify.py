"""Verification suite wiring."""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from rostcalc import rostchow, sympow, verify
from rostcalc.endalg import EndTuple
from rostcalc.reporting import CheckReport
from rostcalc.splitring import make_params
from rostcalc.verify import (
    MAX_VERIFY_PRIME,
    SUITES,
    _random_rational_tuple,
    _steenrod_args,
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
