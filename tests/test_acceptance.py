"""End-to-end acceptance battery: eight exact criteria, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
Every check is exact equality over Z_(p); there are no tolerances.
"""

import json
import pathlib
import time
from contextlib import contextmanager
from fractions import Fraction

from rostcalc import motcoh, rostchow, steenrod, sympow
from rostcalc.arith import INF, val
from rostcalc.cli import main as cli_main
from rostcalc.corresp import (
    basis,
    compose,
    diag_pullback,
    mult,
    projector_iterate,
    rho,
    rost_projector,
    sigma,
    transpose,
)
from rostcalc.endalg import EndTuple, identity, invert, is_rational
from rostcalc.splitring import make_params
from rostcalc.verify import _random_rational_tuple

import random

GRID = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
GOLDEN = pathlib.Path(__file__).parent / "golden" / "v1"


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"\nFAIL: criterion {num}: {text}")
        raise
    print(f"\nPASS: criterion {num}: {text}")


def test_criterion_1_chow_tables():
    with criterion(1, "Chow tables: closed form = recurrence on the grid; "
                      "(3,2) spot table; < 1 s"):
        t0 = time.perf_counter()
        for p, n in GRID:
            params = make_params(p, n)
            agree, diffs = rostchow.compare(params)
            assert agree, f"(p,n)=({p},{n}): {diffs}"
        table = rostchow.closed_form(make_params(3, 2))
        assert table.nonzero() == [0, 2, 4, 6, 8]
        assert [table.entries[j].kind for j in (0, 2, 4, 6, 8)] == [
            "free", "cyclic_p", "p_free", "cyclic_p", "p_free"]
        assert time.perf_counter() - t0 < 1.0


def _expected_even(j, params):
    if j == 0:
        return ("Z", (motcoh.CONSTANT_CLASS,))
    for i in range(1, params.n):
        if j == params.b + 1 - params.p ** i:
            return (f"Z/{params.p}", (motcoh.qtilde(i, params),))
    if j == params.b + 1:
        return ("K_1^s",
                (motcoh.MCMonomial(1, 0, motcoh.mu(params).eps),))
    return ("0", ())


def _expected_odd(j, params):
    if j == params.b:
        return (f"Z/{params.p}", (motcoh.mu(params),))
    return ("0", ())


def test_criterion_2_motcoh_rows():
    with criterion(2, "motivic-cohomology rows match the closed forms; "
                      "k=0 and eps_n=0 below the boundary; < 1 s"):
        t0 = time.perf_counter()
        for p, n in GRID:
            params = make_params(p, n)
            for j in range(params.d + 1):
                even = motcoh.even_row(j, params)
                odd = motcoh.odd_row(j, params)
                assert (even.label, even.monomials) == _expected_even(
                    j, params), f"even row (p,n,j)=({p},{n},{j})"
                assert (odd.label, odd.monomials) == _expected_odd(
                    j, params), f"odd row (p,n,j)=({p},{n},{j})"
                for group in (even, odd):
                    for mono in group.monomials:
                        if mono == motcoh.CONSTANT_CLASS:
                            continue
                        assert mono.k == 0 and mono.eps[-1] == 0
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_correspondence_identities():
    with criterion(3, "correspondence identities over Z_(p), "
                      "p in {2,3,5,7}, e in {1, p+1}"):
        for p in (2, 3, 5, 7):
            for e in (1, p + 1):
                params = make_params(p, 2, e=e)
                sg, rh, pi = sigma(params), rho(params), rost_projector(params)
                assert transpose(sg) == sg.scale(-1)
                assert rh == sg ** (p - 1)
                for i in range(p):
                    assert val(rh.coeff(i, p - 1 - i) - 1, p) >= 1
                assert compose(sg, rh) == (
                    basis(params, 0, 1).scale(e)
                    + basis(params, 1, 0).scale(e * (p - 1)))
                assert compose(pi, pi) == pi
                assert transpose(pi) == pi
                assert mult(pi) == 1
                assert diag_pullback(pi).degree() == p


def test_criterion_4_projector_iteration():
    with criterion(4, "projector iteration: offset valuation >= r+1 for "
                      "p in {2,3,5}, r <= 5; exact witness at (3,1)"):
        for p in (2, 3, 5):
            params = make_params(p, 2)
            for r in range(6):
                _, offset = projector_iterate(params, r)
                assert offset == INF or offset >= r + 1, (p, r, offset)
        t, offset = projector_iterate(make_params(3, 2), 1)
        assert t == EndTuple(
            3, (Fraction(1), Fraction(64), Fraction(1)))
        assert offset == 2


def test_criterion_5_end_algebra():
    with criterion(5, "end-algebra: 500-sample closure per p; rational "
                      "multiplicity-1 tuples invert rationally; "
                      "membership pair at p=3"):
        for p in (2, 3, 5, 7):
            rng = random.Random(97 * p)
            for _ in range(500):
                t1 = _random_rational_tuple(rng, p)
                t2 = _random_rational_tuple(rng, p)
                assert is_rational(t1 + t2)
                assert is_rational(t1 * t2)
                assert is_rational(t1 ** rng.randrange(4))
            for _ in range(100):
                entries = (Fraction(1),) + tuple(
                    1 + p * Fraction(rng.randrange(-9, 10),
                                     rng.choice([q for q in range(1, 8)
                                                 if q % p]))
                    for _ in range(p - 1))
                t = EndTuple(p, entries)
                assert is_rational(t) and t.entries[0] == 1
                inverse = invert(t)
                assert inverse * t == identity(p)
                assert is_rational(inverse)
        assert is_rational(EndTuple(3, (1, 4, -5)))
        assert not is_rational(EndTuple(3, (1, 2, 1)))


def test_criterion_6_symmetric_power_identities():
    with criterion(6, "symmetric-power identities and split triangles, "
                      "p in {3,5,7}; p=2 branches reported vacuous/"
                      "degenerate"):
        for p in (3, 5, 7):
            params = make_params(p, 2)
            maps = sympow.morphism_table(params)
            for rep in (sympow.verify_somesome(params, maps),
                        sympow.verify_manyi_ccom(params, maps),
                        sympow.verify_triangles(params, maps)):
                assert rep.passed, rep.failures()
        params = make_params(2, 2)
        maps = sympow.morphism_table(params)
        somesome = sympow.verify_somesome(params, maps)
        assert somesome.passed
        assert any("vacuous" in detail for _, _, detail in somesome.checks)
        ccom = sympow.verify_manyi_ccom(params, maps)
        assert ccom.passed
        assert any("degenerate" in name or "degenerate" in detail
                   for name, _, detail in ccom.checks)
        assert sympow.verify_triangles(params, maps).passed


def test_criterion_7_steenrod_audits():
    with criterion(7, "Steenrod audits pass on (2,2),(2,3),(3,2): "
                      "rationality full grid, generators conclude order "
                      "exactly p; < 30 s"):
        t0 = time.perf_counter()
        for p, n in [(2, 2), (2, 3), (3, 2)]:
            params = make_params(p, n)
            args = [(m, s) for s, ms in steenrod.rationality_grid(params)
                    for m in ms]
            assert args
            for m, s in args:
                report = steenrod.audit_rationality(params, m, s)
                assert report.passed, (p, n, m, s, report.conclusion)
                lead = report.leading
                assert lead is not None
                assert isinstance(lead.verdict, steenrod.ValExactly)
                assert lead.verdict.value == 1
            for m, r in steenrod.generators_arguments(params):
                report = steenrod.audit_generators(params, m, r)
                assert report.passed, (p, n, m, r, report.conclusion)
                assert f"order exactly {p}" in report.conclusion
        assert time.perf_counter() - t0 < 30.0


def test_criterion_8_cli_goldens(capsys, monkeypatch):
    with criterion(8, "CLI goldens byte-identical; exit codes 0/1/2 "
                      "including perturbed-e rejection"):
        fixtures = json.loads((GOLDEN / "argv.json").read_text())
        for name, argv in fixtures.items():
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0, name
            assert out.encode() == (GOLDEN / name).read_bytes(), name

        # exit 0: a passing verify
        assert cli_main(["verify", "-p", "2", "-n", "4",
                         "--suite", "all"]) == 0
        # exit 2: non-prime p, parse error, perturbed e (val > 0)
        assert cli_main(["params", "-p", "4", "-n", "2"]) == 2
        assert cli_main(["eval", "-p", "3", "-n", "2", "E(1,"]) == 2
        assert cli_main(["verify", "-p", "3", "-n", "2", "-e", "3",
                         "--suite", "endalg"]) == 2
        err = capsys.readouterr().err
        assert "p must be prime" in err
        assert "syntax error" in err
        assert "p-unit" in err

        # exit 1: a failing check discovered at runtime
        from rostcalc import verify as verify_mod
        from rostcalc.reporting import CheckReport
        failing = CheckReport("stub")
        failing.add("forced failure", False)
        monkeypatch.setitem(verify_mod.SUITES, "endalg",
                            lambda params: failing)
        assert cli_main(["verify", "-p", "3", "-n", "2",
                         "--suite", "endalg"]) == 1
        capsys.readouterr()
