import pathlib
import runpy
import subprocess
import sys
import time

import pytest

from conftest import child_env
from rostcalc import motcoh, rostchow
from rostcalc.rostchow import (FREE, ZERO, ChowGroupDesc, closed_form,
                               compare, recurrence)
from rostcalc.splitring import make_params

GRID = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3, 4, 5)] + [(11, 2)]


def _kinds(table):
    """The kind of every row in [0, d], zero rows included."""
    return {j: desc.kind for j, desc in table.rows()}


def hand_table(pr):
    """Direct hand instantiation of the table, kept independent of the library."""
    out = {}
    for j in range(pr.d + 1):
        kind = "zero"
        if j == 0:
            kind = "free"
        for k in range(1, pr.p):
            if j == pr.b * k:
                kind = "p_free"
            for i in range(1, pr.n):
                if j == pr.b * k - pr.p**i + 1:
                    kind = "cyclic_p"
        out[j] = kind
    return out


def per_row_recurrence(params):
    """The j-induction one row at a time: both motcoh row queries and the
    derivation note at every j in [0, d].  Returns (entries, trace)."""
    entries, trace = {}, {}
    p, b = params.p, params.b

    def expect(row, want, where):
        if row.label != want:
            raise ValueError(f"recurrence inconsistency: row {where} is "
                             f"{motcoh.render_group(row, params)}")

    def bump(desc, j):
        if desc.kind == "zero":
            return ZERO
        if desc.kind == "p_free":
            if desc.k + 1 > p - 1:
                raise ValueError(f"recurrence inconsistency: overflow at j={j}")
            return ChowGroupDesc("p_free", k=desc.k + 1)
        if desc.kind == "cyclic_p":
            return ChowGroupDesc("cyclic_p", k=desc.k + 1, i=desc.i)
        raise ValueError(f"recurrence inconsistency: cannot shift {desc.kind}")

    for j in range(params.d + 1):
        if j < b:
            row = motcoh.even_row(j, params)
            if row.label == "Z":
                entries[j] = FREE
                trace[j] = "j<b: second triangle copies row H^{2j,j} = Z*1"
            elif row.label == "0":
                entries[j] = ZERO
                trace[j] = "j<b: second triangle copies vanishing row H^{2j,j}"
            elif row.label == f"Z/{p}":
                mono = row.monomials[0]
                t = b + 1 - j
                i, q = 0, 1
                while q < t:
                    q *= p
                    i += 1
                if q != t or mono != motcoh.qtilde(i, params):
                    raise ValueError("recurrence inconsistency: torsion row "
                                     f"at j={j} is not the omitted-Q class")
                entries[j] = ChowGroupDesc("cyclic_p", k=1, i=i)
                trace[j] = (f"j<b: second triangle copies row H^{{2j,j}} = "
                            f"(Z/{p})*{motcoh.render_monomial(mono, params)}")
            else:
                raise ValueError(f"recurrence inconsistency: row at j={j}")
        elif j == b:
            expect(motcoh.even_row(j, params), "0", "H^{2j,j} at j=b")
            odd = motcoh.odd_row(j, params)
            expect(odd, f"Z/{p}", "H^{2j+1,j} at j=b")
            if odd.monomials[0] != motcoh.mu(params):
                raise ValueError("recurrence inconsistency: odd row at j=b")
            entries[j] = ChowGroupDesc("p_free", k=1)
            trace[j] = (f"j=b: boundary onto (Z/{p})*mu has image of index p "
                        "in the free rank-1 part")
        elif j == b + 1:
            even = motcoh.even_row(j, params)
            expect(even, "K_1^s", "H^{2j,j} at j=b+1")
            if even.monomials[0] != motcoh.MCMonomial(1, 0, motcoh.mu(params).eps):
                raise ValueError("recurrence inconsistency: even row at j=b+1")
            expect(motcoh.odd_row(j, params), "0", "H^{2j+1,j} at j=b+1")
            entries[j] = bump(entries[1], j)
            trace[j] = ("j=b+1: degree-1 coefficient surjectivity onto "
                        "K_1^s*mu (assumed) kills the boundary; twist shift "
                        "lifts the entry at j=1")
        else:
            expect(motcoh.even_row(j, params), "0", f"H^{{2j,j}} at j={j}")
            expect(motcoh.odd_row(j, params), "0", f"H^{{2j+1,j}} at j={j}")
            entries[j] = bump(entries[j - b], j)
            trace[j] = (f"j>b+1: both rows vanish; restriction iso in range "
                        f"({2 * (j - b)}<{2 * params.d}, {j - b}<{params.d}) "
                        f"shifts the entry at j-b={j - b}")
    return entries, trace


@pytest.mark.parametrize("p,n", GRID + [(2, 10), (3, 7)])
def test_recurrence_equals_per_row_oracle(p, n):
    pr = make_params(p, n)
    table = recurrence(pr)
    assert (dict(table.rows()), table.trace) == per_row_recurrence(pr)


def test_closed_form_examples():
    t = closed_form(make_params(3, 2))
    assert t.nonzero() == [0, 2, 4, 6, 8]
    assert _kinds(t)[0] == "free"
    assert _kinds(t)[2] == "cyclic_p"
    assert _kinds(t)[4] == "p_free"
    assert _kinds(t)[6] == "cyclic_p"
    assert _kinds(t)[8] == "p_free"

    t = closed_form(make_params(2, 3))
    assert t.nonzero() == [0, 4, 6, 7]
    assert [_kinds(t)[j] for j in (0, 4, 6, 7)] == ["free", "cyclic_p", "cyclic_p", "p_free"]

    t = closed_form(make_params(5, 2))
    assert [j for j in t.nonzero() if t.entries[j].kind in ("free", "p_free")] == [0, 6, 12, 18, 24]
    assert [j for j in t.nonzero() if t.entries[j].kind == "cyclic_p"] == [2, 8, 14, 20]


@pytest.mark.parametrize("p,n", GRID)
def test_closed_matches_hand_table(p, n):
    pr = make_params(p, n)
    assert _kinds(closed_form(pr)) == hand_table(pr)


@pytest.mark.parametrize("p,n", GRID)
def test_recurrence_agrees_with_closed_form(p, n):
    ok, diffs = compare(make_params(p, n))
    assert ok, diffs


@pytest.mark.parametrize("p,n", GRID)
def test_counts(p, n):
    pr = make_params(p, n)
    t = closed_form(pr)
    kinds = list(_kinds(t).values())
    assert kinds.count("free") + kinds.count("p_free") == p
    assert kinds.count("cyclic_p") == (p - 1) * (n - 1)


@pytest.mark.parametrize("p,n", GRID)
def test_torsion_between_free_slots(p, n):
    pr = make_params(p, n)
    t = closed_form(pr)
    for j, desc in t.entries.items():
        if desc.kind == "cyclic_p":
            assert pr.b * (desc.k - 1) < j < pr.b * desc.k
            assert j == pr.b * desc.k - pr.p**desc.i + 1


def test_provenance_indices():
    t = closed_form(make_params(3, 3))
    assert t.entries[13] == ChowGroupDesc("p_free", k=1)
    assert t.entries[26] == ChowGroupDesc("p_free", k=2)
    assert t.entries[11] == ChowGroupDesc("cyclic_p", k=1, i=1)
    assert t.entries[5] == ChowGroupDesc("cyclic_p", k=1, i=2)
    assert t.entries[24] == ChowGroupDesc("cyclic_p", k=2, i=1)
    assert t.entries[18] == ChowGroupDesc("cyclic_p", k=2, i=2)


def test_traces():
    pr = make_params(3, 2)
    t = recurrence(pr)
    assert set(t.trace) == set(range(pr.d + 1))
    assert "j<b" in t.trace[0] and "Z*1" in t.trace[0]
    assert "boundary" in t.trace[4]
    assert "j-b=2" in t.trace[6]

    t2 = recurrence(make_params(2, 2))
    assert "boundary" in t2.trace[3]


def test_n1_pure_split():
    pr = make_params(5, 1)
    t = closed_form(pr)
    assert _kinds(t) == {0: "free", 1: "p_free", 2: "p_free", 3: "p_free", 4: "p_free"}
    ok, _ = compare(pr)
    assert ok


def test_p2_shifted_by_b_equals_d():
    pr = make_params(2, 4)
    t = recurrence(pr)
    assert t.entries[pr.d].kind == "p_free"
    assert t.entries[pr.d].k == 1


def test_kind_validation():
    with pytest.raises(ValueError):
        ChowGroupDesc("torsion")


def test_large_symbols_compare_within_a_second():
    # CPU time of this process, so other load on the machine does not count
    start = time.process_time()
    for p, n in [(2, 14), (3, 9), (7, 5), (11, 4), (7, 6), (2, 17)]:
        ok, diffs = compare(make_params(p, n))
        assert ok, diffs
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("name", ["closed_form", "recurrence", "compare"])
def test_table_size_bound(name, monkeypatch):
    engine = getattr(rostchow, name)
    with pytest.raises(ValueError, match="table too large"):
        engine(make_params(2, 60))
    monkeypatch.setattr(rostchow, "MAX_TABLE_ROWS", 9)
    engine(make_params(3, 2))  # d + 1 = 9 rows
    with pytest.raises(ValueError, match="d \\+ 1 = 16 rows at p=2 n=4, more than 9"):
        engine(make_params(2, 4))


def _perturbed_rows(monkeypatch, change):
    """Make motcoh.nonzero_rows return ``change(rows, params)``."""
    real = motcoh.nonzero_rows

    def rows(params):
        out = real(params)
        change(out, params)
        return out
    monkeypatch.setattr(motcoh, "nonzero_rows", rows)


def _add_row_above(rows, pr):
    j = pr.b + 2
    rows[(2 * j, j)] = motcoh.MCGroup((motcoh.delta(pr),), f"Z/{pr.p}")


def _drop_torsion_row(rows, pr):
    del rows[next(key for key, row in rows.items()
                  if key[1] < pr.b and row.label == f"Z/{pr.p}")]


def _add_odd_row_below(rows, pr):
    rows[(3, 1)] = motcoh.MCGroup((motcoh.delta(pr),), f"Z/{pr.p}")


@pytest.mark.parametrize("change", [
    _add_row_above, _drop_torsion_row, _add_odd_row_below,
    lambda rows, pr: rows.pop((0, 0)),
    lambda rows, pr: rows.pop((2 * pr.b + 1, pr.b)),
    lambda rows, pr: rows.pop((2 * pr.b + 2, pr.b + 1)),
], ids=["row above b+1", "torsion row dropped", "odd row below b",
        "j=0 row dropped", "mu row dropped", "K_1 row dropped"])
@pytest.mark.parametrize("p,n", [(3, 2), (7, 2), (5, 3)])
def test_perturbed_rows_are_inconsistent(p, n, change, monkeypatch):
    pr = make_params(p, n)
    _perturbed_rows(monkeypatch, change)
    for engine in (recurrence, compare):
        with pytest.raises(ValueError, match="recurrence inconsistency"):
            engine(pr)


def test_diffs_list_each_disagreement():
    pr = make_params(3, 2)
    left, right = closed_form(pr), recurrence(pr)
    assert rostchow.diffs(left, right) == []
    right.entries[2] = ZERO
    right.entries[5] = FREE
    assert rostchow.diffs(left, right) == [
        (2, ChowGroupDesc("cyclic_p", k=1, i=1), ZERO), (5, ZERO, FREE)]


def test_diffs_read_rows_only_one_table_stores():
    """A row stored by one table and not the other is compared against
    ZERO, and a stored ZERO equals an absent row."""
    pr = make_params(3, 2)
    left, right = closed_form(pr), recurrence(pr)
    del right.entries[6]
    right.entries[3] = ChowGroupDesc("cyclic_p", k=1, i=1)
    assert rostchow.diffs(left, right) == [
        (3, ZERO, ChowGroupDesc("cyclic_p", k=1, i=1)),
        (6, ChowGroupDesc("cyclic_p", k=2, i=1), ZERO)]
    assert rostchow.diffs(right, left) == [
        (3, ChowGroupDesc("cyclic_p", k=1, i=1), ZERO),
        (6, ZERO, ChowGroupDesc("cyclic_p", k=2, i=1))]
    left, right = closed_form(pr), recurrence(pr)
    right.entries[1] = ZERO
    left.entries[7] = ZERO
    assert left.entries != right.entries
    assert rostchow.diffs(left, right) == rostchow.diffs(right, left) == []


@pytest.mark.parametrize("p,n", GRID + [(11, 4), (2, 17)])
def test_engines_store_only_nonzero_entries(p, n):
    """Both engines store the 1 + (p-1)*n nonzero entries, in increasing
    j, and no row of the d + 1 = p^n others."""
    pr = make_params(p, n)
    for table in (closed_form(pr), recurrence(pr)):
        assert list(table.entries) == table.nonzero()
        assert len(table.entries) == 1 + (p - 1) * n
        assert len(table.rows()) == pr.d + 1


def test_trace_is_rendered_from_the_entries():
    pr = make_params(3, 2)
    table = closed_form(pr)
    assert table.trace[8] == "closed form: index-p free part at j=b*2"
    table.entries[8] = ZERO
    assert table.trace[8] == "closed form: zero"


TABLES = pathlib.Path(__file__).parents[1] / "scripts" / "chow_tables.py"


def test_chow_tables_script_subprocess():
    """The script prints one header per symbol, tagged [ok] when the closed
    form and the recurrence agree."""
    proc = subprocess.run([sys.executable, str(TABLES), "--primes", "2", "3",
                           "--max-n", "2"], capture_output=True, text=True,
                          timeout=30, env=child_env())
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines()
               if line.startswith("p=")]
    assert len(headers) == 4
    assert all(line.endswith("[ok]") for line in headers), headers


def test_chow_tables_script_exits_1_on_mismatch(monkeypatch, capsys):
    """A symbol whose tables disagree is tagged MISMATCH and makes the
    script exit 1."""
    monkeypatch.setattr(rostchow, "diffs",
                        lambda left, right: [(1, FREE, ZERO)])
    monkeypatch.setattr(sys, "argv",
                        ["chow_tables.py", "--primes", "2", "--max-n", "1"])
    assert runpy.run_path(str(TABLES))["main"]() == 1
    assert ("p=2 n=1  b=1 d=1  [MISMATCH (1)]"
            in capsys.readouterr().out.splitlines())
