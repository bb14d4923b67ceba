import time

import pytest

from rostcalc import rostchow
from rostcalc.rostchow import ChowGroupDesc, closed_form, compare, recurrence
from rostcalc.splitring import make_params

GRID = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3, 4, 5)] + [(11, 2)]


def _kinds(table):
    return {j: desc.kind for j, desc in sorted(table.entries.items())}


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
    for p, n in [(2, 14), (3, 9), (7, 5)]:
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
