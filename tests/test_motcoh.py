import random
from itertools import product

import pytest

from rostcalc import motcoh
from rostcalc.motcoh import (
    CONSTANT_CLASS,
    MCGroup,
    MCMonomial,
    bidegree_of,
    delta,
    enumerate_monomials,
    even_row,
    gamma,
    mu,
    nonzero_rows,
    odd_row,
    qtilde,
    render_group,
    render_monomial,
)
from rostcalc.splitring import make_params

GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3, 4)]


def closed_even(j, pr):
    """Independent instantiation of the even-row classification."""
    if j == 0:
        return MCGroup((CONSTANT_CLASS,), "Z")
    for i in range(1, pr.n):
        if j == pr.b - pr.p**i + 1:
            return MCGroup((qtilde(i, pr),), f"Z/{pr.p}")
    if j == pr.b + 1:
        return MCGroup((MCMonomial(1, 0, mu(pr).eps),), "K_1^s")
    return MCGroup((), "0")


def closed_odd(j, pr):
    if j == pr.b:
        return MCGroup((mu(pr),), f"Z/{pr.p}")
    return MCGroup((), "0")


def test_named_bidegrees_p3_n2():
    pr = make_params(3, 2)
    assert bidegree_of(mu(pr), pr) == bidegree_of(MCMonomial(0, 0, (1, 0)), pr)
    bd = bidegree_of(mu(pr), pr)
    assert (bd.i, bd.j) == (9, 4) == (2 * pr.b + 1, pr.b)
    bd = bidegree_of(delta(pr), pr)
    assert (bd.i, bd.j) == (4, 2) == (pr.n + 2, pr.n)
    bd = bidegree_of(gamma(pr), pr)
    assert (bd.i, bd.j) == (26, 12) == (2 * pr.c, pr.c - 1)


@pytest.mark.parametrize("p,n", GRID)
def test_named_bidegrees_general(p, n):
    pr = make_params(p, n)
    bd = bidegree_of(mu(pr), pr)
    assert (bd.i, bd.j) == (2 * pr.b + 1, pr.b)
    bd = bidegree_of(gamma(pr), pr)
    assert (bd.i, bd.j) == (2 * pr.c, pr.c - 1)
    bd = bidegree_of(delta(pr), pr)
    assert (bd.i, bd.j) == (n + 2, n)
    for i in range(1, n):
        bd = bidegree_of(qtilde(i, pr), pr)
        assert (bd.i, bd.j) == (2 * (pr.b - p**i + 1), pr.b - p**i + 1)


def test_qtilde_examples():
    assert qtilde(1, make_params(3, 2)) == delta(make_params(3, 2))
    pr = make_params(2, 3)
    assert qtilde(1, pr).eps == (0, 1, 0)
    bd = bidegree_of(qtilde(1, pr), pr)
    assert (bd.i, bd.j) == (12, 6)
    pr = make_params(3, 3)
    assert qtilde(2, pr).eps == (1, 0, 0)
    assert bidegree_of(qtilde(2, pr), pr).j == 5
    with pytest.raises(ValueError):
        qtilde(2, make_params(3, 2))
    with pytest.raises(ValueError):
        qtilde(1, make_params(5, 1))


def scan_weight(j, pr):
    """The scan enumerate_monomials replaced, kept as its oracle: every
    k <= j/(c-1) and all 2^n eps vectors, with m pinned by the j-formula.
    Returns {i: the sorted monomials of bidegree (i, j)}."""
    found = {}
    for k in range(j // (pr.c - 1) + 1):
        for eps in product((0, 1), repeat=pr.n):
            m = (j - (pr.c - 1) * k - pr.n
                 - sum(b * (pr.p ** (t + 1) - 1) for t, b in enumerate(eps)))
            if m >= 0:
                w = m - 2 * k - sum(eps) + (pr.n - 2)
                found.setdefault(2 * j - w, []).append(MCMonomial(m, k, eps))
    return {i: sorted(monos, key=lambda mo: (mo.m, mo.k, mo.eps))
            for i, monos in found.items()}


SCAN_GRID = ([(2, n) for n in range(1, 6)] + [(3, n) for n in range(2, 5)]
             + [(5, 2), (5, 3), (7, 2)])


@pytest.mark.parametrize("p,n", SCAN_GRID)
def test_digits_match_the_scan(p, n):
    pr = make_params(p, n)
    seen = set()
    for j in range(3 * (pr.c - 1)):  # so k runs through 0, 1, 2
        want = scan_weight(j, pr)
        # k <= 2 gives w >= -2k - 2 >= -6, so i = 2j - w <= 2j + 6
        assert all(j < i <= 2 * j + 6 for i in want)
        for i in range(j + 1, 2 * j + 7):
            got = enumerate_monomials(i, j, pr)
            assert got == want.get(i, []), (i, j)
            seen.update((mo.k, mo.eps) for mo in got)
    assert {k for k, _ in seen} == {0, 1, 2}
    assert {eps for _, eps in seen} == set(product((0, 1), repeat=n))


def test_huge_bidegrees_cost_n_digits():
    pr = make_params(2, 60)
    assert enumerate_monomials(200, 100, pr) == []
    mono = MCMonomial(3, 10**18, (1, 0) * 30)
    bd = bidegree_of(mono, pr)
    assert enumerate_monomials(bd.i, bd.j, pr) == [mono]
    pr = make_params(2, 1)
    assert enumerate_monomials(2 * 10**18 + 1, 10**18, pr) == []


def test_enumerate_examples():
    pr = make_params(3, 2)
    assert enumerate_monomials(9, 4, pr) == [mu(pr)]
    assert enumerate_monomials(10, 5, pr) == [MCMonomial(1, 0, (1, 0))]
    pr2 = make_params(2, 2)
    assert enumerate_monomials(4, 2, pr2) == [delta(pr2)]
    assert enumerate_monomials(0, 0, pr) == [CONSTANT_CLASS]
    with pytest.raises(ValueError):
        enumerate_monomials(3, 3, pr)
    with pytest.raises(ValueError):
        enumerate_monomials(2, 5, pr)


@pytest.mark.parametrize("p,n", GRID)
def test_rows_match_closed_forms(p, n):
    pr = make_params(p, n)
    for j in range(pr.d + 1):
        assert even_row(j, pr) == closed_even(j, pr), f"even row {j} at (p,n)=({p},{n})"
        assert odd_row(j, pr) == closed_odd(j, pr), f"odd row {j} at (p,n)=({p},{n})"


@pytest.mark.parametrize("p,n", GRID + [(7, 2), (11, 2), (2, 6)])
def test_nonzero_rows_are_the_nonzero_row_queries(p, n):
    pr = make_params(p, n)
    want = {(i, j): row for j in range(pr.d + 1)
            for i, row in ((2 * j, even_row(j, pr)), (2 * j + 1, odd_row(j, pr)))
            if not row.is_zero}
    got = nonzero_rows(pr)
    assert got == want
    assert list(got) == sorted(got, key=lambda key: key[::-1])
    assert len(got) == n + 2 - (pr.b + 1 > pr.d)


def test_nonzero_rows_read_each_row_back(monkeypatch):
    """Each candidate row in range goes through enumerate_monomials, whose
    answer must be the candidate's own monomial."""
    pr = make_params(3, 3)
    calls = []
    real = motcoh.enumerate_monomials
    monkeypatch.setattr(motcoh, "enumerate_monomials",
                        lambda i, j, params: calls.append((i, j)) or real(i, j, params))
    rows = nonzero_rows(pr)
    assert sorted(calls) == sorted(key for key in rows if key != (0, 0))
    monkeypatch.setattr(motcoh, "enumerate_monomials",
                        lambda i, j, params: [MCMonomial(0, 0, (0, 0, 0))])
    with pytest.raises(ValueError, match="does not read back"):
        nonzero_rows(pr)


@pytest.mark.parametrize("p,n", GRID)
def test_torsion_label_only_with_m_zero(p, n):
    pr = make_params(p, n)
    for j in range(pr.d + 1):
        for row in (even_row(j, pr), odd_row(j, pr)):
            if row.label.startswith("Z/"):
                assert all(mo.m == 0 for mo in row.monomials)


def test_row_range_errors():
    pr = make_params(3, 2)
    with pytest.raises(ValueError):
        even_row(-1, pr)
    with pytest.raises(ValueError):
        odd_row(pr.d + 1, pr)


def test_low_rows_empty():
    # any monomial has j >= n, so rows 1..n-1 vanish
    pr = make_params(5, 3)
    for j in range(1, pr.n):
        assert even_row(j, pr).is_zero
        assert odd_row(j, pr).is_zero


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 4), (3, 3), (5, 2)])
def test_enumeration_roundtrip_random_monomials(p, n):
    pr = make_params(p, n)
    rng = random.Random(2400 + 10 * p + n)
    for _ in range(40):
        mono = MCMonomial(
            rng.randrange(6),
            rng.randrange(3),
            tuple(rng.randrange(2) for _ in range(n)),
        )
        bd = bidegree_of(mono, pr)
        assert mono in enumerate_monomials(bd.i, bd.j, pr)


def test_bidegree_eps_arity():
    with pytest.raises(ValueError):
        bidegree_of(MCMonomial(0, 0, (0,)), make_params(3, 2))


def test_renders():
    pr = make_params(3, 2)
    assert render_monomial(mu(pr), pr) == "mu"
    assert render_monomial(delta(pr), pr) == "delta"
    assert render_monomial(gamma(pr), pr) == "gamma"
    assert render_monomial(MCMonomial(0, 2, (1, 0)), pr) == "gamma^2*mu"
    pr3 = make_params(2, 3)
    assert render_monomial(MCMonomial(0, 1, (0, 1, 0)), pr3) == "gamma*Q2(delta)"
    assert render_group(even_row(0, pr), pr) == "Z*1"
    assert render_group(odd_row(pr.b, pr), pr) == "Z/3*mu"
    assert render_group(even_row(pr.b + 1, pr), pr) == "K_1^s*mu"
    assert render_group(even_row(1, pr), pr) == "0"
