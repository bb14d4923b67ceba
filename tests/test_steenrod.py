"""Cartan expansion, the sigma decomposition, and the divisibility audits."""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROADMAP_TOTALS, verdict_totals
from rostcalc import cli, steenrod
from rostcalc.arith import is_prime, multinomial
from rostcalc.reporting import CheckReport
from rostcalc.splitring import make_params
from rostcalc.steenrod import (
    MAX_AUDIT_DIM,
    AuditCase,
    AuditReport,
    PairingContext,
    RuleApp,
    SteenAtom,
    SteenProduct,
    ValAtLeast,
    ValExactly,
    Zero,
    audit_generators,
    audit_rationality,
    cartan_expand,
    generators_arguments,
    rationality_grid,
    replay,
    steen_index_valid,
    substitute_dcmp,
    valuation_bound,
    _closed_run,
)
from rostcalc.verify import run_suite


# --- index rule ---------------------------------------------------------------


def test_steen_index_valid():
    assert not steen_index_valid(1, 3)
    assert steen_index_valid(0, 3)
    assert steen_index_valid(8, 5)
    assert not steen_index_valid(-2, 3)
    assert steen_index_valid(5, 2)  # p = 2: every nonnegative index


# --- cartan expansion -----------------------------------------------------------


def test_cartan_p3_r2_l2():
    assert cartan_expand(2, 2, 3) == [((0, 2), 2)]


def test_cartan_l0():
    for r in (1, 2, 4):
        assert cartan_expand(r, 0, 5) == [((0,) * r, 1)]


def test_cartan_p3_r2_l4():
    assert cartan_expand(2, 4, 3) == [((0, 4), 2), ((2, 2), 1)]


def test_cartan_invalid_total_empty():
    assert cartan_expand(2, 3, 3) == []
    assert cartan_expand(3, 5, 3) == []


def _ordered_count(r, l, p):
    if r == 0:
        return 1 if l == 0 else 0
    return sum(_ordered_count(r - 1, l - a, p)
               for a in range(0, l + 1, p - 1))


@given(p=st.sampled_from((2, 3, 5)), r=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_cartan_multiplicities_count_ordered_compositions(p, r, data):
    l = data.draw(st.integers(0, 4 * (p - 1)))
    expansion = cartan_expand(r, l, p)
    assert sum(mult for _, mult in expansion) == _ordered_count(r, l, p)
    for parts, _ in expansion:
        assert len(parts) == r
        assert sum(parts) == l
        assert list(parts) == sorted(parts)
        assert all(steen_index_valid(a, p) for a in parts)


# --- sigma decomposition: the class-level oracle and the buckets ----------------


def _class_products(expansion, context=None):
    """The class-level oracle: one product per count class (a thetas, b
    seconds, c thirds on the q positive parts) of every composition, theta
    on the first a parts, second on the next b and third on the last c,
    weighted by the multinomial(a, b, c) terms it stands for."""
    products = []
    for parts, multiplicity in expansion:
        positive = [v for v in parts if v]
        sigmas = (SteenAtom("sigma"),) * (len(parts) - len(positive))
        q = len(positive)
        for a in range(q, -1, -1):
            for b in range(q - a, -1, -1):
                c = q - a - b
                kinds = ("theta",) * a + ("second",) * b + ("third",) * c
                atoms = sigmas + tuple(SteenAtom(kind, v)
                                       for kind, v in zip(kinds, positive))
                products.append(SteenProduct(
                    atoms, multiplicity * (-1) ** c, context,
                    multinomial((a, b, c))))
    return products


def test_substitute_single_positive_part():
    prods = _class_products([((4,), 1)])
    assert len(prods) == 3
    kinds = [(p.atoms[0].kind, p.scalar) for p in prods]
    assert kinds == [("theta", 1), ("second", 1), ("third", -1)]
    assert all(p.atoms[0].index == 4 for p in prods)
    # one positive part: every class is a bucket of its own
    assert substitute_dcmp([((4,), 1)]) == prods


def test_substitute_keeps_sigma_factors():
    for prods in (_class_products([((0, 4), 2)]),
                  substitute_dcmp([((0, 4), 2)])):
        assert len(prods) == 3
        for prod in prods:
            assert prod.classify()["sigma"] == 1
            assert abs(prod.scalar) == 2


def test_substitute_all_zero_unchanged():
    for prods in (_class_products([((0, 0, 0), 1)]),
                  substitute_dcmp([((0, 0, 0), 1)])):
        assert len(prods) == 1
        assert prods[0].atoms == (SteenAtom("sigma"),) * 3
        assert prods[0].scalar == 1


def test_substitute_two_positive_parts_signs():
    prods = _class_products([((2, 2), 1)])
    # classes (a, b, c) with a + b + c = 2, standing for 3^2 terms
    assert len(prods) == 6
    assert sum(p.weight for p in prods) == 9
    # (-1)^(#third): one third in the four terms of weights 2 + 2
    assert sum(p.weight for p in prods if p.scalar == -1) == 4
    assert sum(p.weight for p in prods if p.scalar == 1) == 5


def test_substitute_dcmp_one_product_per_bucket():
    """Two positive parts fill all four buckets: 9 - 4 - 4 = 1 term with
    two thetas, 4 with one, 3 with no theta but a second, 1 of thirds only;
    each bucket's product is its theta-heaviest class."""
    prods = substitute_dcmp([((2, 2), 1)])
    assert [(p.classify()["theta"], p.classify()["second"],
             p.classify()["third"], p.scalar, p.weight) for p in prods] == [
        (2, 0, 0, 1, 1), (1, 1, 0, 1, 4), (0, 2, 0, 1, 3), (0, 0, 2, 1, 1)]
    assert substitute_dcmp([]) == []


def _bucket_index(prod):
    """0: two or more thetas, 1: one theta, 2: no theta but a second,
    3: thirds only."""
    c = prod.classify()
    return (0 if c["theta"] >= 2 else 1 if c["theta"] else
            2 if c["second"] else 3)


@given(p=st.sampled_from((2, 3, 5)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_classify_consistent_with_multiset(p, data):
    r = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(0, 3 * (p - 1)))
    expansion = cartan_expand(r, l, p)
    for prod in _class_products(expansion) + substitute_dcmp(expansion):
        counts = prod.classify()
        assert sum(counts.values()) == len(prod.atoms)
        assert prod.scalar != 0
        assert (prod.scalar < 0) == (counts["third"] % 2 == 1)
        assert sum(_composition(prod)) == l


def _composition(prod):
    """The Cartan composition a product came from (ascending)."""
    parts = [0] * prod.classify()["sigma"]
    parts += [a.index for a in prod.atoms
              if a.kind in ("theta", "second", "third")]
    return tuple(sorted(parts))


def _substitute_terms(expansion, context=None):
    """The brute-force oracle: one product per term, every assignment of
    theta, second or third to every positive part, weight 1."""
    products = []
    for parts, multiplicity in expansion:
        positive = [a for a in parts if a]
        sigmas = (SteenAtom("sigma"),) * (len(parts) - len(positive))
        for choice in iter_product(("theta", "second", "third"),
                                   repeat=len(positive)):
            atoms = sigmas + tuple(SteenAtom(kind, a)
                                   for kind, a in zip(choice, positive))
            scalar = multiplicity * (-1) ** choice.count("third")
            products.append(SteenProduct(atoms, scalar, context))
    return products


@given(p=st.sampled_from((2, 3, 5, 7)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_classes_partition_terms(p, data):
    r = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(0, 4 * (p - 1)))
    expansion = cartan_expand(r, l, p)

    def key(prod):
        c = prod.classify()
        return _composition(prod), c["theta"], c["second"], c["third"]

    terms, classes, buckets = Counter(), Counter(), Counter()
    signs = {}
    for prod in _substitute_terms(expansion):
        terms[key(prod)] += 1
        signs[key(prod)] = prod.scalar
        buckets[_bucket_index(prod)] += 1
    for prod in _class_products(expansion):
        assert classes[key(prod)] == 0
        classes[key(prod)] += prod.weight
        assert prod.scalar == signs[key(prod)]
    assert classes == terms
    # the bucket products partition the terms by bucket, and each is a
    # term of the expansion with its own sign
    by_bucket = Counter()
    for prod in substitute_dcmp(expansion):
        assert by_bucket[_bucket_index(prod)] == 0
        by_bucket[_bucket_index(prod)] += prod.weight
        assert prod.scalar == signs[key(prod)]
    assert by_bucket == buckets


def test_closed_form_bucket_weights_match_cartan_expand():
    """replay's closed-form bucket weights are the term counts of the
    engine's own expansion."""
    for p in (2, 3, 5, 7):
        for r in range(1, p):
            for l in range(6 * (p - 1) + 1):
                want = [0, 0, 0, 0]
                for prod in _substitute_terms(cartan_expand(r, l, p)):
                    want[_bucket_index(prod)] += 1
                assert _closed_run(r, p, l, l)[0] == tuple(want), (p, r, l)
            # a run's weights are the sums of its l's
            top = 6 * (p - 1)
            for lo in range(top + 1):
                for last in range(lo, top + 1, p - 1):
                    assert _closed_run(r, p, lo, last)[0] == tuple(
                        map(sum, zip(*(_closed_run(r, p, l, l)[0]
                                       for l in range(lo, last + 1, p - 1))))
                    ), (p, r, lo, last)


def _weight_sums_oracle(r, p, top):
    """The enumerating oracle of ``steenrod._weight_sums``: each l's bucket
    table is ``substitute_dcmp`` of every Cartan composition of S^l."""
    step, tables = p - 1, []
    sums = [[0] * (top + 1 + step) for _ in range(4)]
    for l in range(top + 1):
        table = [None] * 4
        for prod in substitute_dcmp(cartan_expand(r, l, p)):
            table[_bucket_index(prod)] = prod
        tables.append(tuple(table))
        for row, prod in zip(sums, table):
            row[l + step] = row[l] + (prod.weight if prod else 0)
    return tuple(tables), tuple(map(tuple, sums))


@pytest.mark.parametrize("r,p,top", [
    (r, p, top) for p in (2, 3, 5, 7, 11, 13) for r in range(1, p)
    for top in sorted({0, 1, 2 * (p - 1), 6 * (p - 1), 40})
] + [(r, p, 2 * (p ** n - 1))
     for p, n in ((5, 3), (7, 2), (11, 2), (3, 4), (2, 7))
     for r in range(1, p)])
def test_weight_sums_match_enumeration(r, p, top):
    """The bucket tables built from partition counts and the first two
    compositions equal, product for product and sum for sum, those built
    by enumerating every composition; the last keys are every table of
    the audits at (5,3), (7,2), (11,2), (3,4) and (2,7), whose l <= 2d
    (the (2,5) and (2,6) tables are the first l of the (2,7) one)."""
    assert steenrod._weight_sums(r, p, top) == _weight_sums_oracle(r, p, top)


# --- valuation_bound on hand-built products ------------------------------------


def _rat_ctx(params, m, s, i, j, l):
    k = params.d + s - i - j - l
    return PairingContext("rationality", params, m, s, params.p - 1,
                          i, j, k, l,
                          (SteenAtom("chern_x", i), SteenAtom("chern_x", j)))


def test_two_thetas_val_at_least_2():
    pr = make_params(3, 2)
    ctx = _rat_ctx(pr, 2, 2, 1, 1, 4)
    prod = SteenProduct((SteenAtom("theta", 2), SteenAtom("theta", 2)), 1, ctx)
    v = valuation_bound(prod)
    assert isinstance(v, ValAtLeast) and v.value >= 2
    assert all(r.rule == "theta-carries-p" for r in v.rules)


def test_third_only_tail_pushes_to_zero():
    pr = make_params(3, 2)
    ctx = PairingContext("generators", pr, 1, 2, 1, 0, 2, 0, 2,
                         (SteenAtom("chern_y", 0),))
    prod = SteenProduct((SteenAtom("third", 2),), -1, ctx)
    assert valuation_bound(prod) == Zero("proj1-sigma-power-zero")


def test_missing_context_cannot_audit():
    with pytest.raises(ValueError, match="cannot audit"):
        valuation_bound(SteenProduct((SteenAtom("theta", 2),), 1, None))


def test_unknown_atom_kind_rejected():
    with pytest.raises(ValueError, match="unknown atom kind"):
        SteenAtom("fourth", 1)


def test_atom_flags():
    assert SteenAtom("chern_x", 0).rational
    assert not SteenAtom("chern_x", 0).poscodim
    assert SteenAtom("chern_x", 3).poscodim
    assert SteenAtom("chern_y", 0).poscodim  # ambient codimension positive
    assert SteenAtom("second", 2).rational and SteenAtom("second", 2).poscodim
    assert not SteenAtom("theta", 2).rational
    assert not SteenAtom("sigma").rational


# --- rationality audit -------------------------------------------------------------


def test_rationality_p2_n2_passes():
    rep = audit_rationality(make_params(2, 2), 1, 1)
    assert rep.passed
    assert rep.counts()["exact"] == 1
    lead = rep.leading
    assert lead.index == (3, 0, 1, 0)
    assert isinstance(lead.verdict, ValExactly) and lead.verdict.value == 1
    assert "deg(b_3)" in rep.conclusion


def test_rationality_p3_n2_passes():
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert rep.passed
    assert rep.leading.index == (8, 0, 2, 0)


def test_rationality_bound_violation():
    with pytest.raises(ValueError, match="bound not satisfied"):
        audit_rationality(make_params(3, 2), 10, 2)
    # above d = 8 nothing is claimed, and the budget d + s is unbounded
    with pytest.raises(ValueError, match="s = 10 above d = 8"):
        audit_rationality(make_params(3, 2), 1, 10)


def test_rationality_trivial_for_invalid_index():
    rep = audit_rationality(make_params(3, 2), 1, 1)
    assert rep.passed
    assert rep.cases == ()
    assert rep.conclusion.startswith("trivial")


def test_rationality_m_out_of_range():
    # m = -1 passes the bound but is not a cycle dimension
    with pytest.raises(ValueError, match="outside"):
        audit_rationality(make_params(3, 2), -1, 2)


# --- the class-level oracle audit ------------------------------------------------


def _class_cases(report):
    """The class-level oracle of a report's audit: the cases the audits
    built before rows and buckets, one per index (i, j, k, l) and count
    class, each covering its own l."""
    params, (m, arg) = report.params, [v for _, v in report.args]
    p, d = params.p, params.d
    cases = []

    def expand(index, ctx, leading):
        single = range(ctx.l, ctx.l + 1)
        expansion = cartan_expand(ctx.r, ctx.l, p)
        if not expansion:
            cases.append(AuditCase(index, None, Zero("cartan-empty"), False,
                                   single, 1))
        for prod in _class_products(expansion, ctx):
            cases.append(AuditCase(index, prod, valuation_bound(prod),
                                   leading, single, prod.weight))

    if report.kind == "generators":
        dim_y = p ** m - 1
        for j in range(dim_y + 1):
            i = dim_y - j
            expand((i, j), PairingContext(
                "generators", params, m, j, arg, i, j, 0, j,
                (SteenAtom("chern_y", i),)), j == 0)
        return cases
    total = d + arg
    for i in range(1, total + 1):
        for j in range(total - i + 1):
            for l in range(total - i - j + 1):
                k = total - i - j - l
                if i > d or j > d:
                    zero = Zero("chern-index-overflow")
                elif not steen_index_valid(k, p):
                    zero = Zero("steenrod-index-invalid")
                else:
                    expand((i, j, k, l), PairingContext(
                        "rationality", params, m, arg, p - 1, i, j, k, l,
                        (SteenAtom("chern_x", i), SteenAtom("chern_x", j))),
                        l == 0 and i == d and j == 0)
                    continue
                cases.append(AuditCase((i, j, k, l), None, zero, False,
                                       range(l, l + 1), 1))
    return cases


def test_rationality_case_spot_checks():
    """Single indices of the class-level oracle."""
    pr = make_params(3, 2)  # b = 4, d = 8
    by_index = {}
    for case in _class_cases(audit_rationality(pr, 2, 2)):
        by_index.setdefault(case.index, []).append(case)

    # l = 0, valid k, i not a multiple of b: exact zero via the rho pairing
    [case] = by_index[(2, 0, 8, 0)]
    assert case.verdict == Zero("rho-pairing-zero")

    # l = 0, i = b: rational pairing plus the x-splitting vanishing
    [case] = by_index[(4, 0, 6, 0)]
    assert isinstance(case.verdict, ValAtLeast)
    assert [r.rule for r in case.verdict.rules] == [
        "rational-pairing", "x-decomp-vanishes"]

    # overflow is a single unexpanded case
    cases = by_index[(9, 0, 1, 0)]
    assert len(cases) == 1
    assert cases[0].verdict == Zero("chern-index-overflow")
    assert cases[0].product is None

    # an odd Steenrod remainder on the x-component is invalid at p = 3
    [case] = by_index[(1, 0, 9, 0)]
    assert case.verdict == Zero("steenrod-index-invalid")

    # an odd budget on the sigma power has no valid Cartan composition
    [case] = by_index[(1, 0, 8, 1)]
    assert case.verdict == Zero("cartan-empty")


def test_rationality_row_spot_checks():
    """The bands of single first rows of a report."""
    pr = make_params(3, 2)  # b = 4, d = 8
    report = audit_rationality(pr, 2, 2)
    by_row, oracle = {}, {}
    for case in report.cases:
        by_row.setdefault(case.index[:2], []).append(case)
    for case in _row_cases(report):
        oracle.setdefault(case.index[:2], []).append(case)

    def summary(row):
        return [(c.verdict.reason if isinstance(c.verdict, Zero) else
                 [r.rule for r in c.verdict.rules]
                 if isinstance(c.verdict, ValAtLeast) else "exact",
                 c.range, c.weight, c.band) for c in by_row[row]]

    # i or j > d: one overflow zero for the s^2 = 4 rows past d, named by
    # the first, (1, 9) with budget 0, and weighing budget + 1 terms of each
    # of (1, 9), (9, 0), (9, 1) and (10, 0)
    assert summary((1, 9)) == [("chern-index-overflow", range(1), 5, None)]
    assert [(c.index, c.weight) for c in oracle[(1, 9)] + oracle[(9, 0)]
            + oracle[(9, 1)] + oracle[(10, 0)]] == [
        ((1, 9, 0, 0), 1), ((9, 0, 1, 0), 2), ((9, 1, 0, 0), 1),
        ((10, 0, 0, 0), 1)]
    assert (9, 0) not in by_row
    # odd t: the l with even k are the odd l, where S^l is empty, on the
    # rows (t, 0) at t = 1, 3, 5, 7 (budgets 9, 7, 5, 3)
    assert summary((1, 0)) == [
        ("steenrod-index-invalid", range(10), 5 + 4 + 3 + 2, range(1, 9, 2)),
        ("cartan-empty", range(1, 11, 2), 5 + 4 + 3 + 2, range(1, 9, 2))]
    # the rows (t, 0) at t = 2, 4, 6, budgets 8, 6, 4 (k = s = 2 at l = 6,
    # 4, 2): l = 0 alone, l = 2, 4 with the x-decomposition, l = 6 at k = s,
    # l = 8; the odd l are invalid.  The l = 0 bands break where b | t.
    theta_x = ["theta-carries-p", "x-decomp-vanishes"]
    pair_x = ["rational-pairing", "x-decomp-vanishes"]
    thetas = ["theta-carries-p", "theta-carries-p"]
    at_2, to_4, to_6 = range(2, 4, 2), range(2, 6, 2), range(2, 8, 2)
    assert summary((2, 0)) == [
        ("steenrod-index-invalid", range(9), 4 + 3 + 2, to_6),
        ("rho-pairing-zero", range(1), 1, at_2),
        (thetas, range(2, 6, 2), 1, at_2),
        (theta_x, range(2, 6, 2), 6 + 1, to_4),
        (pair_x, range(2, 6, 2), 5 + 1, to_4),
        (pair_x, range(2, 6, 2), 3 + 1, to_4),
        (thetas, range(6, 8, 2), 1 + 1, to_4),
        (["theta-carries-p", "rational-pairing"], range(6, 8, 2), 5 + 5 + 1,
         to_6),
        (["split-pairing"], range(6, 8, 2), 4 + 4 + 1, to_6),
        ("proj1-sigma-power-zero", range(6, 8, 2), 2 + 2 + 1, to_6),
        (thetas, range(8, 10, 2), 2 + 1 + 1, to_6),
        (theta_x, range(8, 10, 2), 9 + 6 + 4, to_6),
        (pair_x, range(8, 10, 2), 7 + 5 + 3, to_6),
        (pair_x, range(8, 10, 2), 3 + 3 + 1, to_6)]
    assert summary((4, 0)) == [
        (["rational-pairing", "x-decomp-vanishes"], range(1), 1,
         range(4, 6, 2))]
    assert summary((6, 0)) == [
        ("rho-pairing-zero", range(1), 1, range(6, 8, 2))]
    # the run after l_s of the rows (i, t - i), b not dividing i, at
    # t = 2, 4, 6 is one band named by (1, 1); at t = 8, l_s = 0, its lower
    # end stops moving with l_s, and a band named by (1, 7) starts
    assert [c.band for c in by_row[(1, 1)] if c.range[0] > 6] == [to_6] * 4
    assert [(c.range, c.band) for c in by_row[(1, 7)]] == [
        (range(2, 4, 2), range(8, 10, 2))] * 3
    # the theta-theta bucket of the run l = 2, 4 is empty at l = 2 (one
    # positive part), so its product comes from l = 4
    assert by_row[(2, 0)][2].index == (2, 0, 4, 4)


def _grid_args(params):
    """The (m, s) pairs of the rationality grid, s outer and m inner."""
    return [(m, s) for s, ms in rationality_grid(params) for m in ms]


#: every symbol the audits take: n = 1 up to p = 127, n = 2 up to p = 11,
#: and (2,3) to (2,7), (3,3), (3,4) and (5,3)
IN_BOUND = ([(p, 1) for p in range(2, 128) if is_prime(p)]
            + [(p, 2) for p in (2, 3, 5, 7, 11)]
            + [(2, n) for n in range(3, 8)] + [(3, 3), (3, 4), (5, 3)])


def test_rationality_arguments_grid():
    """At every symbol in bound the grid has one entry per Steenrod-valid
    s in [0, d], and its (m, s) pairs are the brute-force filter of the
    bound s > (m - b)(p-1) over 0 <= m, s <= d."""
    assert set(IN_BOUND) == {
        (p, n) for p in range(2, 2 * MAX_AUDIT_DIM) if is_prime(p)
        for n in range(1, 8) if p ** n - 1 <= MAX_AUDIT_DIM}
    for p, n in IN_BOUND:
        pr = make_params(p, n)
        b, d = pr.b, pr.d
        brute = [(m, s) for m in range(d + 1) for s in range(d + 1)
                 if s % (p - 1) == 0 and s > (m - b) * (p - 1)]
        assert sorted(_grid_args(pr)) == brute, (p, n)
        assert [s for s, _ in rationality_grid(pr)] == list(
            range(0, d + 1, p - 1)), (p, n)
    pr = make_params(3, 2)
    assert rationality_grid(pr) == [(0, range(4)), (2, range(5)),
                                    (4, range(6)), (6, range(7)),
                                    (8, range(8))]


def test_rationality_replay():
    rep = audit_rationality(make_params(3, 2), 3, 4)
    check = replay(rep)
    assert check.passed, check.failures()


def test_rationality_full_grid_p2_n2():
    pr = make_params(2, 2)
    for m, s in _grid_args(pr):
        rep = audit_rationality(pr, m, s)
        assert rep.passed, (m, s, rep.conclusion)


# --- monotonicity of theta -----------------------------------------------------------


def test_theta_addition_never_weakens_below_threshold():
    pr = make_params(3, 2)
    rep = audit_rationality(pr, 2, 2)
    theta = SteenAtom("theta", 2)
    seen = 0
    for case in _row_cases(rep):
        if case.product is None or case.index[3] == 0 or case.leading:
            continue
        v1 = case.verdict
        bigger = case.product._replace(atoms=case.product.atoms + (theta,))
        v2 = valuation_bound(bigger)
        if isinstance(v1, ValAtLeast):
            assert isinstance(v2, ValAtLeast) and v2.value >= v1.value
        else:
            assert isinstance(v2, (Zero, ValAtLeast))
            if isinstance(v2, ValAtLeast):
                assert v2.value >= 2
        seen += 1
    assert seen > 50


# --- generators audit -------------------------------------------------------------


def test_generators_p3_n2():
    rep = audit_generators(make_params(3, 2), 1, 1)
    assert rep.passed
    assert "order exactly 3" in rep.conclusion
    lead = rep.leading
    assert lead.index == (2, 0)
    assert isinstance(lead.verdict, ValExactly)


def test_generators_p2_n3():
    rep = audit_generators(make_params(2, 3), 2, 1)
    assert rep.passed
    assert "order exactly 2" in rep.conclusion


def test_generators_range_errors():
    with pytest.raises(ValueError, match="outside"):
        audit_generators(make_params(3, 2), 2, 1)
    with pytest.raises(ValueError, match="outside"):
        audit_generators(make_params(3, 2), 1, 3)


def test_generators_case_structure():
    rep = audit_generators(make_params(3, 2), 1, 2)  # dim Y = 2
    verdicts = {case.index: case.verdict for case in rep.cases
                if case.product is None}
    assert verdicts[(1, 1)] == Zero("cartan-empty")
    # j = 2 expands into 9 assignments over two positive... one part of 2
    j2 = [c for c in rep.cases if c.index == (0, 2)]
    assert len(j2) >= 3
    assert all(isinstance(c.verdict, (Zero, ValAtLeast)) for c in j2)


def test_generators_support_witnesses():
    rep = audit_generators(make_params(5, 2), 1, 3)
    support = dict((name, ok) for name, ok, _ in rep.support)
    assert support["proj1-top-sigma-pairing"]
    assert support["projector-absorbs-sigma-power"]
    assert support["dim-y-avoids-split-degrees"]
    assert rep.passed


def test_generators_replay():
    rep = audit_generators(make_params(3, 2), 1, 2)
    check = replay(rep)
    assert check.passed, check.failures()


@pytest.mark.parametrize("p,n", [(5, 2), (7, 2), (3, 3), (2, 5)])
def test_generators_tables_up_to_dim_y(monkeypatch, p, n):
    """A generators audit reads S^l only for l <= dim Y = p^m - 1, so its
    reports equal those built from the full tables up to 2d."""
    params = make_params(p, n)
    args = generators_arguments(params)
    reports = [audit_generators(params, *arg) for arg in args]
    honest, tops = steenrod._weight_sums, set()

    def full(r, prime, top):
        tops.add(top)
        return honest(r, prime, 2 * params.d)

    monkeypatch.setattr(steenrod, "_weight_sums", full)
    assert [audit_generators(params, *arg) for arg in args] == reports
    assert tops == {p ** m - 1 for m, _ in args}


def test_generators_arguments():
    assert generators_arguments(make_params(3, 2)) == [(1, 1), (1, 2)]
    assert generators_arguments(make_params(2, 3)) == [(1, 1), (2, 1)]


def test_audit_size_bound():
    # (11,2), d = 120, is in bound and (2,8), d = 255, is not
    assert make_params(11, 2).d <= MAX_AUDIT_DIM < make_params(2, 8).d
    big = make_params(2, 8)
    for audit, args in ((rationality_grid, ()),
                        (generators_arguments, ()),
                        (audit_rationality, (1, 2)),
                        (audit_generators, (1, 1))):
        with pytest.raises(ValueError, match="audit too large: d = 255"):
            audit(big, *args)


# --- the row-level audits against the class- and term-level oracles ----------


def _verdict_key(v):
    rules = tuple(r.rule for r in v.rules) if isinstance(v, ValAtLeast) else ()
    return (type(v).__name__, getattr(v, "value", None), rules,
            getattr(v, "reason", None))


def _tallies_by_index(cases, p, terms):
    """Per case index, weighted verdict tallies of class-level cases, or
    (terms) the tallies of expanding each index's Cartan compositions term
    by term and classifying every term."""
    out = {}
    contexts = {}
    for case in cases:
        tally = out.setdefault(case.index, Counter())
        if case.product is None:
            tally[_verdict_key(case.verdict)] += 1
        elif terms:
            contexts[case.index] = case.product.context
        else:
            tally[_verdict_key(case.verdict)] += case.weight
    for index, ctx in contexts.items():
        for prod in _substitute_terms(cartan_expand(ctx.r, ctx.l, p), ctx):
            out[index][_verdict_key(valuation_bound(prod))] += 1
    return out


# The per-class audit that the band audit replaced, kept as its oracle: the
# rows of each t split into classes that agree on what a verdict reads of
# them, and each class's rows into runs of l with a case per bucket.


@lru_cache(maxsize=None)
def _row_plan(r, p, top, budget, l_s):
    """The cases of a rationality row, l = 0 .. budget with k = s at l_s,
    as (range of l, representative l, bucket product or zero, weight): an
    invalid-S^k zero for the l whose k = budget - l is invalid, then the
    other l, all congruent to the budget mod p - 1.  S^l over r >= 1
    factors is empty iff p - 1 does not divide l, so those l are one
    cartan-empty zero, or else runs (l = 0 and l_s alone) with a case per
    non-empty bucket, weighted from prefix sums, represented at its first l."""
    step = p - 1
    tables, sums = steenrod._weight_sums(r, p, top)
    valid = range(budget % step, budget + 1, step)
    plan = []
    if len(valid) <= budget:
        l = 0 if budget % step else 1
        plan.append((range(budget + 1), l, Zero("steenrod-index-invalid"),
                     budget + 1 - len(valid)))
    if budget % step:
        return (*plan, (range(valid.start, budget + step, step), valid.start,
                        Zero("cartan-empty"), len(valid)))
    edges = sorted(e for e in {0, step, l_s, l_s + step, budget + step}
                   if e >= 0)
    for lo, hi in zip(edges, edges[1:]):
        run = range(lo, hi, step)
        for bucket, sums_b in enumerate(sums):
            if sums_b[hi] > sums_b[lo]:
                l = next(l for l in run if tables[l][bucket])
                plan.append((run, l, tables[l][bucket],
                             sums_b[hi] - sums_b[lo]))
    return tuple(plan)


def _row_classes(d, b, s):
    """The row classes of a rationality audit at s, as (i, j, n) in row
    order (i outer, j inner) of their first rows (i, j): the rows within d
    that agree on their budget d + s - i - j, on being the leading row
    (d, 0), on b | i and on j > 0, n of them, and the rows with i or j
    above d, whose n is their number of terms, the sum of budget + 1.  At
    t = i + j the rows within d are (t, 0) if t <= d, a class of its own,
    and the i in range(max(1, t - d), min(d, t - 1) + 1), split into the
    multiples of b and the others, so the classes take O(d + s) steps."""
    total, classes, overflow = d + s, [], 0
    for t in range(1, total + 1):  # t = i + j, so the budget is total - t
        lo, hi = max(1, t - d), min(d, t - 1)
        overflow += (t - max(0, hi - lo + 1) - (t <= d)) * (total - t + 1)
        if t <= d:
            classes.append((t, 0, 1))
        if lo <= hi:
            mult = hi // b - (lo - 1) // b
            if mult:
                first = ((lo - 1) // b + 1) * b
                classes.append((first, t - first, mult))
            if hi - lo + 1 > mult:
                first = lo + 1 if lo % b == 0 else lo
                classes.append((first, t - first, hi - lo + 1 - mult))
    if overflow:
        # the first row past d: (1, d + 1) once j can pass d, else (d + 1, 0)
        classes.append((1, d + 1, overflow) if s > 1 else (d + 1, 0, overflow))
    return sorted(classes)


def _class_audit(params, m, s):
    """The rationality audit by row classes: one case set per class,
    classified on its first row and weighted by its row count."""
    p, b, d = params.p, params.b, params.d
    total, step, cases = d + s, p - 1, []
    for i, j, rows in _row_classes(d, b, s):
        budget = total - i - j
        if i > d or j > d:
            cases.append(AuditCase((i, j, budget, 0), None,
                                   Zero("chern-index-overflow"), False,
                                   range(budget + 1), rows))
            continue
        chern = (SteenAtom("chern_x", i), SteenAtom("chern_x", j))
        for run, l, rep, weight in _row_plan(step, p, 2 * d, budget,
                                             budget - s):
            index = (i, j, budget - l, l)
            if isinstance(rep, Zero):
                cases.append(AuditCase(index, None, rep, False, run,
                                       weight * rows))
                continue
            prod = rep._replace(context=PairingContext(
                "rationality", params, m, s, step, i, j, budget - l, l, chern))
            cases.append(AuditCase(index, prod, steenrod.valuation_bound(prod),
                                   i == d and j == 0 and l == 0, run,
                                   weight * rows))
    support = steenrod._rationality_support(params)
    ok, conclusion, tallies = steenrod._conclude(
        cases, support,
        pass_text=f"pass: leading term deg(b_{d})*S^{s}(x_0) has valuation "
                  "exactly 1; all other terms are zero or in the ideal",
        fail_text="fail: could not certify rationality modulo the ideal")
    return AuditReport("rationality", params, (("m", m), ("s", s)),
                       ("top-chern-degree", "unit-pairing-degree"), support,
                       tuple(cases), conclusion, ok, tallies)


def _row_plan_walk(r, p, top, budget, l_s):
    """The per-l oracle of ``_row_plan``: it reads from the bucket
    tables where S^l over r factors is empty, l by l, and ends a run
    wherever that changes along the row."""
    step = p - 1
    tables, sums = steenrod._weight_sums(r, p, top)
    valid = range(budget % step, budget + 1, step)
    empty = {l: tables[l] == (None,) * 4 for l in valid}
    plan = []
    if len(valid) <= budget:
        l = 0 if budget % step else 1
        plan.append((range(budget + 1), l, Zero("steenrod-index-invalid"),
                     budget + 1 - len(valid)))
    edges = {valid.start, budget + step}
    for l in valid:
        if l in (0, l_s) and not empty[l]:
            edges |= {l, l + step}
        elif l > valid.start and empty[l] != empty[l - step]:
            edges.add(l)
    edges = sorted(edges)
    for lo, hi in zip(edges, edges[1:]):
        run = range(lo, hi, step)
        if empty[lo]:
            plan.append((run, lo, Zero("cartan-empty"), len(run)))
            continue
        for bucket, sums_b in enumerate(sums):
            if sums_b[hi] > sums_b[lo]:
                l = next(l for l in run if tables[l][bucket])
                plan.append((run, l, tables[l][bucket],
                             sums_b[hi] - sums_b[lo]))
    return tuple(plan)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (7, 2)])
def test_row_plan_matches_per_l_walk(p, n):
    """A rationality row is cartan-empty as a whole exactly when p - 1 does
    not divide its budget: the plan that decides so by one residue test
    equals the walk over every l, at every (budget, l_s) of the grid."""
    d = make_params(p, n).d
    for s, _ in rationality_grid(make_params(p, n)):
        for budget in range(d + s):
            plan = _row_plan(p - 1, p, 2 * d, budget, budget - s)
            oracle = _row_plan_walk(p - 1, p, 2 * d, budget, budget - s)
            assert [(run.start, run.stop, run.step) for run, *_ in plan] == [
                (run.start, run.stop, run.step) for run, *_ in oracle]
            assert plan == oracle, (p, n, s, budget)


def _row_classes_walk(d, b, s):
    """The per-i oracle of ``_row_classes``: it walks every i of
    every t = i + j and keys each row within d by what a verdict reads of
    it (being the leading row, b | i, j > 0)."""
    total, classes, overflow = d + s, [], 0
    for t in range(1, total + 1):
        lo, hi = max(1, t - d), min(d, t)
        overflow += (t - 1 - hi + lo) * (total - t + 1)
        here = {}
        for i in range(lo, hi + 1):
            key = (i == d and i == t, i % b == 0, i < t)
            if key in here:
                here[key][2] += 1
            else:
                here[key] = [i, t - i, 1]
        classes += map(tuple, here.values())
    if overflow:
        classes.append((1, d + 1, overflow) if s > 1 else (d + 1, 0, overflow))
    return sorted(classes)


@pytest.mark.parametrize("p,n", [
    *((2, n) for n in range(2, 8)), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
    (7, 2), (11, 2), *((p, 1) for p in (2, 3, 5, 7, 11))])
def test_row_classes_match_per_i_walk(p, n):
    """The row classes from range arithmetic are the per-i walk's at every
    Steenrod-valid s, b = 1 (n = 1) included."""
    params = make_params(p, n)
    d, b = params.d, params.b
    assert n > 1 or b == 1
    for s, _ in rationality_grid(params):
        assert _row_classes(d, b, s) == _row_classes_walk(
            d, b, s), (p, n, s)


def _row_cases(report):
    """The row-level oracle of a rationality report: the audit's cases
    before row classes, the cases of each row (i, j) in row order, and a
    Chern-overflow zero of weight budget + 1 for each row past d."""
    params, args = report.params, dict(report.args)
    m, s = args["m"], args["s"]
    p, d = params.p, params.d
    total, step = d + s, p - 1
    cases = []
    for i in range(1, total + 1):
        for j in range(total - i + 1):
            budget = total - i - j
            if i > d or j > d:
                cases.append(AuditCase((i, j, budget, 0), None,
                                       Zero("chern-index-overflow"), False,
                                       range(budget + 1), budget + 1))
                continue
            chern = (SteenAtom("chern_x", i), SteenAtom("chern_x", j))
            for run, l, rep, weight in _row_plan_walk(
                    step, p, 2 * d, budget, budget - s):
                index = (i, j, budget - l, l)
                if isinstance(rep, Zero):
                    cases.append(AuditCase(index, None, rep, False, run,
                                           weight))
                    continue
                # classified through the module attribute, as the audit does
                prod = rep._replace(context=PairingContext(
                    "rationality", params, m, s, step, i, j, budget - l, l,
                    chern))
                cases.append(AuditCase(index, prod,
                                       steenrod.valuation_bound(prod),
                                       i == d and j == 0 and l == 0, run,
                                       weight))
    return cases


def _kind(report, i, j):
    """The kind of the row (i, j) of a rationality report: None past d,
    else "lead" (d, 0), "j0" (t, 0) below d, or "bdiv" or "other" with
    j > 0 as b divides i or not."""
    d, b = report.params.d, report.params.b
    if i > d or j > d:
        return None
    if j == 0:
        return "lead" if i == d else "j0"
    return "bdiv" if i % b == 0 else "other"


def _band_rows(report, case):
    """The rows a case stands for, in row order: every row past d for the
    Chern-overflow zero, else every row of its first row's kind at each t
    of its band."""
    total = report.params.d + dict(report.args)["s"]
    kind = _kind(report, *case.index[:2])
    return sorted((i, t - i) for t in (case.band or range(1, total + 1))
                  for i in range(1, t + 1) if _kind(report, i, t - i) == kind)


def _plan_position(run, rep, l_s):
    """Where a run of l lies in its row, k = s at l = l_s: the reason of an
    unexpanded zero, else l = 0, or before, at or after l_s."""
    if isinstance(rep, Zero):
        return rep.reason
    return ("l=0" if run[0] == 0 else "at" if l_s in run else
            "before" if run[-1] < l_s else "after")


def _slot(report, case, i=None, j=None):
    """The (position, bucket) of a case, at its first row or at (i, j)."""
    i, j = case.index[:2] if i is None else (i, j)
    l_s = report.params.d - i - j
    return (_plan_position(case.range, case.product or case.verdict, l_s),
            case.product and _bucket_index(case.product))


def _oracle_weight(report, case, band):
    """The terms of a case's position and bucket over every row of its
    kind at the t of ``band``, summed from the per-class oracle's plans."""
    params, s = report.params, dict(report.args)["s"]
    p, d = params.p, params.d
    weight = 0
    for i, j in _band_rows(report, case._replace(band=band)):
        budget = d + s - i - j
        weight += sum(
            w for run, _, rep, w in _row_plan(p - 1, p, 2 * d, budget,
                                              budget - s)
            if (_plan_position(run, rep, budget - s),
                None if isinstance(rep, Zero) else _bucket_index(rep))
            == _slot(report, case))
    return weight


def _expand_bands(report):
    """The row-level cases a report stands for: a band's verdict on each
    row of the band, over that row's run at the band's position and bucket
    as the per-class oracle's ``_row_plan`` weighs it, and the
    Chern-overflow zero once per row past d with weight budget + 1; the
    weights of each band's rows sum to its own.  A generators report has a
    case per row already."""
    if report.kind != "rationality":
        return list(report.cases)
    params, s = report.params, dict(report.args)["s"]
    p, d = params.p, params.d
    out = []
    for case in report.cases:
        rows = []
        for i, j in _band_rows(report, case):
            budget = d + s - i - j
            if case.band is None:
                rows.append(case._replace(index=(i, j, budget, 0),
                                          range=range(budget + 1),
                                          weight=budget + 1))
                continue
            [(run, l, weight)] = [
                (run, l, w) for run, l, rep, w in _row_plan(
                    p - 1, p, 2 * d, budget, budget - s)
                if (_plan_position(run, rep, budget - s),
                    None if isinstance(rep, Zero) else _bucket_index(rep))
                == _slot(report, case)]
            rows.append(case._replace(index=(i, j, budget - l, l), range=run,
                                      weight=weight, band=None))
        assert sum(row.weight for row in rows) == case.weight, case
        out += rows
    return out


def _row_tallies(cases):
    """Per row (i, j), the weighted (zero, at-least, exact) tallies."""
    out = {}
    for case in cases:
        slot = (0 if isinstance(case.verdict, Zero) else
                1 if isinstance(case.verdict, ValAtLeast) else 2)
        out.setdefault(case.index[:2], [0, 0, 0])[slot] += case.weight
    return out


def _oracle_audits():
    """Full (2,2), (2,3) and (3,2) grids, and sampled (5,2) and (3,3)
    audits."""
    for p, n in ((2, 2), (2, 3), (3, 2)):
        pr = make_params(p, n)
        for m, s in _grid_args(pr):
            yield audit_rationality(pr, m, s)
        for m, r in generators_arguments(pr):
            yield audit_generators(pr, m, r)
    pr = make_params(5, 2)
    for m, s in ((0, 0), (1, 8), (4, 8)):
        yield audit_rationality(pr, m, s)
    for m, r in generators_arguments(pr):
        yield audit_generators(pr, m, r)
    pr = make_params(3, 3)
    for m, s in ((0, 0), (9, 18), (24, 24)):
        yield audit_rationality(pr, m, s)
    yield audit_generators(pr, 2, 2)


def _weighted_counts(report):
    """The verdict tallies of a report, recounted from its cases' weights."""
    out = {"zero": 0, "at-least": 0, "exact": 0}
    for case in report.cases:
        key = ("zero" if isinstance(case.verdict, Zero) else
               "at-least" if isinstance(case.verdict, ValAtLeast) else "exact")
        out[key] += case.weight
    return out


def test_class_tallies_match_term_oracle():
    """The class-level oracle classifies as the term-level oracle."""
    for report in _oracle_audits():
        if report.params.d > 24:
            continue
        classes = _class_cases(report)
        p = report.params.p
        assert (_tallies_by_index(classes, p, terms=False)
                == _tallies_by_index(classes, p, terms=True)), report.title


def test_row_tallies_match_class_oracle():
    """Row by row and slot by slot, the audit's bands, expanded back into
    their rows with the band's verdict on each, weigh their runs as the
    class-level oracle weighs its classes."""
    grouped = 0
    for report in _oracle_audits():
        rows = _expand_bands(report)
        assert _row_tallies(rows) == _row_tallies(
            _class_cases(report)), report.title
        # the tallies the audit carries are the weighted recount
        assert report.counts() == _weighted_counts(report), report.title
        assert replay(report).passed, report.title
        grouped += sum(len(c.range) > 1 for c in rows)
    assert grouped > 1000


def _shape(case):
    """What a case's verdict reads of its row, but for the Chern indices:
    its leading flag, its product's atom tally, and its verdict with the
    kind and positive codimension of each atom a rule names."""
    v, prod = case.verdict, case.product
    rules = tuple((app.rule, tuple((a.kind, a.poscodim) for a in app.atoms))
                  for app in getattr(v, "rules", ()))
    return (case.leading, prod and tuple(prod.classify().values()),
            _verdict_key(v), rules)


def _rationality_oracle_audits():
    """The rationality audits of _oracle_audits, and sampled (11,2)
    audits."""
    yield from (rep for rep in _oracle_audits() if rep.kind == "rationality")
    pr = make_params(11, 2)
    for m, s in ((0, 0), (20, 90), (0, 120)):
        yield audit_rationality(pr, m, s)


def test_classes_match_row_oracle():
    """Band by band, the audit's cases are the row-level oracle's, in the
    row order of their first rows: a band's case is its first row's oracle
    case at the same position and bucket with the band's weight, every row
    of the band has an oracle case there with the same verdict rules, and
    their weights sum to the band's; the bands cover each oracle case once."""
    for report in _rationality_oracle_audits():
        row_cases, oracle = _row_cases(report), {}
        for case in row_cases:
            key = (*case.index[:2], *_slot(report, case))
            assert key not in oracle, key
            oracle[key] = case
        firsts = [case.index[:2] for case in report.cases]
        assert firsts == sorted(firsts), report.title
        for case in report.cases:
            rows, slot = _band_rows(report, case), _slot(report, case)
            assert rows[0] == case.index[:2], (report.title, case.index)
            first = oracle[(*rows[0], *slot)]
            assert case == first._replace(weight=case.weight, band=case.band)
            weight = 0
            for row in rows:
                other = oracle.pop((*row, *slot))
                assert _shape(other) == _shape(first), (report.title, row)
                weight += other.weight
            assert weight == case.weight, (report.title, case.index)
        assert not oracle, report.title
        assert report.tallies == _retallied(report, row_cases).tallies
        check = replay(report)
        assert check.passed, (report.title, check.failures())


@lru_cache(maxsize=None)
def _plan_slots(r, p, d, budget, s):
    """The (run, weight) of each (position, bucket) of ``_row_plan``."""
    return {(_plan_position(run, rep, budget - s),
             None if isinstance(rep, Zero) else _bucket_index(rep)): (run, w)
            for run, _, rep, w in _row_plan(r, p, 2 * d, budget, budget - s)}


#: the symbols whose every s the band audit is checked at against the
#: per-class oracle audit
BAND_ORACLE_SYMBOLS = [
    *((2, n) for n in range(2, 8)), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
    (7, 2), (11, 2), *((p, 1) for p in (2, 3, 5, 7, 11))]


@pytest.mark.parametrize("p,n", BAND_ORACLE_SYMBOLS)
def test_bands_match_class_audit(p, n):
    """At every s of the symbol, at its largest m, and at the sampled
    (11,2) arguments: the band audit and the per-class oracle audit give
    equal tallies, leading case and conclusion, and each band's
    second-order weight is the sum over its t of the rows of its kind
    there (replay's ``_kind_rows``) times the closed-form terms
    (``_closed_run``) of its run there, or the l of its zero."""
    params = make_params(p, n)
    step, d, b = p - 1, params.d, params.b
    kinds = {"j0": steenrod._J0, "lead": steenrod._LEAD,
             "bdiv": steenrod._BDIV, "other": steenrod._OTHER}
    args = [(ms[-1], s) for s, ms in rationality_grid(params)]
    if (p, n) == (11, 2):
        args += [(0, 0), (20, 90), (0, 120)]
    for m, s in args:
        report, oracle = audit_rationality(params, m, s), _class_audit(
            params, m, s)
        assert (report.tallies, report.leading._replace(band=None),
                report.conclusion) == (oracle.tallies, oracle.leading,
                                       oracle.conclusion), (m, s)
        for case in report.cases:
            if case.band is None:
                continue
            position, bucket = _slot(report, case)
            kind, weight = kinds[_kind(report, *case.index[:2])], 0
            for t in case.band:
                run, count = _plan_slots(step, p, d, d + s - t, s)[
                    position, bucket]
                if bucket is not None:
                    count = steenrod._closed_run(step, p, run[0],
                                                 run[-1])[0][bucket]
                weight += steenrod._kind_rows(d, b, kind, t) * count
            assert weight == case.weight, (m, s, case.index)


def test_m_never_reaches_a_verdict():
    """On full grids, every m of a grid entry gets the tallies, verdict,
    leading case and conclusion of its largest m, the one verify and the
    sweep audit, and its replay passes."""
    for p, n in ((2, 3), (3, 2), (2, 4), (5, 2)):
        pr = make_params(p, n)
        for s, ms in rationality_grid(pr):
            want = None
            for m in reversed(ms):
                rep = audit_rationality(pr, m, s)
                got = (rep.tallies, rep.passed, rep.leading.describe(),
                       rep.conclusion)
                want = want or got
                assert got == want, (p, n, m, s)
                check = replay(rep)
                assert check.passed, (p, n, m, s, check.failures())


def test_records_are_real_instances():
    """The audits build their records without the NamedTuple __new__;
    they are still plain instances with fields, equality and _replace."""
    pr = make_params(2, 3)
    for rep in (audit_rationality(pr, 3, 5), audit_generators(pr, 2, 1)):
        for case in rep.cases:
            records = [(case, AuditCase)]
            if case.product is not None:
                records += [(case.product, SteenProduct),
                            (case.product.context, PairingContext)]
            for rec, cls in records:
                assert type(rec) is cls
                assert rec == cls(*rec)
                assert tuple(getattr(rec, f) for f in cls._fields) == rec
            bumped = case._replace(weight=case.weight + 1)
            assert type(bumped) is AuditCase
            assert bumped.weight == case.weight + 1
            assert bumped.product is case.product
            assert bumped.range is case.range


# --- report plumbing ----------------------------------------------------------------


def test_report_header_surfaces_premises():
    rep = audit_generators(make_params(3, 2), 1, 1)
    header = "\n".join(rep.header_lines())
    assert "top-chern-y-degree" in header
    assert "degree-p-closed-point" in header
    assert "support ok" in header


def test_exactly_one_leading_case():
    for args in ((2, 2, 1, 1), (3, 2, 0, 2), (2, 3, 3, 2)):
        p, n, m, s = args
        rep = audit_rationality(make_params(p, n), m, s)
        assert sum(1 for c in rep.cases if c.leading) == 1


def test_perturbed_support_fails_report():
    # a non-unit e (smuggled past make_params) breaks val(e) = 0
    from fractions import Fraction

    from rostcalc.splitring import SymbolParams

    pr = SymbolParams(p=3, n=2, b=4, c=13, d=8, e=Fraction(3))
    rep = audit_rationality(pr, 2, 2)
    assert not rep.passed
    support = dict((name, ok) for name, ok, _ in rep.support)
    assert not support["unit-pairing-degree"]
    assert "unit-pairing-degree" in rep.conclusion


def test_failing_case_named_in_conclusion(monkeypatch):
    from rostcalc import cli, steenrod

    honest = steenrod.valuation_bound

    def weakened(prod):
        v = honest(prod)
        if prod.context.i == 4 and isinstance(v, ValAtLeast):
            return ValAtLeast(1, v.rules[:1])
        return v

    monkeypatch.setattr(steenrod, "valuation_bound", weakened)
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert not rep.passed
    first = next(c for c in rep.cases
                 if isinstance(c.verdict, ValAtLeast) and c.verdict.value == 1)
    assert f"case {first.index}: val>=1 via " in rep.conclusion


@pytest.mark.parametrize("rules", [
    ["split-pairing"], ["theta-carries-p", "rational-pairing"],
    ["rational-pairing", "x-decomp-vanishes"]])
def test_first_offender_matches_row_oracle(monkeypatch, rules):
    """A fault that weakens every verdict of some rules fails the audit at
    the case where it first fails the row-level oracle."""
    honest = steenrod.valuation_bound

    def weakened(prod):
        v = honest(prod)
        if isinstance(v, ValAtLeast) and [r.rule for r in v.rules] == rules:
            return ValAtLeast(1, v.rules)
        return v

    monkeypatch.setattr(steenrod, "valuation_bound", weakened)
    for symbol, args in (((3, 2), (2, 2)), ((2, 3), (3, 5))):
        rep = audit_rationality(make_params(*symbol), *args)
        first = next(c for c in _row_cases(rep)
                     if getattr(c.verdict, "value", 0) == 1
                     and not c.leading)
        assert not rep.passed
        assert f"(first: case {first.index}: val>=1 via " in rep.conclusion


def test_replay_recounts_class_weights():
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert sum(c.weight > 1 for c in rep.cases) > 0
    cases = tuple(c._replace(weight=c.weight + 1) if c.weight > 1 else c
                  for c in rep.cases)
    check = replay(replace(rep, cases=cases))
    assert [name for name, _ in check.failures()] == ["band weights recounted"]


def test_replay_recounts_tallies():
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert replay(rep).passed
    for slot in range(3):
        off = tuple(t + (k == slot) for k, t in enumerate(rep.tallies))
        check = replay(replace(rep, tallies=off))
        assert [name for name, _ in check.failures()] == [
            "band weights recounted"], slot


@pytest.mark.parametrize("audit,symbol,args", [
    (audit_rationality, (3, 2), (2, 2)),
    (audit_rationality, (2, 3), (3, 4)),
    (audit_generators, (3, 2), (1, 2)),
])
def test_replay_reads_runs_by_value(audit, symbol, args):
    """Replay reads a case's run of l and its band of t by value, whether
    or not cases share one range object."""
    rep = audit(make_params(*symbol), *args)

    def copy(r):
        return r if r is None else range(r.start, r.stop, r.step)

    cases = tuple(c._replace(range=copy(c.range), band=copy(c.band))
                  for c in rep.cases)
    assert cases == rep.cases
    assert all(a.range is not b.range and (a.band is None or a.band is not
                                            b.band)
               for a, b in zip(cases, cases[1:]))
    check = replay(replace(rep, cases=cases))
    assert check.passed, check.failures()


def test_replay_rejects_unexpanded_exact_run():
    """The leading verdict holds at l = 0 alone: widened over the l = 2
    run of its row, with no product to pin it to l = 0, it fails, and so
    does the band check, as no position of the row has that run."""
    rep = audit_rationality(make_params(3, 2), 2, 2)
    cases = list(rep.cases)
    at = next(n for n, c in enumerate(cases) if c.leading)
    stop = next((n for n in range(at + 1, len(cases))
                 if cases[n].index[:2] != cases[at].index[:2]), len(cases))
    assert [c.index[-1] for c in cases[at:stop]] == [0, 2, 2, 2]
    wide = cases[at]._replace(product=None, range=range(0, 3, 2), weight=2)
    check = replay(_retallied(rep, cases[:at] + [wide] + cases[stop:]))
    assert [name for name, _ in check.failures()] == [
        "exact verdicts are the declared leading premise",
        "band weights recounted"]


def _perturb_case(rng, cases):
    """One random perturbation of a report's cases: a product or range
    dropped, a product, verdict or range copied from another case, leading
    flipped, or a case duplicated or deleted."""
    at, other = rng.randrange(len(cases)), rng.choice(cases)
    how = rng.choice(("drop product", "drop range", "copy product",
                      "copy verdict", "copy range", "flip leading",
                      "duplicate", "delete"))
    case = cases[at]
    if how == "drop product":
        cases[at] = case._replace(product=None)
    elif how == "drop range":
        cases[at] = case._replace(range=None)
    elif how == "copy product":
        cases[at] = case._replace(product=other.product)
    elif how == "copy verdict":
        cases[at] = case._replace(verdict=other.verdict)
    elif how == "copy range":
        cases[at] = case._replace(range=other.range)
    elif how == "flip leading":
        cases[at] = case._replace(leading=not case.leading)
    elif how == "duplicate":
        cases.insert(at, case)
    else:
        del cases[at]


def test_replay_never_raises_on_perturbed_cases():
    """Replay fails a check on a malformed report instead of raising:
    seeded trials of one to three case perturbations each, over two
    rationality and two generators reports."""
    rng = random.Random(20240)
    reports = [audit_rationality(make_params(3, 2), 2, 2),
               audit_rationality(make_params(2, 3), 3, 4),
               audit_generators(make_params(3, 2), 1, 2),
               audit_generators(make_params(2, 3), 2, 1)]
    for trial in range(400):
        rep = reports[trial % len(reports)]
        cases = list(rep.cases)
        for _ in range(rng.randint(1, 3)):
            if cases:
                _perturb_case(rng, cases)
        check = replay(replace(rep, cases=tuple(cases)))
        assert isinstance(check, CheckReport), trial


def test_composition_closed_form_matches_cartan_expand():
    """replay decides a cartan-empty zero in closed form: S^l has a
    composition iff its closed-form count fills some bucket."""
    for p in (2, 3, 5, 7):
        for r in range(6):
            for l in range(40):
                assert bool(_closed_run(r, p, l, l)[1]) == bool(
                    cartan_expand(r, l, p)), (p, r, l)


@pytest.fixture
def fresh_tables():
    """Empty the audit's bucket tables and the bands and plans read from
    them before and after the test, so that a patched table build is the
    one they read."""
    caches = (steenrod._weight_sums, steenrod._band_sums, steenrod._bands,
              _row_plan, _plan_slots)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("audit,args", [(audit_rationality, (2, 2)),
                                        (audit_generators, (1, 2))])
def test_replay_rejects_dropped_compositions(monkeypatch, fresh_tables,
                                            audit, args):
    """A bucket-table build that loses the terms of S^2 passes the audit,
    and replay, which counts terms in closed form without the tables,
    rejects it.  The generators audit takes the lost S^2 for cartan-empty
    zeros, whose reason replay refutes, in a row whose closed-form buckets
    they do not match.  A rationality row is cartan-empty by the residue of
    its budget alone, and its bands by thresholds on t, so there the lost
    terms shrink the band weights that replay recounts, and the bands whose
    run at their first row is l = 2 alone get a product from l = 4, outside
    the run, whose context replay refuses."""
    honest = steenrod.substitute_dcmp
    monkeypatch.setattr(
        steenrod, "substitute_dcmp",
        lambda expansion: [] if expansion and sum(expansion[0][0]) == 2
        else honest(expansion))
    rep = audit(make_params(3, 2), *args)
    assert rep.passed
    fooled = any(c.verdict == Zero("cartan-empty") and c.index[-1] == 2
                 for c in rep.cases)
    failures = replay(rep).failures()
    if audit is audit_generators:
        assert fooled
        assert [name for name, _ in failures] == [
            "zero reasons justified", "band weights recounted"]
    else:
        assert not fooled
        assert failures == [("rule premises satisfied", "12 bad"),
                            ("band weights recounted",
                             "24 bad, tallies (178, 259, 1) recounted as "
                             "(179, 318, 1)")]


def test_audits_do_not_enumerate_compositions(monkeypatch, fresh_tables):
    """Cold audits, their bucket tables built afresh, never call the Cartan
    enumerator: neither the (5,3) s=124 rationality audit, whose tables
    reach S^248 over 4 factors, nor the (7,2) r=6 generators audit."""
    def refuse(r, l, p):
        raise AssertionError(f"enumerated S^{l} over {r} factors at p={p}")

    monkeypatch.setattr(steenrod, "_cartan_expand_cached", refuse)
    for rep in (audit_rationality(make_params(5, 3), 0, 124),
                audit_generators(make_params(7, 2), 1, 6)):
        assert rep.passed and replay(rep).passed, rep.title


def test_audits_and_replay_stand_apart(monkeypatch):
    """Audit and replay are independent derivations: the audits pass with
    replay's row counts, slots, band recounts and closed forms refusing
    every call, and replay passes on their reports with the audit's bands,
    band sums and tables refusing.  Both sides' caches start empty, so no
    cached result hides a call."""
    def refuse(*args):
        raise AssertionError(f"crossed over with {args}")

    for cache in (steenrod._bands, steenrod._band_sums, steenrod._weight_sums,
                  steenrod._replay_band, steenrod._row_slots,
                  steenrod._closed_sums, steenrod._closed_run,
                  steenrod._partitions):
        cache.cache_clear()
    reports = []
    with monkeypatch.context() as patch:
        for name in ("_kind_rows", "_row_slots", "_replay_band", "_closed_run",
                     "_closed_sums", "_partitions", "_rule_needs"):
            patch.setattr(steenrod, name, refuse)
        for symbol, rat, gen in (((3, 2), (2, 2), (1, 2)),
                                 ((2, 3), (3, 5), (2, 1))):
            params = make_params(*symbol)
            reports += [audit_rationality(params, *rat),
                        audit_generators(params, *gen)]
    assert all(rep.passed for rep in reports)
    for name in ("_bands", "_band_sums", "_weight_sums"):
        monkeypatch.setattr(steenrod, name, refuse)
    for rep in reports:
        check = replay(rep)
        assert check.passed, (rep.title, check.failures())


def _ctx(case):
    return case.product.context if case.product is not None else None


def _rules(case):
    v = case.verdict
    return [r.rule for r in v.rules] if isinstance(v, ValAtLeast) else []


def _theta_elsewhere(case):
    """A theta rule naming a theta of an index the product lacks."""
    theta = SteenAtom("theta", 1 + max(a.index for a in case.product.atoms))
    rules = (RuleApp("theta-carries-p", (theta,)),) + case.verdict.rules[1:]
    return case._replace(verdict=ValAtLeast(2, rules))


def _pair_on_chern_x0(case):
    """rational-pairing on b_0, which the context shows but which has
    codimension 0."""
    pair = RuleApp("rational-pairing", (SteenAtom("chern_x", 0),))
    return case._replace(verdict=ValAtLeast(2, case.verdict.rules[:1] + (pair,)))


def _xdecomp_at_k_eq_s(case):
    """x-decomp-vanishes where k == s, so the base summand survives."""
    rules = case.verdict.rules[:1] + (RuleApp("x-decomp-vanishes"),)
    return case._replace(verdict=ValAtLeast(2, rules))


def _value_above_factors(case):
    return case._replace(verdict=ValAtLeast(3, case.verdict.rules))


def _other_context(case):
    """The same product in a context that differs only in m; its two theta
    rules would hold in any context."""
    ctx = case.product.context
    other = case.product._replace(context=ctx._replace(m=ctx.m + 1))
    return case._replace(product=other)


def _later_in_index(cases):
    """Cases that follow a case of the same row (i, j)."""
    return {id(b) for a, b in zip(cases, cases[1:])
            if a.index[:2] == b.index[:2]}


# name -> (which case to perturb, how)
REPLAY_PERTURBATIONS = {
    "theta rule on a missing atom": (
        lambda c, later: _rules(c) == ["theta-carries-p", "theta-carries-p"],
        _theta_elsewhere),
    "rational-pairing on chern_x 0": (
        lambda c, later: (_rules(c) == ["theta-carries-p", "rational-pairing"]
                          and _ctx(c).j == 0),
        _pair_on_chern_x0),
    "x-decomp-vanishes at k == s": (
        lambda c, later: (_rules(c) == ["theta-carries-p", "rational-pairing"]
                          and _ctx(c).k == _ctx(c).s),
        _xdecomp_at_k_eq_s),
    "factors below the value": (
        lambda c, later: _rules(c) == ["split-pairing"],
        _value_above_factors),
    "two contexts in one index": (
        lambda c, later: (id(c) in later
                          and _rules(c) == ["theta-carries-p",
                                            "theta-carries-p"]),
        _other_context),
}


@pytest.mark.parametrize("name", sorted(REPLAY_PERTURBATIONS))
def test_replay_rejects_perturbed_rule(name):
    pick, perturb = REPLAY_PERTURBATIONS[name]
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert replay(rep).passed
    later = _later_in_index(rep.cases)
    at = next(n for n, c in enumerate(rep.cases) if pick(c, later))
    cases = list(rep.cases)
    cases[at] = perturb(cases[at])
    check = replay(replace(rep, cases=tuple(cases)))
    assert check.failures() == [("rule premises satisfied", "1 bad")]


def _retallied(rep, cases):
    """The report with these cases and the tallies of their weights."""
    tallies = [0, 0, 0]
    for case in cases:
        tallies[0 if isinstance(case.verdict, Zero) else
                1 if isinstance(case.verdict, ValAtLeast) else 2] += case.weight
    return replace(rep, cases=tuple(cases), tallies=tuple(tallies))


def _runs_of(cases):
    """(start, stop) positions of each run of consecutive cases that share
    a row and a range."""
    out, start = [], 0
    for n in range(1, len(cases) + 1):
        if n == len(cases) or (cases[n].index[:2], cases[n].range) != (
                cases[start].index[:2], cases[start].range):
            out.append((start, n))
            start = n
    return out


def _widen_over_k_eq_s(rep):
    """An x-decomposition run widened over the k = s run after it, which
    is dropped, with every weight and tally recounted to match."""
    cases = list(rep.cases)
    step = rep.params.p - 1
    runs = _runs_of(cases)
    for (a, b), (c, e) in zip(runs, runs[1:]):
        ctx = _ctx(cases[c])
        if (all("x-decomp-vanishes" not in _rules(case)
                for case in cases[a:b]) or ctx is None
                or ctx.k != ctx.s or cases[a].index[:2] != ctx[5:7]):
            continue
        wide = range(cases[a].range.start, cases[c].range.stop, step)
        weights, _ = _closed_run(step, rep.params.p, wide[0], wide[-1])
        buckets = [_bucket_index(case.product) for case in cases[a:b]]
        if buckets == [bucket for bucket in range(4) if weights[bucket]]:
            widened = [case._replace(range=wide, weight=weights[bucket])
                       for case, bucket in zip(cases[a:b], buckets)]
            return _retallied(rep, cases[:a] + widened + cases[e:])


def _bump_one_weight(rep):
    """One case's weight off by one, the tallies as the audit left them."""
    at = next(n for n, c in enumerate(rep.cases) if c.weight > 1)
    cases = list(rep.cases)
    cases[at] = cases[at]._replace(weight=cases[at].weight + 1)
    return replace(rep, cases=tuple(cases))


def _row_as_overflow(rep):
    """The first zero of a row within d, an invalid S^k, a rho pairing or
    a pushforward, relabeled a Chern-overflow zero."""
    cases = list(rep.cases)
    at = next(n for n, c in enumerate(cases) if isinstance(c.verdict, Zero)
              and c.band is not None)
    cases[at] = cases[at]._replace(verdict=Zero("chern-index-overflow"))
    return replace(rep, cases=tuple(cases))


def _drop_a_run(rep):
    """The cases of one run of l > 0 left out, the tallies recounted."""
    cases = list(rep.cases)
    a, b = next((a, b) for a, b in _runs_of(cases)
                if cases[a].product is not None and cases[a].range[0] > 0)
    return _retallied(rep, cases[:a] + cases[b:])


def _repeat_l0(rep):
    """A copy of a row's l = 0 case (leading row aside) as a run of its
    own, the tallies recounted."""
    cases = list(rep.cases)
    at = next(n for n, c in enumerate(cases) if c.product is not None
              and c.range[0] == 0 and not c.leading)
    copy = cases[at]._replace(range=range(0, 1))
    return _retallied(rep, cases[:at + 1] + [copy] + cases[at + 1:])


# name -> (how to perturb a report, the check lines it fails).  A run
# widened over the next one is no run of its row: the band check fails too.
ROW_PERTURBATIONS = {
    "run widened over k = s": (_widen_over_k_eq_s, (
        "rule premises satisfied", "band weights recounted")),
    "weight off by one": (_bump_one_weight, ("band weights recounted",)),
    "overflow zero in a row within d": (_row_as_overflow,
                                        ("zero reasons justified",)),
    "gap in a row": (_drop_a_run, ("band weights recounted",)),
    "overlap in a row": (_repeat_l0, ("band weights recounted",)),
}


@pytest.mark.parametrize("symbol,args", [((3, 2), (2, 2)), ((2, 3), (3, 5))])
@pytest.mark.parametrize("name", sorted(ROW_PERTURBATIONS))
def test_replay_rejects_perturbed_row(name, symbol, args):
    perturb, lines = ROW_PERTURBATIONS[name]
    rep = audit_rationality(make_params(*symbol), *args)
    assert replay(rep).passed
    check = replay(perturb(rep))
    assert [name for name, _ in check.failures()] == list(lines)


def _oracle_case(rep, row, slot):
    """The row-level oracle's case at a row and (position, bucket)."""
    return next(c for c in _row_cases(rep)
                if c.index[:2] == row and _slot(rep, c) == slot)


def _row_worth(rep, case, t):
    """The terms of a case's position and bucket in one row of its kind at
    t (those rows weigh alike)."""
    rows = _band_rows(rep, case._replace(band=range(t, t + 1)))
    return _oracle_weight(rep, case, range(t, t + 1)) // len(rows)


def _band_at(rep, case, band):
    """The case of a case's kind, position and bucket over ``band``: the
    oracle's case at the first row there, weighed over the band."""
    first = _band_rows(rep, case._replace(band=band))[0]
    return _oracle_case(rep, first, _slot(rep, case))._replace(
        weight=_oracle_weight(rep, case, band), band=band)


def _in_row_order(rep, cases):
    return _retallied(rep, sorted(cases, key=lambda c: c.index[:2]))


def _wide_band(rep, rows=1):
    """The position of the first band over at least two t, or over more
    than ``rows`` rows at its first t."""
    return next(n for n, c in enumerate(rep.cases) if c.band is not None
                and (len(c.band) > 1 if rows == 1 else len(_band_rows(
                    rep, c._replace(band=c.band[:1]))) > rows))


def _class_size_off_by_one(rep):
    """A band weighed as if its first t had one row more."""
    cases, at = list(rep.cases), _wide_band(rep, rows=2)
    case = cases[at]
    cases[at] = case._replace(
        weight=case.weight + _row_worth(rep, case, case.band[0]))
    return _retallied(rep, cases)


def _split_class(rep):
    """A band split in two where its shape does not change, each part
    weighed by the oracle and named by its first row."""
    cases, at = list(rep.cases), _wide_band(rep)
    case = cases[at]
    cases[at:at + 1] = [_band_at(rep, case, case.band[:1]),
                        _band_at(rep, case, case.band[1:])]
    return _in_row_order(rep, cases)


def _one_key_twice(rep):
    """A case of a first row moved to the end of the report, after other
    first rows: its row names two case sets."""
    cases = list(rep.cases)
    at = next(n for n in range(1, len(cases))
              if cases[n].index[:2] == cases[n - 1].index[:2]
              and not cases[n].leading)
    return _retallied(rep, cases[:at] + cases[at + 1:] + [cases[at]])


def _named_by_second_row(rep):
    """A band named by the second row of its kind at its first t, with
    that row's index, context and verdict."""
    cases, at = list(rep.cases), _wide_band(rep, rows=2)
    case = cases[at]
    second = _band_rows(rep, case._replace(band=case.band[:1]))[1]
    cases[at] = _oracle_case(rep, second, _slot(rep, case))._replace(
        weight=case.weight, band=case.band)
    return _in_row_order(rep, cases)


def _class_left_out(rep):
    """The bands named by one first row of more than one row left out."""
    row = rep.cases[_wide_band(rep, rows=2)].index[:2]
    return _retallied(rep, [c for c in rep.cases if c.index[:2] != row])


def _overflow_off_by_one(rep):
    cases = list(rep.cases)
    at = next(n for n, c in enumerate(cases)
              if c.verdict == Zero("chern-index-overflow"))
    cases[at] = cases[at]._replace(weight=cases[at].weight + 1)
    return _retallied(rep, cases)


def _j0_row_folded(rep):
    """A band of rows (t, 0) dropped and its weight counted in a band of
    the same position and bucket over some of its t with j > 0."""
    cases = list(rep.cases)
    for n, case in enumerate(cases):
        if _kind(rep, *case.index[:2]) != "j0" or case.band is None:
            continue
        for k, other in enumerate(cases):
            if (other.index[1] > 0 and other.band is not None
                    and set(other.band) & set(case.band)
                    and _slot(rep, other) == _slot(rep, case)):
                cases[k] = other._replace(weight=other.weight + case.weight)
                return _retallied(rep, cases[:n] + cases[n + 1:])


# name -> how to perturb the bands of a report; each fails "band weights
# recounted" alone
CLASS_PERTURBATIONS = {
    "class size off by one": _class_size_off_by_one,
    "class split in two": _split_class,
    "two case sets with one key": _one_key_twice,
    "class named by its second row": _named_by_second_row,
    "class left out": _class_left_out,
    "overflow weight off by one": _overflow_off_by_one,
    "rows with j = 0 and j > 0 in one case set": _j0_row_folded,
}


@pytest.mark.parametrize("symbol,args", [((3, 2), (2, 2)), ((2, 3), (3, 5))])
@pytest.mark.parametrize("name", sorted(CLASS_PERTURBATIONS))
def test_replay_rejects_perturbed_class(name, symbol, args):
    rep = audit_rationality(make_params(*symbol), *args)
    assert replay(rep).passed
    perturbed = CLASS_PERTURBATIONS[name](rep)
    assert perturbed.cases != rep.cases
    check = replay(perturbed)
    assert [name for name, _ in check.failures()] == [
        "band weights recounted"]


def _drop_last_t(rep):
    """A band over two t or more ending a t early, weighed by the oracle
    over the t it keeps."""
    cases, at = list(rep.cases), _wide_band(rep)
    cases[at] = _band_at(rep, cases[at], cases[at].band[:-1])
    return _retallied(rep, cases)


def _overlapping_bands(rep):
    """A second band of a band's kind, position and bucket from its second
    t on, named by its first row there and weighed by the oracle."""
    cases, at = list(rep.cases), _wide_band(rep)
    return _in_row_order(rep, cases + [
        _band_at(rep, cases[at], cases[at].band[1:])])


def _stretched_past_a_break(rep):
    """A band ending where its shape changes (l_s = 0 after l_s, or b | t
    at l = 0 of the rows (t, 0)) stretched over the next t, weighed by the
    oracle over its t."""
    cases = list(rep.cases)
    for at, case in enumerate(cases):
        if case.band is None:
            continue
        longer = range(case.band[0], case.band[-1] + 2 * case.band.step,
                       case.band.step)
        if case.band[-1] < rep.params.d + dict(rep.args)["s"] and any(
                other.band and other.band[0] == longer[-1]
                and _slot(rep, other) == _slot(rep, case)
                and _kind(rep, *other.index[:2]) == _kind(
                    rep, *case.index[:2]) for other in cases):
            cases[at] = _band_at(rep, case, longer)
            return _retallied(rep, cases)


def _a_row_less(rep):
    """A band over more than one row weighed as if its last t had one row
    less."""
    cases = list(rep.cases)
    at = next(n for n, c in enumerate(cases) if c.band is not None and len(
        _band_rows(rep, c)) > 1)
    case = cases[at]
    cases[at] = case._replace(
        weight=case.weight - _row_worth(rep, case, case.band[-1]))
    return _retallied(rep, cases)


# name -> how to perturb the bands of a report; each fails "band weights
# recounted" alone
BAND_PERTURBATIONS = {
    "last t dropped": _drop_last_t,
    "two overlapping bands": _overlapping_bands,
    "stretched past a shape break": _stretched_past_a_break,
    "weight off by one row's worth": _a_row_less,
}


@pytest.mark.parametrize("symbol,args", [((3, 2), (2, 2)), ((2, 3), (3, 5))])
@pytest.mark.parametrize("name", sorted(BAND_PERTURBATIONS))
def test_replay_rejects_perturbed_band(name, symbol, args):
    rep = audit_rationality(make_params(*symbol), *args)
    assert replay(rep).passed
    perturbed = BAND_PERTURBATIONS[name](rep)
    assert perturbed.cases != rep.cases
    check = replay(perturbed)
    assert [name for name, _ in check.failures()] == [
        "band weights recounted"]


def test_bands_bound_the_audit_work():
    """Clock-free: the rationality reports of the (2,6) claims hold 2,028
    cases in all (94,285 at one case per row class and bucket run)."""
    params = make_params(2, 6)
    assert sum(len(report.cases) for _, _, report, _, _ in steenrod.claims(
        params) if report.kind == "rationality") == 2028


# --- the audit sweep: verify's steenrod report ---------------------------------------

#: the totals at (2,2), then the ROADMAP rows of the symbols whose steenrod
#: suite takes a second or less in process, through (5,3); the steenrod
#: verify entries of SLOW_ARGV in tests/test_cli.py pin the rows from (11,2)
#: on in a capped subprocess
IN_PROCESS_TOTALS = {(2, 2): (218, 740, 16),
                     **{key: ROADMAP_TOTALS[key]
                        for key in list(ROADMAP_TOTALS)[:8]}}


@pytest.mark.parametrize("p,n", list(IN_PROCESS_TOTALS))
def test_audit_sweep_verdict_totals(p, n):
    (report,) = run_suite("steenrod", make_params(p, n))
    assert report.passed, report.failures()
    assert verdict_totals(report.lines()) == IN_PROCESS_TOTALS[p, n]


def test_audit_sweep_exits_1_on_failure(monkeypatch, capsys):
    """A replay that always fails fails the trace replay line of each audit
    kind, at its first audit, and verify exits 1."""
    failing = CheckReport("stub")
    failing.add("always wrong", False)
    monkeypatch.setattr(steenrod, "replay", lambda report: failing)
    assert cli.main(["verify", "-p", "2", "-n", "2",
                     "--suite", "steenrod"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("FAIL")] == [
        "FAIL: steenrod p=2 n=2: trace replay (rationality) -- first failure "
        "at s=0: always wrong; verdicts zero=217 at-least=738 exact=15",
        "FAIL: steenrod p=2 n=2: trace replay (generators) -- first failure "
        "at m=1 r=1: always wrong; verdicts zero=1 at-least=2 exact=1"]
    assert out[-1] == "5/7 checks passed"
