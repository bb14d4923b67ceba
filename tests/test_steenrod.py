"""Cartan expansion, the sigma decomposition, and the divisibility audits."""

from collections import Counter
from dataclasses import replace
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostcalc.splitring import make_params
from rostcalc.steenrod import (
    AuditReport,
    PairingContext,
    SteenAtom,
    SteenProduct,
    ValAtLeast,
    ValExactly,
    Zero,
    audit_generators,
    audit_rationality,
    cartan_expand,
    generators_arguments,
    rationality_arguments,
    replay,
    steen_index_valid,
    substitute_dcmp,
    valuation_bound,
)


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


# --- sigma decomposition ----------------------------------------------------------


def test_substitute_single_positive_part():
    prods = substitute_dcmp([((4,), 1)])
    assert len(prods) == 3
    kinds = [(p.atoms[0].kind, p.scalar) for p in prods]
    assert kinds == [("theta", 1), ("second", 1), ("third", -1)]
    assert all(p.atoms[0].index == 4 for p in prods)


def test_substitute_keeps_sigma_factors():
    prods = substitute_dcmp([((0, 4), 2)])
    assert len(prods) == 3
    for prod in prods:
        assert prod.classify()["sigma"] == 1
        assert abs(prod.scalar) == 2


def test_substitute_all_zero_unchanged():
    prods = substitute_dcmp([((0, 0, 0), 1)])
    assert len(prods) == 1
    assert prods[0].atoms == (SteenAtom("sigma"),) * 3
    assert prods[0].scalar == 1


def test_substitute_two_positive_parts_signs():
    prods = substitute_dcmp([((2, 2), 1)])
    # classes (a, b, c) with a + b + c = 2, standing for 3^2 terms
    assert len(prods) == 6
    assert sum(p.weight for p in prods) == 9
    # (-1)^(#third): one third in the four terms of weights 2 + 2
    assert sum(p.weight for p in prods if p.scalar == -1) == 4
    assert sum(p.weight for p in prods if p.scalar == 1) == 5


@given(p=st.sampled_from((2, 3, 5)), data=st.data())
@settings(max_examples=60, deadline=None)
def test_classify_consistent_with_multiset(p, data):
    r = data.draw(st.integers(1, 3))
    l = data.draw(st.integers(0, 3 * (p - 1)))
    for prod in substitute_dcmp(cartan_expand(r, l, p)):
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

    terms, classes = Counter(), Counter()
    signs = {}
    for prod in _substitute_terms(expansion):
        terms[key(prod)] += 1
        signs[key(prod)] = prod.scalar
    for prod in substitute_dcmp(expansion):
        assert classes[key(prod)] == 0
        classes[key(prod)] += prod.weight
        assert prod.scalar == signs[key(prod)]
    assert classes == terms


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


def test_rationality_trivial_for_invalid_index():
    rep = audit_rationality(make_params(3, 2), 1, 1)
    assert rep.passed
    assert rep.cases == ()
    assert rep.conclusion.startswith("trivial")


def test_rationality_m_out_of_range():
    # m = -1 passes the bound but is not a cycle dimension
    with pytest.raises(ValueError, match="outside"):
        audit_rationality(make_params(3, 2), -1, 2)


def test_rationality_case_spot_checks():
    pr = make_params(3, 2)  # b = 4, d = 8
    rep = audit_rationality(pr, 2, 2)
    by_index = {}
    for case in rep.cases:
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


def test_rationality_arguments_grid():
    pr = make_params(3, 2)
    args = rationality_arguments(pr)
    assert all(s % 2 == 0 and s > (m - 4) * 2 and 0 <= s <= 8
               for m, s in args)
    assert (8, 8) not in args  # bound excludes the top corner
    assert (0, 0) in args
    # m = 8 admits no valid s at all
    assert not [s for m, s in args if m == 8]


def test_rationality_replay():
    rep = audit_rationality(make_params(3, 2), 3, 4)
    check = replay(rep)
    assert check.passed, check.failures()


def test_rationality_full_grid_p2_n2():
    pr = make_params(2, 2)
    for m, s in rationality_arguments(pr):
        rep = audit_rationality(pr, m, s)
        assert rep.passed, (m, s, rep.conclusion)


# --- monotonicity of theta -----------------------------------------------------------


def test_theta_addition_never_weakens_below_threshold():
    pr = make_params(3, 2)
    rep = audit_rationality(pr, 2, 2)
    theta = SteenAtom("theta", 2)
    seen = 0
    for case in rep.cases:
        if case.product is None or case.index[3] == 0 or case.leading:
            continue
        v1 = case.verdict
        bigger = replace(case.product,
                         atoms=case.product.atoms + (theta,))
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


def test_generators_arguments():
    assert generators_arguments(make_params(3, 2)) == [(1, 1), (1, 2)]
    assert generators_arguments(make_params(2, 3)) == [(1, 1), (2, 1)]


# --- class-level audits against the term-level oracle -------------------------


def _verdict_key(v):
    rules = tuple(r.rule for r in v.rules) if isinstance(v, ValAtLeast) else ()
    return (type(v).__name__, getattr(v, "value", None), rules,
            getattr(v, "reason", None))


def _tallies_by_index(report, terms):
    """Per case index, weighted verdict tallies of a report, or (terms)
    the tallies of expanding each index's Cartan compositions term by
    term and classifying every term."""
    out = {}
    contexts = {}
    for case in report.cases:
        tally = out.setdefault(case.index, Counter())
        if case.product is None:
            tally[_verdict_key(case.verdict)] += 1
        elif terms:
            contexts[case.index] = case.product.context
        else:
            tally[_verdict_key(case.verdict)] += case.weight
    p = report.params.p
    for index, ctx in contexts.items():
        for prod in _substitute_terms(cartan_expand(ctx.r, ctx.l, p), ctx):
            out[index][_verdict_key(valuation_bound(prod))] += 1
    return out


def _oracle_audits():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        pr = make_params(p, n)
        for m, s in rationality_arguments(pr):
            yield audit_rationality(pr, m, s)
        for m, r in generators_arguments(pr):
            yield audit_generators(pr, m, r)
    pr = make_params(5, 2)
    for m, s in ((0, 0), (1, 8)):
        yield audit_rationality(pr, m, s)
    for m, r in generators_arguments(pr):
        yield audit_generators(pr, m, r)


def test_class_tallies_match_term_oracle():
    grouped = 0
    for report in _oracle_audits():
        want = _tallies_by_index(report, terms=True)
        assert _tallies_by_index(report, terms=False) == want, report.title
        grouped += sum(c.weight > 1 for c in report.cases)
    assert grouped > 1000


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
    from rostcalc import steenrod

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


def test_replay_recounts_class_weights():
    rep = audit_rationality(make_params(3, 2), 2, 2)
    assert sum(c.weight > 1 for c in rep.cases) > 0
    cases = tuple(
        replace(c, product=replace(c.product, weight=c.weight + 1))
        if c.weight > 1 else c for c in rep.cases)
    check = replay(replace(rep, cases=cases))
    assert [name for name, _ in check.failures()] == ["class weights recounted"]
