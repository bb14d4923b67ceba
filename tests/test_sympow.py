"""Symmetric-power morphism matrices and their identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostcalc.arith import reduce_mod
from rostcalc.splitring import make_params
from rostcalc.sympow import (
    GradedMap,
    GradedModule,
    _rank,
    build_morphisms,
    id_tensor_y,
    identity_map,
    morphism_table,
    s_map,
    sym_module,
    tensor_map_with_id,
    tensor_with_m,
    verify_manyi_ccom,
    verify_somesome,
    verify_triangles,
)

PRIMES = (2, 3, 5, 7)


def params_for(p):
    return make_params(p, 2)


def dense(f):
    """The matrix of f as a tuple of rows over its target basis, each a
    tuple over its source basis."""
    rows = [[0] * f.source.dim for _ in range(f.target.dim)]
    for (r, c), v in f.entries.items():
        rows[r][c] = v
    return tuple(map(tuple, rows))


# --- module and basis layout ---------------------------------------------


def test_sym_module_twists():
    pr = params_for(5)  # b = 6
    m = sym_module(3, pr)
    assert m.twists == (0, 6, 12, 18)


def test_tensor_block_layout():
    pr = params_for(3)  # b = 4
    t = tensor_with_m(1, pr)
    assert t.twists == (0, 4, 4, 8)


def test_twist_homogeneity_enforced():
    pr = params_for(3)
    src = sym_module(1, pr)
    tgt = sym_module(1, pr)
    with pytest.raises(ValueError, match="twist homogeneity"):
        GradedMap(src, tgt, {(0, 1): 1})  # e_1 -> e_0 drops a twist
    # a product over inner modules with one name but other twists is
    # refused: e_1 sits at twist 4 for p = 3 and at 6 for p = 5
    with pytest.raises(ValueError, match=r"cannot compose .*: inner twists "
                                         r"\(0, 6\) and \(0, 4\)"):
        identity_map(tgt) @ identity_map(sym_module(1, params_for(5)))


def test_shape_checks_raise_value_error():
    pr = params_for(3)
    one, two = sym_module(0, pr), sym_module(1, pr)
    with pytest.raises(ValueError, match="outside its 2x2 matrix"):
        GradedMap(two, two, {(2, 2): 1})  # one row and column past the end
    with pytest.raises(ValueError, match="outside its 2x2 matrix"):
        GradedMap(two, two, {(-1, -1): 1})  # no wrap-around from the end
    with pytest.raises(ValueError, match="cannot compose"):
        identity_map(one) @ identity_map(two)
    with pytest.raises(ValueError, match="cannot subtract"):
        identity_map(two) - identity_map(one)


def test_subtraction_needs_one_source_target_and_shift():
    """Maps of one shape between other modules do not subtract: Sym^3 and
    Sym^1 (x) M both have four basis vectors, at twists 0 and b first."""
    pr = params_for(3)
    line = sym_module(0, pr)
    f = GradedMap(sym_module(3, pr), line, {(0, 0): 1})
    g = GradedMap(tensor_with_m(1, pr), line, {(0, 0): 1})
    assert dense(f) == dense(g) == ((1, 0, 0, 0),)
    with pytest.raises(ValueError, match=r"cannot subtract Sym\^1\(x\)M->Sym\^0 "
                                         r"\(shift 0\) from Sym\^3->Sym\^0"):
        f - g
    # the zero map Sym^0 -> Sym^1 of degree b against the one of degree 0
    x0 = build_morphisms(1, pr)["x"].scale(0)
    with pytest.raises(ValueError, match=r"\(shift 0\) from Sym\^0->Sym\^1 "
                                         r"\(shift 4\)"):
        x0 - GradedMap(x0.source, x0.target, {})
    assert (f - f).is_zero()


def test_same_matrix_compares_shapes():
    pr = params_for(3)
    id1, id2 = identity_map(sym_module(0, pr)), identity_map(sym_module(1, pr))
    assert not id2.same_matrix(id1)
    assert not id1.same_matrix(id2)
    assert id2.same_matrix(id2.scale(1))
    # zero maps of other shapes store the same (empty) entries
    assert not id2.scale(0).same_matrix(id1.scale(0))


# --- individual morphism matrices ----------------------------------------


def test_y3_diagonal_p5():
    y = build_morphisms(3, params_for(5))["y"]
    assert dense(y) == ((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0))


def test_bottom_maps_are_the_basic_ones():
    pr = params_for(5)
    maps = build_morphisms(1, pr)
    assert dense(maps["y"]) == dense(maps["r"]) == ((1, 0),)
    assert dense(maps["x"]) == ((0,), (1,))
    assert maps["x"].shift == pr.b


def test_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_morphisms(3, params_for(3))
    with pytest.raises(ValueError, match="out of range"):
        build_morphisms(0, params_for(5))


def test_a_then_b_is_multiplication_by_i():
    for p in (3, 5, 7):
        pr = params_for(p)
        for i in range(1, p):
            maps = build_morphisms(i, pr)
            comp = maps["b"] @ maps["a"]
            assert comp.same_matrix(identity_map(sym_module(i, pr)).scale(i))


def test_y_is_contraction_through_a():
    # y_i agrees with (id (x) y) o a_i, its defining composite
    for p in (2, 3, 5):
        pr = params_for(p)
        for i in range(1, p):
            maps = build_morphisms(i, pr)
            assert (id_tensor_y(i - 1, pr) @ maps["a"]).same_matrix(maps["y"])


# --- the named identities --------------------------------------------------


def test_r2_after_y3_p5():
    pr = params_for(5)
    comp = build_morphisms(2, pr)["r"] @ build_morphisms(3, pr)["y"]
    assert dense(comp) == ((3, 0, 0, 0),)
    assert comp.same_matrix(build_morphisms(3, pr)["r"].scale(3))


def test_y1_y2_is_2_r2_p3():
    pr = params_for(3)
    comp = build_morphisms(1, pr)["y"] @ build_morphisms(2, pr)["y"]
    assert dense(comp) == ((2, 0, 0),)


def test_somesome_reports():
    for p in PRIMES:
        pr = params_for(p)
        rep = verify_somesome(pr, morphism_table(pr))
        assert rep.passed, rep.failures()


def test_somesome_p2_vacuous():
    pr = params_for(2)
    rep = verify_somesome(pr, morphism_table(pr))
    assert len(rep.checks) == 1
    assert "vacuous" in rep.lines()[0]


def test_manyi_square_values_p5():
    pr = params_for(5)
    i = 4
    lhs = build_morphisms(i, pr)["y"] @ build_morphisms(i, pr)["x"]
    # e_t -> (i-1-t) e_{t+1}
    for t in range(i - 1):
        assert dense(lhs)[t + 1][t] == i - 1 - t
    assert lhs.shift == pr.b


def test_manyi_ccom_reports():
    for p in PRIMES:
        pr = params_for(p)
        rep = verify_manyi_ccom(pr, morphism_table(pr))
        assert rep.passed, rep.failures()


def test_ccom_degenerate_tag_p2():
    pr = params_for(2)
    rep = verify_manyi_ccom(pr, morphism_table(pr))
    assert rep.passed
    assert any("degenerate" in line for line in rep.lines())


# --- the contraction s ------------------------------------------------------


def test_s_is_y2_at_p3():
    pr = params_for(3)
    s = s_map(pr, morphism_table(pr))
    assert s.same_matrix(build_morphisms(2, pr)["y"])


def test_s_values():
    for p in (3, 5, 7):
        pr = params_for(p)
        s = s_map(pr, morphism_table(pr))
        cols = p  # basis e_0..e_{p-1}
        for t in range(cols):
            col = [dense(s)[r][t] for r in range(2)]
            if t == 0:
                assert col == [p - 1, 0]
            elif t == 1:
                assert col == [0, 1]
            else:
                assert col == [0, 0]


def test_s_division_is_exact_p5():
    pr = params_for(5)
    s = s_map(pr, morphism_table(pr))
    for row in dense(s):
        for entry in row:
            assert Fraction(entry).denominator == 1


def test_y_after_s_p3():
    pr = params_for(3)
    comp = build_morphisms(1, pr)["y"] @ s_map(pr, morphism_table(pr))
    assert dense(comp) == ((2, 0, 0),)


def test_s_after_x_p3():
    pr = params_for(3)
    lhs = s_map(pr, morphism_table(pr)) @ build_morphisms(2, pr)["x"]
    rhs = build_morphisms(1, pr)["x"] @ build_morphisms(1, pr)["r"]
    assert lhs.same_matrix(rhs)
    assert dense(lhs) == ((0, 0), (1, 0))


# --- triangles ---------------------------------------------------------------


def test_triangles_reports():
    for p in PRIMES:
        pr = params_for(p)
        rep = verify_triangles(pr, morphism_table(pr))
        assert rep.passed, rep.failures()


def test_kernel_of_y2_is_top_line_p3():
    pr = params_for(3)
    y = build_morphisms(2, pr)["y"]
    # y_2 kills exactly the e_2 line, the image of Sym^2 of the twist map
    assert [dense(y)[r][2] for r in range(2)] == [0, 0]
    x2 = build_morphisms(2, pr)["x"]
    x1 = build_morphisms(1, pr)["x"]
    sq = x2 @ x1
    assert [dense(sq)[r][0] for r in range(3)] == [0, 0, 1]


def test_y4_diagonal_units_p5():
    y = build_morphisms(4, params_for(5))["y"]
    diag = [dense(y)[t][t] for t in range(4)]
    assert diag == [4, 3, 2, 1]
    assert all(v % 5 for v in diag)


def test_triangles_p2_degenerate_to_split_of_m():
    # at p = 2 both sequences are the defining split of M itself
    pr = params_for(2)
    rep = verify_triangles(pr, morphism_table(pr))
    assert rep.passed, rep.failures()
    top = build_morphisms(1, pr)
    assert dense(top["y"]) == ((1, 0),)
    assert dense(top["x"]) == ((0,), (1,))


# --- the sparse operations against dense ones ---------------------------------


def dense_product(f, g):
    """The matrix of f @ g by the full triple loop over rows, the inner
    index and columns: the oracle for GradedMap.__matmul__."""
    left, right = dense(f), dense(g)
    return tuple(
        tuple(sum(left[r][t] * right[t][c] for t in range(len(right)))
              for c in range(g.source.dim))
        for r in range(len(left)))


def dense_rank(matrix, p=None):
    """Row rank of a dense matrix by exact elimination over every column:
    over the rationals, or over F_p when p is given (the entries must then
    be p-integral).  The oracle for the sparse elimination of _rank."""
    if p is None:
        m = [[Fraction(a) for a in row] for row in matrix]
    else:
        m = [[reduce_mod(a, p) for a in row] for row in matrix]
    rank, cols = 0, (len(m[0]) if m else 0)
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c] if p is None else pow(m[rank][c], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
                if p is not None:
                    m[r] = [a % p for a in m[r]]
        rank += 1
    return rank


def all_maps(pr):
    """The maps the identity checks compose; f (x) id_M is defined for the
    maps between symmetric powers (x, y and r)."""
    table = morphism_table(pr)
    maps = [s_map(pr, table)]
    for morphisms in table.values():
        maps += morphisms.values()
        maps += [tensor_map_with_id(morphisms[k], pr) for k in "xyr"]
    maps += [id_tensor_y(i, pr) for i in range(pr.p)]
    return maps


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_sparse_product_matches_dense(p):
    maps = all_maps(make_params(p, 2))
    pairs = 0
    for f in maps:
        for g in maps:
            if g.target != f.source:
                continue
            prod = f @ g
            assert dense(prod) == dense_product(f, g)
            assert all(prod.entries.values())
            assert (prod.source, prod.target, prod.shift) == (
                g.source, f.target, f.shift + g.shift)
            pairs += 1
    assert pairs >= 5 * (p - 1)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_sparse_difference_and_scale_match_dense(p):
    """f - g and c*f entry by entry on the dense matrices, over every pair
    of maps and products with one source, target and shift."""
    maps = all_maps(make_params(p, 2))
    maps += [f @ g for f in maps for g in maps if g.target == f.source]
    groups = {}
    for f in maps:
        groups.setdefault((f.source, f.target, f.shift), []).append(f)
        for c in (0, -1, 3, Fraction(1, 2)):
            scaled = f.scale(c)
            assert dense(scaled) == tuple(
                tuple(c * a for a in row) for row in dense(f))
            assert all(scaled.entries.values())
    differences = 0
    for group in groups.values():
        for f in group:
            for g in group:
                diff = f - g
                assert dense(diff) == tuple(
                    tuple(a - b for a, b in zip(row_f, row_g))
                    for row_f, row_g in zip(dense(f), dense(g)))
                assert all(diff.entries.values())
                assert (f - f).is_zero()
                differences += not diff.is_zero()
    assert differences > 0


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_sparse_rank_matches_dense_on_the_morphisms(p):
    pr = make_params(p, 2)
    for morphisms in morphism_table(pr).values():
        for f in morphisms.values():
            for q in (None, p):
                assert _rank(f.entries, q) == dense_rank(dense(f), q)


@st.composite
def homogeneous_maps(draw):
    """A random map between modules of up to six basis vectors at twists
    0..2 (shift 0), with small integer and p-integral rational entries
    where the twists agree: zero rows, repeated rows and entries that
    cancel mod p all occur."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    twists = st.lists(st.integers(0, 2), min_size=1, max_size=6).map(tuple)
    source = GradedModule("S", draw(twists))
    target = GradedModule("T", draw(twists))
    unit = st.integers(1, 4).filter(lambda d: d % p)
    value = st.one_of(st.integers(-2 * p, 2 * p),
                      st.builds(Fraction, st.integers(-9, 9), unit))
    entries = {(r, c): draw(value)
               for r, tr in enumerate(target.twists)
               for c, tc in enumerate(source.twists)
               if tr == tc and draw(st.booleans())}
    return p, GradedMap(source, target, entries)


@settings(max_examples=200, deadline=None)
@given(homogeneous_maps())
def test_sparse_rank_matches_dense_on_random_maps(case):
    p, f = case
    for q in (None, p):
        assert _rank(f.entries, q) == dense_rank(dense(f), q)


def test_morphism_table_stores_only_nonzeros():
    """Work bound without a clock: at p = 61 the maps of morphism_table
    store 11,040 nonzero entries, where dense matrices would hold about
    2*p^3 = 455,730."""
    pr = make_params(61, 2)
    maps = [f for morphisms in morphism_table(pr).values()
            for f in morphisms.values()]
    assert all(all(f.entries.values()) for f in maps)
    assert max(len(f.entries) for f in maps) <= 2 * pr.p
    assert sum(len(f.entries) for f in maps) <= 4 * pr.p ** 2


# --- property tests ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7)),
    n=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_all_maps_twist_homogeneous(p, n, data):
    pr = make_params(p, n)
    i = data.draw(st.integers(min_value=1, max_value=p - 1))
    maps = build_morphisms(i, pr)  # the constructor re-checks homogeneity
    for f in maps.values():
        for r, row in enumerate(dense(f)):
            for c, entry in enumerate(row):
                if entry:
                    assert f.target.twists[r] == f.source.twists[c] + f.shift


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from((3, 5, 7)), i=st.data())
def test_composite_shift_adds(p, i):
    pr = make_params(p, 2)
    idx = i.draw(st.integers(min_value=2, max_value=p - 1))
    maps = build_morphisms(idx, pr)
    comp = maps["y"] @ maps["x"]
    assert comp.shift == pr.b


def test_all_identity_reports_over_grid():
    for p in PRIMES:
        for n in (1, 2, 3):
            pr = make_params(p, n)
            maps = morphism_table(pr)
            for rep in (
                verify_somesome(pr, maps),
                verify_manyi_ccom(pr, maps),
                verify_triangles(pr, maps),
            ):
                assert rep.passed, (p, n, rep.failures())
