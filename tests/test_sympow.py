"""Symmetric-power morphism matrices and their identities."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostcalc.splitring import make_params
from rostcalc.sympow import (
    GradedMap,
    build_morphisms,
    id_tensor_y,
    identity_map,
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


# --- module and basis layout ---------------------------------------------


def test_sym_module_twists():
    pr = params_for(5)  # b = 6
    m = sym_module(3, pr)
    assert m.labels == ("e_0", "e_1", "e_2", "e_3")
    assert m.twists == (0, 6, 12, 18)


def test_tensor_block_layout():
    pr = params_for(3)  # b = 4
    t = tensor_with_m(1, pr)
    assert t.labels == ("e_0*1", "e_1*1", "e_0*h", "e_1*h")
    assert t.twists == (0, 4, 4, 8)


def test_twist_homogeneity_enforced():
    pr = params_for(3)
    src = sym_module(1, pr)
    tgt = sym_module(1, pr)
    with pytest.raises(ValueError, match="twist homogeneity"):
        GradedMap(src, tgt, ((0, 1), (0, 0)))  # e_1 -> e_0 drops a twist
    # a product over inner modules with equal labels but other twists is
    # checked too: e_1 sits at twist 4 for p = 3 and at 6 for p = 5
    with pytest.raises(ValueError, match="twist homogeneity"):
        identity_map(tgt) @ identity_map(sym_module(1, params_for(5)))


def test_shape_checks_raise_value_error():
    pr = params_for(3)
    one, two = sym_module(0, pr), sym_module(1, pr)
    with pytest.raises(ValueError, match="is not 2x2"):
        GradedMap(two, two, ((1, 0),))  # one row short
    with pytest.raises(ValueError, match="is not 2x2"):
        GradedMap(two, two, ((1,), (0,)))  # one column short
    with pytest.raises(ValueError, match="cannot compose"):
        identity_map(one) @ identity_map(two)
    with pytest.raises(ValueError, match="cannot subtract"):
        identity_map(two) - identity_map(one)


def test_same_matrix_compares_shapes():
    pr = params_for(3)
    id1, id2 = identity_map(sym_module(0, pr)), identity_map(sym_module(1, pr))
    assert not id2.same_matrix(id1)
    assert not id1.same_matrix(id2)
    assert id2.same_matrix(id2.scale(1))


# --- individual morphism matrices ----------------------------------------


def test_y3_diagonal_p5():
    y = build_morphisms(3, params_for(5))["y"]
    assert y.matrix == ((3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0))


def test_bottom_maps_are_the_basic_ones():
    pr = params_for(5)
    maps = build_morphisms(1, pr)
    assert maps["y"].matrix == maps["r"].matrix == ((1, 0),)
    assert maps["x"].matrix == ((0,), (1,))
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
    assert comp.matrix == ((3, 0, 0, 0),)
    assert comp.same_matrix(build_morphisms(3, pr)["r"].scale(3))


def test_y1_y2_is_2_r2_p3():
    pr = params_for(3)
    comp = build_morphisms(1, pr)["y"] @ build_morphisms(2, pr)["y"]
    assert comp.matrix == ((2, 0, 0),)


def test_somesome_reports():
    for p in PRIMES:
        rep = verify_somesome(params_for(p))
        assert rep.passed, rep.failures()


def test_somesome_p2_vacuous():
    rep = verify_somesome(params_for(2))
    assert len(rep.checks) == 1
    assert "vacuous" in rep.lines()[0]


def test_manyi_square_values_p5():
    pr = params_for(5)
    i = 4
    lhs = build_morphisms(i, pr)["y"] @ build_morphisms(i, pr)["x"]
    # e_t -> (i-1-t) e_{t+1}
    for t in range(i - 1):
        assert lhs.matrix[t + 1][t] == i - 1 - t
    assert lhs.shift == pr.b


def test_manyi_ccom_reports():
    for p in PRIMES:
        rep = verify_manyi_ccom(params_for(p))
        assert rep.passed, rep.failures()


def test_ccom_degenerate_tag_p2():
    rep = verify_manyi_ccom(params_for(2))
    assert rep.passed
    assert any("degenerate" in line for line in rep.lines())


# --- the contraction s ------------------------------------------------------


def test_s_is_y2_at_p3():
    pr = params_for(3)
    s = s_map(pr)
    assert s.same_matrix(build_morphisms(2, pr)["y"])


def test_s_values():
    for p in (3, 5, 7):
        pr = params_for(p)
        s = s_map(pr)
        cols = p  # basis e_0..e_{p-1}
        for t in range(cols):
            col = [s.matrix[r][t] for r in range(2)]
            if t == 0:
                assert col == [p - 1, 0]
            elif t == 1:
                assert col == [0, 1]
            else:
                assert col == [0, 0]


def test_s_division_is_exact_p5():
    s = s_map(params_for(5))
    for row in s.matrix:
        for entry in row:
            assert Fraction(entry).denominator == 1


def test_y_after_s_p3():
    pr = params_for(3)
    comp = build_morphisms(1, pr)["y"] @ s_map(pr)
    assert comp.matrix == ((2, 0, 0),)


def test_s_after_x_p3():
    pr = params_for(3)
    lhs = s_map(pr) @ build_morphisms(2, pr)["x"]
    rhs = build_morphisms(1, pr)["x"] @ build_morphisms(1, pr)["r"]
    assert lhs.same_matrix(rhs)
    assert lhs.matrix == ((0, 0), (1, 0))


# --- triangles ---------------------------------------------------------------


def test_triangles_reports():
    for p in PRIMES:
        rep = verify_triangles(params_for(p))
        assert rep.passed, rep.failures()


def test_kernel_of_y2_is_top_line_p3():
    pr = params_for(3)
    y = build_morphisms(2, pr)["y"]
    # y_2 kills exactly the e_2 line, the image of Sym^2 of the twist map
    assert [y.matrix[r][2] for r in range(2)] == [0, 0]
    x2 = build_morphisms(2, pr)["x"]
    x1 = build_morphisms(1, pr)["x"]
    sq = x2 @ x1
    assert [sq.matrix[r][0] for r in range(3)] == [0, 0, 1]


def test_y4_diagonal_units_p5():
    y = build_morphisms(4, params_for(5))["y"]
    diag = [y.matrix[t][t] for t in range(4)]
    assert diag == [4, 3, 2, 1]
    assert all(v % 5 for v in diag)


def test_triangles_p2_degenerate_to_split_of_m():
    # at p = 2 both sequences are the defining split of M itself
    pr = params_for(2)
    rep = verify_triangles(pr)
    assert rep.passed, rep.failures()
    top = build_morphisms(1, pr)
    assert top["y"].matrix == ((1, 0),)
    assert top["x"].matrix == ((0,), (1,))


# --- the sparse product against the dense one ---------------------------------


def dense_product(f, g):
    """The matrix of f @ g by the full triple loop over rows, the inner
    index and columns: the oracle for GradedMap.__matmul__."""
    return tuple(
        tuple(sum(f.matrix[r][t] * g.matrix[t][c] for t in range(len(g.matrix)))
              for c in range(g.source.dim))
        for r in range(len(f.matrix)))


def all_maps(pr):
    """The maps the identity checks compose; f (x) id_M is defined for the
    maps between symmetric powers (x, y and r)."""
    maps = [s_map(pr)]
    for i in range(1, pr.p):
        morphisms = build_morphisms(i, pr)
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
            if g.target.labels != f.source.labels:
                continue
            prod = f @ g
            assert prod.matrix == dense_product(f, g)
            assert type(prod.matrix) is tuple
            assert all(type(row) is tuple for row in prod.matrix)
            assert (prod.source, prod.target, prod.shift) == (
                g.source, f.target, f.shift + g.shift)
            # built without the re-check, equal to the validated map
            assert prod == GradedMap(prod.source, prod.target, prod.matrix,
                                     prod.shift)
            pairs += 1
    assert pairs >= 5 * (p - 1)


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
    maps = build_morphisms(i, pr)  # __post_init__ re-checks homogeneity
    for f in maps.values():
        for r, row in enumerate(f.matrix):
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
            for rep in (
                verify_somesome(pr),
                verify_manyi_ccom(pr),
                verify_triangles(pr),
            ):
                assert rep.passed, (p, n, rep.failures())
