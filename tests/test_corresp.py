import functools
import math
import operator
import random
from fractions import Fraction

import pytest

from rostcalc.arith import val
from rostcalc.corresp import (
    Corr,
    action_on_class,
    basis,
    comp_power,
    compose,
    diag_pullback,
    from_tuple,
    mult,
    projector_iterate,
    rho,
    rost_projector,
    sigma,
    to_tuple,
    transpose,
)
from rostcalc.splitring import h_power, make_params

PE_GRID = [(p, e) for p in (2, 3, 5, 7) for e in (1, p + 1)]


def _random_corr(pr, rng, size=4):
    c = Corr(pr)
    for _ in range(size):
        i = rng.randrange(pr.p)
        j = rng.randrange(pr.p)
        c = c + basis(pr, i, j).scale(Fraction(rng.randint(-9, 9)))
    return c


@pytest.mark.parametrize("p,e", PE_GRID)
def test_sigma_antisymmetric(p, e):
    pr = make_params(p, 2, e=e)
    s = sigma(pr)
    assert transpose(s) == -s


@pytest.mark.parametrize("p,e", PE_GRID)
def test_rho_is_signed_binomial_antidiagonal(p, e):
    pr = make_params(p, 2, e=e)
    r = rho(pr)
    for i in range(p):
        assert r.coeff(i, p - 1 - i) == (-1) ** i * math.comb(p - 1, i)
    # alternating-sum congruence: rho = sum_i E(i, p-1-i) mod p
    diff = r - sum((basis(pr, i, p - 1 - i) for i in range(p)), Corr(pr))
    assert all(val(v, p) >= 1 for _, v in diff.items())


@pytest.mark.parametrize("p,e", PE_GRID)
def test_rhosigma(p, e):
    pr = make_params(p, 2, e=e)
    # compose(sigma, sigma^{p-1}) / e == 1 x H + (p-1) * H x 1
    witness = compose(sigma(pr), rho(pr)).scale(1 / pr.e)
    assert witness == basis(pr, 0, 1) + basis(pr, 1, 0).scale(p - 1)


@pytest.mark.parametrize("p,e", PE_GRID)
def test_rost_projector(p, e):
    pr = make_params(p, 2, e=e)
    pi = rost_projector(pr)
    assert compose(pi, pi) == pi
    assert transpose(pi) == pi
    assert mult(pi) == 1
    assert diag_pullback(pi).degree() == p
    assert to_tuple(pi).entries == (Fraction(1),) * p
    for k in range(p):
        assert action_on_class(pi, k) == h_power(pr, k)


def test_projector_p2_shape():
    pr = make_params(2, 2)
    assert rost_projector(pr) == basis(pr, 0, 1) + basis(pr, 1, 0)


def test_compose_examples():
    pr = make_params(3, 2)
    s = sigma(pr)
    assert compose(s, s * s) == basis(pr, 0, 1) + basis(pr, 1, 0).scale(2)
    assert compose(s, Corr(pr)).is_zero()
    assert (s @ s**2) == compose(s, s ** 2)


def test_sigma_square_expansion():
    pr = make_params(3, 2)
    s2 = sigma(pr) ** 2
    assert s2 == basis(pr, 0, 2) - basis(pr, 1, 1).scale(2) + basis(pr, 2, 0)
    assert sigma(pr) ** 0 == basis(pr, 0, 0)


def test_mult_examples():
    pr = make_params(3, 2, e=5)
    assert mult(sigma(pr)) == 0
    assert mult(rho(pr)) == 5
    assert mult(rost_projector(pr)) == 1


def test_diag_pullback_examples():
    pr = make_params(3, 2)
    assert diag_pullback(sigma(pr)).is_zero()
    pr2 = make_params(2, 2)
    assert diag_pullback(basis(pr2, 1, 1)).is_zero()


def test_action_examples():
    pr = make_params(3, 2, e=7)
    assert action_on_class(sigma(pr), 2) == h_power(pr, 1).scale(7)
    assert action_on_class(Corr(pr), 1).is_zero()


def test_to_tuple():
    pr = make_params(3, 2, e=4)
    t = to_tuple((sigma(pr) ** 2).scale(Fraction(1, 4)))
    assert t.entries == (1, -2, 1)
    with pytest.raises(ValueError):
        to_tuple(sigma(pr))
    assert from_tuple(pr, t) == (sigma(pr) ** 2).scale(Fraction(1, 4))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compose_associative_and_transpose_antiautomorphism(p):
    pr = make_params(p, 2, e=p + 1)
    rng = random.Random(97 * p)
    for _ in range(25):
        a = _random_corr(pr, rng)
        b = _random_corr(pr, rng)
        c = _random_corr(pr, rng)
        assert compose(compose(c, b), a) == compose(c, compose(b, a))
        assert transpose(compose(b, a)) == compose(transpose(a), transpose(b))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_antidiagonal_span_intertwines_with_tuples(p):
    pr = make_params(p, 2, e=2 * p + 1)
    rng = random.Random(31 * p)
    for _ in range(25):
        a = Corr(pr)
        b = Corr(pr)
        for i in range(p):
            a = a + basis(pr, i, p - 1 - i).scale(Fraction(rng.randint(-9, 9)))
            b = b + basis(pr, i, p - 1 - i).scale(Fraction(rng.randint(-9, 9)))
        ab = compose(b, a)
        assert all(i + j == p - 1 for (i, j), _ in ab.items())
        assert to_tuple(ab) == to_tuple(b) * to_tuple(a)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e_offset", [0, 1])
def test_projector_iterate_growth(p, e_offset):
    pr = make_params(p, 2, e=1 if e_offset == 0 else p + 1)
    for r in range(6):
        _, min_off = projector_iterate(pr, r)
        assert min_off >= r + 1


def test_projector_iterate_witnesses():
    pr = make_params(3, 2)
    corr, min_off = projector_iterate(pr, 1)
    assert to_tuple(corr).entries == (1, 64, 1)
    assert min_off == 2
    _, v0 = projector_iterate(pr, 0)
    assert to_tuple(projector_iterate(pr, 0)[0]).entries == (1, 4, 1)
    assert v0 == 1
    # p = 2: rho' has tuple (1, 1); offsets vanish identically
    pr2 = make_params(2, 3)
    _, v = projector_iterate(pr2, 2)
    assert v == math.inf


def test_comp_power():
    pr = make_params(3, 2)
    pi = rost_projector(pr)
    assert comp_power(pi, 5) == pi
    with pytest.raises(ValueError):
        comp_power(pi, 0)


@pytest.mark.parametrize("r", range(1, 13))
def test_powers_by_squaring_match_repeated_products(r):
    pr = make_params(5, 2, e=2)
    rng = random.Random(r)
    alpha = _random_corr(pr, rng) + rost_projector(pr).scale(3)
    cls = h_power(pr, 0).scale(2) + h_power(pr, 1) - h_power(pr, 3)
    assert not comp_power(alpha, r).is_zero()
    assert comp_power(alpha, r) == functools.reduce(compose, [alpha] * r)
    for x in (alpha, cls):
        assert x ** r == functools.reduce(operator.mul, [x] * r)


def test_transpose_involution_and_basis():
    pr = make_params(3, 2)
    assert transpose(transpose(sigma(pr))) == sigma(pr)
    assert transpose(basis(pr, 1, 2)) == basis(pr, 2, 1)
