import functools
import math
import operator
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import child_env
from rostcalc.arith import val
from rostcalc.corresp import (
    Corr,
    action_on_class,
    basis,
    comp_power,
    compose,
    diag_pullback,
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


@pytest.mark.parametrize("p", [p for p in range(2, 62)
                               if all(p % q for q in range(2, p))])
def test_rho_closed_form_equals_sigma_power(p):
    for e in (1, p + 1, Fraction(1, p + 1), -(p + 1)):
        pr = make_params(p, 1, e=e)
        assert rho(pr) == sigma(pr) ** (p - 1)


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
    t, min_off = projector_iterate(pr, 1)
    assert t.entries == (1, 64, 1)
    assert min_off == 2
    t0, v0 = projector_iterate(pr, 0)
    assert t0.entries == (1, 4, 1)
    assert v0 == 1
    # p = 2: rho' has tuple (1, 1); offsets vanish identically
    pr2 = make_params(2, 3)
    _, v = projector_iterate(pr2, 2)
    assert v == math.inf


GROWTH = pathlib.Path(__file__).parents[1] / "scripts" / "projector_growth.py"

GROWTH_OUT = """\
p = 2
  r=0: min val_p(entry - 1) = inf  tuple = (1, 1)
  r=1: min val_p(entry - 1) = inf  tuple = (1, 1)
  r=2: min val_p(entry - 1) = inf  tuple = (1, 1)
  r=3: min val_p(entry - 1) = inf  tuple = (1, 1)

p = 3
  r=0: min val_p(entry - 1) = 1  (bound r+1 = 1)  tuple = (1, 4, 1)
  r=1: min val_p(entry - 1) = 2  (bound r+1 = 2)  tuple = (1, 64, 1)
  r=2: min val_p(entry - 1) = 3  (bound r+1 = 3)  tuple = (1, 262144, 1)
  r=3: min val_p(entry - 1) = 4  (bound r+1 = 4)  tuple = (1, 18014398509481984, 1)

p = 5
  r=0: min val_p(entry - 1) = 1  (bound r+1 = 1)
  r=1: min val_p(entry - 1) = 2  (bound r+1 = 2)
  r=2: min val_p(entry - 1) = 3  (bound r+1 = 3)
  r=3: min val_p(entry - 1) = 4  (bound r+1 = 4)

"""


def test_projector_growth_script_subprocess():
    """The script is the only caller of projector_iterate outside the
    tests; its output is pinned byte for byte."""
    proc = subprocess.run([sys.executable, str(GROWTH), "--primes", "2", "3",
                           "5", "--max-r", "3", "--show-tuples"],
                          capture_output=True, text=True, timeout=30,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GROWTH_OUT
    assert proc.stderr == ""


# --- the common-denominator products against the Fraction-pair oracles ----------

#: coefficients with mixed denominators, some of them divisible by p
MIXED = st.builds(Fraction, st.integers(-12, 12),
                  st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12, 49)))


def _mul_oracle(x, y):
    """The intersection product with one Fraction multiply and one
    Fraction add per pair of terms."""
    top = x.params.p - 1
    out = {}
    for (i, j), u in x.items():
        for (k, l), v in y.items():
            if i + k <= top and j + l <= top:
                key = (i + k, j + l)
                out[key] = out.get(key, Fraction(0)) + u * v
    return Corr(x.params, out)


def _compose_oracle(beta, alpha):
    """compose(beta, alpha) with Fraction arithmetic per pair of terms."""
    params = beta.params
    top = params.p - 1
    out = {}
    for (i, j), u in alpha.items():
        for (k, l), v in beta.items():
            if k == top - j:
                out[i, l] = out.get((i, l), Fraction(0)) + params.e * u * v
    return Corr(params, out)


def _assert_canonical(v):
    """v is stored in the one normal form: int numerators over a positive
    int den, coprime to them as a whole; a vector has no zero numerator,
    a tuple one per entry."""
    if isinstance(v.nums, dict):
        nums = list(v.nums.values())
        assert 0 not in nums
    else:
        nums = v.nums
        assert len(nums) == v.p
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int for n in nums)
    assert math.gcd(v.den, *nums) == 1


@st.composite
def corr_pairs(draw, antidiagonal=False):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # a negative e makes compose and to_tuple normalise the sign
    pr = make_params(p, 2, e=draw(st.sampled_from(
        (1, p + 1, Fraction(1, p + 1), -(p + 1)))))
    if antidiagonal:
        keys = st.sampled_from([(i, p - 1 - i) for i in range(p)])
    else:
        keys = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
    coeffs = st.dictionaries(keys, MIXED, max_size=min(p * p, 6))
    return Corr(pr, draw(coeffs)), Corr(pr, draw(coeffs))


P3E4 = make_params(3, 2, e=4)
P2E3 = make_params(2, 2, e=3)


@settings(max_examples=300, deadline=None)
@given(corr_pairs())
# sigma * (E(0,1) + E(1,0)): the E(1,1) terms cancel
@example((sigma(P3E4), Corr(P3E4, {(0, 1): 1, (1, 0): 1})))
# alpha = E(0,0) + E(0,1) against beta = E(1,0) - E(0,0): compose cancels
@example((Corr(P2E3, {(1, 0): 1, (0, 0): -1}), Corr(P2E3, {(0, 0): 1, (0, 1): 1})))
@example((Corr(P3E4, {(0, 2): Fraction(1, 6), (1, 1): Fraction(-3, 4)}),
          Corr(P3E4, {(2, 0): Fraction(2, 9), (1, 2): Fraction(5, 3)})))
def test_products_match_fraction_oracles(pair):
    x, y = pair
    for got, want in ((x * y, _mul_oracle(x, y)),
                      (x @ y, _compose_oracle(x, y)),
                      (compose(y, x), _compose_oracle(y, x))):
        assert got == want
        assert str(got) == str(want)
    top = x.params.p - 1
    for got in (x * y, x @ y, x + y, x - y, -x, x.scale(Fraction(-3, 2)), x.scale(0),
                transpose(x), diag_pullback(x), action_on_class(x, top)):
        _assert_canonical(got)
    for r in (1, 2, 3):
        assert x ** r == functools.reduce(_mul_oracle, [x] * r)
        assert comp_power(x, r) == functools.reduce(_compose_oracle, [x] * r)


@settings(max_examples=200, deadline=None)
@given(corr_pairs(antidiagonal=True))
def test_tuple_round_trips_with_mixed_denominators(pair):
    a, b = pair
    pr = a.params
    top = pr.p - 1
    _assert_canonical(to_tuple(a))
    _assert_canonical(to_tuple(b) * to_tuple(a))
    assert to_tuple(a).entries == tuple(pr.e * a.coeff(i, top - i) for i in range(pr.p))
    assert to_tuple(b @ a) == to_tuple(b) * to_tuple(a)
    assert to_tuple(a + b) == to_tuple(a) + to_tuple(b)
    assert to_tuple(b) * to_tuple(a) == to_tuple(_compose_oracle(b, a))


def test_operations_build_no_fraction(monkeypatch):
    """Only the constructors and the read-outs (coeff, items, entries,
    str) build Fractions; the operations work on the stored ints."""
    pr = make_params(3, 2, e=Fraction(-4, 5))
    a = Corr(pr, {(0, 2): Fraction(1, 6), (1, 1): Fraction(-3, 4), (2, 0): 2})
    b = Corr(pr, {(0, 1): Fraction(2, 7), (1, 1): 5, (2, 2): Fraction(1, 2)})
    q = Fraction(-3, 2)
    t = to_tuple(a)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    results = [a + b, a - b, -a, a.scale(q), a.scale(-2), 3 * a, a * b, a @ b,
               compose(b, a), transpose(a), diag_pullback(a),
               action_on_class(a, 1), to_tuple(a), t * t, t + t, t - t, -t,
               t ** 3, t.scale(q), a == b, hash(a)]
    monkeypatch.undo()
    assert results[5] == a.scale(3)


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
