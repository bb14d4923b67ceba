import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rostcalc import steenrod
from rostcalc.arith import MAX_COEFF_BITS
from rostcalc.endalg import EndTuple
from rostcalc.splitring import ChowClass, _check_coeff_size, h_power, make_params


def test_params_examples():
    pr = make_params(3, 2)
    assert (pr.b, pr.c, pr.d) == (4, 13, 8)
    pr = make_params(2, 3)
    assert (pr.b, pr.c, pr.d) == (7, 15, 7)
    pr = make_params(2, 1)
    assert (pr.b, pr.c, pr.d) == (1, 3, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("n", range(1, 7))
def test_params_identities(p, n):
    pr = make_params(p, n)
    assert pr.b == (p**n - 1) // (p - 1)
    assert pr.c == pr.b * p + 1 == pr.b + p**n
    assert pr.d == pr.b * (p - 1) == pr.c - pr.b - 1


def test_params_symbol_size_bound():
    # c < p^(n+1) must fit MAX_COEFF_BITS: 2^9999 has 10,000 bits
    assert make_params(2, 9998).d == 2**9998 - 1
    for p, n in ((2, 9999), (3, 10**18), (10**9 + 7, 1200)):
        with pytest.raises(ValueError, match="symbol too large"):
            make_params(p, n)


def test_params_rejections():
    with pytest.raises(ValueError):
        make_params(4, 2)
    with pytest.raises(ValueError):
        make_params(3, 0)
    with pytest.raises(ValueError):
        make_params(3, 2, e=3)  # non-unit degree
    with pytest.raises(ValueError):
        make_params(3, 2, e=Fraction(3, 2))


def test_params_are_immutable_cache_keys():
    """Equal parameters are equal and hash alike, so a cache keyed on
    them hits for a second make_params of the same symbol; no field can be
    assigned or deleted."""
    a, b = make_params(3, 2), make_params(3, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_params(3, 2, e=2) and a != make_params(3, 3)
    assert repr(a) == "SymbolParams(p=3, n=2, b=4, c=13, d=8, e=Fraction(1, 1))"
    steenrod._rationality_support(a)
    hits = steenrod._rationality_support.cache_info().hits
    steenrod._rationality_support(b)
    assert steenrod._rationality_support.cache_info().hits == hits + 1
    with pytest.raises(AttributeError):
        a.p = 5
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.p
    assert (a.p, a.n, a.b, a.c, a.d, a.e) == (3, 2, 4, 13, 8, 1)


def test_coeff_size_bound_reads_lowest_terms():
    """A vector passes while every coefficient in lowest terms has at most
    MAX_COEFF_BITS bits, even when its common denominator has more."""
    big, odd = 2 ** (MAX_COEFF_BITS - 1), 3 ** 6000  # 10,000 and 9,510 bits
    pr = make_params(3, 2)
    cases = [
        (ChowClass.from_ints(pr, {0: 2 * big - 1, 1: -1}), True),
        (ChowClass.from_ints(pr, {0: 2 * big}), False),
        (ChowClass.from_ints(pr, {0: odd, 2: big}, odd * big), True),
        (ChowClass.from_ints(pr, {0: 1}, 2 * big), False),
        (EndTuple.from_ints(2, (odd, big), odd * big), True),
        (EndTuple.from_ints(2, (1, 0), odd * big), False),
        (EndTuple.from_ints(2, (-2 * big + 1, 0)), True),
        (Fraction(1, 2 * big - 1), True),
        (Fraction(1, 2 * big), False),
        (2 * big, False),
        (True, True),
    ]
    for value, ok in cases:
        if ok:
            assert _check_coeff_size(value) is value
        else:
            with pytest.raises(ValueError, match="value too large"):
                _check_coeff_size(value, "value")


def test_truncation():
    pr = make_params(3, 2)
    h2 = h_power(pr, 2)
    assert (h2 * h2).is_zero()
    pr5 = make_params(5, 2)
    one_plus_h = h_power(pr5, 0) + h_power(pr5, 1)
    assert one_plus_h * h_power(pr5, 3) == h_power(pr5, 3) + h_power(pr5, 4)
    assert h_power(pr, 0) * h2 == h2


def test_product_pair_bound():
    """A product of more than 10^6 term pairs is refused before the loop;
    its factors alone are in bound."""
    pr = make_params(1009, 1)
    full = ChowClass(pr, {k: 1 for k in range(1009)})
    assert (full * h_power(pr, 1)).coeff(1008) == 1
    with pytest.raises(ValueError, match="product too large: 1009 x 1009 "
                                         "terms, more than 1000000 term "
                                         "pairs"):
        full * full


def test_degree():
    pr = make_params(3, 2, e=4)
    assert h_power(pr, 2).degree() == 4
    assert h_power(pr, 0).degree() == 0
    assert (h_power(pr, 2).scale(2) + h_power(pr, 1)).degree() == 8
    pr1 = make_params(5, 2)
    assert h_power(pr1, 4).degree() == pr1.e


def test_mismatched_params_rejected():
    a = h_power(make_params(3, 2), 1)
    b = h_power(make_params(3, 3), 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def _random_class(pr, data):
    coeffs = data.draw(
        st.dictionaries(
            st.integers(0, pr.p - 1),
            st.builds(Fraction, st.integers(-30, 30),
                      st.integers(1, 25).filter(lambda q: q % pr.p != 0)),
            max_size=pr.p,
        )
    )
    return ChowClass(pr, coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60)
@given(data=st.data())
def test_ring_laws(p, data):
    pr = make_params(p, 2)
    x = _random_class(pr, data)
    y = _random_class(pr, data)
    z = _random_class(pr, data)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=60)
@given(data=st.data())
def test_degree_is_the_top_pairing(p, data):
    pr = make_params(p, 2, e=p + 1)
    x = _random_class(pr, data)
    y = _random_class(pr, data)
    pairing = pr.e * sum(
        (x.coeff(i) * y.coeff(pr.p - 1 - i) for i in range(pr.p)), Fraction(0)
    )
    assert (x * y).degree() == pairing


def test_exponent_bounds():
    pr = make_params(3, 2)
    with pytest.raises(ValueError):
        ChowClass(pr, {3: 1})
    with pytest.raises(ValueError):
        ChowClass(pr, {-1: 1})
    assert ChowClass(pr).is_zero()


def test_str():
    pr = make_params(3, 2)
    assert str(ChowClass(pr)) == "0"
    assert str(h_power(pr, 2) + h_power(pr, 1).scale(2)) == "2*H + H^2"


# --- the common-denominator product against the Fraction-pair oracle ------------

#: coefficients with mixed denominators, some of them divisible by p
MIXED = st.builds(Fraction, st.integers(-12, 12),
                  st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12, 49)))


def _mul_oracle(x, y):
    """The truncated product with one Fraction multiply and one Fraction
    add per pair of terms."""
    top = x.params.p - 1
    out = {}
    for i, u in x.items():
        for j, v in y.items():
            if i + j <= top:
                out[i + j] = out.get(i + j, Fraction(0)) + u * v
    return ChowClass(x.params, out)


def _add_oracle(x, y):
    out = dict(x.items())
    for key, v in y.items():
        out[key] = out.get(key, Fraction(0)) + v
    return type(x)(x.params, out)


def _assert_canonical(v):
    """v is stored in the one normal form: nonzero int numerators over a
    positive int den, coprime to them as a whole."""
    assert type(v.den) is int and v.den > 0
    assert all(type(n) is int and n != 0 for n in v.nums.values())
    assert math.gcd(v.den, *v.nums.values()) == 1


@st.composite
def class_pairs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    pr = make_params(p, 2, e=draw(st.sampled_from((1, p + 1))))
    coeffs = st.dictionaries(st.integers(0, p - 1), MIXED, max_size=p)
    return ChowClass(pr, draw(coeffs)), ChowClass(pr, draw(coeffs))


P3 = make_params(3, 2, e=4)


@settings(max_examples=300, deadline=None)
@given(class_pairs())
# (1 + H)(H - 1) = H^2 - 1: the H terms cancel and the key must go
@example((ChowClass(P3, {0: 1, 1: 1}), ChowClass(P3, {0: -1, 1: 1})))
@example((ChowClass(P3, {0: Fraction(1, 6), 2: Fraction(-3, 4)}),
          ChowClass(P3, {0: Fraction(2, 9), 1: Fraction(5, 3)})))
def test_product_matches_fraction_oracle(pair):
    x, y = pair
    got = x * y
    assert got == _mul_oracle(x, y)
    assert str(got) == str(_mul_oracle(x, y))
    assert x + y == _add_oracle(x, y)
    assert x - y == _add_oracle(x, ChowClass(x.params, {k: -v for k, v in y.items()}))
    assert x.scale(Fraction(-3, 2)) == ChowClass(
        x.params, {k: Fraction(-3, 2) * v for k, v in x.items()})
    for v in (got, x + y, x - y, -x, x.scale(Fraction(-3, 2)), x.scale(0), x * 7):
        _assert_canonical(v)
