import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rostcalc import arith

PRIMES = [2, 3, 5, 7]


def local_fractions(p):
    """Random elements of Z_(p): denominator coprime to p."""
    return st.builds(
        Fraction,
        st.integers(-10**6, 10**6),
        st.integers(1, 997).filter(lambda d: d % p != 0),
    )


def test_val_examples():
    assert arith.val(63, 3) == 2
    assert arith.val(0, 3) == math.inf
    assert arith.val(Fraction(1, 4), 3) == 0
    assert arith.val(Fraction(9, 5), 3) == 2
    assert arith.val(Fraction(5, 9), 3) == -2


def test_val_rejects_nonprime():
    with pytest.raises(ValueError):
        arith.val(6, 4)
    with pytest.raises(ValueError):
        arith.val(6, 1)


def test_reduce_mod_examples():
    assert arith.reduce_mod(Fraction(1, 4), 3) == 1
    assert arith.reduce_mod(3 * 7, 3) == 0
    assert arith.reduce_mod(-2, 5) == 3
    with pytest.raises(ValueError):  # no residue: p divides the denominator
        arith.reduce_mod(Fraction(1, 3), 3)


def test_multinomial():
    assert arith.multinomial([2, 1, 1]) == 12
    assert arith.multinomial([0, 0]) == 1


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=100)
@given(data=st.data())
def test_val_additive_under_product(p, data):
    x = data.draw(local_fractions(p))
    y = data.draw(local_fractions(p))
    vx, vy, vxy = arith.val(x, p), arith.val(y, p), arith.val(x * y, p)
    assert vxy == vx + vy


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=100)
@given(data=st.data())
def test_val_min_subadditive_under_sum(p, data):
    x = data.draw(local_fractions(p))
    y = data.draw(local_fractions(p))
    assert arith.val(x + y, p) >= min(arith.val(x, p), arith.val(y, p))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=50)
@given(data=st.data())
def test_normalization_idempotent(p, data):
    # Fraction normalizes on construction; re-normalizing is the identity.
    x = data.draw(local_fractions(p))
    assert Fraction(x.numerator, x.denominator) == x
    assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_unit_power_growth(p):
    import random

    rng = random.Random(20260826 + p)
    for _ in range(100):
        lam = 1 + p * Fraction(rng.randint(-40, 40), rng.choice([q for q in range(1, 30) if q % p]))
        for r in range(6):
            assert arith.val(lam ** p**r - 1, p) >= r + 1


def test_congruent_mod():
    assert arith.congruent_mod(Fraction(1, 4), 1, 3)
    assert not arith.congruent_mod(1, 2, 3)
    assert arith.congruent_mod(0, 0, 2)


def test_is_prime():
    assert [q for q in range(30) if arith.is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not arith.is_prime(True)
