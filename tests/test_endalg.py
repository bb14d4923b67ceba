import itertools
import random
from fractions import Fraction

import pytest

from rostcalc.endalg import EndTuple, identity, invert, is_rational

PRIMES = [2, 3, 5, 7]


def _local(rng, p):
    return Fraction(rng.randint(-40, 40), rng.choice([q for q in range(1, 30) if q % p]))


def random_rational_tuple(rng, p):
    """Element of Lambda*1 + p*Lambda^p."""
    a = _local(rng, p)
    return EndTuple(p, tuple(a + p * _local(rng, p) for _ in range(p)))


def test_membership_examples():
    assert is_rational(EndTuple(3, (1, 4, -5)))
    assert not is_rational(EndTuple(3, (1, 2, 1)))
    lam = Fraction(7, 4)
    assert is_rational(EndTuple(3, (lam, lam, lam)))
    assert not is_rational(EndTuple(3, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))))


def test_invert_examples():
    t = invert(EndTuple(3, (1, 4, -5)))
    assert t == EndTuple(3, (1, Fraction(1, 4), Fraction(-1, 5)))
    assert is_rational(t)
    assert invert(identity(5)) == identity(5)
    with pytest.raises(ValueError):
        invert(EndTuple(3, (1, 3, 1)))


def test_p_scale():
    # p*t is rational for any integral t ...
    assert is_rational(EndTuple(3, (0, 1, 2)).scale(3))
    assert is_rational(identity(5).scale(5))
    assert is_rational(EndTuple(5, (1, 2, 3, 4, 0)).scale(5))
    # ... but not without integrality
    assert not is_rational(EndTuple(3, (Fraction(1, 3), 0, 0)).scale(3))


@pytest.mark.parametrize("p", PRIMES)
def test_subalgebra_closure(p):
    rng = random.Random(1000 + p)
    for _ in range(200):
        s = random_rational_tuple(rng, p)
        t = random_rational_tuple(rng, p)
        assert is_rational(s * t)
        assert is_rational(s + t)
        assert is_rational(s.scale(_local(rng, p)))


@pytest.mark.parametrize("p", PRIMES)
def test_automorphism_property(p):
    # every rational tuple with entry 0 equal to 1 is a 1-unit tuple,
    # invertible, with rational inverse
    rng = random.Random(2000 + p)
    for _ in range(500):
        t = EndTuple(p, (1,) + tuple(1 + p * _local(rng, p) for _ in range(p - 1)))
        assert is_rational(t)
        assert all((x - 1).numerator % p == 0 or x == 1 for x in t.entries)
        inv = invert(t)
        assert is_rational(inv)
        assert t * inv == identity(p)


@pytest.mark.parametrize("p", PRIMES)
def test_rational_idempotents_are_trivial(p):
    # idempotents of Lambda^p have 0/1 entries; mixed ones are not rational
    for bits in itertools.product((0, 1), repeat=p):
        t = EndTuple(p, bits)
        assert t * t == t
        assert is_rational(t) == (len(set(bits)) == 1)


def test_composition_is_entrywise_and_identity():
    t = EndTuple(3, (2, 3, 4))
    s = EndTuple(3, (5, 7, 11))
    assert t * s == EndTuple(3, (10, 21, 44))
    assert t * identity(3) == t
    assert t.mult() == 2
    assert t**2 == EndTuple(3, (4, 9, 16))


def test_entry_count_enforced():
    with pytest.raises(ValueError):
        EndTuple(3, (1, 2))
