import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rostcalc.arith import val
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


def test_invert_bounds_the_lcm_of_the_numerators():
    """An lcm of 10,000 bits inverts; one bit more is refused."""
    assert invert(EndTuple(3, (2 ** 9999, 1, 1))).den == 2 ** 9999
    with pytest.raises(ValueError, match="inverse too large: the lcm of the "
                                         "numerators would pass 10000 bits"):
        invert(EndTuple(3, (2 ** 5000, 5 ** 2160, 1)))


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
    assert t.entries[0] == 2
    assert t**2 == EndTuple(3, (4, 9, 16))


def test_entry_count_enforced():
    with pytest.raises(ValueError):
        EndTuple(3, (1, 2))


# --- the residue tests against the valuation definition -------------------------


@st.composite
def end_tuples(draw, p=None):
    """Tuples that are often rational or units: entries with p in the
    denominator, zero entries, and entries near a shared residue."""
    if p is None:
        p = draw(st.sampled_from(PRIMES))
    entry = st.just(Fraction(0)) | st.builds(
        lambda num, k, q: Fraction(num, p**k * q),
        st.integers(-3 * p, 3 * p), st.sampled_from((0, 0, 0, 1, 2)),
        st.sampled_from([q for q in range(1, 10) if q % p]))
    base = draw(entry)
    entries = [base + draw(st.sampled_from((0, 1, p, p * p))) * draw(entry)
               for _ in range(p)]
    return EndTuple(p, tuple(draw(st.permutations(entries))))


def rational_by_valuation(t):
    first = t.entries[0]
    return (all(val(x, t.p) >= 0 for x in t.entries)
            and all(val(x - first, t.p) >= 1 for x in t.entries))


@settings(max_examples=400, deadline=None)
@given(end_tuples())
@example(EndTuple(2, (0, 0)))
@example(EndTuple(2, (0, 2)))
@example(EndTuple(2, (Fraction(1, 2), Fraction(1, 2))))
@example(EndTuple(2, (1, Fraction(3, 5))))
@example(EndTuple(3, (Fraction(1, 4), 1, Fraction(-5, 2))))
@example(EndTuple(3, (Fraction(1, 3), 1, 1)))
@example(EndTuple(3, (1, 1, Fraction(1, 3))))
def test_residue_tests_match_valuations(t):
    assert is_rational(t) == rational_by_valuation(t)
    if all(val(x, t.p) == 0 for x in t.entries):
        assert invert(t) * t == identity(t.p)
    else:
        with pytest.raises(ValueError, match="not invertible"):
            invert(t)


# --- the integer form against per-entry Fraction operations ---------------------


def _invert_oracle(entries, p):
    for x in entries:
        if x.numerator % p == 0 or x.denominator % p == 0:
            raise ValueError("not invertible: entry %s has val_%d = %s" % (x, p, val(x, p)))
    return tuple(1 / x for x in entries)


def _is_rational_oracle(entries, p):
    first = entries[0]
    a, b = first.numerator, first.denominator
    return b % p != 0 and all((a * x.denominator - x.numerator * b) % p == 0
                              for x in entries[1:])


def _assert_canonical(t, entries):
    """t holds the given entries in the one normal form: a positive den
    coprime to the numerators as a whole."""
    assert type(t.den) is int and t.den > 0 and len(t.nums) == t.p
    assert all(type(n) is int for n in t.nums)
    assert math.gcd(t.den, *t.nums) == 1
    assert t.entries == tuple(entries)
    assert all(type(x) is Fraction for x in t.entries)
    assert t == EndTuple(t.p, entries) and hash(t) == hash(EndTuple(t.p, entries))
    assert str(t) == "(%s)" % ", ".join(str(x) for x in entries)


@st.composite
def tuple_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(end_tuples(p)), draw(end_tuples(p))


SCALARS = st.builds(Fraction, st.integers(-12, 12),
                    st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 12, 49)))


@settings(max_examples=250, deadline=None)
@given(tuple_pairs(), SCALARS, st.integers(0, 4))
@example((EndTuple(3, (Fraction(1, 6), 0, 1)), EndTuple(3, (Fraction(1, 3), 0, -1))),
         Fraction(0), 0)
@example((EndTuple(2, (Fraction(1, 2), Fraction(3, 4))),
          EndTuple(2, (Fraction(-1, 2), Fraction(1, 4)))), Fraction(4, 3), 3)
def test_operations_match_per_entry_oracle(pair, scalar, r):
    s, t = pair
    p = s.p
    a, b = s.entries, t.entries
    _assert_canonical(s + t, [x + y for x, y in zip(a, b)])
    _assert_canonical(s - t, [x - y for x, y in zip(a, b)])
    _assert_canonical(-s, [-x for x in a])
    _assert_canonical(s * t, [x * y for x, y in zip(a, b)])
    _assert_canonical(s ** r, [x**r for x in a])
    _assert_canonical(s.scale(scalar), [scalar * x for x in a])
    _assert_canonical(scalar * s, [scalar * x for x in a])
    assert s.entries[0] == a[0]
    assert is_rational(s) == _is_rational_oracle(a, p)
    try:
        want = _invert_oracle(a, p)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            invert(s)
        assert str(got.value) == str(exc)
    else:
        _assert_canonical(invert(s), want)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_from_ints_is_the_canonical_form(p, data):
    nums = data.draw(st.lists(st.integers(-50, 50), min_size=p, max_size=p))
    den = data.draw(st.integers(-60, 60).filter(bool))  # a negative den flips signs
    _assert_canonical(EndTuple.from_ints(p, nums, den), [Fraction(n, den) for n in nums])


def test_equal_values_in_different_forms_are_one_tuple():
    half = EndTuple(3, (Fraction(1, 2), 1, 1))
    for other in (EndTuple(3, ("2/4", "3/3", 1)),
                  EndTuple.from_ints(3, (2, 4, 4), 4),
                  EndTuple(3, (Fraction(1, 4), 1, 1)) * EndTuple(3, (2, 1, 1))):
        assert (other.nums, other.den) == ((1, 2, 2), 2)
        assert other == half and hash(other) == hash(half)
        assert str(other) == str(half) == "(1/2, 1, 1)"
    total = EndTuple(3, (Fraction(1, 6), 0, 0)) + EndTuple(3, (Fraction(1, 3), 0, 0))
    assert total == EndTuple(3, (Fraction(1, 2), 0, 0))
    assert hash(total) == hash(EndTuple(3, (Fraction(1, 2), 0, 0)))
    assert str(total) == "(1/2, 0, 0)"
    assert total.entries == (Fraction(1, 2), 0, 0)
    zero = half - half
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)
    assert zero == half.scale(0) == EndTuple(3, (0, 0, 0))
