"""The endomorphism tuple algebra Lambda^p and its rational subalgebra.

An endomorphism of the split motive acts by a scalar on each of the p
graded pieces, so the algebra is Lambda^p with entrywise operations.  The
subalgebra of endomorphisms defined over the base field is
Lambda*1 + p*Lambda^p, which an entry tuple belongs to iff every entry has
val_p >= 0 and all entries are congruent mod p:

  t = a*(1,...,1) + p*u  ==>  entries pairwise congruent mod p;
  conversely, with a := t_0 the differences (t_i - a)/p are integral.

A tuple is stored like a SparseVec: integer numerators ``nums`` over one
positive denominator ``den`` in lowest terms (``arith.lowest_terms``), so
equal tuples have equal fields.  The operations work on these ints and
build no Fraction: a product multiplies numerators entrywise and the
denominators together, a sum works over lcm(den1, den2).  Only the
constructor ``EndTuple(p, entries)`` validates its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import MAX_COEFF_BITS, as_local, check_prime, lowest_terms, val


@dataclass(frozen=True, init=False)
class EndTuple:
    p: int
    nums: tuple
    den: int

    def __init__(self, p: int, entries):
        check_prime(p)
        entries = tuple(as_local(x) for x in entries)
        if len(entries) != p:
            raise ValueError("expected %d entries, got %d" % (p, len(entries)))
        # the lcm of reduced denominators leaves gcd(den, *nums) == 1
        den = math.lcm(*[x.denominator for x in entries])
        nums = tuple(x.numerator * (den // x.denominator) for x in entries)
        vars(self).update(p=p, nums=nums, den=den)

    @staticmethod
    def from_ints(p: int, nums, den: int = 1) -> "EndTuple":
        """The tuple with entries n/den for the ints n of nums, brought to
        lowest terms.  Nothing is checked: p must be prime and nums must
        have p entries."""
        t = object.__new__(EndTuple)
        nums, den = lowest_terms(nums, den)
        vars(t).update(p=p, nums=nums, den=den)
        return t

    @property
    def entries(self) -> tuple:
        """The entries as reduced Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, EndTuple):
            return NotImplemented
        self._check(other)
        return EndTuple.from_ints(self.p, [a * b for a, b in zip(self.nums, other.nums)],
                                  self.den * other.den)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, EndTuple):
            return NotImplemented
        self._check(other)
        den = math.lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        return EndTuple.from_ints(self.p, [a * u + b * v for a, b in zip(self.nums, other.nums)],
                                  den)

    def __neg__(self):
        return EndTuple.from_ints(self.p, [-n for n in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, EndTuple):
            return NotImplemented
        return self + (-other)

    def __pow__(self, r: int):
        """Entrywise power: composition of diagonal endomorphisms."""
        if not isinstance(r, int) or r < 0:
            raise ValueError("nonnegative integer power required")
        return EndTuple.from_ints(self.p, [n**r for n in self.nums], self.den**r)

    def scale(self, scalar) -> "EndTuple":
        s = scalar if isinstance(scalar, int) else as_local(scalar)
        return EndTuple.from_ints(self.p, [s.numerator * n for n in self.nums],
                                  s.denominator * self.den)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mismatched primes %d vs %d" % (self.p, other.p))

    def __str__(self):
        return "(%s)" % ", ".join(str(x) for x in self.entries)


def identity(p: int) -> EndTuple:
    return EndTuple(p, (1,) * p)


def is_rational(t: EndTuple) -> bool:
    """Membership in Lambda*1 + p*Lambda^p.  If p divides den, some
    numerator is prime to p (gcd(den, *nums) == 1), so that entry lies
    outside Z_(p).  Otherwise den is a p-unit and the entries are
    congruent mod p iff their numerators are.

    >>> is_rational(EndTuple(3, (1, 4, -5)))
    True
    >>> is_rational(EndTuple(3, (1, 2, 1)))
    False
    """
    p = t.p
    if t.den % p == 0:
        return False
    first = t.nums[0] % p
    return all(n % p == first for n in t.nums)


def invert(t: EndTuple) -> EndTuple:
    """Entrywise inverse; every entry must be a p-unit.  That holds iff p
    divides neither den nor any numerator: if p divides den, some entry
    has a numerator prime to p and so negative valuation.  ValueError
    also as soon as the lcm of the numerators, the inverse's unreduced den,
    passes MAX_COEFF_BITS bits.

    If t is rational with entry 0 equal to 1, all entries are 1 mod p and
    the inverse is again rational (the automorphism property).
    """
    p, den = t.p, t.den
    if den % p == 0 or any(n % p == 0 for n in t.nums):
        x = next(x for x in t.entries if val(x, p) != 0)
        raise ValueError("not invertible: entry %s has val_%d = %s" % (x, p, val(x, p)))
    m = 1
    for n in t.nums:
        m = math.lcm(m, n)
        if m.bit_length() > MAX_COEFF_BITS:
            raise ValueError(f"inverse too large: the lcm of the numerators "
                             f"would pass {MAX_COEFF_BITS} bits")
    return EndTuple.from_ints(p, [den * (m // n) for n in t.nums], m)
