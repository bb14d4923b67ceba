"""The endomorphism tuple algebra Lambda^p and its rational subalgebra.

An endomorphism of the split motive acts by a scalar on each of the p
graded pieces, so the algebra is Lambda^p with entrywise operations.  The
subalgebra of endomorphisms defined over the base field is
Lambda*1 + p*Lambda^p, which an entry tuple belongs to iff every entry has
val_p >= 0 and all entries are congruent mod p:

  t = a*(1,...,1) + p*u  ==>  entries pairwise congruent mod p;
  conversely, with a := t_0 the differences (t_i - a)/p are integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import as_local, check_prime, congruent_mod, val


@dataclass(frozen=True)
class EndTuple:
    p: int
    entries: tuple

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "entries", tuple(as_local(x) for x in self.entries))
        if len(self.entries) != self.p:
            raise ValueError("expected %d entries, got %d" % (self.p, len(self.entries)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, EndTuple):
            return NotImplemented
        self._check(other)
        return EndTuple(self.p, tuple(a * b for a, b in zip(self.entries, other.entries)))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, EndTuple):
            return NotImplemented
        self._check(other)
        return EndTuple(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, EndTuple):
            return NotImplemented
        return self + (-other)

    def __pow__(self, r: int):
        """Entrywise power: composition of diagonal endomorphisms."""
        if not isinstance(r, int) or r < 0:
            raise ValueError("nonnegative integer power required")
        return EndTuple(self.p, tuple(x**r for x in self.entries))

    def scale(self, scalar) -> "EndTuple":
        s = as_local(scalar)
        return EndTuple(self.p, tuple(s * x for x in self.entries))

    def mult(self) -> Fraction:
        """Multiplicity: the action on the degree-0 piece."""
        return self.entries[0]

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mismatched primes %d vs %d" % (self.p, other.p))

    def __str__(self):
        return "(%s)" % ", ".join(str(x) for x in self.entries)


def identity(p: int) -> EndTuple:
    return EndTuple(p, (Fraction(1),) * p)


def is_rational(t: EndTuple) -> bool:
    """Membership in Lambda*1 + p*Lambda^p.

    >>> is_rational(EndTuple(3, (1, 4, -5)))
    True
    >>> is_rational(EndTuple(3, (1, 2, 1)))
    False
    """
    if any(val(x, t.p) < 0 for x in t.entries):
        return False
    first = t.entries[0]
    return all(congruent_mod(x, first, t.p) for x in t.entries[1:])


def invert(t: EndTuple) -> EndTuple:
    """Entrywise inverse; every entry must be a p-unit.

    If t is rational with entry 0 equal to 1, all entries are 1 mod p and
    the inverse is again rational (the automorphism property).
    """
    for x in t.entries:
        if val(x, t.p) != 0:
            raise ValueError("not invertible: entry %s has val_%d = %s" % (x, t.p, val(x, t.p)))
    return EndTuple(t.p, tuple(1 / x for x in t.entries))
