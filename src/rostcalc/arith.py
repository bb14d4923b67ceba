"""Exact arithmetic in the integers localized at a prime p.

Values are plain ``fractions.Fraction`` objects; a value lies in Z_(p)
exactly when its denominator is coprime to p.
``Fraction`` already keeps the canonical form (reduced, positive
denominator), so normalization is free; the p-coprimality of denominators
is checked at the boundary of each operation that needs it.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


def as_local(x) -> Fraction:
    """Coerce an int, string ("7", "-2/5") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as a p-local integer" % (x,))


def is_prime(p) -> bool:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    return p


def is_local(x, p: int) -> bool:
    """True iff x lies in Z_(p): denominator coprime to p."""
    return as_local(x).denominator % p != 0


def _int_val(m: int, p: int) -> int:
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def val(x, p: int):
    """p-adic valuation of x; val(0) = +inf.

    >>> val(63, 3)
    2
    >>> val(Fraction(1, 4), 3)
    0
    """
    check_prime(p)
    x = as_local(x)
    if x == 0:
        return INF
    return _int_val(x.numerator, p) - _int_val(x.denominator, p)


def reduce_mod(x, p: int) -> int:
    """Residue of x in [0, p); requires val(x, p) >= 0."""
    check_prime(p)
    x = as_local(x)
    if x.denominator % p == 0:
        raise ValueError("cannot reduce %s mod %d: negative valuation" % (x, p))
    return x.numerator * pow(x.denominator, -1, p) % p


def congruent_mod(x, y, p: int) -> bool:
    """True iff val(x - y, p) >= 1 (both assumed in Z_(p))."""
    diff = as_local(x) - as_local(y)
    if diff == 0:
        return True
    if diff.denominator % p == 0:
        raise ValueError("congruence undefined outside Z_(p)")
    return diff.numerator % p == 0


def multinomial(parts) -> int:
    """Exact multinomial coefficient (sum(parts); parts)."""
    total, r = 0, 1
    for q in parts:
        total += q
        r *= math.comb(total, q)
    return r


def require_unit(x, p: int) -> Fraction:
    x = as_local(x)
    if val(x, p) != 0:
        raise ValueError("expected a p-unit, got %s with val_%d = %s" % (x, p, val(x, p)))
    return x
