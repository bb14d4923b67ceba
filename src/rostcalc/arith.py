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


#: below this, primality is decided by trial division
TRIAL_DIVISION_BELOW = 2 ** 16
#: the first 13 primes: a strong probable prime to all of them as bases is
#: prime below MAX_PRIME, the least strong pseudoprime to these bases
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 86 (2017))
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_prime(p) -> bool:
    """Exact primality: trial division below 2^16, deterministic
    Miller-Rabin over the first 13 prime bases up to MAX_PRIME (about
    3.3 * 10^24); a ValueError above it, where the test is not proved."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    if p < TRIAL_DIVISION_BELOW:
        f = 3
        while f * f <= p:
            if p % f == 0:
                return False
            f += 2
        return True
    if p >= MAX_PRIME:
        raise ValueError(f"p too large: primality is decided only below "
                         f"{MAX_PRIME}")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
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
