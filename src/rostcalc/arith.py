"""Exact arithmetic in the integers localized at a prime p.

A scalar is a ``fractions.Fraction``; it lies in Z_(p) exactly when its
denominator is coprime to p, which is checked at the boundary of each
operation that needs it.  A vector of scalars (``SparseVec``,
``EndTuple``) is stored as integer numerators over one positive
denominator in lowest terms, the form ``lowest_terms`` gives.  Every
entry point checks p with ``is_prime``, one deterministic Miller-Rabin
test that refuses p it cannot decide exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

# Powers by repeated squaring and every value ``eval`` builds refuse a
# coefficient whose numerator or denominator has more bits than this, well
# inside the 4,300 decimal digits Python will print, so a huge exponent
# fails at once and not after minutes.  make_params refuses a symbol whose
# b, c or d could pass it, and endalg.invert a tuple whose numerators' lcm
# would.
MAX_COEFF_BITS = 10_000


def lowest_terms(nums, den: int):
    """The ints nums over a nonzero den, both divided by gcd(den, *nums)
    with the sign that makes den positive.  nums is a sequence, returned
    as a tuple, or a dict {key: int} that also loses its zero values."""
    is_dict = isinstance(nums, dict)
    g = math.gcd(den, *(nums.values() if is_dict else nums)) * (-1 if den < 0 else 1)
    if not is_dict:
        return tuple(nums if g == 1 else [n // g for n in nums]), den // g
    if g == 1 and 0 not in nums.values():
        return nums, den
    return {key: n // g for key, n in nums.items() if n}, den // g


def as_local(x) -> Fraction:
    """Coerce an int, string ("7", "-2/5") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as a p-local integer" % (x,))


#: the first 13 primes: a strong probable prime to all of them as bases is
#: prime below MAX_PRIME, the least strong pseudoprime to these bases
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 86 (2017))
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_prime(p) -> bool:
    """Exact primality by deterministic Miller-Rabin over those of the
    first 13 prime bases that lie below p, proved exact up to MAX_PRIME
    (about 3.3 * 10^24); a ValueError above it."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    if p % 2 == 0:
        return False
    if p >= MAX_PRIME:
        raise ValueError(f"p too large: primality is decided only below "
                         f"{MAX_PRIME}")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for base in _MILLER_RABIN_BASES:
        if base >= p:
            break
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
