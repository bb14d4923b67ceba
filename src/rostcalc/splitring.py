"""Symbol parameters and the truncated Chow ring of the split Rost motive.

The split model is the span of 1, H, ..., H^{p-1}; products truncate past
H^{p-1} (the codimension would exceed d), and the degree functional reads
off e times the top coefficient.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .arith import MAX_COEFF_BITS, as_local, check_prime, lowest_terms, require_unit


class SymbolParams:
    """Parameters (p, n) of the symbol with the derived b, c, d and the
    degree unit e = deg(H^{p-1}).  Immutable; equal parameters are equal
    and hash alike, so they key caches.  Slots, not a named tuple: the
    engines read these fields in their inner loops."""

    __slots__ = ("p", "n", "b", "c", "d", "e")

    def __init__(self, p: int, n: int, b: int, c: int, d: int, e: Fraction):
        for name, value in zip(self.__slots__, (p, n, b, c, d, e)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of SymbolParams")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of SymbolParams")

    def _key(self):
        return self.p, self.n, self.b, self.c, self.d, self.e

    def __eq__(self, other):
        if type(other) is not SymbolParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SymbolParams(p=%r, n=%r, b=%r, c=%r, d=%r, e=%r)" % self._key()


def make_params(p: int, n: int, e=1) -> SymbolParams:
    """Build SymbolParams, failing loudly on any broken invariant.

    >>> make_params(3, 2).b, make_params(3, 2).c, make_params(3, 2).d
    (4, 13, 8)
    """
    check_prime(p)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer, got %r" % (n,))
    # c < p^(n+1) is the largest derived number; p^(n+1) is at least
    # 2^((n+1)(bits(p)-1)), so the first test refuses a huge n before any
    # power is computed
    if ((n + 1) * (p.bit_length() - 1) > MAX_COEFF_BITS
            or (p ** (n + 1)).bit_length() > MAX_COEFF_BITS):
        raise ValueError(f"symbol too large: p^(n+1) would pass "
                         f"{MAX_COEFF_BITS} bits at p={p} n={n}")
    e = require_unit(as_local(e), p)
    b = (p**n - 1) // (p - 1)
    c = (p ** (n + 1) - 1) // (p - 1)
    d = p**n - 1
    # cross-checked identities
    if not (c == b * p + 1 == b + p**n and d == b * (p - 1) == c - b - 1):
        raise ValueError("broken identities between b, c, d at (%d, %d)" % (p, n))
    return SymbolParams(p=p, n=n, b=b, c=c, d=d, e=e)


# An intersection product visits every pair of terms of its factors to keep
# those that survive truncation, at about 0.1 s per million pairs; rho*rho
# at p = 997 is in bound, at p = 1,009 past it.
MAX_PRODUCT_PAIRS = 10 ** 6


def _check_coeff_size(x, what="power"):
    """Return x, or raise ValueError if a coefficient of it, in lowest
    terms, passes MAX_COEFF_BITS.  x is a scalar, a boolean, a SparseVec or
    an EndTuple.  Reducing n/den only shrinks n and den, so a coefficient of
    the last two is reduced only when one of them passes the bound."""
    # isinstance(x, Fraction) goes through ABCMeta: slower than the rest of
    # a small vector's check
    if isinstance(x, int) or type(x) is Fraction:
        terms = [(x.numerator, x.denominator)]
    else:
        den, nums = x.den, x.nums.values() if isinstance(x, SparseVec) else x.nums
        big = den.bit_length() > MAX_COEFF_BITS
        if not big and max(map(int.bit_length, nums), default=0) <= MAX_COEFF_BITS:
            return x
        terms = [(n // math.gcd(n, den), den // math.gcd(n, den)) for n in nums
                 if big or n.bit_length() > MAX_COEFF_BITS]
    if any(n.bit_length() > MAX_COEFF_BITS or d.bit_length() > MAX_COEFF_BITS
           for n, d in terms):
        raise ValueError(f"{what} too large: a coefficient would pass "
                         f"{MAX_COEFF_BITS} bits")
    return x


def repeated_squaring(x, r: int, product):
    """x * x * ... * x (r >= 1 factors) under an associative ``product``,
    in O(log r) products, each checked against MAX_COEFF_BITS.  x is a
    scalar, a SparseVec or an EndTuple."""
    out = None
    while True:
        if r & 1:
            out = x if out is None else _check_coeff_size(product(out, x))
        r >>= 1
        if not r:
            return out
        x = _check_coeff_size(product(x, x))


class SparseVec:
    """A Z_(p)-linear combination of basis elements, stored like an
    EndTuple: a dict ``nums`` from index to nonzero int over one positive
    int ``den``, in lowest terms (``arith.lowest_terms``), so equal
    vectors have equal fields.  The operations work on these ints and
    build no Fraction.  Only the constructor validates its input, and only
    ``coeff``, ``items``, ``degree`` and ``str`` give Fractions back.

    Subclasses fix the index (``_check`` validates one against the top
    exponent p-1), the unit of the intersection product (``_ONE``), the
    printed name of a basis element (``_term``), and the product itself.
    """

    __slots__ = ("params", "nums", "den")

    _ONE = None

    def __init__(self, params: SymbolParams, coeffs=None):
        top = params.p - 1
        values = {}
        for key, v in (coeffs or {}).items():
            self._check(key, top)
            values[key] = as_local(v)
        den = math.lcm(*[v.denominator for v in values.values()])
        self.params = params
        self.nums, self.den = lowest_terms(
            {key: v.numerator * (den // v.denominator)
             for key, v in values.items()}, den)

    @classmethod
    def from_ints(cls, params, nums, den=1):
        """The vector {key: n / den} for the ints n of nums, brought to
        lowest terms.  The keys are not checked: the operations only form
        valid ones."""
        out = object.__new__(cls)
        out.params = params
        out.nums, out.den = lowest_terms(nums, den)
        return out

    def items(self):
        den = self.den
        return [(key, Fraction(n, den)) for key, n in sorted(self.nums.items())]

    def is_zero(self) -> bool:
        return not self.nums

    def _check_params(self, other):
        if self.params != other.params:
            raise ValueError("mismatched parameters: %r vs %r" % (self.params, other.params))

    def _check_product(self, other):
        """_check_params, and refuse an intersection product of more than
        MAX_PRODUCT_PAIRS term pairs before it visits any of them."""
        self._check_params(other)
        if len(self.nums) * len(other.nums) > MAX_PRODUCT_PAIRS:
            raise ValueError(f"product too large: {len(self.nums)} x {len(other.nums)} "
                             f"terms, more than {MAX_PRODUCT_PAIRS} term pairs")

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.params == other.params and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.params, self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_params(other)
        den = math.lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        out = {key: n * u for key, n in self.nums.items()}
        for key, n in other.nums.items():
            out[key] = out.get(key, 0) + n * v
        return self.from_ints(self.params, out, den)

    def __neg__(self):
        return self.from_ints(self.params, {key: -n for key, n in self.nums.items()},
                              self.den)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        s = scalar if isinstance(scalar, int) else as_local(scalar)
        return self.from_ints(self.params,
                              {key: s.numerator * n for key, n in self.nums.items()},
                              s.denominator * self.den)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def __pow__(self, r: int):
        """r-fold intersection power; the zeroth power is the unit."""
        if not isinstance(r, int) or r < 0:
            raise ValueError("nonnegative integer power required")
        if r == 0:
            return self.from_ints(self.params, {self._ONE: 1})
        return repeated_squaring(self, r, operator.mul)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for key, v in self.items():
            name = self._term(key)
            if not name:  # the unit prints as its coefficient alone
                parts.append(str(v))
            else:
                parts.append(name if v == 1 else "%s*%s" % (v, name))
        return " + ".join(parts)

    def __repr__(self):
        return "%s(p=%d, %s)" % (type(self).__name__, self.params.p, self)


class ChowClass(SparseVec):
    """An element of span(1, H, ..., H^{p-1}) with Z_(p) coefficients,
    keyed by the H-exponent k."""

    __slots__ = ()

    _ONE = 0

    @staticmethod
    def _check(k, top):
        if not 0 <= k <= top:
            raise ValueError("H-exponent %r outside [0, %d]" % (k, top))

    @staticmethod
    def _term(k):
        return "" if k == 0 else ("H" if k == 1 else "H^%d" % k)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums.get(k, 0), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_product(other)
        top = self.params.p - 1
        out = {}
        for i, u in self.nums.items():
            for j, v in other.nums.items():
                if i + j <= top:  # truncation: codim of H^{i+j} would exceed d
                    out[i + j] = out.get(i + j, 0) + u * v
        return ChowClass.from_ints(self.params, out, self.den * other.den)

    def degree(self) -> Fraction:
        """e times the H^{p-1} coefficient (push-forward to a point)."""
        return self.params.e * self.coeff(self.params.p - 1)


def h_power(params: SymbolParams, k: int) -> ChowClass:
    """The basis class H^k, 0 <= k <= p-1."""
    return ChowClass(params, {k: 1})
