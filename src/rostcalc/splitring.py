"""Symbol parameters and the truncated Chow ring of the split Rost motive.

The split model is the span of 1, H, ..., H^{p-1}; products truncate past
H^{p-1} (the codimension would exceed d), and the degree functional reads
off e times the top coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .arith import as_local, check_prime, require_unit


@dataclass(frozen=True)
class SymbolParams:
    """Parameters (p, n) of the symbol with the derived b, c, d and the
    degree unit e = deg(H^{p-1})."""

    p: int
    n: int
    b: int
    c: int
    d: int
    e: Fraction


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


# Powers by repeated squaring and every value ``eval`` builds refuse a
# coefficient whose numerator or denominator has more bits than this, well
# inside the 4,300 decimal digits Python will print, so a huge exponent
# fails at once and not after minutes.  make_params refuses a symbol whose
# b, c or d could pass it.
MAX_COEFF_BITS = 10_000


def _check_coeff_size(x, what="power"):
    """Return x, or raise ValueError if a coefficient of it passes
    MAX_COEFF_BITS.  x is a scalar, a boolean, a SparseVec or an entry
    tuple."""
    if isinstance(x, SparseVec):
        values = x._coeffs.values()
    else:
        values = getattr(x, "entries", (x,))
    for v in values:
        if (v.numerator.bit_length() > MAX_COEFF_BITS
                or v.denominator.bit_length() > MAX_COEFF_BITS):
            raise ValueError(f"{what} too large: a coefficient would pass "
                             f"{MAX_COEFF_BITS} bits")
    return x


def repeated_squaring(x, r: int, product):
    """x * x * ... * x (r >= 1 factors) under an associative ``product``,
    in O(log r) products, each checked against MAX_COEFF_BITS.  x is a
    scalar or a SparseVec."""
    out = None
    while True:
        if r & 1:
            out = x if out is None else _check_coeff_size(product(out, x))
        r >>= 1
        if not r:
            return out
        x = _check_coeff_size(product(x, x))


def scalar_power(q, r: int) -> Fraction:
    """q^r for a scalar q and r >= 0, under MAX_COEFF_BITS."""
    if r == 0:
        return Fraction(1)
    return repeated_squaring(Fraction(q), r, operator.mul)


def _over_common(coeffs):
    """(D, {key: int}) with D the lcm of the denominators of the Fraction
    values of coeffs, so that each value is its int over D."""
    den = math.lcm(*[v.denominator for v in coeffs.values()])
    return den, {key: v.numerator * (den // v.denominator)
                 for key, v in coeffs.items()}


class SparseVec:
    """A Z_(p)-linear combination of basis elements, stored as a dict from
    index to nonzero coefficient.

    Subclasses fix the index (``_check`` validates one against the top
    exponent p-1), the unit of the intersection product (``_ONE``), the
    printed name of a basis element (``_term``), and the product itself.
    """

    __slots__ = ("params", "_coeffs")

    _ONE = None

    def __init__(self, params: SymbolParams, coeffs=None):
        self.params = params
        top = params.p - 1
        check = self._check
        clean = {}
        for key, v in (coeffs or {}).items():
            check(key, top)
            v = as_local(v)
            if v != 0:
                clean[key] = v
        self._coeffs = clean

    @classmethod
    def _over(cls, params, nums, den):
        """The vector {key: n / den} over the nonzero ints n of nums.  The
        keys are not checked: the products only form valid ones."""
        out = object.__new__(cls)
        out.params = params
        out._coeffs = {key: Fraction(n, den) for key, n in nums.items() if n}
        return out

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_params(self, other):
        if self.params != other.params:
            raise ValueError("mismatched parameters: %r vs %r" % (self.params, other.params))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.params == other.params and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.params, tuple(self.items())))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_params(other)
        out = dict(self._coeffs)
        for key, v in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) + v
        return type(self)(self.params, out)

    def __neg__(self):
        return type(self)(self.params, {key: -v for key, v in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        s = as_local(scalar)
        return type(self)(self.params, {key: s * v for key, v in self._coeffs.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self.scale(scalar)
        return NotImplemented

    def __pow__(self, r: int):
        """r-fold intersection power; the zeroth power is the unit."""
        if not isinstance(r, int) or r < 0:
            raise ValueError("nonnegative integer power required")
        if r == 0:
            return type(self)(self.params, {self._ONE: 1})
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
        return self._coeffs.get(k, Fraction(0))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_params(other)
        top = self.params.p - 1
        da, a = _over_common(self._coeffs)
        db, b = _over_common(other._coeffs)
        out = {}
        for i, u in a.items():
            for j, v in b.items():
                if i + j <= top:  # truncation: codim of H^{i+j} would exceed d
                    out[i + j] = out.get(i + j, 0) + u * v
        return ChowClass._over(self.params, out, da * db)

    def degree(self) -> Fraction:
        """e times the H^{p-1} coefficient (push-forward to a point)."""
        return self.params.e * self.coeff(self.params.p - 1)


def h_power(params: SymbolParams, k: int) -> ChowClass:
    """The basis class H^k, 0 <= k <= p-1."""
    return ChowClass(params, {k: 1})
