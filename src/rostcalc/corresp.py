"""Correspondences on X x X restricted to the split span of H^i x H^j.

E(i, j) denotes H^i x H^j with 0 <= i, j <= p-1.  Composition encodes the
push-pull through the triple product: the middle factors pair to a point
only when their exponents sum to p-1, contributing a factor of
e = deg(H^{p-1}):

    compose(beta, alpha)_{il} = sum_{j+k=p-1} e * alpha_{ij} * beta_{kl}.

The span has no composition identity (the diagonal of X is not in it); the
Rost projector pi is the identity only on the sub-span it cuts out.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import val
from .endalg import EndTuple
from .splitring import (MAX_COEFF_BITS, ChowClass, SparseVec, SymbolParams,
                        repeated_squaring)


class Corr(SparseVec):
    """A correspondence in span{E(i,j) : 0 <= i, j <= p-1}, keyed by (i, j)."""

    __slots__ = ()

    _ONE = (0, 0)

    @staticmethod
    def _check(key, top):
        i, j = key
        if not (0 <= i <= top and 0 <= j <= top):
            raise ValueError("basis index (%r, %r) outside [0, %d]^2" % (i, j, top))

    @staticmethod
    def _term(key):
        return "E(%d,%d)" % key

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums.get((i, j), 0), self.den)

    def __mul__(self, other):
        """Intersection product: E(i,j)*E(k,l) = E(i+k, j+l), truncated."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Corr):
            return NotImplemented
        self._check_product(other)
        top = self.params.p - 1
        out = {}
        for (i, j), u in self.nums.items():
            for (k, l), v in other.nums.items():
                if i + k <= top and j + l <= top:
                    key = (i + k, j + l)
                    out[key] = out.get(key, 0) + u * v
        return Corr.from_ints(self.params, out, self.den * other.den)

    def __matmul__(self, other):
        """beta @ alpha = compose(beta, alpha): alpha applied first."""
        if not isinstance(other, Corr):
            return NotImplemented
        return compose(self, other)


def basis(params: SymbolParams, i: int, j: int) -> Corr:
    """The basis correspondence E(i, j) = H^i x H^j."""
    return Corr(params, {(i, j): 1})


def compose(beta: Corr, alpha: Corr) -> Corr:
    """Composition (alpha first): middle exponents pair iff they sum to p-1."""
    beta._check_params(alpha)
    params = beta.params
    top = params.p - 1
    rows = {}  # beta's terms by their first index
    for (k, l), v in beta.nums.items():
        rows.setdefault(k, []).append((l, v))
    out = {}
    for (i, j), u in alpha.nums.items():
        for l, v in rows.get(top - j, ()):
            out[i, l] = out.get((i, l), 0) + u * v
    e = params.e
    return Corr.from_ints(params, {key: n * e.numerator for key, n in out.items()},
                          alpha.den * beta.den * e.denominator)


def transpose(alpha: Corr) -> Corr:
    return Corr.from_ints(alpha.params,
                          {(j, i): n for (i, j), n in alpha.nums.items()}, alpha.den)


def comp_power(alpha: Corr, r: int) -> Corr:
    """r-fold composition power, r >= 1 (the span has no identity)."""
    if not isinstance(r, int) or r < 1:
        raise ValueError("composition power requires an integer exponent >= 1")
    return repeated_squaring(alpha, r, compose)


def mult(alpha: Corr) -> Fraction:
    """Multiplicity: e times the E(0, p-1) coefficient (the coefficient of
    [X] in the first-projection push-forward)."""
    return alpha.params.e * alpha.coeff(0, alpha.params.p - 1)


def diag_pullback(alpha: Corr) -> ChowClass:
    """Pull back along the diagonal: E(i,j) -> H^{i+j}, truncated."""
    params = alpha.params
    top = params.p - 1
    out = {}
    for (i, j), n in alpha.nums.items():
        if i + j <= top:
            out[i + j] = out.get(i + j, 0) + n
    return ChowClass.from_ints(params, out, alpha.den)


def action_on_class(alpha: Corr, k: int) -> ChowClass:
    """Push-pull action on H^k: alpha_*(H^k) = sum_j e*alpha_{(p-1-k) j} H^j."""
    params = alpha.params
    top = params.p - 1
    if not 0 <= k <= top:
        raise ValueError("H-exponent %r outside [0, %d]" % (k, top))
    e = params.e
    return ChowClass.from_ints(
        params, {j: e.numerator * n for (i, j), n in alpha.nums.items() if i == top - k},
        e.denominator * alpha.den)


def to_tuple(alpha: Corr) -> EndTuple:
    """Diagonal action on the graded pieces; defined on the anti-diagonal
    span only.  entry_i = e*coeff(i, p-1-i); compose becomes entrywise
    product."""
    params = alpha.params
    top = params.p - 1
    if any(i + j != top for (i, j) in alpha.nums):
        raise ValueError("not an endomorphism of the split motive: "
                         "support off the anti-diagonal")
    e = params.e
    return EndTuple.from_ints(
        params.p, [e.numerator * alpha.nums.get((i, top - i), 0) for i in range(params.p)],
        e.denominator * alpha.den)


def sigma(params: SymbolParams) -> Corr:
    """The special correspondence 1 x H - H x 1 (anti-symmetric)."""
    return Corr(params, {(0, 1): 1, (1, 0): -1})


def rho(params: SymbolParams) -> Corr:
    """rho = sigma^{p-1} = sum_i (-1)^i C(p-1, i) E(i, p-1-i), built one
    binomial from the last by C(r, i+1) = C(r, i)(r-i)/(i+1).  C(p-1, i) is
    (-1)^i mod p, so rho = sum_i E(i, p-1-i) mod p.  A binomial past
    MAX_COEFF_BITS raises ValueError at once, as a power would."""
    r = params.p - 1
    nums, c = {}, 1
    for i in range(r + 1):
        if c.bit_length() > MAX_COEFF_BITS:
            raise ValueError(f"power too large: a coefficient would pass "
                             f"{MAX_COEFF_BITS} bits")
        nums[i, r - i] = -c if i & 1 else c
        c = c * (r - i) // (i + 1)
    return Corr.from_ints(params, nums)


def rost_projector(params: SymbolParams) -> Corr:
    """pi = (1/e) * sum_i E(i, p-1-i): symmetric idempotent of multiplicity 1
    whose diagonal pullback has degree p."""
    top, e = params.p - 1, params.e
    return Corr.from_ints(
        params, {(i, top - i): e.denominator for i in range(params.p)}, e.numerator)


def projector_iterate(params: SymbolParams, r: int):
    """Form rho' = ((1/e)rho) o ((1/e)rho), raise it to composition power
    p^r, and return (its tuple, min over i of val_p(entry_i - 1)).

    The tuple of rho' is (binom(p-1, i)^2)_i, all entries 1 mod p, so the
    minimum offset valuation is >= r+1 (1-unit power growth); it is +inf
    when every entry is exactly 1 (as happens for p = 2).
    """
    if not isinstance(r, int) or r < 0:
        raise ValueError("nonnegative iteration exponent required")
    p = params.p
    rho1 = rho(params).scale(1 / params.e)
    rho_prime = compose(rho1, rho1)
    t = to_tuple(rho_prime) ** (p**r)
    return t, min(val(x - 1, p) for x in t.entries)
