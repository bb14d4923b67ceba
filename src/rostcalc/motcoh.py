"""Monomial bases for the graded pieces H^{i,j} attached to a symbol.

Monomials are triples (m, k, eps): a Milnor K-degree m of the symbolic
coefficient, an exponent k of the weight-(c-1) class gamma, and a bit
vector eps selecting which of the n degree-raising operations Q_1..Q_n
are applied to the base class delta.  Bidegrees follow

    j = m + (c-1)*k + sum_t eps_t*(p^t - 1) + n
    w = m - 2k - |eps| + (n - 2),   i = 2j - w.

Adding the two, sum_t eps_t*(p^t - 1) + |eps| = sum_t eps_t*p^t, so

    v = j - w - 2 - (c+1)*k = sum_{t=1..n} eps_t*p^t,

which lies in [0, p + ... + p^n] = [0, p*b].  Since c + 1 = p*b + 2, two
values of k give values of v more than p*b apart, so at most one k fits:
k = (j - w - 2) // (c+1).  Then eps is the base-p expansion of v/p, and a
bidegree has a monomial only if p divides v and every one of its n digits
is 0 or 1 with nothing left over.  enumerate_monomials therefore does O(n)
work per bidegree, not a scan of all 2^n eps vectors.

nonzero_rows reads the rows H^{2j,j} (w = 0) and H^{2j+1,j} (w = -1) with
j <= d off the monomials instead.  There k = 0, as (c-1)*k + n > d for
k >= 1, and m = w + |eps| - n + 2 >= 0 leaves eps at most 2 + w zeros:
O(n^2) candidates, each fixing m and j, each read back by enumerate_monomials.
"""

from dataclasses import dataclass
from itertools import combinations

from .splitring import SymbolParams

#: marker for the constant class occupying the (0, 0) spot
CONSTANT_CLASS = "1"


@dataclass(frozen=True)
class Bidegree:
    i: int
    j: int


@dataclass(frozen=True)
class MCMonomial:
    m: int
    k: int
    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(int(b) for b in self.eps))


@dataclass(frozen=True)
class MCGroup:
    monomials: tuple
    label: str

    @property
    def is_zero(self):
        return self.label == "0"


def delta(params):
    return MCMonomial(0, 0, (0,) * params.n)


def mu(params):
    # all of Q_1..Q_{n-1} applied to delta; for n = 1 this is delta itself
    return MCMonomial(0, 0, tuple(1 if t < params.n - 1 else 0 for t in range(params.n)))


def gamma(params):
    return MCMonomial(0, 0, (1,) * params.n)


def qtilde(i, params):
    """Composition of Q_1..Q_{n-1} with the i-th factor omitted."""
    if not 1 <= i <= params.n - 1:
        raise ValueError(f"qtilde index {i} out of range [1, {params.n - 1}]")
    eps = tuple(1 if (t + 1) <= params.n - 1 and (t + 1) != i else 0 for t in range(params.n))
    return MCMonomial(0, 0, eps)


def bidegree_of(mono, params):
    if len(mono.eps) != params.n:
        raise ValueError(f"eps has {len(mono.eps)} bits, expected {params.n}")
    p, n, c = params.p, params.n, params.c
    j = mono.m + (c - 1) * mono.k + sum(b * (p ** (t + 1) - 1) for t, b in enumerate(mono.eps)) + n
    w = mono.m - 2 * mono.k - sum(mono.eps) + (n - 2)
    return Bidegree(2 * j - w, j)


def _eps_of(v, params):
    """The eps with sum_t eps_t*p^t = v, or None if v is no such sum."""
    q, rem = divmod(v, params.p)
    if rem:
        return None
    eps = []
    for _ in range(params.n):
        q, digit = divmod(q, params.p)
        if digit > 1:
            return None
        eps.append(digit)
    return None if q else eps


def enumerate_monomials(i, j, params):
    """All (m, k, eps) landing in bidegree (i, j); (0, 0) is the constant spot.

    There is at most one (see the module docstring), so the list is sorted.
    """
    if (i, j) == (0, 0):
        return [CONSTANT_CLASS]
    if j < 0 or i <= j:
        raise ValueError(f"bidegree ({i}, {j}) outside classification range")
    p, n, c = params.p, params.n, params.c
    w = 2 * j - i
    k, v = divmod(j - w - 2, c + 1)
    eps = _eps_of(v, params) if k >= 0 else None
    if eps is None:
        return []
    m = j - (c - 1) * k - sum(b * (p ** (t + 1) - 1) for t, b in enumerate(eps)) - n
    if m < 0:
        return []
    mono = MCMonomial(m, k, eps)
    if bidegree_of(mono, params) != Bidegree(i, j):
        raise ValueError(f"monomial {mono} does not land in ({i}, {j})")
    if j <= params.d and (mono.k != 0 or mono.eps[-1] != 0):
        raise ValueError(
            f"monomial {mono} violates the k=0, eps_n=0 constraint at j={j}")
    return [mono]


def _group_from(monos, params):
    if not monos:
        return MCGroup((), "0")
    if len(monos) != 1:
        raise ValueError(f"expected at most one monomial family per row, got {monos}")
    mono = monos[0]
    label = f"Z/{params.p}" if mono.m == 0 else f"K_{mono.m}^s"
    return MCGroup(tuple(monos), label)


def even_row(j, params):
    """The row H^{2j,j} for 0 <= j <= d."""
    if not 0 <= j <= params.d:
        raise ValueError(f"row index {j} outside [0, {params.d}]")
    if j == 0:
        return MCGroup((CONSTANT_CLASS,), "Z")
    return _group_from(enumerate_monomials(2 * j, j, params), params)


def odd_row(j, params):
    """The row H^{2j+1,j} for 0 <= j <= d."""
    if not 0 <= j <= params.d:
        raise ValueError(f"row index {j} outside [0, {params.d}]")
    return _group_from(enumerate_monomials(2 * j + 1, j, params), params)


def nonzero_rows(params):
    """The nonzero rows H^{2j,j} and H^{2j+1,j} with 0 <= j <= d, as
    {(i, j): group} in increasing j (see the module docstring)."""
    n = params.n
    rows = {(0, 0): even_row(0, params)}
    for w in (0, -1):
        for gaps in (g for zeros in range(3 + w)
                     for g in combinations(range(n), zeros)):
            eps = tuple(0 if t in gaps else 1 for t in range(n))
            mono = MCMonomial(w + 2 - len(gaps), 0, eps)
            # sum_t eps_t*(p^t - 1) + n = c - 1 - sum over the gaps
            j = params.c - 1 + mono.m - sum(params.p ** (t + 1) - 1 for t in gaps)
            if j <= params.d:
                row = _group_from(enumerate_monomials(2 * j - w, j, params), params)
                if row.monomials != (mono,):
                    raise ValueError(f"monomial {mono} does not read back at ({2 * j - w}, {j})")
                rows[(2 * j - w, j)] = row
    return dict(sorted(rows.items(), key=lambda item: item[0][::-1]))


def render_monomial(mono, params):
    if mono == CONSTANT_CLASS:
        return "1"
    if mono.eps == delta(params).eps:
        core = "delta"
    elif mono.eps == mu(params).eps:
        core = "mu"
    elif mono.eps == gamma(params).eps:
        core = "gamma"
    else:
        qs = "".join(f"Q{t + 1}" for t, b in enumerate(mono.eps) if b)
        core = f"{qs}(delta)"
    if mono.k:
        prefix = "gamma" if mono.k == 1 else f"gamma^{mono.k}"
        core = f"{prefix}*{core}"
    return core


def render_group(group, params):
    if group.is_zero:
        return "0"
    body = ",".join(render_monomial(mo, params) for mo in group.monomials)
    return f"{group.label}*{body}"
