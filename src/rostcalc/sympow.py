"""Symmetric powers of the split binary motive M = Z (+) Z(b), as matrices.

Sym^i(M) has basis e_0..e_i with e_t = 1^{i-t} h^t sitting at twist t*b.
The morphisms between neighboring symmetric powers (comultiplication a_i,
multiplication b_i, twist inclusion x_i, contraction y_i = (1 (x) y) o a_i,
unit projection r_i) become integer matrices here, and the claimed
identities between them are checked exactly over Z_(p).  These maps are
mono- or bidiagonal, so a map stores only its nonzero entries and every
operation, rank included, works on those: the checks at p handle O(p)
maps of O(p) entries each.
"""

from fractions import Fraction
from math import factorial

from .arith import reduce_mod, val
from .reporting import CheckReport


class _Record:
    """An immutable record over its slots: equal to a record of its own
    type with an equal key, and hashed by that key."""

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: immutable")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class GradedModule(_Record):
    """A free module with basis vectors at the given twists."""

    __slots__ = ("name", "twists")

    @property
    def dim(self):
        return len(self.twists)


class GradedMap(_Record):
    """A map source -> target adding `shift` to twists, stored as its
    nonzero entries {(row, column): value}: rows index the target basis,
    columns the source basis.  Construction drops zero values."""

    __slots__ = ("source", "target", "entries", "shift")

    def __init__(self, source, target, entries, shift=0):
        entries = {rc: v for rc, v in entries.items() if v}
        rows, cols = target.twists, source.twists
        m, n = len(rows), len(cols)
        for r, c in entries:
            if not (0 <= r < m and 0 <= c < n):
                raise ValueError(f"entry ({r},{c}) of {source.name}->{target.name} "
                                 f"lies outside its {m}x{n} matrix")
            if rows[r] != cols[c] + shift:
                raise ValueError(f"entry ({r},{c}) of {source.name}->{target.name} "
                                 f"breaks twist homogeneity")
        super().__init__(source, target, entries, shift)

    def _key(self):
        return self.source, self.target, frozenset(self.entries.items()), self.shift

    def __matmul__(self, other):
        if other.target != self.source:
            raise ValueError(
                f"cannot compose {other.source.name}->{other.target.name} "
                f"with {self.source.name}->{self.target.name}: inner twists "
                f"{other.target.twists} and {self.source.twists}")
        right = {}
        for (t, c), b in other.entries.items():
            right.setdefault(t, []).append((c, b))
        prod = {}
        for (r, t), a in self.entries.items():
            for c, b in right.get(t, ()):
                prod[r, c] = prod.get((r, c), 0) + a * b
        return GradedMap(other.source, self.target, prod, self.shift + other.shift)

    def __sub__(self, other):
        if (other.source, other.target, other.shift) != (
                self.source, self.target, self.shift):
            raise ValueError(f"cannot subtract {other.source.name}->"
                             f"{other.target.name} (shift {other.shift}) from "
                             f"{self.source.name}->{self.target.name} (shift {self.shift})")
        diff = dict(self.entries)
        for rc, b in other.entries.items():
            diff[rc] = diff.get(rc, 0) - b
        return GradedMap(self.source, self.target, diff, self.shift)

    def scale(self, c):
        return GradedMap(self.source, self.target,
                         {rc: c * a for rc, a in self.entries.items()},
                         self.shift)

    def same_matrix(self, other):
        """Whether the dense matrices are equal, shapes included."""
        return (self.target.dim, self.source.dim, self.entries) == (
            other.target.dim, other.source.dim, other.entries)

    def is_zero(self):
        return not self.entries


def sym_module(i, params):
    return GradedModule(f"Sym^{i}", tuple(t * params.b for t in range(i + 1)))


def tensor_with_m(i, params):
    """Sym^i (x) M with basis e_t(x)1 (first block) and e_t(x)h (second block)."""
    base = sym_module(i, params)
    twists = base.twists + tuple(t + params.b for t in base.twists)
    return GradedModule(f"Sym^{i}(x)M", twists)


def _diagonal(values, offset=0):
    """Entries {(t + offset, t): v} for the t-th of values."""
    return {(t + offset, t): v for t, v in enumerate(values)}


def build_morphisms(i, params):
    """The five standard maps touching Sym^i, on the split basis."""
    if not 1 <= i <= params.p - 1:
        raise ValueError(f"index {i} out of range [1, {params.p - 1}]")
    sym_i = sym_module(i, params)
    sym_prev = sym_module(i - 1, params)
    tens = tensor_with_m(i - 1, params)  # basis e_0..e_{i-1}, then (x)h

    # a_i(e_t) = (i-t) e_t(x)1 + t e_{t-1}(x)h
    a_entries = _diagonal(range(i, 0, -1))
    a_entries.update({(i + t - 1, t): t for t in range(1, i + 1)})
    a = GradedMap(sym_i, tens, a_entries)

    # b_i(e_t (x) 1) = e_t, b_i(e_t (x) h) = e_{t+1}
    b_entries = _diagonal([1] * i)
    b_entries.update({(t + 1, i + t): 1 for t in range(i)})
    b = GradedMap(tens, sym_i, b_entries)

    # x_i: Sym^{i-1}(b)[2b] -> Sym^i, e_t -> e_{t+1}
    x = GradedMap(sym_prev, sym_i, _diagonal([1] * i, 1), shift=params.b)

    # y_i = (1 (x) y) o a_i: e_t -> (i-t) e_t
    y = GradedMap(sym_i, sym_prev, _diagonal(range(i, 0, -1)))

    # r_i: projection onto the e_0 component
    r = GradedMap(sym_i, sym_module(0, params), {(0, 0): 1})

    return {"a": a, "b": b, "x": x, "y": y, "r": r}


def morphism_table(params):
    """build_morphisms(i, params) for every i in 1..p-1, keyed by i: the
    checks below take one such table so that a suite builds each map once."""
    return {i: build_morphisms(i, params) for i in range(1, params.p)}


def identity_map(module):
    return GradedMap(module, module, _diagonal([1] * module.dim))


def tensor_map_with_id(f, params):
    """f (x) id_M on the two-block basis of source (x) M."""
    src = tensor_with_m(f.source.dim - 1, params)
    tgt = tensor_with_m(f.target.dim - 1, params)
    rows, cols = f.target.dim, f.source.dim
    entries = dict(f.entries)
    entries.update({(rows + r, cols + c): v for (r, c), v in f.entries.items()})
    return GradedMap(src, tgt, entries, shift=f.shift)


def id_tensor_y(i, params):
    """id_{Sym^i} (x) y: kills the (x)h block, keeps the (x)1 block."""
    return GradedMap(tensor_with_m(i, params), sym_module(i, params),
                     _diagonal([1] * (i + 1)))


def verify_somesome(params, maps):
    """Contraction/multiplication identities between neighboring Sym powers."""
    report = CheckReport(f"somesome p={params.p}")
    if params.p == 2:
        report.add("index range 2..p-1", True, "vacuously true: no indices to check")
        return report
    prev = maps[1]
    comp = prev["y"]  # y_1 ... y_i, extended by one factor per i
    for i in range(2, params.p):
        cur = maps[i]
        lhs = (cur["y"] @ cur["b"]) - (prev["b"] @ tensor_map_with_id(prev["y"], params))
        rhs = id_tensor_y(i - 1, params)
        report.add(f"(1) y_{i} b_{i} - b_{i-1}(y_{i-1}(x)id) = id(x)y", lhs.same_matrix(rhs))

        lhs2 = prev["r"] @ cur["y"]
        rhs2 = cur["r"].scale(i)
        report.add(f"(2) r_{i-1} y_{i} = {i}*r_{i}", lhs2.same_matrix(rhs2))

        comp = comp @ cur["y"]
        report.add(f"(3) y_1..y_{i} = {i}!*r_{i}", comp.same_matrix(cur["r"].scale(factorial(i))))
        prev = cur
    return report


def s_map(params, maps):
    """s = (1/(p-2)!) y_2 ... y_{p-1}: Sym^{p-1} -> M; identity scale for p = 2."""
    p = params.p
    if p == 2:
        return identity_map(sym_module(1, params))
    comp = maps[2]["y"]
    for t in range(3, p):
        comp = comp @ maps[t]["y"]
    return comp.scale(Fraction(1, factorial(p - 2)))


def verify_manyi_ccom(params, maps):
    """Commuting squares for the x/y ladder and for the contraction s."""
    p = params.p
    report = CheckReport(f"manyi/ccom p={p}")
    for i in range(2, p):
        cur, prev = maps[i], maps[i - 1]
        # the (b)-twist on the second factor lives in the `shift` attribute
        lhs = cur["y"] @ cur["x"]
        rhs = prev["x"] @ prev["y"]
        report.add(
            f"square y_{i} x_{i} = x_{i-1} y_{i-1}(b)",
            lhs.same_matrix(rhs) and lhs.shift == rhs.shift,
        )

    s = s_map(params, maps)
    degenerate = " [degenerate: s = identity scale]" if p == 2 else ""
    first, top = maps[1], maps[p - 1]
    lhs = first["y"] @ s
    report.add(f"y s = {p - 1}*r_{p-1}{degenerate}", lhs.same_matrix(top["r"].scale(p - 1)))

    if p == 2:
        # s = id on Sym^1, so the square collapses to x_1 = x r_0(b)
        lhs2 = s @ first["x"]
        rhs2 = first["x"] @ identity_map(sym_module(0, params))
    else:
        lhs2 = s @ top["x"]
        rhs2 = first["x"] @ maps[p - 2]["r"]
    report.add(
        f"s x_{p-1} = x r_{p-2}(b){degenerate}",
        lhs2.same_matrix(rhs2) and lhs2.shift == rhs2.shift,
    )
    return report


def _rank(entries, p=None):
    """Row rank of the matrix with nonzero entries {(row, column): value}
    by exact elimination on sparse rows: over the rationals, or over F_p
    when p is given (the entries must then be p-integral)."""
    rows = {}
    for (r, c), v in entries.items():
        v = Fraction(v) if p is None else reduce_mod(v, p)
        if v:
            rows.setdefault(r, {})[c] = v
    pivots = {}  # leading column -> the reduced row that leads there
    for row in rows.values():
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            f = row[lead] / piv[lead] if p is None else row[lead] * pow(piv[lead], -1, p)
            for c, v in piv.items():
                w = row.get(c, 0) - f * v
                if p is not None:
                    w %= p
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return len(pivots)


def _split_exact(f, g, p):
    """Exactness of 0 -> src(f) -> * -> tgt(g) -> 0 with Z_(p)-split middle."""
    if not (g @ f).is_zero():
        return False, "g f != 0"
    dim = f.target.dim
    rq_f, rq_g = _rank(f.entries), _rank(g.entries)
    rp_f, rp_g = _rank(f.entries, p), _rank(g.entries, p)
    if rq_f + rq_g != dim:
        return False, f"rational ranks {rq_f}+{rq_g} != {dim}"
    if (rp_f, rp_g) != (rq_f, rq_g):
        return False, "rank drops modulo p: sequence does not split"
    if rq_f != f.source.dim or rq_g != g.target.dim:
        return False, "outer maps not injective/surjective"
    return True, ""


def verify_triangles(params, maps):
    """Split-exactness of the two twist/contraction sequences at Sym^{p-1}."""
    p = params.p
    report = CheckReport(f"triangles p={p}")
    top = maps[p - 1]

    # first: Z((p-1)b) -> Sym^{p-1} -> Sym^{p-2}, inclusion of e_{p-1} against y_{p-1}
    incl = GradedMap(sym_module(0, params), sym_module(p - 1, params),
                     {(p - 1, 0): 1}, shift=(p - 1) * params.b)
    ok, why = _split_exact(incl, top["y"], p)
    report.add("first sequence exact and split", ok, why)
    units = [p - 1 - t for t in range(p - 1)]
    report.add(
        "y_{p-1} surjective: diagonal entries are units",
        all(val(u, p) == 0 for u in units),
        f"entries {units}",
    )

    # second: Sym^{p-2}(b) -> Sym^{p-1} -> Z, twist inclusion x_{p-1} against r_{p-1}
    ok, why = _split_exact(top["x"], top["r"], p)
    report.add("second sequence exact and split", ok, why)
    return report
