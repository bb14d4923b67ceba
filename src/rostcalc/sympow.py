"""Symmetric powers of the split binary motive M = Z (+) Z(b), as matrices.

Sym^i(M) has basis e_0..e_i with e_t = 1^{i-t} h^t sitting at twist t*b.
The morphisms between neighboring symmetric powers (comultiplication a_i,
multiplication b_i, twist inclusion x_i, contraction y_i = (1 (x) y) o a_i,
unit projection r_i) become integer matrices here, and the claimed
identities between them are checked exactly over Z_(p).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .arith import reduce_mod, val
from .reporting import CheckReport


@dataclass(frozen=True)
class GradedModule:
    name: str
    labels: tuple
    twists: tuple

    @property
    def dim(self):
        return len(self.labels)


@dataclass(frozen=True)
class GradedMap:
    source: GradedModule
    target: GradedModule
    matrix: tuple  # rows indexed by target basis, columns by source basis
    shift: int = 0  # twist added to source degrees

    def __post_init__(self):
        if len(self.matrix) != self.target.dim or any(
                len(row) != self.source.dim for row in self.matrix):
            raise ValueError(
                f"matrix of {self.source.name}->{self.target.name} is not "
                f"{self.target.dim}x{self.source.dim}")
        for r, row in enumerate(self.matrix):
            for c, entry in enumerate(row):
                if entry and self.target.twists[r] != self.source.twists[c] + self.shift:
                    raise ValueError(
                        f"entry ({r},{c}) of {self.source.name}->{self.target.name} "
                        f"breaks twist homogeneity"
                    )

    def __matmul__(self, other):
        if other.target.labels != self.source.labels:
            raise ValueError(
                f"cannot compose {other.source.name}->{other.target.name} "
                f"with {self.source.name}->{self.target.name}")
        # the maps are mostly zero: multiply only nonzero pairs
        right = [[(c, b) for c, b in enumerate(row) if b]
                 for row in other.matrix]
        cols = other.source.dim
        prod = []
        for row in self.matrix:
            acc = [0] * cols
            for t, a in enumerate(row):
                if a:
                    for c, b in right[t]:
                        acc[c] += a * b
            prod.append(tuple(acc))
        shift = self.shift + other.shift
        if other.target.twists != self.source.twists:
            # equal labels over other twists: only the check can tell
            return GradedMap(other.source, self.target, tuple(prod), shift)
        # a product of homogeneous maps over one inner module is homogeneous
        # with the shifts added, and has the right shape: skip the re-check
        out = object.__new__(GradedMap)
        vars(out).update(source=other.source, target=self.target,
                         matrix=tuple(prod), shift=shift)
        return out

    def __sub__(self, other):
        if self.source.dim != other.source.dim or self.target.dim != other.target.dim:
            raise ValueError(
                f"cannot subtract {other.source.name}->{other.target.name} "
                f"from {self.source.name}->{self.target.name}")
        return GradedMap(
            self.source, self.target,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.matrix, other.matrix)
            ),
            shift=self.shift,
        )

    def scale(self, c):
        return GradedMap(
            self.source, self.target,
            tuple(tuple(c * a for a in row) for row in self.matrix),
            shift=self.shift,
        )

    def same_matrix(self, other):
        return self.matrix == other.matrix

    def is_zero(self):
        return all(all(a == 0 for a in row) for row in self.matrix)


def sym_module(i, params):
    return GradedModule(
        f"Sym^{i}",
        tuple(f"e_{t}" for t in range(i + 1)),
        tuple(t * params.b for t in range(i + 1)),
    )


def tensor_with_m(i, params):
    """Sym^i (x) M with basis e_t(x)1 (first block) and e_t(x)h (second block)."""
    base = sym_module(i, params)
    labels = tuple(f"{l}*1" for l in base.labels) + tuple(f"{l}*h" for l in base.labels)
    twists = base.twists + tuple(t + params.b for t in base.twists)
    return GradedModule(f"Sym^{i}(x)M", labels, twists)


def _mat(rows, cols, entries):
    m = [[0] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        m[r][c] = v
    return tuple(tuple(row) for row in m)


def build_morphisms(i, params):
    """The five standard maps touching Sym^i, on the split basis."""
    if not 1 <= i <= params.p - 1:
        raise ValueError(f"index {i} out of range [1, {params.p - 1}]")
    sym_i = sym_module(i, params)
    sym_prev = sym_module(i - 1, params)
    tens = tensor_with_m(i - 1, params)
    dim_prev = i  # basis e_0..e_{i-1}

    # a_i(e_t) = (i-t) e_t(x)1 + t e_{t-1}(x)h
    a_entries = {}
    for t in range(i + 1):
        if i - t and t < dim_prev:
            a_entries[(t, t)] = i - t
        if t:
            a_entries[(dim_prev + t - 1, t)] = t
    a = GradedMap(sym_i, tens, _mat(2 * dim_prev, i + 1, a_entries))

    # b_i(e_t (x) 1) = e_t, b_i(e_t (x) h) = e_{t+1}
    b_entries = {}
    for t in range(dim_prev):
        b_entries[(t, t)] = 1
        b_entries[(t + 1, dim_prev + t)] = 1
    b = GradedMap(tens, sym_i, _mat(i + 1, 2 * dim_prev, b_entries))

    # x_i: Sym^{i-1}(b)[2b] -> Sym^i, e_t -> e_{t+1}
    x = GradedMap(
        sym_prev, sym_i,
        _mat(i + 1, dim_prev, {(t + 1, t): 1 for t in range(dim_prev)}),
        shift=params.b,
    )

    # y_i = (1 (x) y) o a_i: e_t -> (i-t) e_t
    y = GradedMap(
        sym_i, sym_prev,
        _mat(dim_prev, i + 1, {(t, t): i - t for t in range(dim_prev)}),
    )

    # r_i: projection onto the e_0 component
    r = GradedMap(sym_i, sym_module(0, params), _mat(1, i + 1, {(0, 0): 1}))

    return {"a": a, "b": b, "x": x, "y": y, "r": r}


def identity_map(module):
    dim = module.dim
    return GradedMap(module, module, _mat(dim, dim, {(t, t): 1 for t in range(dim)}))


def tensor_map_with_id(f, params):
    """f (x) id_M on the two-block basis of source (x) M."""
    src = tensor_with_m(f.source.dim - 1, params)
    tgt = tensor_with_m(f.target.dim - 1, params)
    rows, cols = f.target.dim, f.source.dim
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if f.matrix[r][c]:
                entries[(r, c)] = f.matrix[r][c]
                entries[(rows + r, cols + c)] = f.matrix[r][c]
    return GradedMap(src, tgt, _mat(2 * rows, 2 * cols, entries), shift=f.shift)


def id_tensor_y(i, params):
    """id_{Sym^i} (x) y: kills the (x)h block, keeps the (x)1 block."""
    src = tensor_with_m(i, params)
    tgt = sym_module(i, params)
    dim = i + 1
    return GradedMap(src, tgt, _mat(dim, 2 * dim, {(t, t): 1 for t in range(dim)}))


def verify_somesome(params):
    """Contraction/multiplication identities between neighboring Sym powers."""
    report = CheckReport(f"somesome p={params.p}")
    if params.p == 2:
        report.add("index range 2..p-1", True, "vacuously true: no indices to check")
        return report
    prev = build_morphisms(1, params)
    comp = prev["y"]  # y_1 ... y_i, extended by one factor per i
    for i in range(2, params.p):
        cur = build_morphisms(i, params)
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


def s_map(params):
    """s = (1/(p-2)!) y_2 ... y_{p-1}: Sym^{p-1} -> M; identity scale for p = 2."""
    p = params.p
    if p == 2:
        return identity_map(sym_module(1, params))
    comp = build_morphisms(2, params)["y"]
    for t in range(3, p):
        comp = comp @ build_morphisms(t, params)["y"]
    return comp.scale(Fraction(1, factorial(p - 2)))


def verify_manyi_ccom(params):
    """Commuting squares for the x/y ladder and for the contraction s."""
    p = params.p
    report = CheckReport(f"manyi/ccom p={p}")
    for i in range(2, p):
        cur = build_morphisms(i, params)
        prev = build_morphisms(i - 1, params)
        # the (b)-twist on the second factor lives in the `shift` attribute
        lhs = cur["y"] @ cur["x"]
        rhs = prev["x"] @ prev["y"]
        report.add(
            f"square y_{i} x_{i} = x_{i-1} y_{i-1}(b)",
            lhs.same_matrix(rhs) and lhs.shift == rhs.shift,
        )

    s = s_map(params)
    degenerate = " [degenerate: s = identity scale]" if p == 2 else ""
    first = build_morphisms(1, params)
    top = build_morphisms(p - 1, params)
    lhs = first["y"] @ s
    report.add(f"y s = {p - 1}*r_{p-1}{degenerate}", lhs.same_matrix(top["r"].scale(p - 1)))

    if p == 2:
        # s = id on Sym^1, so the square collapses to x_1 = x r_0(b)
        lhs2 = s @ first["x"]
        rhs2 = first["x"] @ identity_map(sym_module(0, params))
    else:
        prev_top = build_morphisms(p - 2, params)
        lhs2 = s @ top["x"]
        rhs2 = first["x"] @ prev_top["r"]
    report.add(
        f"s x_{p-1} = x r_{p-2}(b){degenerate}",
        lhs2.same_matrix(rhs2) and lhs2.shift == rhs2.shift,
    )
    return report


def _rank(matrix, p=None):
    """Row rank by exact elimination: over the rationals, or over F_p when
    p is given (the entries must then be p-integral)."""
    if p is None:
        m = [[Fraction(a) for a in row] for row in matrix]
    else:
        m = [[reduce_mod(a, p) for a in row] for row in matrix]
    rank, cols = 0, (len(m[0]) if m else 0)
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c] if p is None else pow(m[rank][c], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
                if p is not None:
                    m[r] = [a % p for a in m[r]]
        rank += 1
    return rank


def _split_exact(f, g, p):
    """Exactness of 0 -> src(f) -> * -> tgt(g) -> 0 with Z_(p)-split middle."""
    if not (g @ f).is_zero():
        return False, "g f != 0"
    dim = f.target.dim
    rq_f, rq_g = _rank(f.matrix), _rank(g.matrix)
    rp_f, rp_g = _rank(f.matrix, p), _rank(g.matrix, p)
    if rq_f + rq_g != dim:
        return False, f"rational ranks {rq_f}+{rq_g} != {dim}"
    if (rp_f, rp_g) != (rq_f, rq_g):
        return False, "rank drops modulo p: sequence does not split"
    if rq_f != f.source.dim or rq_g != g.target.dim:
        return False, "outer maps not injective/surjective"
    return True, ""


def verify_triangles(params):
    """Split-exactness of the two twist/contraction sequences at Sym^{p-1}."""
    p = params.p
    report = CheckReport(f"triangles p={p}")
    top = build_morphisms(p - 1, params)

    # first: Z((p-1)b) -> Sym^{p-1} -> Sym^{p-2}, inclusion of e_{p-1} against y_{p-1}
    line = sym_module(0, params)
    incl = GradedMap(
        line, sym_module(p - 1, params),
        _mat(p, 1, {(p - 1, 0): 1}),
        shift=(p - 1) * params.b,
    )
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
