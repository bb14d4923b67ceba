"""CH^j tables of the split-plus-torsion motive cut out by the projector.

Two independent engines produce the same table: a direct closed form
(free part at j = 0 and index-p free parts at j = b*k, torsion Z/p at
j = b*k - p^i + 1) and a j-induction that consumes the cohomology rows
of motcoh one degree at a time.  Disagreement between the two raises
"recurrence inconsistency" / fails compare().
"""

from dataclasses import dataclass, field

from . import motcoh
from .splitring import SymbolParams

KINDS = ("zero", "free", "p_free", "cyclic_p")


@dataclass(frozen=True)
class ChowGroupDesc:
    kind: str
    k: int = None
    i: int = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")


ZERO = ChowGroupDesc("zero")
FREE = ChowGroupDesc("free")


@dataclass
class RostChowTable:
    params: SymbolParams
    entries: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    def nonzero(self):
        return [j for j in sorted(self.entries) if self.entries[j].kind != "zero"]


#: the largest table, in rows (d + 1), that either engine builds; at
#: (2, 60) one would need 2^60 rows
MAX_TABLE_ROWS = 2**17


def _check_table_size(params):
    if params.d + 1 > MAX_TABLE_ROWS:
        raise ValueError(
            f"table too large: d + 1 = {params.d + 1} rows at p={params.p} "
            f"n={params.n}, more than {MAX_TABLE_ROWS}")


def closed_form(params):
    _check_table_size(params)
    table = RostChowTable(params)
    b, p = params.b, params.p
    # j = b*k - p^i + 1 for 1 <= k <= p-1, 1 <= i <= n-1; no two (k, i)
    # give the same j, since 1 < p^i < b
    torsion = {b * k - p**i + 1: (k, i)
               for k in range(1, p) for i in range(1, params.n)}
    for j in range(params.d + 1):
        if j == 0:
            table.entries[j] = FREE
            table.trace[j] = "closed form: full free summand at j=0"
        elif j % b == 0 and 1 <= j // b <= p - 1:
            k = j // b
            table.entries[j] = ChowGroupDesc("p_free", k=k)
            table.trace[j] = f"closed form: index-p free part at j=b*{k}"
        elif j in torsion:
            k, i = torsion[j]
            table.entries[j] = ChowGroupDesc("cyclic_p", k=k, i=i)
            table.trace[j] = f"closed form: Z/{p} at j=b*{k}-p^{i}+1"
        else:
            table.entries[j] = ZERO
            table.trace[j] = "closed form: zero"
    return table


def _bump(desc, j, params):
    """Shift a table entry up by one twist (j-b -> j)."""
    if desc.kind == "zero":
        return ZERO
    if desc.kind == "p_free":
        if desc.k + 1 > params.p - 1:
            raise ValueError(f"recurrence inconsistency: free index overflow at j={j}")
        return ChowGroupDesc("p_free", k=desc.k + 1)
    if desc.kind == "cyclic_p":
        return ChowGroupDesc("cyclic_p", k=desc.k + 1, i=desc.i)
    raise ValueError(f"recurrence inconsistency: cannot shift kind {desc.kind!r} to j={j}")


def _expect_row(row, want_label, where, params):
    if row.label != want_label:
        raise ValueError(
            f"recurrence inconsistency: row {where} is {motcoh.render_group(row, params)}, "
            f"expected label {want_label!r}"
        )


def recurrence(params):
    _check_table_size(params)
    table = RostChowTable(params)
    p, n, b = params.p, params.n, params.b
    for j in range(params.d + 1):
        if j < b:
            row = motcoh.even_row(j, params)
            if row.label == "Z":
                table.entries[j] = FREE
                table.trace[j] = "j<b: second triangle copies row H^{2j,j} = Z*1"
            elif row.label == "0":
                table.entries[j] = ZERO
                table.trace[j] = "j<b: second triangle copies vanishing row H^{2j,j}"
            elif row.label == f"Z/{p}":
                mono = row.monomials[0]
                t = b + 1 - j
                i, q = 0, 1
                while q < t:
                    q *= p
                    i += 1
                if q != t or mono != motcoh.qtilde(i, params):
                    raise ValueError(
                        f"recurrence inconsistency: torsion row at j={j} is not the omitted-Q class"
                    )
                table.entries[j] = ChowGroupDesc("cyclic_p", k=1, i=i)
                table.trace[j] = (
                    f"j<b: second triangle copies row H^{{2j,j}} = (Z/{p})*"
                    f"{motcoh.render_monomial(mono, params)}"
                )
            else:
                raise ValueError(
                    f"recurrence inconsistency: unexpected row {motcoh.render_group(row, params)} at j={j}"
                )
        elif j == b:
            _expect_row(motcoh.even_row(j, params), "0", f"H^{{2j,j}} at j=b={b}", params)
            odd = motcoh.odd_row(j, params)
            _expect_row(odd, f"Z/{p}", f"H^{{2j+1,j}} at j=b={b}", params)
            if odd.monomials[0] != motcoh.mu(params):
                raise ValueError("recurrence inconsistency: odd row at j=b is not mu")
            table.entries[j] = ChowGroupDesc("p_free", k=1)
            table.trace[j] = (
                f"j=b: boundary onto (Z/{p})*mu has image of index p in the free rank-1 part"
            )
        elif j == b + 1:
            even = motcoh.even_row(j, params)
            _expect_row(even, "K_1^s", f"H^{{2j,j}} at j=b+1={b + 1}", params)
            if even.monomials[0] != _k1_family(params):
                raise ValueError("recurrence inconsistency: even row at j=b+1 is not the mu family")
            _expect_row(motcoh.odd_row(j, params), "0", f"H^{{2j+1,j}} at j=b+1={b + 1}", params)
            table.entries[j] = _bump(table.entries[1], j, params)
            table.trace[j] = (
                "j=b+1: degree-1 coefficient surjectivity onto K_1^s*mu (assumed) kills the "
                "boundary; twist shift lifts the entry at j=1"
            )
        else:
            _expect_row(motcoh.even_row(j, params), "0", f"H^{{2j,j}} at j={j}", params)
            _expect_row(motcoh.odd_row(j, params), "0", f"H^{{2j+1,j}} at j={j}", params)
            table.entries[j] = _bump(table.entries[j - b], j, params)
            table.trace[j] = (
                f"j>b+1: both rows vanish; restriction iso in range ({2 * (j - b)}<{2 * params.d}, "
                f"{j - b}<{params.d}) shifts the entry at j-b={j - b}"
            )
    return table


def _k1_family(params):
    # the even row at j = b+1 carries the degree-1 coefficient against mu
    return motcoh.MCMonomial(1, 0, motcoh.mu(params).eps)


def compare(params):
    """Run both engines; return (agree, list of (j, closed_desc, recurrence_desc))."""
    left = closed_form(params)
    right = recurrence(params)
    diffs = [
        (j, left.entries[j], right.entries[j])
        for j in range(params.d + 1)
        if left.entries[j] != right.entries[j]
    ]
    return (not diffs, diffs)
