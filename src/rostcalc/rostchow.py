"""CH^j tables of the split-plus-torsion motive cut out by the projector.

Two independent engines produce the same table: a direct closed form
(free part at j = 0 and index-p free parts at j = b*k, torsion Z/p at
j = b*k - p^i + 1) and a j-induction that consumes the cohomology rows
of motcoh.  Disagreement between the two raises
"recurrence inconsistency" / fails compare().

Only n + 2 rows in [0, d] are nonzero: k = 0 there, and eps has at most
2 + w zeros (motcoh.nonzero_rows).  So both engines fill the d + 1 zero
entries in one dict.fromkeys and do O(p*n) work on the rest, and the
recurrence shifts only nonzero entries.  A row's derivation note follows
from j, its entry and the params, so it is rendered only when read.
"""

from dataclasses import dataclass

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
    entries: dict
    #: the engine's derivation note of row j, as note(j, entry, params)
    note: object

    @property
    def trace(self):
        """The derivation note of every row, rendered on each access."""
        return {j: self.note(j, desc, self.params) for j, desc in self.entries.items()}

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


_CLOSED_NOTES = {"zero": "zero", "free": "full free summand at j=0",
                 "p_free": "index-p free part at j=b*{0.k}",
                 "cyclic_p": "Z/{1} at j=b*{0.k}-p^{0.i}+1"}


def closed_note(j, desc, params):
    return "closed form: " + _CLOSED_NOTES[desc.kind].format(desc, params.p)


def closed_form(params):
    _check_table_size(params)
    b, p = params.b, params.p
    entries = dict.fromkeys(range(params.d + 1), ZERO)
    entries[0] = FREE
    # j = b*k - p^i + 1 lies strictly between b*(k-1) and b*k, since
    # 1 < p^i < b, so no two entries share a j
    for k in range(1, p):
        entries[b * k] = ChowGroupDesc("p_free", k=k)
        for i in range(1, params.n):
            entries[b * k - p**i + 1] = ChowGroupDesc("cyclic_p", k=k, i=i)
    return RostChowTable(params, entries, closed_note)


def _bump(desc, j, params):
    """Shift a nonzero table entry up by one twist (j-b -> j)."""
    if desc.kind == "p_free":
        if desc.k + 1 > params.p - 1:
            raise ValueError(f"recurrence inconsistency: free index overflow at j={j}")
        return ChowGroupDesc("p_free", k=desc.k + 1)
    if desc.kind == "cyclic_p":
        return ChowGroupDesc("cyclic_p", k=desc.k + 1, i=desc.i)
    raise ValueError(f"recurrence inconsistency: cannot shift kind {desc.kind!r} to j={j}")


_ZERO_ROW = motcoh.MCGroup((), "0")


def _expect_row(rows, key, want, params):
    got = rows.get(key, _ZERO_ROW)
    if got != want:
        raise ValueError(
            f"recurrence inconsistency: row H^{{{key[0]},{key[1]}}} is "
            f"{motcoh.render_group(got, params)}, expected {motcoh.render_group(want, params)}")


def _copied_row(j, row, params):
    """The entry at j < b, copied from H^{2j,j}: Z*1, or Z/p*qtilde(i) at j = b + 1 - p^i."""
    if row.label == "Z":
        return FREE
    i = next((i for i in range(1, params.n) if params.b + 1 - j == params.p**i), None)
    if i is None or row != motcoh.MCGroup((motcoh.qtilde(i, params),), f"Z/{params.p}"):
        raise ValueError(f"recurrence inconsistency: row H^{{2j,j}} at j={j} is "
                         f"{motcoh.render_group(row, params)}, not Z*1 or an omitted-Q class")
    return ChowGroupDesc("cyclic_p", k=1, i=i)


def recurrence_note(j, desc, params):
    b = params.b
    if j < b:
        if desc.kind == "free":
            return "j<b: second triangle copies row H^{2j,j} = Z*1"
        if desc.kind == "zero":
            return "j<b: second triangle copies vanishing row H^{2j,j}"
        mono = motcoh.render_monomial(motcoh.qtilde(desc.i, params), params)
        return f"j<b: second triangle copies row H^{{2j,j}} = (Z/{params.p})*{mono}"
    if j == b:
        return f"j=b: boundary onto (Z/{params.p})*mu has image of index p in the free rank-1 part"
    if j == b + 1:
        return ("j=b+1: degree-1 coefficient surjectivity onto K_1^s*mu (assumed) kills the "
                "boundary; twist shift lifts the entry at j=1")
    return (f"j>b+1: both rows vanish; restriction iso in range ({2 * (j - b)}<{2 * params.d}, "
            f"{j - b}<{params.d}) shifts the entry at j-b={j - b}")


def recurrence(params):
    _check_table_size(params)
    p, b, d = params.p, params.b, params.d
    rows = motcoh.nonzero_rows(params)
    # j = b: the boundary onto (Z/p)*mu; j = b+1: the degree-1 coefficient
    # family against mu; every other row but the even ones below b vanishes
    mu = motcoh.mu(params)
    fixed = {(2 * b, b): _ZERO_ROW, (2 * b + 1, b): motcoh.MCGroup((mu,), f"Z/{p}"),
             (2 * b + 2, b + 1): motcoh.MCGroup((motcoh.MCMonomial(1, 0, mu.eps),), "K_1^s"),
             (2 * b + 3, b + 1): _ZERO_ROW}
    for key, want in fixed.items():
        if key[1] <= d:
            _expect_row(rows, key, want, params)
    entries = dict.fromkeys(range(d + 1), ZERO)
    nonzero = []
    for (i, j), row in rows.items():
        if j < b and i == 2 * j:
            entries[j] = _copied_row(j, row, params)
            nonzero.append(j)
        elif (i, j) not in fixed:
            _expect_row(rows, (i, j), _ZERO_ROW, params)
    if entries[0] is not FREE or {entries[j].i for j in nonzero[1:]} != set(range(1, params.n)):
        raise ValueError("recurrence inconsistency: the rows below b are not Z*1 "
                         "and one omitted-Q class for each i in [1, n-1]")
    entries[b] = ChowGroupDesc("p_free", k=1)
    nonzero.append(b)
    # j > b: the entry at j is the one at j-b shifted; the list grows in
    # increasing j as it is walked
    for j in nonzero:
        if j and j + b <= d:
            entries[j + b] = _bump(entries[j], j + b, params)
            nonzero.append(j + b)
    return RostChowTable(params, entries, recurrence_note)


def diffs(left, right):
    """The rows (j, left entry, right entry) where two tables differ."""
    return [] if left.entries == right.entries else [
        (j, desc, right.entries[j]) for j, desc in left.entries.items() if desc != right.entries[j]]


def compare(params):
    """Run both engines; return (agree, list of (j, closed_desc, recurrence_desc))."""
    found = diffs(closed_form(params), recurrence(params))
    return (not found, found)
