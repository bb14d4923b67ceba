"""Exact p-divisibility audits for total Steenrod powers in the split model.

The engine never computes a Steenrod action.  It gives a verdict to every
term that appears when S^s is pushed through a pairing of Chern classes
against powers of the special correspondence sigma = 1 x H - H x 1,
expanding S^l(sigma^r) by the Cartan formula and each S^a(sigma) into

    S^a(sigma) = p*theta_a + 1 x S^a(H) - S^a(H) x 1.

A verdict reads a term only through its pairing and its bucket: two or more
thetas, one theta, no theta but a second, or thirds only.  So the audits
count each bucket's terms from partition counts and list no term.  A row
(i, j) splits its l into runs of one verdict regime each, a case per
non-empty bucket, and a verdict reads the row only through the run's
position, whether it is the leading row, b | i and j > 0: a rationality
case is a band of rows over a stretch of t = i + j, named by its first row
and weighted in closed form; the rows past d are one zero case.

The verdicts are:

* ``Zero(reason)``    -- the term vanishes on the nose;
* ``ValExactly(1)``   -- the single leading term, valuation exactly 1,
                         resting on declared degree premises;
* ``ValAtLeast(2)``   -- the term lies in the ideal p^2*CH + p*(rational
                         classes), certified by a trace of rule applications.

Every rule names the atoms it uses, and ``replay`` re-checks the premises,
the bands and every weight by its own closed forms, so a report can be
audited without trusting the case split that produced it.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, groupby
from math import comb
from operator import itemgetter, mul, sub
from types import MappingProxyType
from typing import NamedTuple

from .arith import multinomial, val
from .corresp import (
    action_on_class,
    basis,
    compose,
    rho,
    rost_projector,
    sigma,
    transpose,
)
from .reporting import CheckReport
from .splitring import SymbolParams, h_power


ATOM_KINDS = ("sigma", "theta", "second", "third", "chern_x", "chern_y")
_RATIONAL = frozenset({"second", "third", "chern_x", "chern_y"})

#: the largest dimension d = p^n - 1 the audits and their argument grids
#: take; at (11, 2), d = 120, the s = 120 audit has 28,920 rows (i, j) in
#: 113 cases (bands) standing for 4.3 * 10^9 terms.
MAX_AUDIT_DIM = 128


def check_audit_size(params):
    if params.d > MAX_AUDIT_DIM:
        raise ValueError(
            f"audit too large: d = {params.d} at p={params.p} n={params.n}, "
            f"more than {MAX_AUDIT_DIM}")


class _Atom(NamedTuple):
    kind: str
    index: int = 0


class SteenAtom(_Atom):
    """One factor of an expansion term: sigma (unexpanded), theta / second /
    third (the pieces of the sigma decomposition, second = 1 x S^j(H) and
    third = S^j(H) x 1), chern_x / chern_y (Chern classes of the negative
    tangent bundles, the _y ones pushed forward from the subvariety)."""

    __slots__ = ()

    def __new__(cls, kind, index=0):
        if kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {kind!r}")
        return super().__new__(cls, kind, index)

    @property
    def rational(self):
        return self.kind in _RATIONAL

    @property
    def poscodim(self):
        # chern_y has codimension (d - dim Y) + index > 0 in the ambient
        # variety; second/third are S^(a > 0) of a positive-codim class
        if self.kind == "chern_x":
            return self.index > 0
        return self.kind in ("chern_y", "second", "third")

    def __str__(self):
        names = {"sigma": "sigma", "theta": "theta_%d", "second": "1xS^%d(H)",
                 "third": "S^%d(H)x1", "chern_x": "b_%d", "chern_y": "bY_%d"}
        pat = names[self.kind]
        return pat % self.index if "%" in pat else pat


# atoms are immutable, so the audits share one per (kind, index)
_atom = lru_cache(maxsize=None)(SteenAtom)

# The audits build their records (PairingContext, SteenProduct, AuditCase)
# as _new(Record, fields) with every field given: Record(*fields) without
# the Python-level __new__ of a NamedTuple, one frame per record.
_new = tuple.__new__


class PairingContext(NamedTuple):
    """What an expansion term is paired against, and the index budget:
    "rationality", deg(b_i x b_j * <term> * (1 x S^k(x))) with i + j + k
    + l = d + s over r = p - 1; "generators", deg(bY_i * <term>) against
    sigma^r pushed from a dim-(p^m - 1) subvariety, i + j = p^m - 1."""

    kind: str
    params: SymbolParams
    m: int
    s: int
    r: int
    i: int
    j: int
    k: int
    l: int
    chern: tuple


_COUNTED = ("sigma", "theta", "second", "third")


@lru_cache(maxsize=None)
def _atom_tally(atoms):
    """The sigma, theta, second and third counts of a product's atoms, its
    first two theta atoms and its first second atom (or None)."""
    by_kind = {kind: [a for a in atoms if a.kind == kind] for kind in _COUNTED}
    seconds = by_kind["second"]
    return (tuple(len(by_kind[kind]) for kind in _COUNTED),
            tuple(by_kind["theta"][:2]), seconds[0] if seconds else None)


class SteenProduct(NamedTuple):
    """A bucket of expansion terms: the ``weight`` terms of one expansion
    whose theta, second and third counts fall in the same verdict bucket,
    represented by one of them (``atoms``, with its signed ``scalar``)."""

    atoms: tuple
    scalar: int
    context: PairingContext = None
    weight: int = 1

    def classify(self):
        return dict(zip(_COUNTED, _atom_tally(self.atoms)[0]))

    def __str__(self):
        atoms = "*".join(str(a) for a in self.atoms) or "1"
        return f"{self.scalar}*{atoms}" if self.scalar != 1 else atoms


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    reason: str


@dataclass(frozen=True)
class ValExactly:
    value: int
    premises: tuple = ()


@dataclass(frozen=True)
class RuleApp:
    rule: str
    atoms: tuple = ()


@dataclass(frozen=True)
class ValAtLeast:
    value: int
    rules: tuple = ()


#: the tally slot of a verdict type: zero, at-least, and exact for any other
_SLOT = {Zero: 0, ValAtLeast: 1}


def verdict_str(v):
    if isinstance(v, Zero):
        return f"zero[{v.reason}]"
    if isinstance(v, ValExactly):
        return f"val={v.value} exactly [{'+'.join(v.premises)}]"
    return f"val>={v.value} via {'+'.join(r.rule for r in v.rules)}"


# --- rule and premise registries ---------------------------------------------

RULE_FACTORS = {
    # the sigma decomposition carries an explicit p on every theta
    "theta-carries-p": 1,
    # a rational positive-codimension class pairs to a p-divisible degree
    "rational-pairing": 1,
    # so do two in a split pairing, to a p^2-divisible one
    "split-pairing": 2,
    # every summand of the point-splitting of x dies (see ``replay``)
    "x-decomp-vanishes": 1,
}

ZERO_REASONS = {
    "chern-index-overflow":
        "Chern index beyond the dimension: the group is zero",
    "steenrod-index-invalid":
        "S^k = 0 when k is negative or not a multiple of p-1",
    "cartan-empty":
        "no composition into Steenrod-valid parts",
    "rho-pairing-zero":
        "pairing against sigma^(p-1) needs a Chern index divisible by b",
    "proj1-sigma-power-zero":
        "first-projection pushforward of a sub-top sigma power vanishes",
}

PREMISES = {
    "top-chern-degree":
        "val(deg b_d) = 1 for the top Chern class of the negative tangent "
        "bundle (model premise)",
    "top-chern-y-degree":
        "val(deg bY_{dim Y}) = 1 at the top index of the subvariety "
        "(model premise)",
    "unit-pairing-degree":
        "val(e) = 0 for e = deg(H^{p-1}) (checked)",
    "degree-p-closed-point":
        "a degree-p closed point makes p kill the kernel of the splitting-"
        "field restriction (model premise)",
}


# --- index bookkeeping and expansion ------------------------------------------


def steen_index_valid(i, p):
    """S^i is the zero operation unless i >= 0 and (p-1) | i."""
    return i >= 0 and i % (p - 1) == 0


@lru_cache(maxsize=None)
def _cartan_expand_cached(r, l, p):
    step = p - 1
    if r < 0 or l < 0 or l % step:
        return ()
    out = []

    def rec(slots, rem, lo, acc):
        if slots == 0:
            if rem == 0:
                out.append((tuple(acc), multinomial(map(acc.count, set(acc)))))
            return
        for v in range(lo, rem + 1, step):
            acc.append(v)
            rec(slots - 1, rem - v, v, acc)
            acc.pop()

    rec(r, l, 0, [])
    return tuple(out)


def cartan_expand(r, l, p):
    """Unordered Cartan compositions of S^l over an r-fold product, as
    [(parts, multiplicity)]: parts an ascending r-tuple of Steenrod-valid
    indices summing to l, multiplicity the number of ordered compositions
    collecting to it; empty when (p-1) does not divide l."""
    return list(_cartan_expand_cached(r, l, p))


def _bucket_split(q):
    """Per bucket, how many of the 3^q theta/second/third assignments to q
    positive parts fall in it."""
    one_theta = q * 2 ** q // 2
    return 3 ** q - 2 ** q - one_theta, one_theta, 2 ** q - 1, 1


def substitute_dcmp(expansion):
    """Expand every positive part of every Cartan composition through the
    sigma decomposition: one product per non-empty bucket, weighted by its
    terms (a composition's 3^q terms split by its q positive parts), the
    theta-heaviest class of the first composition that fills it: theta,
    then second, then third on its positive parts, sigma on its zero parts,
    scalar multiplicity * (-1)^(number of thirds)."""
    weights, reps = [0, 0, 0, 0], [None] * 4
    for parts, multiplicity in expansion:
        positive = [v for v in parts if v]
        for bucket, w in enumerate(_bucket_split(len(positive))):
            weights[bucket] += w
            if w and reps[bucket] is None:
                reps[bucket] = (len(parts) - len(positive), positive,
                                multiplicity)
    out = []
    for bucket, rep in enumerate(reps):
        if rep is not None:
            sigmas, positive, multiplicity = rep
            q = len(positive)
            a, b = ((q, 0), (1, q - 1), (0, q), (0, 0))[bucket]
            kinds = ("theta",) * a + ("second",) * b + ("third",) * (q - a - b)
            atoms = (_atom("sigma"),) * sigmas + tuple(
                _atom(kind, v) for kind, v in zip(kinds, positive))
            out.append(SteenProduct(atoms, multiplicity * (-1) ** (q - a - b),
                                    None, weights[bucket]))
    return out


@lru_cache(maxsize=None)
def _weight_sums(r, p, top):
    """The bucket tables of S^l over r factors for l <= top (each bucket's
    product, None where empty), and prefix sums of the bucket weights over
    l stepped by p - 1: sums[bucket][c + p - 1] - sums[bucket][a] sums over
    range(a, c + 1, p - 1).  S^l, l = L(p - 1), has a composition with q
    positive parts per partition of L into q parts (by conjugation, parts
    <= q less parts <= q - 1); the first two fill the filled buckets, the
    first 1-3 (3 alone at l = 0), the second 0."""
    step, size, tables = p - 1, top // (p - 1) + 1, [(None,) * 4] * (top + 1)
    at_most = [1] + [0] * (size - 1)  # partitions of L into parts <= q
    columns = [[0] * size, [0] * size, [0] * size, at_most[:]]  # weights
    for q in range(1, r + 1):
        more = at_most[:]  # coin change: admit parts of size q
        for big_l in range(q, size):
            more[big_l] += more[big_l - q]
        exact, at_most = list(map(sub, more, at_most)), more
        for column, w in zip(columns, _bucket_split(q)):
            column[:] = [c + w * n for c, n in zip(column, exact)]
    for l in range(0, top + 1, step):
        firsts = [(0,) * (r - 1) + (l,)]
        if r > 1 and l >= 2 * step:
            firsts.append((0,) * (r - 2) + (step, l - step))
        prods = substitute_dcmp(
            [(x, multinomial(map(x.count, set(x)))) for x in firsts])
        tables[l] = (None,) * (4 - len(prods)) + tuple(
            _new(SteenProduct, (*prod[:3], column[l // step]))
            for prod, column in zip(prods, columns[4 - len(prods):]))
    sums = [[0] * (top + 1 + step) for _ in range(4)]
    for l in range(top + 1):
        for row, prod in zip(sums, tables[l]):
            row[l + step] = row[l] + (prod.weight if prod else 0)
    return tuple(tables), tuple(map(tuple, sums))


# --- the rule engine -----------------------------------------------------------


# Verdicts are shared: one Zero per reason, one ValAtLeast(2) per tuple of
# (rule, atoms) pairs, whose indices stay below 2 * MAX_AUDIT_DIM.
_ZERO = {reason: Zero(reason) for reason in ZERO_REASONS}
_EXACT_RAT = ValExactly(1, ("top-chern-degree", "unit-pairing-degree"))
_EXACT_GEN = ValExactly(1, ("top-chern-y-degree", "unit-pairing-degree"))
_XDECOMP = ("x-decomp-vanishes", ())


@lru_cache(maxsize=None)
def _at_least(*apps):
    """The ValAtLeast(2) certified by apps, each a (rule, atoms) pair."""
    return ValAtLeast(2, tuple(RuleApp(rule, atoms) for rule, atoms in apps))


def valuation_bound(prod):
    """Verdict for one expansion term, or for every term of its bucket,
    strongest first: structural zeros, then valuation rules with their
    trace."""
    ctx = prod.context
    if ctx is None:
        raise ValueError("cannot audit: product has no pairing context")
    (_, n_theta, n_second, n_third), thetas, second = _atom_tally(prod.atoms)

    if ctx.kind == "generators":
        chern = ctx.chern[0]
        if n_theta >= 1:
            return _at_least(("theta-carries-p", thetas[:1]),
                             ("rational-pairing", (chern,)))
        if n_second >= 1:
            return _at_least(("split-pairing", (chern, second)))
        if n_third >= 1:
            return _ZERO["proj1-sigma-power-zero"]
        return _EXACT_GEN

    if ctx.kind != "rationality":
        raise ValueError(f"cannot audit: unknown pairing kind {ctx.kind!r}")

    # audit_rationality emits the Chern-overflow and invalid-S^k zeros
    # before it builds a context, so no product reaches them here
    chern_i, chern_j = ctx.chern
    if ctx.l == 0:
        if ctx.i == ctx.params.d and ctx.j == 0:
            return _EXACT_RAT
        if ctx.i % ctx.params.b:
            return _ZERO["rho-pairing-zero"]
        if ctx.j > 0:
            return _at_least(("rational-pairing", (chern_i,)),
                             ("rational-pairing", (chern_j,)))
        return _at_least(("rational-pairing", (chern_i,)), _XDECOMP)

    # l > 0: the term carries an actual sigma expansion
    if n_theta >= 2:
        return _at_least(("theta-carries-p", thetas[:1]),
                         ("theta-carries-p", thetas[1:]))
    if n_theta == 1:
        first = ("theta-carries-p", thetas)
        if ctx.k != ctx.s:
            return _at_least(first, _XDECOMP)
        if ctx.j > 0:
            return _at_least(first, ("rational-pairing", (chern_j,)))
        return _at_least(first, ("rational-pairing", (chern_i,)))
    # no theta
    if ctx.k != ctx.s:
        return _at_least(("rational-pairing", (chern_i,)), _XDECOMP)
    if ctx.j > 0:
        return _at_least(("split-pairing", (chern_i, chern_j)))
    if n_second >= 1:
        return _at_least(("split-pairing", (chern_i, second)))
    return _ZERO["proj1-sigma-power-zero"]


# --- reports -------------------------------------------------------------------


class AuditCase(NamedTuple):
    """One verdict over a run of l and a band of rows: ``index`` is the
    (i, j, k, l) of its representative, (i, j) the band's first row, and
    ``range`` the l of the run there; a rationality case's ``band`` is the
    t = i + j it covers, stepped by p - 1, over every row of its first
    row's kind, and ``weight`` the number of expansion terms it stands for
    (one per l and row for an unexpanded zero)."""

    index: tuple
    product: SteenProduct
    verdict: object
    leading: bool = False
    range: object = None
    weight: int = 1
    band: object = None

    def describe(self):
        prod = str(self.product) if self.product is not None else "unexpanded"
        lead = " (leading)" if self.leading else ""
        return f"{self.index}: {prod} -> {verdict_str(self.verdict)}{lead}"


@dataclass(frozen=True)
class AuditReport:
    kind: str
    params: SymbolParams
    args: tuple
    premises: tuple
    support: tuple
    cases: tuple
    conclusion: str
    passed: bool
    #: the (zero, at-least, exact) verdict tallies, case weights summed
    tallies: tuple = (0, 0, 0)

    @property
    def title(self):
        arg_text = " ".join(f"{k}={v}" for k, v in self.args)
        return (f"{self.kind} audit p={self.params.p} n={self.params.n} "
                f"{arg_text}")

    @property
    def leading(self):
        return next((case for case in self.cases if case.leading), None)

    def counts(self):
        """Verdict tallies over expansion terms (case weights summed)."""
        return dict(zip(("zero", "at-least", "exact"), self.tallies))

    def header_lines(self):
        return [self.title, *(f"premise {pid}: {PREMISES[pid]}"
                              for pid in self.premises),
                *(f"support {'ok' if ok else 'FAIL'}: {name}"
                  + (f" -- {detail}" if detail else "")
                  for name, ok, detail in self.support)]


def _conclude(cases, support, pass_text, fail_text):
    """(passed, conclusion, tallies) of an audit in one pass over its cases:
    what first keeps it from passing is the number of leading cases, then
    the first case whose verdict is not allowed, then a failing support."""
    tallies, n_leading, first = [0, 0, 0], 0, None
    for case in cases:
        _, _, verdict, leading, _, weight, _ = case
        slot, n_leading = _SLOT.get(type(verdict), 2), n_leading + leading
        tallies[slot] += weight
        if first is None and not (
                type(verdict) is ValExactly and verdict.value == 1 if leading
                else verdict.reason in ZERO_REASONS if slot == 0
                else slot == 1 and verdict.value >= 2):
            first = case
    if n_leading != 1:
        offender = f"{n_leading} leading cases, expected 1"
    elif first is not None:
        offender = f"case {first.index}: {verdict_str(first.verdict)}"
    else:
        offender = next((f"support {name}" + (f" -- {detail}" if detail else "")
                         for name, ok, detail in support if not ok), None)
    return offender is None, pass_text if offender is None else (
        f"{fail_text} (first: {offender})"), tuple(tallies)


# --- the two audits --------------------------------------------------------------

# The rows (i, j) within d at t = i + j are of four kinds: (t, 0) below d,
# (d, 0), and those with j > 0 and b | i or not.  A row splits its l by
# position: the l with an invalid S^k; all l if p - 1 does not divide the
# budget; else l = 0, the l between 0 and l_s = d - t (where k = s), l_s
# itself and the l above both.
_J0, _LEAD, _BDIV, _OTHER = range(4)
_INVALID, _EMPTY, _L0, _BEFORE, _AT, _AFTER = range(6)


@lru_cache(maxsize=None)
def _band_sums(r, p, top):
    """Per bucket of ``_weight_sums(r, p, top)``, then for F[L] = L (zeros),
    (F, P, Q) over L = l / (p - 1): P and Q sum F[L] and L * F[L], L < V."""
    cols = [row[::p - 1] for row in _weight_sums(r, p, top)[1]]
    return tuple((col, (0, *accumulate(col)),
                  (0, *accumulate(map(mul, count(), col))))
                 for col in cols + [range(len(cols[0]))])


@lru_cache(maxsize=None)
def _bands(p, b, d, s):
    """The bands of a rationality audit at s in the row order of their
    first rows, (index, leading, run, product or zero, weight, band): per
    kind and t mod p - 1, a (position, bucket) holds terms from the kind's
    first t on, one band cut where its shape changes.  Its weight sums
    rows(t) * F[x - u] over its terms, t = t0 + u(p - 1) and the blocks
    kb < t <= (k + 1)b, where a kind's rows are a + c*u.  Per s: no verdict
    reads m."""
    step, total, out = p - 1, d + s, []
    tables, sums = _weight_sums(step, p, 2 * d)[0], _band_sums(step, p, 2 * d)
    # the last t each (run position, bucket) holds terms at: before l_s needs
    # l_s >= 2(p - 1), at it l_s > 0, after it s > 0, bucket 0 p - 1 more
    slots = ((_L0, 3, total),) + tuple(
        (pos, bucket, base - (need + (bucket == 0)) * step)
        for pos, base, need in ((_BEFORE, d, 2), (_AT, d, 1),
                                (_AFTER, total if s else 0, 1))
        for bucket in range(step < 2, 4))
    for kind, first, last in ((_J0, 1, d - 1), (_LEAD, d, d),
                              (_BDIV, b + 1, min(2 * d, total)),
                              (_OTHER, 2, min(2 * d - 1, total) * (b > 1))):
        for rho_t in range(step):  # the t = rho_t mod p - 1
            head = first + (rho_t - first) % step
            last_t = last - (last - rho_t) % step
            zero = ((_INVALID, None, total - 1),) * (step > 1)
            for pos, bucket, end in zero + (
                    ((_EMPTY, None, last_t),) if rho_t else slots):
                end = min(end, last_t)
                end -= (end - rho_t) % step
                cuts = {head, end + step} if head <= end else ()
                if pos == _AFTER and head < d <= end:  # l_s = 0
                    cuts.add(d)
                elif cuts and pos == _L0 and kind == _J0 and b > 1:  # b | t
                    cuts.update(x + e for x in range(b, end + 1, b)
                                if x % step == 0 for e in (0, step)
                                if head < x + e <= end)
                cuts = sorted(cuts)
                for t0, cut in zip(cuts, cuts[1:]):
                    i = t0 if kind < _BDIV else max(1, t0 - d)
                    i = -(-i // b) * b if kind == _BDIV else i + (
                        kind == _OTHER and i % b == 0)
                    budget, l_s, rest = total - t0, d - t0, (d + s - t0) % step
                    big_l, big_s = budget // step, l_s // step
                    # its run, and the (coef, x, moves) of its two terms
                    if pos == _INVALID:
                        run, hi, lo = (range(budget + 1), (step - 1, big_l, 1),
                                       (rest, 1, 0))
                    elif pos == _EMPTY:
                        run, hi, lo = (range(rest, budget + step, step),
                                       (1, big_l, 1), (1, 1, 0))
                    elif pos == _L0:
                        run, hi, lo = range(1), (1, 1, 0), (-1, 0, 0)
                    elif pos == _BEFORE:
                        run, hi, lo = (range(step, l_s, step), (1, big_s, 1),
                                       (-1, 1, 0))
                    elif pos == _AT:
                        run, hi, lo = (range(l_s, l_s + step, step),
                                       (1, big_s + 1, 1), (-1, big_s, 1))
                    else:
                        run = range(max(step, l_s + step), budget + step, step)
                        hi, lo = (1, big_l + 1, 1), (
                            (-1, big_s + 1, 1) if l_s > 0 else (-1, 1, 0))
                    if pos < _L0:
                        l = run[0] + (pos == _INVALID and not rest)
                        rep = _ZERO[("steenrod-index-invalid",
                                     "cartan-empty")[pos]]
                    else:
                        l = run[0] if tables[run[0]][bucket] else run[0] + step
                        rep = tables[l][bucket]
                    # one block for the rows (t, 0), one row at each t
                    col, weight, n, w = sums[4 if pos < _L0 else bucket], 0, (
                        cut - t0) // step, b if kind > _LEAD else total + 1
                    for k in range((t0 - 1) // w, (cut - step - 1) // w + 1):
                        u0 = max(0, (k * w - t0) // step + 1)
                        u1, mult = min(n - 1, ((k + 1) * w - t0) // step), min(
                            k, 2 * step - k)
                        a, c = ((1, 0), (1, 0), (mult, 0), (
                            t0 - 1 - mult, step) if k < step else (
                            2 * d + 1 - t0 - mult, -step))[kind]
                        for coef, x, moves in (hi, lo) * (u0 <= u1):
                            f, pf, qf = col
                            weight += coef * ((a + c * x) * (
                                pf[x - u0 + 1] - pf[x - u1]) - (
                                c and c * (qf[x - u0 + 1] - qf[x - u1]))
                                if moves else f[x] * (u1 - u0 + 1)
                                * (2 * a + c * (u0 + u1)) // 2)
                    out.append(((i, t0 - i, pos, bucket or 0), (
                        (i, t0 - i, budget - l, l), kind == _LEAD and l == 0,
                        run, rep, weight, range(t0, cut, step))))
    if s:  # the rows past d, (1, d + 1) first once j can pass d
        i, j = (1, d + 1) if s > 1 else (d + 1, 0)
        out.append(((i, j), ((i, j, s - i - j + d, 0), False, range(
            s - i - j + d + 1), _ZERO["chern-index-overflow"],
            comb(s + 2, 3) + comb(s + 1, 3), None)))
    return tuple(band for _, band in sorted(out, key=itemgetter(0)))


def rationality_grid(params):
    """All (m, s) the rationality audit claims, as one (s, range of m) per
    Steenrod-valid s in [0, d]: the m in [0, d] with s > (m - b)(p-1)."""
    check_audit_size(params)
    p, b, d = params.p, params.b, params.d
    return [(s, range(min(d, b - 1 + s // (p - 1)) + 1))
            for s in range(0, d + 1, p - 1)]


def generators_arguments(params):
    check_audit_size(params)
    return [(m, r) for m in range(1, params.n) for r in range(1, params.p)]


_RAT_PREMISES = ("top-chern-degree", "unit-pairing-degree")
_GEN_PREMISES = ("top-chern-y-degree", "unit-pairing-degree",
                 "degree-p-closed-point")


def _proj1_push(corr):
    """Pushforward along the first projection as a class on the first factor."""
    return action_on_class(transpose(corr), 0)


@lru_cache(maxsize=None)
def _rationality_support(params):
    p, ev = params.p, val(params.e, params.p)
    rho_top = rho(params).coeff(0, p - 1)
    subtop = all(_proj1_push(sigma(params) ** r).is_zero()
                 for r in range(1, p - 1))
    return (
        ("unit-pairing-degree", ev == 0, f"val(e) = {ev}"),
        ("rho-top-coefficient", rho_top == 1,
         f"E(0,{p - 1}) coefficient of sigma^{p - 1} is {rho_top}"),
        ("proj1-subtop-sigma-vanishing", subtop,
         "pr1 pushforward of sigma^r is 0 for 0 < r < p-1"),
    )


@lru_cache(maxsize=None)
def _sigma_power_witnesses(params, r):
    """Whether pr1 sends sigma^r*(1 x H^(p-1-r)) to e*1; pi absorbs sigma^r."""
    sigma_r = sigma(params) ** r
    witness = _proj1_push(sigma_r * basis(params, 0, params.p - 1 - r))
    return (witness == h_power(params, 0).scale(params.e),
            compose(rost_projector(params), sigma_r) == sigma_r)


def audit_rationality(params, m, s):
    """Audit that S^s of the base component of a dimension-m class is
    rational modulo the ideal p^2*CH + p*(rational classes): classify the
    terms of the budget i + j + k + l = d + s, i >= 1, band by band
    (``_bands``), each on its first row.  Passes iff the single leading term
    (i = d, j = l = 0, k = s) has valuation exactly 1 and every other term
    is Zero or ValAtLeast(2)."""
    check_audit_size(params)
    p, b, d = params.p, params.b, params.d
    args, valid = (("m", m), ("s", s)), steen_index_valid(s, p)
    if valid and s <= (m - b) * (p - 1):
        raise ValueError(
            f"bound not satisfied: need s > (m-b)(p-1) = {(m - b) * (p - 1)}"
            f", got s = {s}; nothing is claimed below the bound")
    if not 0 <= m <= d:
        raise ValueError(f"cycle dimension m = {m} outside [0, {d}]")
    if valid and s > d:
        raise ValueError(f"Steenrod degree s = {s} above d = {d}; nothing "
                         f"is claimed above d")
    if not valid:
        why = f"{s} < 0" if s < 0 else f"{p - 1} does not divide {s}"
        return AuditReport(
            "rationality", params, args, _RAT_PREMISES, (), (),
            conclusion=f"trivial: S^{s} = 0 since {why} (nothing to audit)",
            passed=True)

    support, step, cases = _rationality_support(params), p - 1, []
    for index, lead, run, rep, weight, band in _bands(p, b, d, s):
        prod, (i, j, k, l) = None, index
        if type(rep) is not Zero:
            prod = _new(SteenProduct, (rep.atoms, rep.scalar, _new(
                PairingContext, ("rationality", params, m, s, step, i, j, k,
                                 l, (_atom("chern_x", i), _atom("chern_x", j)))
            ), rep.weight))
        cases.append(_new(AuditCase, (index, prod, valuation_bound(prod) if (
            prod) else rep, lead, run, weight, band)))
    cases = tuple(cases)

    ok, conclusion, tallies = _conclude(
        cases, support,
        pass_text=f"pass: leading term deg(b_{d})*S^{s}(x_0) has valuation "
                  "exactly 1; all other terms are zero or in the ideal",
        fail_text="fail: could not certify rationality modulo the ideal")
    return AuditReport("rationality", params, args, _RAT_PREMISES, support,
                       cases, conclusion, ok, tallies)


def audit_generators(params, m, r):
    """Audit that the class pushed from a dimension-(p^m - 1) subvariety
    through sigma^r and the split projector has order exactly p: (a) its
    splitting-field restriction vanishes degreewise, so p kills it; (b) the
    degree pairing's j = 0 term has valuation exactly 1 and every j > 0
    term is zero or p^2-divisible.  Each j is a run of its own, as the
    Chern atom its verdicts name changes with j."""
    check_audit_size(params)
    p, b, n = params.p, params.b, params.n
    if not 1 <= m <= n - 1:
        raise ValueError(f"subvariety exponent m = {m} outside [1, {n - 1}]")
    if not 1 <= r <= p - 1:
        raise ValueError(f"sigma exponent r = {r} outside [1, {p - 1}]")
    dim_y, args = p ** m - 1, (("m", m), ("r", r))

    (pr1, absorbed), ev = _sigma_power_witnesses(params, r), val(params.e, p)
    support = (
        ("dim-y-positive", dim_y > 0, f"dim Y = {dim_y}"),
        ("dim-y-below-free-range", dim_y < p ** (n - 1) <= b,
         f"{dim_y} < {p ** (n - 1)} <= {b}"),
        ("dim-y-avoids-split-degrees",
         all(dim_y != b * t for t in range(r + 1)),
         "no split component for the restriction to land on: p*class = 0"),
        ("degree-p-closed-point", True, PREMISES["degree-p-closed-point"]),
        ("unit-pairing-degree", ev == 0, f"val(e) = {ev}"),
        ("proj1-top-sigma-pairing", pr1,
         f"pr1 pushforward of sigma^{r}*(1 x H^{p - 1 - r}) equals e*1"),
        ("projector-absorbs-sigma-power", absorbed,
         f"compose(projector, sigma^{r}) = sigma^{r}"),
    )

    tables, cases = _weight_sums(r, p, dim_y)[0], []
    for j in range(dim_y + 1):
        i, run = dim_y - j, range(j, j + 1)
        ctx = PairingContext("generators", params, m, j, r, i, j, 0, j,
                             (_atom("chern_y", i),))
        for rep in filter(None, tables[j]):
            prod = _new(SteenProduct, (rep.atoms, rep.scalar, ctx, rep.weight))
            cases.append(_new(AuditCase, ((i, j), prod, valuation_bound(prod),
                                          j == 0, run, rep.weight, None)))
        if not any(tables[j]):
            cases.append(_new(AuditCase, ((i, j), None, _ZERO["cartan-empty"],
                                          False, run, 1, None)))

    ok, conclusion, tallies = _conclude(
        cases, support,
        pass_text=f"pass: order exactly {p} (killed by p, degree pairing "
                  "has valuation exactly 1)",
        fail_text="fail: could not certify order exactly p")
    return AuditReport("generators", params, args, _GEN_PREMISES, support,
                       tuple(cases), conclusion, ok, tallies)


# --- trace replay -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _partitions(n, q):
    """The number of partitions of n into exactly q positive parts."""
    if q <= 0 or n < q:
        return int(n == q == 0)
    return _partitions(n - 1, q - 1) + _partitions(n - q, q)


@lru_cache(maxsize=None)
def _closed_sums(r, p, size):
    """Per bucket, then for F[L] = L: (F, P1, P2) over L <= size, F[L] the
    terms of S^l over r factors over the l below L(p-1) from partition
    counts (``_bucket_split``), P1 and P2 the sums of F and P1 below."""
    out, splits = [], list(zip(*map(_bucket_split, range(r + 1))))
    counts = [[_partitions(n, q) for q in range(r + 1)] for n in range(size)]
    for col in [*([0, *accumulate(sum(map(mul, row, split)) for row in counts)]
                  for split in splits), range(size + 1)]:
        first = (0, *accumulate(col))
        out.append((tuple(col), first, (0, *accumulate(first))))
    return tuple(out)


@lru_cache(maxsize=None)
def _closed_run(r, p, lo, last):
    """Per bucket, the terms of S^l over r factors over the run range(lo,
    last + 1, p - 1) (none unless p - 1 divides lo); the buckets they fill."""
    step = p - 1
    if lo % step:
        return (0, 0, 0, 0), ()
    cols = _closed_sums(r, p, 1 << (last // step + 1).bit_length())[:4]
    weights = tuple(f[last // step + 1] - f[lo // step] for f, *_ in cols)
    return weights, tuple(bucket for bucket in range(4) if weights[bucket])


def _zero_holds(reason, row, run, span, third_only, report, args):
    """Whether a Zero(reason) verdict holds at every l of ``run`` in the row
    ``row`` of l values ``span``; ``third_only`` is whether the case's
    product has only third factors (None without a product)."""
    params, (i, j) = report.params, row
    if reason == "cartan-empty":  # no l of the run has a term
        return not _closed_run(args.get("r", params.p - 1), params.p, run[0],
                               run[-1])[1]
    if report.kind != "rationality":
        return reason == "proj1-sigma-power-zero" and third_only is True
    l_s = span[-1] - args["s"]
    return {"proj1-sigma-power-zero": third_only is True and j == 0
            and run == range(l_s, l_s + 1),
            "chern-index-overflow": i > params.d or j > params.d,
            "steenrod-index-invalid": run == span,  # its l with invalid S^k
            "rho-pairing-zero": run == range(1) and i % params.b != 0,
            }.get(reason, False)


def _rule_needs(verdict):
    """What a ValAtLeast verdict needs of its case: None if its rules fall
    short of its value or fail their own premises, else the atoms they
    name, for the case's product or context to show, and whether the
    context's x-decomposition must vanish."""
    factors, shown, xdecomp = 0, (), False
    for app in verdict.rules:
        used, rule = app.atoms, app.rule
        if rule == "x-decomp-vanishes":
            xdecomp, used = True, ()
        elif not (len(used) == 1 and used[0].kind == "theta"
                  if rule == "theta-carries-p" else
                  len(used) == {"rational-pairing": 1, "split-pairing": 2}.get(
                      rule) and all(a.rational and a.poscodim for a in used)):
            return None
        factors += RULE_FACTORS[rule]
        shown += used
    return (shown, xdecomp) if factors >= verdict.value else None


#: (v, ``_rule_needs(v)``) by id(v): the audits share verdicts (``_at_least``)
_NEEDS = {}


def _kind_rows(d, b, kind, t):
    """The number of rows (i, t - i) of a kind: (t, 0) below d, (d, 0), or
    the i in [max(1, t - d), min(d, t - 1)] that b divides or does not."""
    if kind < _BDIV:
        return int(1 <= t <= d and (t == d) == (kind == _LEAD))
    lo, hi = max(1, t - d), min(d, t - 1)
    mult = hi // b - (lo - 1) // b if lo <= hi else 0
    return mult if kind == _BDIV else max(0, hi - lo + 1 - mult)


@lru_cache(maxsize=None)
def _row_slots(r, p, budget, l_s):
    """The l of each (position, bucket) with terms in a rationality row of
    this budget, k = s at l_s (``_J0`` and the positions above)."""
    step, slots = p - 1, {}
    if budget > budget // step:
        slots[_INVALID, None] = range(budget + 1)
    if budget % step:
        slots[_EMPTY, None] = range(budget % step, budget + 1, step)
        return MappingProxyType(slots)
    for pos, run in ((_L0, range(1)), (_BEFORE, range(step, l_s, step)),
                     (_AT, range(l_s, l_s + 1) if l_s > 0 else range(0)),
                     (_AFTER, range(max(0, l_s) + step, budget + 1, step))):
        for bucket in _closed_run(r, p, run[0], run[-1])[1] if run else ():
            slots[pos, bucket] = run
    return MappingProxyType(slots)


@lru_cache(maxsize=None)
def _replay_band(r, p, d, b, s, kind, t0, last, pos, bucket):
    """(weight, rows, goes on) of the band of (pos, bucket) over the rows of
    a kind at t = t0, t0 + p - 1, .., last, at s, in closed form: rows for
    an l = 0 or cartan-empty band (else 0), and whether the next t holds
    terms, in a new shape; None unless it keeps its shape, starts at its
    kind's first t or a change of shape, and holds terms at last.  Rows
    are counted by column: b | i holds t in [i + 1, i + d]; j > 0 has t - 1
    up to d + 1, then 2d + 1 - t.  sum(v F[v], v < V) = (V - 1) P1 - P2."""
    step, total, n = p - 1, d + s, (last - t0) // (p - 1) + 1

    def run_at(t):
        return _row_slots(r, p, total - t, d - t).get((pos, bucket)) if (
            t <= total and _kind_rows(d, b, kind, t)) else None

    def shape(t):  # l_s > 0 after l_s; b | t at l = 0 on the rows (t, 0)
        return (t < d if pos == _AFTER else
                t % b == 0 if pos == _L0 and kind == _J0 else None)

    hits = sum(t0 <= x <= last and (x - t0) % step == 0  # b | t: all or none
               for x in range(b, d, b)) if kind == _J0 and pos == _L0 else 0
    start, here = run_at(t0), shape(t0)
    ends = start if last == t0 else run_at(last)
    goes_on = run_at(last + step) is not None
    if (ends is None or hits not in (0, n) or shape(last) != here
            or _kind_rows(d, b, kind, t0 - step) and shape(t0 - step) == here
            or goes_on and shape(last + step) == here):
        return None
    if pos < _L0:  # per row, the l with an invalid k, or all valid l
        terms = ((step - 1 if pos == _INVALID else 1, 4, (total - t0) // step,
                  1), ((total - t0) % step if pos == _INVALID else 1, 4, 1, 0))
    else:  # each end of its run stays or moves with t
        lo, hi = start[0] // step, start[-1] // step
        if {lo - ends[0] // step, hi - ends[-1] // step} - {0, n - 1}:
            return None
        terms = ((1, bucket, hi + 1, hi * step != ends[-1]),
                 (-1, bucket, lo, lo * step != ends[0]))
    pieces = [(0, n - 1, 1, 0)] if kind < _BDIV else [
        (u0, u1, 1 if kind == _BDIV else -1, 0) for u0, u1 in (
            (max(0, -((t0 - i - 1) // step)), min(n - 1, (i + d - t0) // step))
            for i in range(b, d + 1, b)) if u0 <= u1]
    if kind == _OTHER:
        knee = (d + 1 - t0) // step  # the last u with t <= d + 1
        pieces += [(0, min(n - 1, knee), t0 - 1, step),
                   (max(0, knee + 1), n - 1, 2 * d + 1 - t0, -step)]
    cols = _closed_sums(r, p, 1 << (2 * d // step + 1).bit_length())
    weight = rows = 0
    for u0, u1, a, c in pieces:
        count = (u1 - u0 + 1) * a + c * (u1 * (u1 + 1) - u0 * (u0 - 1)) // 2
        rows += count * (u0 <= u1)
        for coef, column, x, moves in terms * (u0 <= u1):
            col, first, second = cols[column]
            lo, hi = x - u1, x - u0 + 1
            weight += coef * ((a + c * x) * (first[hi] - first[lo]) - (
                c and c * ((hi - 1) * first[hi] - second[hi]
                           - (lo - 1) * first[lo] + second[lo]))
                if moves else col[x] * count)
    return weight, rows if pos in (_L0, _EMPTY) else 0, goes_on


def replay(report):
    """Re-check every verdict's premises on its first row and recount the
    weights and tallies in closed form, without the audit's tables.  A
    case's run at its first row is one of ``_row_slots`` (a generators
    row's own l) with terms of its bucket, one case each; each case but a
    zero has a product in its row's context; l = 0 is a run of its own.  A
    rationality case stands for its ``band``, every row of its first row's
    kind at its t, where the premises hold as on the first row (zeros read
    the run's position, b | i and j = 0, fixed on a band; l_s = d - t stays
    out of x-decomposition runs; a rule's chern_x have positive codimension
    on every row).  Runs shrink as t grows, so each (position, bucket)'s
    bands chain over a first stretch of its kind's t (``_replay_band``); the
    l = 0 and cartan-empty ones count (d + s)(d + s + 1)/2 rows with the
    s^2 past d."""
    out = CheckReport(f"replay: {report.title}")
    if not report.cases:
        out.add("trivial report", report.conclusion.startswith("trivial"),
                report.conclusion)
        return out
    args, params, kind = dict(report.args), report.params, report.kind
    p, d, b, step, m, rational = (params.p, params.d, params.b, params.p - 1,
                                  args["m"], kind == "rationality")
    r, s = (step, args["s"]) if rational else (args["r"], None)
    total = d + s if rational else p ** m - 1  # the last t, or dim Y
    # x-decomp-vanishes, at k == s or not: every summand of the point-
    # splitting of x dies, the base one needing k = s and the twisted ones
    # exceeding the top index
    xdecomp = [rational and not at_s and all(s + q * b > (m - q * b) * step
                                             for q in range(1, p))
               for at_s in (0, 1)]
    seen, chains, tallies, shapes = set(), {}, [0, 0, 0], {}
    n_leading = bad_zero = bad_rules = bad_exact = bad_weight = covered = 0
    for row, cases in groupby(report.cases, key=lambda case: case.index[:2]):
        (i, j), head, row_kind = row, True, None
        if row in seen or not (0 <= j <= total - i and (
                i >= 1 if rational else j == total - i)):
            bad_weight += 1
            continue
        seen.add(row)
        span = range(total - i - j + 1) if rational else range(j, j + 1)
        chern = ((_atom("chern_x", i), _atom("chern_x", j)) if rational
                 else (_atom("chern_y", i),))
        if not rational:  # one row, one run: a case per bucket it fills
            weights, full = _closed_run(r, p, j, j)
            expected = {(_L0, bucket): span for bucket in full} or {
                (_EMPTY, None): span}
            first, covered = True, covered + 1
        elif i > d or j > d:  # all rows past d: one Chern-overflow zero
            expected, covered = {(_INVALID, None): span}, covered + s * s
            first = row == ((1, d + 1) if s > 1 else (d + 1, 0))
        else:  # the first row of its kind at t = i + j, and its slots
            row_kind = (_LEAD if i == d else _J0) if j == 0 else (
                _BDIV if i % b == 0 else _OTHER)
            lo = max(1, i + j - d)  # its kind's rows before it: i' in [lo, i)
            before = (i - 1) // b - (lo - 1) // b
            first = not j or not (before if row_kind == _BDIV
                                  else i - lo - before)
            head = not _kind_rows(d, b, row_kind, i + j - step)
            expected = dict(_row_slots(r, p, span[-1], span[-1] - s))
        bad_weight += not first
        at = {run: pos for (pos, _), run in expected.items()}
        context = (kind, params, m, j if s is None else s, r, i, j)
        for _, prod, v, leading, run, weight, band in cases:
            slot, n_leading = _SLOT.get(type(v), 2), n_leading + leading
            third_only = bucket = recount = None
            if prod is not None:  # by id: the audits share atoms tuples
                shape = shapes.get(id(prod.atoms))
                if shape is None:
                    _, thetas, seconds, thirds = _atom_tally(prod.atoms)[0]
                    shape = shapes[id(prod.atoms)] = (
                        0 if thetas >= 2 else 1 if thetas else 2 if seconds
                        else 3, 0 == thetas == seconds < thirds)
                bucket, third_only = shape
            pos = at.get(run) if type(run) is range else None
            at_s = rational and type(run) is range and span[-1] - s in run
            if pos is None or expected.pop((pos, bucket), None) != run:
                pass  # a gap, an overlap or a run of no position
            elif row_kind is None:  # one row, or those past d: no band
                recount = None if band is not None else (
                    s * (s + 1) * (2 * s + 1) // 6 if rational else
                    weights[bucket] if prod is not None else 1)
            elif type(band) is range and band and band[0] == i + j and (
                    len(band) == 1 or band.step == step) and (got := (
                        _replay_band(r, p, d, b, s if not _L0 <= pos < _AFTER
                                     else max(0, min(s, band[-1] + step - d)),
                                     row_kind, i + j, band[-1], pos, bucket))):
                recount, rows, goes_on = got
                covered += rows
                chains.setdefault((row_kind, (i + j) % step, pos, bucket),
                                  []).append((i + j, band[-1], goes_on))
                at_s |= pos == _L0 and d in band
            if recount is None:
                bad_weight += 1
                if type(run) is not range or not run:
                    continue
            else:
                tallies[slot] += recount
                bad_weight += weight != recount
            ctx = getattr(prod, "context", None)
            need = _NEEDS.get(id(v), (None,))
            if slot == 1 and need[0] is not v:
                need = _NEEDS[id(v)] = v, _rule_needs(v)
            if prod is not None and not (
                    getattr(ctx, "l", None) in run and (
                        run[0] > 0 or len(run) == 1)
                    and ctx == (*context, span[-1] - ctx.l, ctx.l, chern)
                    and (rational or ctx.l == j)):
                bad_rules += 1
            elif slot == 0:
                bad_zero += v.reason not in ZERO_REASONS or not _zero_holds(
                    v.reason, row, run, span, third_only, report, args)
            elif slot == 2:
                bad_exact += (type(v) is not ValExactly or not leading
                              or prod is None or v.value != 1 or not all(
                                  pid in PREMISES for pid in v.premises))
            elif prod is None or need[1] is None or (
                    need[1][1] and not xdecomp[at_s]) or any(
                        a not in prod.atoms and a not in chern
                        for a in need[1][0]):
                # the atoms the rules name must be in the product or context
                bad_rules += 1
        bad_weight += head and bool(expected)  # a position or bucket left out
    for (row_kind, _, _, _), bands in chains.items():
        bands.sort()  # from the kind's first t, each band on from the last
        bad_weight += bool(_kind_rows(d, b, row_kind, bands[0][0] - step))
        bad_weight += bands[-1][2] or any(
            nxt[0] != prev[1] + step for prev, nxt in zip(bands, bands[1:]))
    bad_weight += covered != (total * (total + 1) // 2 if rational
                              else total + 1)
    tallies, same = tuple(tallies), tuple(tallies) == report.tallies
    out.add("exactly one leading case", n_leading == 1)
    out.add("zero reasons justified", bad_zero == 0, f"{bad_zero} bad")
    out.add("rule premises satisfied", bad_rules == 0, f"{bad_rules} bad")
    out.add("exact verdicts are the declared leading premise", bad_exact == 0)
    out.add("band weights recounted", bad_weight == 0 and same,
            f"{bad_weight} bad" + ("" if same else f", tallies "
                                   f"{report.tallies} recounted as {tallies}"))
    out.add("support checks hold", all(ok for _, ok, _ in report.support))
    return out


def claims(params):
    """Audit each steenrod claim at the symbol once, replaying each audit
    before the next, as (name "s=S" or "m=M r=R", label "rationality s=S
    m<=M" or "generators m=M r=R", report, range of m it stands for, replay
    result): a rationality audit per Steenrod-valid s at the largest m of
    its ``rationality_grid`` entry, which stands for every m of its s (no
    verdict reads m, and replay's x-decomp-vanishes premise holds at every
    m once it holds at the largest), then the generators audits."""
    for s, ms in rationality_grid(params):
        report = audit_rationality(params, ms[-1], s)
        yield (f"s={s}", f"rationality s={s} m<={ms[-1]}", report, ms,
               replay(report))
    for m, r in generators_arguments(params):
        report = audit_generators(params, m, r)
        yield (f"m={m} r={r}", f"generators m={m} r={r}", report,
               range(m, m + 1), replay(report))
