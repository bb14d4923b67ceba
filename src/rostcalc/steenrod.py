"""Exact p-divisibility audits for total Steenrod powers in the split model.

The engine never computes a Steenrod action.  It gives a verdict to every
term that appears when S^s is pushed through a pairing of Chern classes
against powers of the special correspondence sigma = 1 x H - H x 1,
expanding S^l(sigma^r) by the Cartan formula and each S^a(sigma) into

    S^a(sigma) = p*theta_a + 1 x S^a(H) - S^a(H) x 1.

A verdict reads a term only through its pairing and its bucket: two or more
thetas, one theta, no theta but a second, or thirds only.  So the audits
count each bucket's terms from partition counts and list no term.  A row
(i, j) of the budget splits its l into runs with one verdict regime each
(l = 0 and the l with k = s alone, the stretches between them whole), and a
run has one case per non-empty bucket, classified through one product and
weighted by prefix sums over l; its ``range`` names the l it covers.  A
verdict reads its row only through the budget, whether it is the leading
row, whether b divides i and whether j > 0, so a rationality audit has one
case set per row class of rows that agree on these, named by the first row
of the class and weighted by its row count; the rows with a Chern index
past d are one zero case.

The verdicts are:

* ``Zero(reason)``    -- the term vanishes on the nose;
* ``ValExactly(1)``   -- the single leading term, valuation exactly 1,
                         resting on declared degree premises;
* ``ValAtLeast(2)``   -- the term lies in the ideal p^2*CH + p*(rational
                         classes), certified by a trace of rule applications.

Every rule application names the atoms it uses, and ``replay`` re-checks all
premises over each run's whole range and recounts every weight and row
class in closed form, so a report can be audited without trusting the case
split that produced it.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import mul, sub
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
#: take.  A rationality audit has (d + s)(d + s + 1) / 2 rows (i, j) in at
#: most 3(d + s) + 1 row classes of at most 14 cases each; at (11, 2),
#: d = 120, the s = 120 audit has 28,920 rows in 587 classes, and 1,636
#: cases standing for 4.3 * 10^9 terms.
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
    """One factor of an expansion term.

    kinds: sigma (an unexpanded sigma factor), theta / second / third (the
    three pieces of the sigma decomposition, second = 1 x S^j(H) and
    third = S^j(H) x 1), chern_x / chern_y (Chern classes of the negative
    tangent bundles, the _y ones pushed forward from the subvariety).
    """

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
        # chern_y sits in the ambient variety with codimension
        # (d - dim Y) + index > 0 at every index; second/third carry a
        # positive Steenrod index on a positive-codimension class.
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
# in the loop over runs as _new(Record, fields) with every field given: the
# same instance as Record(*fields), without the Python-level __new__ that
# NamedTuple generates, which costs one frame per record.
_new = tuple.__new__


class PairingContext(NamedTuple):
    """What an expansion term is paired against, and the index budget.

    kind "rationality": deg(b_i x b_j * <term> * (1 x S^k(x))) with the
    budget i + j + k + l = d + s over the sigma-power r = p-1.
    kind "generators": deg(bY_i * <term>) against sigma^r pushed from a
    dim-(p^m - 1) subvariety, budget i + j = p^m - 1.
    """

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
    # pairing a rational positive-codimension class against anything over
    # the splitting field has p-divisible degree
    "rational-pairing": 1,
    # a split pairing with rational positive-codimension classes in both
    # slots has p^2-divisible degree
    "split-pairing": 2,
    # every summand of the point-splitting of x dies: the base component
    # needs k = s, the twisted ones exceed the top Steenrod index
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
                counts = {}
                for v in acc:
                    counts[v] = counts.get(v, 0) + 1
                out.append((tuple(acc), multinomial(counts.values())))
            return
        v = lo
        while v <= rem:
            acc.append(v)
            rec(slots - 1, rem - v, v, acc)
            acc.pop()
            v += step

    rec(r, l, 0, [])
    return tuple(out)


def cartan_expand(r, l, p):
    """Unordered Cartan compositions of S^l over an r-fold product.

    Returns [(parts, multiplicity)] with parts an ascending r-tuple of
    Steenrod-valid indices summing to l and multiplicity the number of
    ordered compositions collecting to it.  Empty when (p-1) does not
    divide l.
    """
    return list(_cartan_expand_cached(r, l, p))


def _bucket_split(q):
    """Per bucket, how many of the 3^q theta/second/third assignments to q
    positive parts fall in it."""
    one_theta = q * 2 ** q // 2
    return 3 ** q - 2 ** q - one_theta, one_theta, 2 ** q - 1, 1


def substitute_dcmp(expansion):
    """Expand every positive part of every Cartan composition through the
    three-term sigma decomposition, one product per non-empty bucket,
    weighted by the number of terms in it.  A composition's 3^q terms split
    over the buckets by its number q of positive parts.  A bucket's product
    is the theta-heaviest class of the first composition that fills it:
    theta, then second, then third on its positive parts, sigma on its zero
    parts, scalar multiplicity * (-1)^(number of thirds)."""
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
    product, None where empty), and prefix sums over l, stepped by p - 1,
    of the bucket weights: sums[bucket][c + p - 1] - sums[bucket][a] sums
    over range(a, c + 1, p - 1).  S^l, l = L(p - 1), has a composition with
    q positive parts per partition of L into exactly q parts (by conjugation,
    parts <= q less parts <= q - 1); the first two fill every filled bucket,
    the first buckets 1-3 (3 alone at l = 0), the second bucket 0: the
    products ``substitute_dcmp`` lists in bucket order fill the last ones."""
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


# Verdicts are shared: one Zero per reason and one ValAtLeast(2) per tuple
# of (rule, atoms) pairs.  The atoms name indices below 2 * MAX_AUDIT_DIM,
# so the cache stays small.
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
    """One verdict over a run of l values and a row class: ``index`` is the
    (i, j, k, l) of its representative, (i, j) the first row of the class
    ((i, j) alone in a generators audit, where each row is a class),
    ``range`` the l it covers and ``weight`` the number of expansion terms
    it stands for over all rows of the class (one per l and row for an
    unexpanded zero)."""

    index: tuple
    product: SteenProduct
    verdict: object
    leading: bool = False
    range: object = None
    weight: int = 1

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
    #: the (zero, at-least, exact) verdict tallies over expansion terms
    #: (case weights summed), taken while the audit concluded
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
        lines = [self.title]
        for pid in self.premises:
            lines.append(f"premise {pid}: {PREMISES[pid]}")
        for name, ok, detail in self.support:
            tag = "ok" if ok else "FAIL"
            lines.append(f"support {tag}: {name}" + (f" -- {detail}" if detail else ""))
        return lines


def _conclude(cases, support, pass_text, fail_text):
    """(passed, conclusion, tallies) of an audit, in one pass over its
    cases: the weighted verdict tallies, and what first keeps the audit
    from passing (the number of leading cases, then the first case whose
    verdict is not allowed, then the first failing support check).  A
    case's grade is its verdict's tally slot and whether a passing audit
    may hold that verdict there; the audits share verdicts, so each
    distinct (verdict, leading) pair is graded once, in ``grades[leading]``
    by the id of the verdict."""
    tallies, n_leading, first, grades = [0, 0, 0], 0, None, ({}, {})
    for case in cases:
        _, _, verdict, leading, _, weight = case
        graded = grades[leading].get(id(verdict))
        if graded is None:
            slot = _SLOT.get(type(verdict), 2)
            graded = grades[leading][id(verdict)] = slot, (
                type(verdict) is ValExactly and verdict.value == 1 if leading
                else verdict.reason in ZERO_REASONS if slot == 0
                else slot == 1 and verdict.value >= 2)
        slot, ok = graded
        n_leading += leading
        tallies[slot] += weight
        if not ok and first is None:
            first = case
    if n_leading != 1:
        offender = f"{n_leading} leading cases, expected 1"
    elif first is not None:
        offender = f"case {first.index}: {verdict_str(first.verdict)}"
    else:
        offender = next((f"support {name}" + (f" -- {detail}" if detail else "")
                         for name, ok, detail in support if not ok), None)
    if offender is None:
        return True, pass_text, tuple(tallies)
    return False, f"{fail_text} (first: {offender})", tuple(tallies)


# --- the two audits --------------------------------------------------------------


@lru_cache(maxsize=None)
def _row_plan(r, p, top, budget, l_s):
    """The cases of a rationality row, l = 0 .. budget with k = s at l_s,
    as (range of l, representative l, bucket product or zero, weight): an
    invalid-S^k zero for the l whose k = budget - l is invalid, then the
    other l, all congruent to the budget mod p - 1.  S^l over r >= 1
    factors is empty iff p - 1 does not divide l, so those l are one
    cartan-empty zero, or else runs (l = 0 and l_s alone) with a case per
    non-empty bucket, weighted from prefix sums, represented at its first l."""
    step = p - 1
    tables, sums = _weight_sums(r, p, top)
    valid = range(budget % step, budget + 1, step)
    plan = []
    if len(valid) <= budget:
        l = 0 if budget % step else 1
        plan.append((range(budget + 1), l, _ZERO["steenrod-index-invalid"],
                     budget + 1 - len(valid)))
    if budget % step:
        return (*plan, (range(valid.start, budget + step, step), valid.start,
                        _ZERO["cartan-empty"], len(valid)))
    edges = sorted(e for e in {0, step, l_s, l_s + step, budget + step}
                   if e >= 0)
    for lo, hi in zip(edges, edges[1:]):
        run = range(lo, hi, step)
        for bucket, sums_b in enumerate(sums):
            if sums_b[hi] > sums_b[lo]:
                l = next(l for l in run if tables[l][bucket])
                plan.append((run, l, tables[l][bucket],
                             sums_b[hi] - sums_b[lo]))
    return tuple(plan)


def _row_classes(d, b, s):
    """The row classes of a rationality audit at s, as (i, j, n) in row
    order (i outer, j inner) of their first rows (i, j): the rows within d
    that agree on their budget d + s - i - j, on being the leading row
    (d, 0), on b | i and on j > 0, n of them, and the rows with i or j
    above d, whose n is their number of terms, the sum of budget + 1.  At
    t = i + j the rows within d are (t, 0) if t <= d, a class of its own,
    and the i in range(max(1, t - d), min(d, t - 1) + 1), split into the
    multiples of b and the others, so the classes take O(d + s) steps."""
    total, classes, overflow = d + s, [], 0
    for t in range(1, total + 1):  # t = i + j, so the budget is total - t
        lo, hi = max(1, t - d), min(d, t - 1)
        overflow += (t - max(0, hi - lo + 1) - (t <= d)) * (total - t + 1)
        if t <= d:
            classes.append((t, 0, 1))
        if lo <= hi:
            mult = hi // b - (lo - 1) // b
            if mult:
                first = ((lo - 1) // b + 1) * b
                classes.append((first, t - first, mult))
            if hi - lo + 1 > mult:
                first = lo + 1 if lo % b == 0 else lo
                classes.append((first, t - first, hi - lo + 1 - mult))
    if overflow:
        # the first row past d: (1, d + 1) once j can pass d, else (d + 1, 0)
        classes.append((1, d + 1, overflow) if s > 1 else (d + 1, 0, overflow))
    return sorted(classes)


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


def _rationality_support(params):
    p = params.p
    ev = val(params.e, p)
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


def audit_rationality(params, m, s):
    """Audit that S^s of the base component of a dimension-m class is
    rational modulo the ideal p^2*CH + p*(rational classes).

    Enumerates the budget i + j + k + l = d + s with i >= 1, expands the
    sigma-power factor, and classifies every term, row class by row class
    (``_row_classes``): the rows with i or j above d have one Chern-overflow
    zero, and any other class one zero for the l whose S^k is invalid and
    the cases of its runs, classified on its first row.  Passes iff the
    single leading term (i = d, j = l = 0, k = s) has valuation exactly 1
    and every other term is Zero or ValAtLeast(2).
    """
    check_audit_size(params)
    p, b, d = params.p, params.b, params.d
    args = (("m", m), ("s", s))
    valid = steen_index_valid(s, p)
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

    support = _rationality_support(params)
    total, step = d + s, p - 1
    chern = [_atom("chern_x", i) for i in range(d + 1)]
    cases = []
    for i, j, rows in _row_classes(d, b, s):
        budget = total - i - j
        if i > d or j > d:
            cases.append(_new(AuditCase, (
                (i, j, budget, 0), None, _ZERO["chern-index-overflow"], False,
                range(budget + 1), rows)))
            continue
        here, pair, lead = None, (chern[i], chern[j]), i == d and j == 0
        for run, l, rep, weight in _row_plan(step, p, 2 * d, budget,
                                             budget - s):
            if l != here:  # the cases of a run share its index and context
                here, index = l, (i, j, budget - l, l)
                ctx = _new(PairingContext, ("rationality", params, m, s, step,
                                            i, j, budget - l, l, pair))
            if type(rep) is Zero:
                cases.append(_new(AuditCase, (index, None, rep, False, run,
                                              weight * rows)))
                continue
            prod = _new(SteenProduct, (rep.atoms, rep.scalar, ctx, rep.weight))
            cases.append(_new(AuditCase, (
                index, prod, valuation_bound(prod), lead and l == 0, run,
                weight * rows)))

    ok, conclusion, tallies = _conclude(
        cases, support,
        pass_text=f"pass: leading term deg(b_{d})*S^{s}(x_0) has valuation "
                  "exactly 1; all other terms are zero or in the ideal",
        fail_text="fail: could not certify rationality modulo the ideal")
    return AuditReport("rationality", params, args, _RAT_PREMISES, support,
                       tuple(cases), conclusion, ok, tallies)


def audit_generators(params, m, r):
    """Audit that the class pushed from a dimension-(p^m - 1) subvariety
    through sigma^r and the split projector has order exactly p.

    Part (a): its splitting-field restriction vanishes degreewise, so p
    kills it.  Part (b): the degree pairing's j = 0 term has valuation
    exactly 1 and every j > 0 term is zero or p^2-divisible, so it is not
    itself p-divisible.  Each j is a run of its own: the Chern atom its
    verdicts name changes with j.
    """
    check_audit_size(params)
    p, b, n = params.p, params.b, params.n
    if not 1 <= m <= n - 1:
        raise ValueError(f"subvariety exponent m = {m} outside [1, {n - 1}]")
    if not 1 <= r <= p - 1:
        raise ValueError(f"sigma exponent r = {r} outside [1, {p - 1}]")
    dim_y = p ** m - 1
    args = (("m", m), ("r", r))

    sigma_r = sigma(params) ** r
    witness = _proj1_push(sigma_r * basis(params, 0, p - 1 - r))
    expected = h_power(params, 0).scale(params.e)
    absorbed = compose(rost_projector(params), sigma_r) == sigma_r
    ev = val(params.e, p)
    support = (
        ("dim-y-positive", dim_y > 0, f"dim Y = {dim_y}"),
        ("dim-y-below-free-range", dim_y < p ** (n - 1) <= b,
         f"{dim_y} < {p ** (n - 1)} <= {b}"),
        ("dim-y-avoids-split-degrees",
         all(dim_y != b * t for t in range(r + 1)),
         "no split component for the restriction to land on: p*class = 0"),
        ("degree-p-closed-point", True, PREMISES["degree-p-closed-point"]),
        ("unit-pairing-degree", ev == 0, f"val(e) = {ev}"),
        ("proj1-top-sigma-pairing", witness == expected,
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
                                          j == 0, run, rep.weight)))
        if not any(tables[j]):
            cases.append(_new(AuditCase, ((i, j), None, _ZERO["cartan-empty"],
                                          False, run, 1)))

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
    """Prefix sums over L < size of the per-bucket terms of S^l over r
    factors, l = L(p-1), in closed form: S^l has P(L, q) compositions with
    q <= r positive parts, each of 3^q terms, which ``_bucket_split(q)``
    splits over the buckets.  sums[L] sums over the l below L(p-1)."""
    columns = list(zip(*map(_bucket_split, range(r + 1))))
    sums = [(0, 0, 0, 0)]
    for big_l in range(size):
        counts = [_partitions(big_l, q) for q in range(min(r, big_l) + 1)]
        sums.append(tuple(prefix + sum(map(mul, counts, column))
                          for prefix, column in zip(sums[-1], columns)))
    return tuple(sums)


@lru_cache(maxsize=None)
def _closed_run(r, p, lo, last):
    """Per bucket, the terms of S^l over r factors over the l of the run
    range(lo, last + 1, p - 1), and the buckets they fill: none unless p - 1
    divides lo, else two lookups in a ``_closed_sums`` table of power-of-two
    size.  Cached, as the classes of a budget and the m of an s share runs."""
    step = p - 1
    if lo % step:
        return (0, 0, 0, 0), ()
    sums = _closed_sums(r, p, 1 << (last // step).bit_length())
    weights = tuple(map(sub, sums[last // step + 1], sums[lo // step]))
    return weights, tuple(bucket for bucket in range(4) if weights[bucket])


def _zero_holds(reason, row, run, span, third_only, report, args):
    """Whether a Zero(reason) verdict holds at every l of ``run`` in the row
    ``row`` of l values ``span``; ``third_only`` is whether the case's
    product has only third factors (None without a product)."""
    params, (i, j) = report.params, row
    if reason == "cartan-empty":
        # no l of the run has a term, so none has a composition
        r = params.p - 1 if report.kind == "rationality" else args["r"]
        return not _closed_run(r, params.p, run[0], run[-1])[1]
    if report.kind != "rationality":
        return reason == "proj1-sigma-power-zero" and third_only is True
    if reason == "proj1-sigma-power-zero":
        l_s = span[-1] - args["s"]
        return third_only is True and j == 0 and run == range(l_s, l_s + 1)
    if reason == "chern-index-overflow":
        return i > params.d or j > params.d
    if reason == "steenrod-index-invalid":
        # it stands for the l of the row whose S^k is invalid
        return run == span
    return (reason == "rho-pairing-zero" and run == range(1)
            and i % params.b != 0)


def _xdecomp_vanishes(kind, params, m, s, at_s):
    """Whether every summand of the point-splitting of x dies in a context
    of this kind, symbol, m and s, at k == s or not (``at_s``): the base
    one needs k = s, the twisted ones exceed the top index."""
    b, p = params.b, params.p
    return kind == "rationality" and not at_s and all(
        s + rr * b > (m - rr * b) * (p - 1) for rr in range(1, p))


def _rule_needs(verdict):
    """What a ValAtLeast verdict needs of its case: None if its rules
    cannot certify it anywhere (their factors fall short of its value, or
    a rule's own premises fail), else the atoms its rules name, which the
    case's product or context must show, and whether it needs the
    context's x-decomposition to vanish."""
    factors, shown, xdecomp = 0, (), False
    for app in verdict.rules:
        used = app.atoms
        if app.rule == "theta-carries-p":
            ok = len(used) == 1 and used[0].kind == "theta"
        elif app.rule == "rational-pairing" or app.rule == "split-pairing":
            ok = (len(used) == (1 if app.rule == "rational-pairing" else 2)
                  and all(a.rational and a.poscodim for a in used))
        elif app.rule == "x-decomp-vanishes":
            ok, xdecomp, used = True, True, ()
        else:
            ok = False
        if not ok:
            return None
        factors += RULE_FACTORS[app.rule]
        shown += used
    return (shown, xdecomp) if factors >= verdict.value else None


#: the l a run covers, by the zero reason of its case: every l of its
#: range for a Chern overflow, those whose k is invalid for an invalid
#: S^k, and all its l, stepped by p - 1 ("valid"), for any other case
_COVERS = {"chern-index-overflow": "all", "steenrod-index-invalid": "invalid"}
#: replay's tally slot and _rule_needs of a verdict v, by id(v), not by
#: hashing v; entries hold v alive
_NEEDS = {}


def _row_tiled(span, ks_valid, runs):
    """Whether the runs of one row, each (cover, range, product buckets,
    non-empty buckets), cover each l of ``span`` once, with one case per
    non-empty bucket: a Chern-overflow zero alone over the whole row, or
    one invalid-S^k zero over the row for the l whose k is invalid (if
    any) and runs stepped by p - 1 tiling ``ks_valid`` in order."""
    step, start = ks_valid.step, ks_valid.start
    gaps = len(ks_valid) < len(span)
    for cover, run, buckets, full in runs:
        if cover == "all":
            return len(runs) == 1 and run == span
        if cover == "invalid":
            if not gaps or run != span:
                return False
            gaps = False
        elif run[0] != start or buckets and tuple(buckets) != full:
            return False
        else:
            start = run[-1] + step
    return not gaps and start == ks_valid[-1] + step


def _recount_class(params, s, i, j):
    """(key, n, first, terms) of the class of the row (i, j) in a
    rationality audit at s, in closed form: a key that no other class of
    the audit has, its number n of rows, whether (i, j) is its first row
    in row order, and its number of terms when each row counts budget + 1.
    At i + j = t the rows within d are the (i', t - i') with max(1, t - d)
    <= i' <= min(d, t): the single row (t, 0), and the i' < t with b | i',
    or with b not dividing i'.  The s^2 rows past d, i = d + a with j <= s
    - a and j = d + a with i <= s - a, are one class of sum(u^2, u <= s)
    terms."""
    d, b = params.d, params.b
    if i > d or j > d:
        first = (1, d + 1) if s > 1 else (d + 1, 0)
        return None, s * s, (i, j) == first, s * (s + 1) * (2 * s + 1) // 6
    t, budget = i + j, d + s - i - j
    if j == 0:
        return (t, i == d, i % b == 0, False), 1, True, budget + 1
    lo, hi, b_div = max(1, t - d), min(d, t - 1), i % b == 0
    # its rows and those before (i, j): the i' <= hi, and <= i - 1, of its kind
    n, before = hi // b - (lo - 1) // b, (i - 1) // b - (lo - 1) // b
    if not b_div:
        n, before = hi - lo + 1 - n, i - lo - before
    return (t, False, b_div, True), n, before == 0, n * (budget + 1)


def replay(report):
    """Re-check every verdict's premises over its whole run and every
    weight in closed form, independently of the audit's tables, and recount
    the weighted verdict tallies.  Every case but a zero has a product,
    whose context must be the one its row and l give, x-decomp-vanishes
    needs k != s all along the run, and l = 0 is a run of its own.  The
    cases of a row come together, a run is a stretch of consecutive cases
    with equal ranges, and the runs of a row partition its l.

    In a rationality audit the row of a case set is the first row of its
    class (see ``_recount_class``), and the case set stands for every row
    of the class: its weights are the class's row count times those of one
    row, and the Chern-overflow zero of the class past d weighs all of its
    terms.  Replay recounts the classes in closed form, and checks that no
    class comes twice, that each is named by its first row and that they
    cover all (d + s)(d + s + 1)/2 rows.  A check on the first row holds
    on every row of its class: the leading row is a class of its own; the
    zero reasons read only the budget, b | i and j = 0; the contexts, runs
    and weights only the budget; and the atoms a rule names are chern_x of
    index i >= 1, and of index j exactly when j > 0, so they are rational
    and of positive codimension on every row of the class as on the first.

    Work is done once per row (class, Chern atoms, the fields its contexts
    share), run (closed-form weights) and context, once per call for each
    product's atoms (``shapes``) and once for each verdict (``_NEEDS``).
    """
    out = CheckReport(f"replay: {report.title}")
    if not report.cases:
        out.add("trivial report", report.conclusion.startswith("trivial"),
                report.conclusion)
        return out
    args = dict(report.args)
    params, kind, m = report.params, report.kind, args["m"]
    p, d, step = params.p, params.d, params.p - 1
    r, s = (step, args["s"]) if kind == "rationality" else (args["r"], None)
    dim_y = p ** m - 1 if kind == "generators" else None
    xdecomp = [_xdecomp_vanishes(kind, params, m, s, at_s)
               for at_s in (False, True)]
    seen, tallies, covered, shapes = set(), [0, 0, 0], 0, {}
    n_leading = bad_zero = bad_rules = bad_exact = bad_weight = 0
    for row, cases in groupby(report.cases, key=lambda case: case.index[:2]):
        i, j = row
        if kind == "rationality" and i >= 1 and 0 <= j <= d + s - i:
            span = range(d + s - i - j + 1)
            ks_valid = range(span[-1] % step, span[-1] + 1, step)
            chern = (_atom("chern_x", i), _atom("chern_x", j))
            key, rows, first, terms = _recount_class(params, s, i, j)
        elif kind == "generators" and 0 <= j == dim_y - i:
            span = ks_valid = range(j, j + step, step)
            chern = (_atom("chern_y", i),)
            key, rows, first, terms = row, 1, True, 1
        else:
            span = None
        if not span or key in seen:
            bad_weight += 1
            continue
        seen.add(key)
        covered += rows
        head = (kind, params, m, j if s is None else s, r, i, j)  # of contexts
        bad_weight += not first
        runs, last_run, run_ok = [], None, False
        for _, prod, v, leading, run, weight in cases:
            memo = _NEEDS.get(id(v), (None,))
            if memo[0] is not v:
                slot = _SLOT.get(type(v), 2)
                memo = _NEEDS[id(v)] = v, slot, slot == 1 and _rule_needs(v)
            _, slot, need = memo
            n_leading += leading
            if run != last_run:
                cover = _COVERS.get(getattr(v, "reason", None), "valid")
                last_run, last_ctx, ctx_ok = run, None, False
                run_ok = (bool(run) and 0 <= run[0] and run[-1] <= span[-1]
                          and (len(run) == 1 or cover != "valid"
                               or run.step == step))
                if run_ok:
                    weights, full = ((0, 0, 0, 0), ()) if prod is None else (
                        _closed_run(r, p, run[0], run[-1]))
                    buckets = []
                    runs.append((cover, run, buckets, full))
                    xdecomp_ok = s is not None and xdecomp[span[-1] - s in run]
            if not run_ok:
                bad_weight += 1
                continue
            third_only = None
            if prod is None:
                recount = (terms if cover == "all" else rows * (
                    len(span) - len(ks_valid) if cover == "invalid"
                    else len(run)))
            else:
                atoms, ctx = prod.atoms, prod.context
                shape = shapes.get(id(atoms))
                if shape is None:  # the entry holds atoms, so its id is theirs
                    _, n_theta, n_second, n_third = _atom_tally(atoms)[0]
                    shape = shapes[id(atoms)] = atoms, (
                        0 if n_theta >= 2 else 1 if n_theta else
                        2 if n_second else 3), n_theta == n_second == 0 < n_third
                _, bucket, third_only = shape
                buckets.append(bucket)
                recount = rows * weights[bucket]
                if ctx is not last_ctx:
                    # a run's cases share a context; a generators one has l = j
                    l, last_ctx = ctx.l, ctx
                    ctx_ok = (l in run and (run[0] > 0 or len(run) == 1)
                              and ctx == (*head, span[-1] - l, l, chern)
                              and (kind == "rationality" or l == j))
            tallies[slot] += recount
            bad_weight += weight != recount
            if prod is not None and not ctx_ok:
                bad_rules += 1
            elif slot == 0:
                bad_zero += v.reason not in ZERO_REASONS or not _zero_holds(
                    v.reason, row, run, span, third_only, report, args)
            elif slot == 2:
                bad_exact += (type(v) is not ValExactly or not leading
                              or prod is None or v.value != 1 or not all(
                                  pid in PREMISES for pid in v.premises))
            elif prod is None or need is None or need[1] and not xdecomp_ok:
                bad_rules += 1
            else:
                # the atoms the rules name must be in the product or context
                for a in need[0]:
                    if a not in atoms and a not in chern:
                        bad_rules += 1
                        break
        # the class past d is one Chern-overflow zero
        bad_weight += not _row_tiled(span, ks_valid, runs) or (
            key is None and runs[0][0] != "all")
    n_rows = (d + s) * (d + s + 1) // 2 if kind == "rationality" else dim_y + 1
    bad_weight += covered != n_rows
    tallies = tuple(tallies)
    out.add("exactly one leading case", n_leading == 1)
    out.add("zero reasons justified", bad_zero == 0, f"{bad_zero} bad")
    out.add("rule premises satisfied", bad_rules == 0, f"{bad_rules} bad")
    out.add("exact verdicts are the declared leading premise", bad_exact == 0)
    out.add("class weights recounted",
            bad_weight == 0 and tallies == report.tallies,
            f"{bad_weight} bad" + ("" if tallies == report.tallies else
                                   f", tallies {report.tallies} recounted "
                                   f"as {tallies}"))
    out.add("support checks hold", all(ok for _, ok, _ in report.support))
    return out


def claims(params):
    """Audit each steenrod claim at the symbol once and replay the audit
    before the next one is made.  Yields (name, label, report, ms, replay
    result) per audit: ``name`` is "s=S" or "m=M r=R", ``label`` the claim
    ("rationality s=S m<=M" or "generators m=M r=R") and ``ms`` the range
    of m the audit stands for.

    One rationality audit per Steenrod-valid s, by ascending s, at the
    largest m of its ``rationality_grid`` entry, then one generators audit
    per ``generators_arguments`` pair, standing for its own m.  The audit
    at the largest m stands for every m of its s: no verdict reads m
    (``valuation_bound`` never reads ``ctx.m``), and replay reads it only
    in ``_xdecomp_vanishes``, whose premise s + r*b > (m - r*b)(p-1) gets
    harder to meet as m grows and follows from the argument bound
    s > (m - b)(p-1) for every r >= 1."""
    for s, ms in rationality_grid(params):
        report = audit_rationality(params, ms[-1], s)
        yield (f"s={s}", f"rationality s={s} m<={ms[-1]}", report, ms,
               replay(report))
    for m, r in generators_arguments(params):
        report = audit_generators(params, m, r)
        yield (f"m={m} r={r}", f"generators m={m} r={r}", report,
               range(m, m + 1), replay(report))
