"""Exact p-divisibility audits for total Steenrod powers in the split model.

The engine never computes a Steenrod action.  It enumerates every term that
appears when S^s is pushed through a pairing of Chern classes against powers
of the special correspondence sigma = 1 x H - H x 1, expanding S^l(sigma^r)
by the Cartan formula and each S^a(sigma) into

    S^a(sigma) = p*theta_a + 1 x S^a(H) - S^a(H) x 1,

and returns one verdict per term.  A verdict reads a term only through its
pairing and its numbers of theta, second and third factors, so the terms
are grouped into those count classes: one representative product per
class, weighted by the number of terms it stands for.  The verdicts are:

* ``Zero(reason)``    -- the term vanishes on the nose;
* ``ValExactly(1)``   -- the single leading term, valuation exactly 1,
                         resting on declared degree premises;
* ``ValAtLeast(2)``   -- the term lies in the ideal p^2*CH + p*(rational
                         classes), certified by a trace of rule applications.

Every rule application names the atoms it uses, and ``replay`` re-checks all
premises independently, so a report can be audited without trusting the case
split that produced it.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb
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


ATOM_KINDS = ("sigma", "theta", "second", "third", "chern_x", "chern_y",
              "h_power", "decomp_x")
_RATIONAL = frozenset({"second", "third", "chern_x", "chern_y"})

#: the largest dimension d = p^n - 1 the audits and their argument grids
#: take.  An audit enumerates about (d + s)^3 / 6 indices, and at (11, 2),
#: d = 120, the smallest rationality audit already has 506,890 classes.
MAX_AUDIT_DIM = 128


def _check_audit_size(params):
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
    tangent bundles, the _y ones pushed forward from the subvariety),
    h_power, decomp_x (the H^r x x_r summand of the point-splitting of x).
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
                 "third": "S^%d(H)x1", "chern_x": "b_%d", "chern_y": "bY_%d",
                 "h_power": "H^%d", "decomp_x": "x_%d"}
        pat = names[self.kind]
        return pat % self.index if "%" in pat else pat


# atoms are immutable, so the audits share one per (kind, index)
_atom = lru_cache(maxsize=None)(SteenAtom)

# The audits build the records below (PairingContext, SteenProduct,
# AuditCase) as _new(Record, fields) with every field given: the same
# instance as Record(*fields), without the Python-level __new__ that
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
    """A count class of expansion terms: the ``weight`` terms with the same
    sigma, theta, second and third counts over one Cartan composition,
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


@lru_cache(maxsize=None)
def _class_atoms(parts):
    """(atoms, sign, weight) of every count class of one composition,
    theta-heaviest first: for a theta, b second and c third atoms on its
    q positive parts, weight = multinomial((a, b, c)) and sign = (-1)^c."""
    positive = [v for v in parts if v]
    sigmas = (SteenAtom("sigma"),) * (len(parts) - len(positive))
    q = len(positive)
    out = []
    for a in range(q, -1, -1):
        for b in range(q - a, -1, -1):
            c = q - a - b
            kinds = ("theta",) * a + ("second",) * b + ("third",) * c
            atoms = sigmas + tuple(SteenAtom(kind, v)
                                   for kind, v in zip(kinds, positive))
            out.append((atoms, (-1) ** c, multinomial((a, b, c))))
    return tuple(out)


def substitute_dcmp(expansion, context=None):
    """Expand every positive part of every Cartan composition through the
    three-term sigma decomposition, one product per count class.

    Zero parts stay as sigma factors.  For q positive parts there is one
    class per (a, b, c) with a + b + c = q; its representative puts theta
    on the first a parts, second on the next b and third on the last c,
    its scalar is multiplicity * (-1)^c and its weight the number of terms
    it stands for.  The explicit p on each theta stays on the atom itself.
    """
    return [_new(SteenProduct, (atoms, multiplicity * sign, context, weight))
            for parts, multiplicity in expansion
            for atoms, sign, weight in _class_atoms(parts)]


# --- the rule engine -----------------------------------------------------------


# Verdicts are shared: one Zero per reason, one RuleApp per (rule, atoms)
# and one ValAtLeast(2) per tuple of rule applications.  The atoms name
# indices below 2 * MAX_AUDIT_DIM, so the caches stay small.
_ZERO = {reason: Zero(reason) for reason in ZERO_REASONS}
_EXACT_RAT = ValExactly(1, ("top-chern-degree", "unit-pairing-degree"))
_EXACT_GEN = ValExactly(1, ("top-chern-y-degree", "unit-pairing-degree"))
_XDECOMP = ("x-decomp-vanishes", ())


@lru_cache(maxsize=None)
def _rule_app(rule, atoms):
    return RuleApp(rule, atoms)


@lru_cache(maxsize=None)
def _at_least(*apps):
    """The ValAtLeast(2) certified by apps, each a (rule, atoms) pair."""
    return ValAtLeast(2, tuple(_rule_app(rule, atoms) for rule, atoms in apps))


def valuation_bound(prod):
    """Verdict for one expansion term, or for every term of its count
    class, strongest first: structural zeros, then valuation rules with
    their trace."""
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
    index: tuple
    product: SteenProduct
    verdict: object
    leading: bool = False

    @property
    def weight(self):
        """The number of expansion terms this case stands for."""
        return self.product.weight if self.product is not None else 1

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
        for case in self.cases:
            if case.leading:
                return case
        return None

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


def _grade(verdict, leading):
    """(tally slot, ok) of a case: its verdict's slot, and whether the
    verdict is one a passing audit may hold."""
    slot = _SLOT.get(type(verdict), 2)
    if leading:
        ok = type(verdict) is ValExactly and verdict.value == 1
    elif slot == 0:
        ok = verdict.reason in ZERO_REASONS
    else:
        ok = slot == 1 and verdict.value >= 2
    return slot, ok


def _conclude(cases, support, pass_text, fail_text):
    """(passed, conclusion, tallies) of an audit, in one pass over its
    cases: the weighted verdict tallies, and what first keeps the audit
    from passing (the number of leading cases, then the first case whose
    verdict is not allowed, then the first failing support check)."""
    tallies = [0, 0, 0]
    # verdicts are shared objects that the cases keep alive, so id(v)
    # names one verdict for the whole pass; graded memoises _grade of the
    # cases that are not leading
    graded = {}
    n_leading = 0
    first = None
    for case in cases:
        _, prod, v, leading = case
        if leading:
            n_leading += 1
            grade = _grade(v, True)
        else:
            grade = graded.get(id(v))
            if grade is None:
                grade = graded[id(v)] = _grade(v, False)
        tallies[grade[0]] += 1 if prod is None else prod.weight
        if not grade[1] and first is None:
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


def _index_cases(cases, index, ctx, leading):
    """Append the audit cases of one index to ``cases``: a cartan-empty
    zero, or one case per count class of S^l over the context's sigma power
    (ctx.r factors, ctx.l the Steenrod degree on it)."""
    expansion = cartan_expand(ctx.r, ctx.l, ctx.params.p)
    if not expansion:
        cases.append(_new(AuditCase, (index, None, _ZERO["cartan-empty"],
                                      False)))
        return
    for prod in substitute_dcmp(expansion, ctx):
        cases.append(_new(AuditCase,
                          (index, prod, valuation_bound(prod), leading)))


def rationality_arguments(params):
    """All (m, s) the rationality audit claims: 0 <= m <= d, s a Steenrod-
    valid index with (m - b)(p-1) < s <= d."""
    _check_audit_size(params)
    p, b, d = params.p, params.b, params.d
    return [(m, s)
            for m in range(d + 1)
            for s in range(0, d + 1, p - 1)
            if s > (m - b) * (p - 1)]


def generators_arguments(params):
    _check_audit_size(params)
    return [(m, r)
            for m in range(1, params.n)
            for r in range(1, params.p)]


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
    sigma-power factor, and classifies every term.  Passes iff the single
    leading term (i = d, j = l = 0, k = s) has valuation exactly 1 and every
    other term is Zero or ValAtLeast(2).
    """
    _check_audit_size(params)
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
        return AuditReport(
            "rationality", params, args, _RAT_PREMISES, (), (),
            conclusion=f"trivial: S^{s} = 0 since {p - 1} does not divide "
                       f"{s} (nothing to audit)",
            passed=True)

    support = _rationality_support(params)
    total = d + s
    chern = [_atom("chern_x", i) for i in range(d + 1)]
    overflow = _ZERO["chern-index-overflow"]
    invalid = _ZERO["steenrod-index-invalid"]
    cases = []
    for i in range(1, total + 1):
        for j in range(total - i + 1):
            budget = total - i - j
            for l in range(budget + 1):
                k = budget - l
                index = (i, j, k, l)
                if i > d or j > d:
                    cases.append(_new(AuditCase, (index, None, overflow,
                                                  False)))
                elif not steen_index_valid(k, p):
                    cases.append(_new(AuditCase, (index, None, invalid,
                                                  False)))
                else:
                    ctx = _new(PairingContext, (
                        "rationality", params, m, s, p - 1, i, j, k, l,
                        (chern[i], chern[j])))
                    _index_cases(cases, index, ctx,
                                 l == 0 and i == d and j == 0)

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
    itself p-divisible.
    """
    _check_audit_size(params)
    p, b, n, d = params.p, params.b, params.n, params.d
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

    cases = []
    for j in range(dim_y + 1):
        i = dim_y - j
        ctx = _new(PairingContext, ("generators", params, m, j, r, i, j, 0,
                                    j, (_atom("chern_y", i),)))
        _index_cases(cases, (i, j), ctx, j == 0)

    ok, conclusion, tallies = _conclude(
        cases, support,
        pass_text=f"pass: order exactly {p} (killed by p, degree pairing "
                  "has valuation exactly 1)",
        fail_text="fail: could not certify order exactly p")
    return AuditReport("generators", params, args, _GEN_PREMISES, support,
                       tuple(cases), conclusion, ok, tallies)


# --- trace replay -----------------------------------------------------------------


def _recount(atoms):
    """(theta, second, third, weight) of a class's atoms, counted afresh:
    its weight counts the ways to place its theta, second and third atoms
    on its q positive parts."""
    kinds = [a.kind for a in atoms]
    a, b, c = kinds.count("theta"), kinds.count("second"), kinds.count("third")
    return a, b, c, comb(a + b + c, a) * comb(b + c, b)


def _has_composition(r, l, p):
    """Whether S^l has a Cartan composition over an r-fold product, in
    closed form and without cartan_expand: its parts are multiples of p-1
    summing to l, so one exists iff (p-1) divides l and, when l > 0,
    there is at least one factor."""
    return l % (p - 1) == 0 and (r >= 1 or l == 0)


def _check_zero(reason, index, tally, report, args):
    """Whether a Zero(reason) verdict holds at ``index``; ``tally`` is the
    _recount of the case's product, or None for an unexpanded case."""
    params = report.params
    p, b, d = params.p, params.b, params.d
    third_only = tally is not None and tally[0] == tally[1] == 0 < tally[2]
    if report.kind == "rationality":
        i, j, k, l = index
        if reason == "chern-index-overflow":
            return i > d or j > d
        if reason == "steenrod-index-invalid":
            return not steen_index_valid(k, p)
        if reason == "cartan-empty":
            return l > 0 and not _has_composition(p - 1, l, p)
        if reason == "rho-pairing-zero":
            return l == 0 and i % b != 0
        if reason == "proj1-sigma-power-zero":
            return third_only and k == args["s"] and j == 0
        return False
    i, j = index
    if reason == "cartan-empty":
        return j > 0 and not _has_composition(args["r"], j, p)
    if reason == "proj1-sigma-power-zero":
        return third_only
    return False


def _xdecomp_vanishes(kind, params, m, s, at_s):
    """Whether every summand of the point-splitting of x dies in a context
    of this kind, symbol, m and s, at k == s or not (``at_s``): the base
    one needs k = s, the twisted ones exceed the top index."""
    if kind != "rationality" or at_s:
        return False
    b, p = params.b, params.p
    return all(s + rr * b > (m - rr * b) * (p - 1) for rr in range(1, p))


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


def replay(report):
    """Re-check every verdict's premises and every class weight
    independently of the enumeration, and recount the weighted verdict
    tallies from the recounted weights.

    The cases of one index share one pairing context, so which Chern atoms
    it shows is read once per context; whether its x-decomposition vanishes
    is decided once per (kind, symbol, m, s, k == s).  Every case checks its
    own atoms and weight.
    """
    out = CheckReport(f"replay: {report.title}")
    if not report.cases:
        out.add("trivial report", report.conclusion.startswith("trivial"),
                report.conclusion)
        return out
    args = dict(report.args)
    # atoms tuples and verdicts are shared objects that the report keeps
    # alive, so their ids name one of them for the whole loop.  A verdict
    # maps to its tally slot, its _rule_needs (at-least verdicts) and the
    # needed atoms each atoms tuple lacks.
    recounts, verdicts, xdecomps = {}, {}, {}
    ctx = index = xdecomp = None
    chern = ()
    tallies = [0, 0, 0]
    n_leading = bad_zero = bad_rules = bad_exact = bad_weight = 0
    for case in report.cases:
        case_index, prod, v, leading = case
        n_leading += leading
        known = verdicts.get(id(v))
        if known is None:
            slot = _SLOT.get(type(v), 2)
            known = verdicts[id(v)] = (
                slot, _rule_needs(v) if slot == 1 else None, {})
        slot, need, rests = known
        if prod is None:
            tally = None
            tallies[slot] += 1
        else:
            atoms, _, prod_ctx, weight = prod
            tally = recounts.get(id(atoms))
            if tally is None:
                tally = recounts[id(atoms)] = _recount(atoms)
            tallies[slot] += tally[3]
            if weight != tally[3]:
                bad_weight += 1
            if prod_ctx is not ctx:
                # the cases of one index share one context: a case that
                # carries another has no premises to stand on
                if case_index == index and prod_ctx != ctx:
                    bad_rules += 1
                    continue
                ctx, chern, xdecomp = prod_ctx, prod_ctx.chern, None
        index = case_index
        if slot == 0:
            if (v.reason not in ZERO_REASONS
                    or not _check_zero(v.reason, index, tally, report, args)):
                bad_zero += 1
        elif slot == 1:
            if prod is None or need is None:
                bad_rules += 1
                continue
            if need[1]:
                if xdecomp is None:
                    # hashing the params themselves would cost more than
                    # the check; the contexts keep them alive
                    key = (ctx.kind, id(ctx.params), ctx.m, ctx.s,
                           ctx.k == ctx.s)
                    if key not in xdecomps:
                        xdecomps[key] = _xdecomp_vanishes(
                            ctx.kind, ctx.params, ctx.m, ctx.s, ctx.k == ctx.s)
                    xdecomp = xdecomps[key]
                if not xdecomp:
                    bad_rules += 1
                    continue
            # the named atoms the product lacks must be in the context
            rest = rests.get(id(atoms))
            if rest is None:
                rest = rests[id(atoms)] = tuple(
                    a for a in need[0] if a not in atoms)
            for a in rest:
                if a not in chern:
                    bad_rules += 1
                    break
        elif (type(v) is not ValExactly or not leading or v.value != 1
              or not all(pid in PREMISES for pid in v.premises)):
            bad_exact += 1
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
