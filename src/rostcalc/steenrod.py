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


@dataclass(frozen=True)
class SteenAtom:
    """One factor of an expansion term.

    kinds: sigma (an unexpanded sigma factor), theta / second / third (the
    three pieces of the sigma decomposition, second = 1 x S^j(H) and
    third = S^j(H) x 1), chern_x / chern_y (Chern classes of the negative
    tangent bundles, the _y ones pushed forward from the subvariety),
    h_power, decomp_x (the H^r x x_r summand of the point-splitting of x).
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")

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


@dataclass(frozen=True)
class PairingContext:
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


@dataclass(frozen=True)
class SteenProduct:
    """A count class of expansion terms: the ``weight`` terms with the same
    sigma, theta, second and third counts over one Cartan composition,
    represented by one of them (``atoms``, with its signed ``scalar``)."""

    atoms: tuple
    scalar: int
    context: PairingContext = None
    weight: int = 1

    def classify(self):
        counts = {"sigma": 0, "theta": 0, "second": 0, "third": 0}
        for a in self.atoms:
            if a.kind in counts:
                counts[a.kind] += 1
        return counts

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
    return [SteenProduct(atoms, multiplicity * sign, context, weight)
            for parts, multiplicity in expansion
            for atoms, sign, weight in _class_atoms(parts)]


# --- the rule engine -----------------------------------------------------------


_XDECOMP = RuleApp("x-decomp-vanishes")


def valuation_bound(prod):
    """Verdict for one expansion term, or for every term of its count
    class, strongest first: structural zeros, then valuation rules with
    their trace."""
    ctx = prod.context
    if ctx is None:
        raise ValueError("cannot audit: product has no pairing context")
    b, d = ctx.params.b, ctx.params.d
    counts = prod.classify()
    n_theta, n_second, n_third = (counts["theta"], counts["second"],
                                  counts["third"])

    if ctx.kind == "generators":
        chern = ctx.chern[0]
        if n_theta >= 1:
            theta = next(a for a in prod.atoms if a.kind == "theta")
            return ValAtLeast(2, (RuleApp("theta-carries-p", (theta,)),
                                  RuleApp("rational-pairing", (chern,))))
        if n_second >= 1:
            second = next(a for a in prod.atoms if a.kind == "second")
            return ValAtLeast(2, (RuleApp("split-pairing", (chern, second)),))
        if n_third >= 1:
            return Zero("proj1-sigma-power-zero")
        return ValExactly(1, ("top-chern-y-degree", "unit-pairing-degree"))

    if ctx.kind != "rationality":
        raise ValueError(f"cannot audit: unknown pairing kind {ctx.kind!r}")

    # audit_rationality emits the Chern-overflow and invalid-S^k zeros
    # before it builds a context, so no product reaches them here
    chern_i, chern_j = ctx.chern
    if ctx.l == 0:
        if ctx.i == d and ctx.j == 0:
            return ValExactly(1, ("top-chern-degree", "unit-pairing-degree"))
        if ctx.i % b:
            return Zero("rho-pairing-zero")
        rules = [RuleApp("rational-pairing", (chern_i,))]
        if ctx.j > 0:
            rules.append(RuleApp("rational-pairing", (chern_j,)))
        else:
            rules.append(_XDECOMP)
        return ValAtLeast(2, tuple(rules))

    # l > 0: the term carries an actual sigma expansion
    thetas = [a for a in prod.atoms if a.kind == "theta"]
    if n_theta >= 2:
        return ValAtLeast(2, (RuleApp("theta-carries-p", (thetas[0],)),
                              RuleApp("theta-carries-p", (thetas[1],))))
    if n_theta == 1:
        first = RuleApp("theta-carries-p", (thetas[0],))
        if ctx.k != ctx.s:
            return ValAtLeast(2, (first, _XDECOMP))
        if ctx.j > 0:
            return ValAtLeast(2, (first,
                                  RuleApp("rational-pairing", (chern_j,))))
        return ValAtLeast(2, (first,
                              RuleApp("rational-pairing", (chern_i,))))
    # no theta
    if ctx.k != ctx.s:
        return ValAtLeast(2, (RuleApp("rational-pairing", (chern_i,)),
                              _XDECOMP))
    if ctx.j > 0:
        return ValAtLeast(2, (RuleApp("split-pairing", (chern_i, chern_j)),))
    if n_second >= 1:
        second = next(a for a in prod.atoms if a.kind == "second")
        return ValAtLeast(2, (RuleApp("split-pairing", (chern_i, second)),))
    return Zero("proj1-sigma-power-zero")


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class AuditCase:
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
        out = {"zero": 0, "at-least": 0, "exact": 0}
        for case in self.cases:
            if isinstance(case.verdict, Zero):
                out["zero"] += case.weight
            elif isinstance(case.verdict, ValAtLeast):
                out["at-least"] += case.weight
            else:
                out["exact"] += case.weight
        return out

    def header_lines(self):
        lines = [self.title]
        for pid in self.premises:
            lines.append(f"premise {pid}: {PREMISES[pid]}")
        for name, ok, detail in self.support:
            tag = "ok" if ok else "FAIL"
            lines.append(f"support {tag}: {name}" + (f" -- {detail}" if detail else ""))
        return lines


def _offender(cases, support):
    """What first keeps an audit from passing, or None."""
    leading = [c for c in cases if c.leading]
    if len(leading) != 1:
        return f"{len(leading)} leading cases, expected 1"
    for case in cases:
        v = case.verdict
        if case.leading:
            ok = isinstance(v, ValExactly) and v.value == 1
        elif isinstance(v, Zero):
            ok = v.reason in ZERO_REASONS
        else:
            ok = isinstance(v, ValAtLeast) and v.value >= 2
        if not ok:
            return f"case {case.index}: {verdict_str(v)}"
    for name, ok, detail in support:
        if not ok:
            return f"support {name}" + (f" -- {detail}" if detail else "")
    return None


def _conclude(cases, support, pass_text, fail_text):
    offender = _offender(cases, support)
    if offender is None:
        return True, pass_text
    return False, f"{fail_text} (first: {offender})"


# --- the two audits --------------------------------------------------------------


def _index_cases(index, ctx, leading):
    """The audit cases of one index: a cartan-empty zero, or one case per
    count class of S^l over the context's sigma power (ctx.r factors,
    ctx.l the Steenrod degree on it)."""
    expansion = cartan_expand(ctx.r, ctx.l, ctx.params.p)
    if not expansion:
        return [AuditCase(index, None, Zero("cartan-empty"))]
    return [AuditCase(index, prod, valuation_bound(prod), leading)
            for prod in substitute_dcmp(expansion, ctx)]


def rationality_arguments(params):
    """All (m, s) the rationality audit claims: 0 <= m <= d, s a Steenrod-
    valid index with (m - b)(p-1) < s <= d."""
    p, b, d = params.p, params.b, params.d
    return [(m, s)
            for m in range(d + 1)
            for s in range(0, d + 1, p - 1)
            if s > (m - b) * (p - 1)]


def generators_arguments(params):
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
    p, b, d = params.p, params.b, params.d
    args = (("m", m), ("s", s))
    valid = steen_index_valid(s, p)
    if valid and s <= (m - b) * (p - 1):
        raise ValueError(
            f"bound not satisfied: need s > (m-b)(p-1) = {(m - b) * (p - 1)}"
            f", got s = {s}; nothing is claimed below the bound")
    if not 0 <= m <= d:
        raise ValueError(f"cycle dimension m = {m} outside [0, {d}]")
    if not valid:
        return AuditReport(
            "rationality", params, args, _RAT_PREMISES, (), (),
            conclusion=f"trivial: S^{s} = 0 since {p - 1} does not divide "
                       f"{s} (nothing to audit)",
            passed=True)

    support = _rationality_support(params)
    total = d + s
    cases = []
    for i in range(1, total + 1):
        for j in range(total - i + 1):
            budget = total - i - j
            for l in range(budget + 1):
                k = budget - l
                if i > d or j > d:
                    cases.append(AuditCase((i, j, k, l), None,
                                           Zero("chern-index-overflow")))
                    continue
                if not steen_index_valid(k, p):
                    cases.append(AuditCase((i, j, k, l), None,
                                           Zero("steenrod-index-invalid")))
                    continue
                ctx = PairingContext(
                    "rationality", params, m, s, p - 1, i, j, k, l,
                    (SteenAtom("chern_x", i), SteenAtom("chern_x", j)))
                cases += _index_cases((i, j, k, l), ctx,
                                      l == 0 and i == d and j == 0)

    ok, conclusion = _conclude(
        cases, support,
        pass_text=f"pass: leading term deg(b_{d})*S^{s}(x_0) has valuation "
                  "exactly 1; all other terms are zero or in the ideal",
        fail_text="fail: could not certify rationality modulo the ideal")
    return AuditReport("rationality", params, args, _RAT_PREMISES, support,
                       tuple(cases), conclusion, ok)


def audit_generators(params, m, r):
    """Audit that the class pushed from a dimension-(p^m - 1) subvariety
    through sigma^r and the split projector has order exactly p.

    Part (a): its splitting-field restriction vanishes degreewise, so p
    kills it.  Part (b): the degree pairing's j = 0 term has valuation
    exactly 1 and every j > 0 term is zero or p^2-divisible, so it is not
    itself p-divisible.
    """
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
        ctx = PairingContext("generators", params, m, j, r, i, j, 0, j,
                             (SteenAtom("chern_y", i),))
        cases += _index_cases((i, j), ctx, j == 0)

    ok, conclusion = _conclude(
        cases, support,
        pass_text=f"pass: order exactly {p} (killed by p, degree pairing "
                  "has valuation exactly 1)",
        fail_text="fail: could not certify order exactly p")
    return AuditReport("generators", params, args, _GEN_PREMISES, support,
                       tuple(cases), conclusion, ok)


# --- trace replay -----------------------------------------------------------------


def _check_zero(case, report):
    reason = case.verdict.reason
    params = report.params
    p, b, d = params.p, params.b, params.d
    if report.kind == "rationality":
        i, j, k, l = case.index
        if reason == "chern-index-overflow":
            return i > d or j > d
        if reason == "steenrod-index-invalid":
            return not steen_index_valid(k, p)
        if reason == "cartan-empty":
            return l > 0 and not cartan_expand(p - 1, l, p)
        if reason == "rho-pairing-zero":
            return l == 0 and i % b != 0
        if reason == "proj1-sigma-power-zero":
            c = case.product.classify()
            s = dict(report.args)["s"]
            return (c["theta"] == 0 and c["second"] == 0 and c["third"] >= 1
                    and k == s and j == 0)
        return False
    i, j = case.index
    r = dict(report.args)["r"]
    if reason == "cartan-empty":
        return j > 0 and not cartan_expand(r, j, p)
    if reason == "proj1-sigma-power-zero":
        c = case.product.classify()
        return c["theta"] == 0 and c["second"] == 0 and c["third"] >= 1
    return False


def _check_rule(app, ctx, visible):
    """Whether a rule application holds in pairing context ``ctx``;
    ``visible`` is the set of atoms the case's product and context show."""
    if app.rule == "theta-carries-p":
        return (len(app.atoms) == 1 and app.atoms[0].kind == "theta"
                and app.atoms[0] in visible)
    if app.rule == "rational-pairing":
        return (len(app.atoms) == 1 and app.atoms[0].rational
                and app.atoms[0].poscodim and app.atoms[0] in visible)
    if app.rule == "split-pairing":
        return (len(app.atoms) == 2
                and all(a.rational and a.poscodim and a in visible
                        for a in app.atoms))
    if app.rule == "x-decomp-vanishes":
        if ctx is None or ctx.kind != "rationality":
            return False
        if ctx.k == ctx.s:
            return False
        return all(ctx.s + rr * ctx.params.b
                   > (ctx.m - rr * ctx.params.b) * (ctx.params.p - 1)
                   for rr in range(1, ctx.params.p))
    return False


def replay(report):
    """Re-check every verdict's premises and every class weight
    independently of the enumeration."""
    out = CheckReport(f"replay: {report.title}")
    if not report.cases:
        out.add("trivial report", report.conclusion.startswith("trivial"),
                report.conclusion)
        return out
    leading = [c for c in report.cases if c.leading]
    out.add("exactly one leading case", len(leading) == 1)
    bad_zero = bad_rules = bad_exact = bad_weight = 0
    for case in report.cases:
        prod, v = case.product, case.verdict
        if prod is not None:
            # a class's weight counts the ways to place its theta, second
            # and third atoms on its q positive parts
            c = prod.classify()
            n_theta, n_second = c["theta"], c["second"]
            q = n_theta + n_second + c["third"]
            if prod.weight != comb(q, n_theta) * comb(q - n_theta, n_second):
                bad_weight += 1
        if isinstance(v, Zero):
            if v.reason not in ZERO_REASONS or not _check_zero(case, report):
                bad_zero += 1
        elif isinstance(v, ValAtLeast):
            ctx, visible = None, set()
            if prod is not None:
                ctx, visible = prod.context, {*prod.atoms, *prod.context.chern}
            factors = sum(RULE_FACTORS[a.rule] for a in v.rules)
            if factors < v.value or not all(_check_rule(a, ctx, visible)
                                            for a in v.rules):
                bad_rules += 1
        elif isinstance(v, ValExactly):
            if (not case.leading or v.value != 1
                    or not all(pid in PREMISES for pid in v.premises)):
                bad_exact += 1
    out.add("zero reasons justified", bad_zero == 0, f"{bad_zero} bad")
    out.add("rule premises satisfied", bad_rules == 0, f"{bad_rules} bad")
    out.add("exact verdicts are the declared leading premise", bad_exact == 0)
    out.add("class weights recounted", bad_weight == 0, f"{bad_weight} bad")
    out.add("support checks hold", all(ok for _, ok, _ in report.support))
    return out
