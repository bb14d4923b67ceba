"""Named verification suites: batteries of exact identity checks, one
CheckReport per suite.  These back the command-line `verify` subcommand.

``SUITES`` is the one registry of suite names; the command line reads its
choices from it.  Each suite imports the engine it checks when it runs, so
importing this module loads none of them.
"""

import math
from collections import Counter
from fractions import Fraction

from .arith import val
from .reporting import CheckReport


def suite_correspondences(params):
    from .corresp import (basis, comp_power, diag_pullback, mult, rho,
                          rost_projector, sigma, to_tuple, transpose)
    p, e = params.p, params.e
    report = CheckReport(f"correspondences p={p} n={params.n}")
    sg = sigma(params)
    rh = rho(params)
    pi = rost_projector(params)

    report.add("transpose(sigma) = -sigma", transpose(sg) == sg.scale(-1))
    report.add("rho = sigma^(p-1)", rh == sg ** (p - 1))

    anti = basis(params, 0, p - 1)
    for i in range(1, p):
        anti = anti + basis(params, i, p - 1 - i)
    congruent = all(
        val(rh.coeff(i, p - 1 - i) - anti.coeff(i, p - 1 - i), p) >= 1
        for i in range(p))
    report.add("sigma^(p-1) = sum_i E(i,p-1-i) mod p", congruent)

    want = basis(params, 0, 1).scale(e) + basis(params, 1, 0).scale(e * (p - 1))
    report.add("sigma o rho = e*(E(0,1) + (p-1)*E(1,0))", sg @ rh == want)

    report.add("pi o pi = pi", pi @ pi == pi)
    report.add("transpose(pi) = pi", transpose(pi) == pi)
    report.add("mult(pi) = 1", mult(pi) == 1)
    report.add("deg(diag(pi)) = p", diag_pullback(pi).degree() == p)
    report.add("pi^(o3) = pi", comp_power(pi, 3) == pi)

    hom = to_tuple(pi @ rh) == to_tuple(pi) * to_tuple(rh)
    report.add("to_tuple is a composition homomorphism", hom)
    report.add("pi absorbs rho", pi @ rh == rh and rh @ pi == rh)
    return report


def suite_symmpow(params):
    from . import sympow
    report = CheckReport(f"symmpow p={params.p} n={params.n}")
    maps = sympow.morphism_table(params)
    for sub in (sympow.verify_somesome(params, maps),
                sympow.verify_manyi_ccom(params, maps),
                sympow.verify_triangles(params, maps)):
        for name, ok, detail in sub.checks:
            report.add(f"{sub.title}: {name}", ok, detail)
    return report


def _random_rational_tuple(rng, p):
    """A tuple in the image of the rational endomorphisms: a common integer
    residue plus p times something of nonnegative valuation."""
    from . import endalg
    residue = rng.randrange(p)
    denoms = [q for q in range(1, 10) if q % p != 0]
    common = math.lcm(*denoms)
    nums = rng.choices(range(-9, 10), k=p)
    dens = rng.choices(denoms, k=p)
    # residue + p * num/den over the common denominator
    return endalg.EndTuple.from_ints(
        p, [residue * common + p * num * (common // den)
            for num, den in zip(nums, dens)], common)


ENDALG_SAMPLES = 200


def suite_endalg(params):
    import random

    from .endalg import EndTuple, identity, invert, is_rational
    p = params.p
    seed = 1009 * p + params.n
    rng = random.Random(seed)
    report = CheckReport(f"endalg p={p} n={params.n}")

    closed_add = closed_mul = closed_pow = closed_scale = True
    for _ in range(ENDALG_SAMPLES):
        t1 = _random_rational_tuple(rng, p)
        t2 = _random_rational_tuple(rng, p)
        closed_add &= is_rational(t1) and is_rational(t1 + t2)
        closed_mul &= is_rational(t1 * t2)
        closed_pow &= is_rational(t1 ** rng.randrange(5))
        unit = Fraction(rng.choice([u for u in range(1, 10) if u % p != 0]))
        closed_scale &= is_rational(t1.scale(unit * p) + t2)
    note = f"{ENDALG_SAMPLES} samples, seed {seed}"
    report.add("closure under +", closed_add, note)
    report.add("closure under *", closed_mul, note)
    report.add("closure under powers", closed_pow, note)
    report.add("closure under p-unit rescaling mod p", closed_scale, note)

    inv_ok, one = True, identity(p)
    for _ in range(ENDALG_SAMPLES):
        residues = rng.choices(range(1, p), k=p)
        multipliers = rng.choices(range(-5, 6), k=p)
        u = EndTuple.from_ints(
            p, [r + p * m for r, m in zip(residues, multipliers)])
        inv_ok &= invert(u) * u == one
    report.add("units invert back to the identity", inv_ok, note)

    try:
        invert(EndTuple(p, (Fraction(p),) * p))
        report.add("non-unit rejected by invert", False)
    except ValueError:
        report.add("non-unit rejected by invert", True)

    good = EndTuple(p, tuple(Fraction(1 + p * k) for k in range(p)))
    bad = EndTuple(p, (Fraction(1), Fraction(2)) + (Fraction(1),) * (p - 2))
    report.add("congruent unit tuple is rational", is_rational(good))
    report.add("incongruent tuple is not rational", not is_rational(bad))
    return report


def suite_motcoh(params):
    from . import motcoh, rostchow
    report = CheckReport(f"motcoh p={params.p} n={params.n}")
    table = rostchow.closed_form(params)
    diffs = rostchow.diffs(table, rostchow.recurrence(params))
    report.add("closed form matches recurrence",
               not diffs, f"{len(diffs)} disagreement(s)" if diffs else "")
    report.add("free rank one at j=0", table.entries[0].kind == "free")
    pfree_ok = all(
        table.entries[params.b * k].kind == "p_free"
        for k in range(1, params.p) if params.b * k <= params.d)
    report.add("index-p free parts at j = b*k", pfree_ok)

    labels_ok = True
    constraint_ok = True
    z_only_origin = True
    for j in range(params.d + 1):
        even = motcoh.even_row(j, params)
        z_only_origin &= j == 0 or even.label != "Z"
        for row in (even, motcoh.odd_row(j, params)):
            if row.label not in ("0", "Z", f"Z/{params.p}") and \
                    not row.label.startswith("K_"):
                labels_ok = False
            for mono in row.monomials:
                if mono == motcoh.CONSTANT_CLASS:
                    continue
                if mono.k != 0 or mono.eps[-1] != 0:
                    constraint_ok = False
    report.add("row labels well formed", labels_ok)
    report.add("rows with j <= d satisfy k=0 and eps_n=0", constraint_ok)
    report.add("integral row only at j=0", z_only_origin)
    return report


def suite_steenrod(params):
    """Every steenrod claim at the symbol (``steenrod.claims``): a line per
    audit, and one per audit kind for the replays.  That line also gives
    the kind's verdict totals, each audit's tallies counted once per m it
    stands for."""
    from . import steenrod
    report = CheckReport(f"steenrod p={params.p} n={params.n}")
    counts, totals, failed = Counter(), {}, {}  # per kind
    for name, label, rep, ms, replayed in steenrod.claims(params):
        report.add(label, rep.passed, rep.conclusion)
        counts[rep.kind] += 1
        totals.setdefault(rep.kind, Counter()).update(
            {key: n * len(ms) for key, n in rep.counts().items()})
        failures = replayed.failures()
        if failures:
            failed.setdefault(rep.kind,
                              f"first failure at {name}: {failures[0][0]}")
    for kind, count in counts.items():
        verdicts = " ".join(f"{key}={n}" for key, n in totals[kind].items())
        report.add(f"trace replay ({kind})", kind not in failed,
                   f"{failed.get(kind, f'{count} audits replayed')}; "
                   f"verdicts {verdicts}")
    return report


SUITES = {
    "correspondences": suite_correspondences,
    "symmpow": suite_symmpow,
    "endalg": suite_endalg,
    "motcoh": suite_motcoh,
    "steenrod": suite_steenrod,
}


#: the largest prime the suites take.  The symmpow suite builds O(p) maps
#: and stores only their nonzero entries, O(p) per map, so its work grows
#: as p^2; the tests and the benchmark verify at p <= 31, and the
#: command-line tests run `--suite all` at this bound.
MAX_VERIFY_PRIME = 61


def run_suite(name, params):
    """Return a list of CheckReports for the named suite ('all' runs them
    all in declaration order, once the symbol is within every bound)."""
    if params.p > MAX_VERIFY_PRIME:
        raise ValueError(f"verify too large: p = {params.p}, more than "
                         f"{MAX_VERIFY_PRIME}")
    if name == "all":
        from . import steenrod
        steenrod.check_audit_size(params)
        return [fn(params) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return [SUITES[name](params)]
