"""Deterministic job lists for the four benchmark workloads.

The same (workload, seed) always gives the same list of jobs, and every job
is a plain JSON-able list.  Nothing here imports rostcalc: the program only
ever sees the inputs generated here.

Argument samples are stratified by the quantity that sets an audit's cost
(the Steenrod degree s, or the symbol of a query), and the seed only picks
which arguments fill each stratum.  That keeps the amount of work nearly
the same from seed to seed, so run-to-run spread measures the program and
not the draw.  Each list is then shuffled, so that every kind of job is
timed across the whole pass rather than in one short stretch of it.
"""

import random

WORKLOADS = ("audit-grid", "audit-wide", "tables", "requests")

#: symbols whose full audit grids audit-grid runs (totals: jobs.GRID_TOTALS)
GRID_SYMBOLS = ((2, 3), (3, 2))

#: symbols of the tables workload, each with the number of even-row,
#: odd-row and bidegree queries.  A query's cost grows with 2^n, so (2,10)
#: gets 180 of the 300 queries: the median and the 90th percentile query
#: then sit inside its millisecond queries, not on the border between two
#: symbols or among sub-millisecond ones, whose times swing most with the
#: host's load.
TABLE_QUERIES = {(2, 10): 60, (3, 7): 14, (7, 5): 13, (11, 4): 13}

#: eval pairs per prime in the requests workload; large p is rarer
EVAL_PAIRS = {3: 124, 5: 90, 7: 70, 11: 50, 13: 40, 31: 31, 61: 20}

#: every suite runs once at each prime.  The dozen calls slower than 100 ms
#: fill the top 1% of requests, so job_ms_p99 falls between two of them
#: rather than between a fixed call and a random one.
VERIFY_SUITES = ("correspondences", "symmpow", "endalg")
VERIFY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

#: small symbols for the chow and motcoh requests (each chow under 15 ms)
SMALL_SYMBOLS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                 (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3),
                 (7, 1), (7, 2), (11, 1), (11, 2), (13, 1))


def symbol(p, n):
    """(b, c, d) of the symbol (p, n)."""
    b = (p ** n - 1) // (p - 1)
    return b, b + p ** n, p ** n - 1


def rationality_arguments(p, n):
    """Every (m, s) the rationality audit claims at (p, n)."""
    b, _, d = symbol(p, n)
    return [(m, s) for m in range(d + 1) for s in range(0, d + 1, p - 1)
            if s > (m - b) * (p - 1)]


def generators_arguments(p, n):
    return [(m, r) for m in range(1, n) for r in range(1, p)]


def _audit(kind, p, n, m, arg, part):
    return ["audit", kind, p, n, m, arg, part]


def _sample_by_s(rng, p, n, per_s):
    """Rationality arguments with per_s(s) seed-drawn m values for each s."""
    by_s = {}
    for m, s in rationality_arguments(p, n):
        by_s.setdefault(s, []).append(m)
    out = []
    for s in sorted(by_s):
        for m in sorted(rng.sample(by_s[s], min(per_s(s), len(by_s[s])))):
            out.append((m, s))
    return out


def audit_grid(rng):
    """Full grids at (2,3) and (3,2), plus 40 (2,4) rationality arguments
    (three per even s, two per odd s) and the three (2,4) generators."""
    jobs = []
    for p, n in GRID_SYMBOLS:
        jobs += [_audit("rationality", p, n, m, s, "grid")
                 for m, s in rationality_arguments(p, n)]
        jobs += [_audit("generators", p, n, m, r, "grid")
                 for m, r in generators_arguments(p, n)]
    jobs += [_audit("rationality", 2, 4, m, s, "sample")
             for m, s in _sample_by_s(rng, 2, 4, lambda s: 3 - s % 2)]
    jobs += [_audit("generators", 2, 4, m, r, "sample")
             for m, r in generators_arguments(2, 4)]
    return jobs


#: (5,2) rationality arguments drawn per s.  With the ten generators
#: audits and the (7,2) audit that makes 22 jobs, sorted by cost: ten
#: generators, six s = 0, two s = 4, three s = 8, then (7,2).  The median
#: falls between two s = 0 audits and the 90th percentile between two
#: s = 8 audits, so neither straddles two kinds of job.
WIDE_PER_S = {0: 6, 4: 2, 8: 3}


def audit_wide(rng):
    """(5,2) rationality arguments with s in {0, 4, 8}, one (7,2) argument
    at s = 6, and every generators argument of both symbols."""
    rat = [(5, 2, m, s) for m, s in
           _sample_by_s(rng, 5, 2, lambda s: WIDE_PER_S.get(s, 0))]
    m7 = rng.choice([m for m, s in rationality_arguments(7, 2) if s == 6])
    rat.append((7, 2, m7, 6))
    jobs = [_audit("rationality", p, n, m, s, "sample") for p, n, m, s in rat]
    for p, n in ((5, 2), (7, 2)):
        jobs += [_audit("generators", p, n, m, r, "sample")
                 for m, r in generators_arguments(p, n)]
    return jobs


def _monomial_bidegree(rng, p, n, k):
    """(i, j) of a random monomial (m, k, eps), so the query is nonempty."""
    _, c, _ = symbol(p, n)
    m = rng.randrange(4)
    eps = [rng.randrange(2) for _ in range(n)]
    j = m + (c - 1) * k + sum(e * (p ** (t + 1) - 1)
                              for t, e in enumerate(eps)) + n
    w = m - 2 * k - sum(eps) + n - 2
    return 2 * j - w, j


def tables(rng):
    """compare at each table symbol, and its motcoh queries: rows at
    random j, and bidegrees of random monomials, every fourth with k = 1
    (which doubles the scan) and the rest with k = 0."""
    jobs = [["compare", p, n] for p, n in TABLE_QUERIES]
    queries = []
    for (p, n), count in TABLE_QUERIES.items():
        d = symbol(p, n)[2]
        for row in ("even", "odd"):
            queries += [["row", p, n, row, rng.randrange(d + 1)]
                        for _ in range(count)]
        for t in range(count):
            i, j = _monomial_bidegree(rng, p, n, int(t % 4 == 3))
            queries.append(["bidegree", p, n, i, j])
    return jobs + queries


# --- requests -------------------------------------------------------------


def _scalar(rng, p):
    """A nonzero p-local scalar literal."""
    num = rng.choice([q for q in range(-5, 8) if q])
    if rng.random() < 0.7:
        return str(num) if num > 0 else f"({num})"
    den = rng.choice([q for q in range(2, 9) if q % p])
    return f"{abs(num)}/{den}"


def _leaf(rng, p):
    r = rng.random()
    if r < 0.35:
        return rng.choice(("sigma", "rho", "pi"))
    if r < 0.8:
        return f"E({rng.randrange(p)},{rng.randrange(p)})"
    return f"{_scalar(rng, p)}*E({rng.randrange(p)},{rng.randrange(p)})"


def corr_expr(rng, p, depth=2):
    """A random well-typed correspondence expression of bounded depth."""
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, p)
    op = rng.choice(("+", "-", "*", "@", "t", "^", "^@", "neg"))
    a = corr_expr(rng, p, depth - 1)
    if op == "t":
        return f"t({a})"
    if op == "neg":
        return f"-({a})"
    if op == "^":
        return f"({a})^{rng.randrange(4)}"
    if op == "^@":
        return f"({a})^@{rng.randrange(1, 4)}"
    return f"({a}) {op} ({corr_expr(rng, p, depth - 1)})"


def identity_pair(rng, p):
    """Two expressions that must print identical bytes: distributivity,
    associativity of * and @, transpose of a composition, a composition
    cube, idempotence of pi, and distributivity on classes."""
    x, y, z = (corr_expr(rng, p) for _ in range(3))
    kind = rng.choice(("dist-mul", "dist-comp", "assoc-mul", "assoc-comp",
                       "transpose", "cube", "idem", "class-dist"))
    if kind in ("dist-mul", "dist-comp"):
        op = "*" if kind == "dist-mul" else "@"
        return (f"({x}) {op} (({y}) + ({z}))",
                f"({x}) {op} ({y}) + ({x}) {op} ({z})")
    if kind in ("assoc-mul", "assoc-comp"):
        op = "*" if kind == "assoc-mul" else "@"
        return (f"(({x}) {op} ({y})) {op} ({z})",
                f"({x}) {op} (({y}) {op} ({z}))")
    if kind == "transpose":
        return f"t(({x}) @ ({y}))", f"t({y}) @ t({x})"
    if kind == "cube":
        return f"({x})^@3", f"({x}) @ ({x}) @ ({x})"
    if kind == "class-dist":
        h = f"H^{rng.randrange(p)}"
        return (f"diag({x}) * (diag({y}) + {h})",
                f"diag({x}) * diag({y}) + diag({x}) * {h}")
    return "pi @ pi", "pi"


def _symbol_args(rng, p):
    n = rng.randrange(1, 3)
    args = ["-p", str(p), "-n", str(n)]
    if rng.random() < 0.25:
        args += ["-e", str(p + 1)]
    return args


def requests(rng):
    """1,000 in-process CLI requests: identity pairs of eval, and fixed
    counts of verify, params, chow and motcoh.

    Each request is ["cli", argv, check, key]; check names the output
    check and key carries what it needs (the pair id for eval).
    """
    reqs = []
    pair = 0
    for p, count in EVAL_PAIRS.items():
        for _ in range(count):
            fmt = rng.choice(("text", "csv"))
            sym = _symbol_args(rng, p)
            for expr in identity_pair(rng, p):
                reqs.append(["cli", ["eval", *sym, "--format", fmt, expr],
                             "pair", pair])
            pair += 1
    for suite in VERIFY_SUITES:
        for p in VERIFY_PRIMES:
            reqs.append(["cli", ["verify", *_symbol_args(rng, p),
                                 "--suite", suite], "verify", None])
    for _ in range(40):
        p, n = rng.choice(SMALL_SYMBOLS)
        fmt = rng.choice(("text", "json", "csv"))
        argv = ["params", "-p", str(p), "-n", str(n), "--format", fmt]
        reqs.append(["cli", argv, "params", None])
    for _ in range(40):
        p, n = rng.choice(SMALL_SYMBOLS)
        method = rng.choice(("closed", "recurrence", "both"))
        argv = ["chow", "-p", str(p), "-n", str(n), "--method", method,
                "--format", "csv"]
        reqs.append(["cli", argv, "chow", None])
    for _ in range(40):
        p, n = rng.choice(SMALL_SYMBOLS)
        d = symbol(p, n)[2]
        if rng.random() < 0.5:
            row = rng.choice(("even", "odd"))
            where = ["--row", row, "--j", str(rng.randrange(d + 1))]
        else:
            i, j = _monomial_bidegree(rng, p, n, rng.randrange(2))
            where = ["--bidegree", str(i), str(j)]
        argv = ["motcoh", "-p", str(p), "-n", str(n), *where,
                "--format", "json"]
        reqs.append(["cli", argv, "motcoh", None])
    return reqs


_GENERATORS = {"audit-grid": audit_grid, "audit-wide": audit_wide,
               "tables": tables, "requests": requests}


def jobs_for(workload, seed):
    """The job list of one workload at one seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs
