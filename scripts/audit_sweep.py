"""Sweep the p-divisibility audits over their full argument grids and
summarize verdict counts and timing: one rationality audit per Steenrod-
valid s, its tallies counted once per m of its grid entry, and every
generators audit.  Exits 1 if any audit or replay fails.

    python3 scripts/audit_sweep.py -p 3 -n 2
"""

import argparse
import sys
import time

from rostcalc import steenrod
from rostcalc.splitring import make_params


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-p", type=int, default=3)
    ap.add_argument("-n", type=int, default=2)
    ap.add_argument("--replay", action="store_true",
                    help="re-check every trace independently")
    args = ap.parse_args()
    params = make_params(args.p, args.n)

    total = {"zero": 0, "at-least": 0, "exact": 0}
    failures = 0
    t0 = time.time()
    # an audit's verdicts do not read m, so each s is audited once, at the
    # largest m of its grid entry, and counts once per m
    grid = steenrod.rationality_grid(params)
    for s, ms in grid:
        report = steenrod.audit_rationality(params, ms[-1], s)
        if not report.passed:
            failures += 1
            print(f"FAIL rationality s={s} m<={ms[-1]}: {report.conclusion}")
        if args.replay and not steenrod.replay(report).passed:
            failures += 1
            print(f"FAIL replay rationality s={s} m<={ms[-1]}")
        for key, count in report.counts().items():
            total[key] += count * len(ms)
    gen_args = steenrod.generators_arguments(params)
    for m, r in gen_args:
        report = steenrod.audit_generators(params, m, r)
        if not report.passed:
            failures += 1
            print(f"FAIL generators m={m} r={r}: {report.conclusion}")
        if args.replay and not steenrod.replay(report).passed:
            failures += 1
            print(f"FAIL replay generators m={m} r={r}")
        for key, count in report.counts().items():
            total[key] += count
    dt = time.time() - t0

    ncases = sum(total.values())
    n_rat = sum(len(ms) for _, ms in grid)
    print(f"p={args.p} n={args.n}: {n_rat} rationality arguments in "
          f"{len(grid)} audits + {len(gen_args)} generators arguments, "
          f"{ncases} cases in {dt:.2f}s")
    print(f"  verdicts: zero={total['zero']} at-least={total['at-least']} "
          f"exact={total['exact']}")
    print(f"  failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
