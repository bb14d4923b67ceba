"""Sweep the p-divisibility audits over their full argument grids and
summarize verdict counts and timing.  Exits 1 if any audit or replay fails.

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
    rat_args = steenrod.rationality_arguments(params)
    for m, s in rat_args:
        report = steenrod.audit_rationality(params, m, s)
        if not report.passed:
            failures += 1
            print(f"FAIL rationality m={m} s={s}: {report.conclusion}")
        if args.replay and not steenrod.replay(report).passed:
            failures += 1
            print(f"FAIL replay rationality m={m} s={s}")
        for key, count in report.counts().items():
            total[key] += count
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
    print(f"p={args.p} n={args.n}: {len(rat_args)} rationality + "
          f"{len(gen_args)} generators arguments, {ncases} cases in {dt:.2f}s")
    print(f"  verdicts: zero={total['zero']} at-least={total['at-least']} "
          f"exact={total['exact']}")
    print(f"  failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
