"""Sweep the p-divisibility audits over their full argument grids and
summarize verdict counts and timing: every audit of ``steenrod.claims``,
replayed, its tallies counted once per m it stands for.  Exits 1 if any
audit or replay fails, and 2 with one line on stderr if the symbol is
invalid or past the audits' size bound.

    python3 scripts/audit_sweep.py -p 3 -n 2
"""

import argparse
import sys
import time
from collections import Counter

from rostcalc import steenrod
from rostcalc.splitring import make_params


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-p", type=int, default=3)
    ap.add_argument("-n", type=int, default=2)
    args = ap.parse_args()
    try:
        params = make_params(args.p, args.n)
        steenrod.check_audit_size(params)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2

    total = {"zero": 0, "at-least": 0, "exact": 0}
    audits, arguments = Counter(), Counter()  # per audit kind
    failures = 0
    t0 = time.perf_counter()
    for _, label, report, ms, replayed in steenrod.claims(params):
        if not report.passed:
            failures += 1
            print(f"FAIL {label}: {report.conclusion}")
        if not replayed.passed:
            failures += 1
            print(f"FAIL replay {label}: {replayed.failures()[0][0]}")
        audits[report.kind] += 1
        arguments[report.kind] += len(ms)
        for key, count in report.counts().items():
            total[key] += count * len(ms)
    dt = time.perf_counter() - t0

    ncases = sum(total.values())
    print(f"p={args.p} n={args.n}: {arguments['rationality']} rationality "
          f"arguments in {audits['rationality']} audits + "
          f"{arguments['generators']} generators arguments, "
          f"{ncases} cases in {dt:.2f}s")
    print(f"  verdicts: zero={total['zero']} at-least={total['at-least']} "
          f"exact={total['exact']}")
    print(f"  failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
