"""Print Chow-group tables for a range of symbols, cross-checking the
closed form against the triangle recurrence.  Exits 1 if any symbol's
tables disagree.

    python3 scripts/chow_tables.py --primes 2 3 5 --max-n 3
"""

import argparse
import sys

from rostcalc import rostchow
from rostcalc.splitring import make_params


def show(p, n):
    """Print the closed-form table of (p, n), tagged with its agreement
    with the recurrence; return the number of rows where they differ."""
    params = make_params(p, n)
    table = rostchow.closed_form(params)
    found = rostchow.diffs(table, rostchow.recurrence(params))
    tag = f"MISMATCH ({len(found)})" if found else "ok"
    print(f"p={p} n={n}  b={params.b} d={params.d}  [{tag}]")
    for j in table.nonzero():
        desc = table.entries[j]
        extra = ""
        if desc.kind == "p_free":
            extra = f"  (k={desc.k})"
        elif desc.kind == "cyclic_p":
            extra = f"  (k={desc.k}, i={desc.i})"
        print(f"  CH^{j}: {desc.kind}{extra}")
    print()
    return len(found)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    ap.add_argument("--max-n", type=int, default=3)
    args = ap.parse_args()
    mismatches = sum(show(p, n) for p in args.primes
                     for n in range(1, args.max_n + 1))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
