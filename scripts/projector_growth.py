"""Track how fast the iterated projector approximation converges: the
off-identity valuation of ((1/e)rho o (1/e)rho)^(p^r) against the r+1
lower bound.

    python3 scripts/projector_growth.py --primes 2 3 5 7 --max-r 6
"""

import argparse

from rostcalc.arith import INF
from rostcalc.corresp import projector_iterate
from rostcalc.splitring import make_params


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5])
    ap.add_argument("--max-r", type=int, default=5)
    ap.add_argument("--show-tuples", action="store_true")
    args = ap.parse_args()

    for p in args.primes:
        params = make_params(p, 2)
        print(f"p = {p}")
        for r in range(args.max_r + 1):
            t, offset = projector_iterate(params, r)
            off = "inf" if offset == INF else offset
            slack = "" if offset == INF else f"  (bound r+1 = {r + 1})"
            line = f"  r={r}: min val_p(entry - 1) = {off}{slack}"
            if args.show_tuples and p <= 3:
                line += f"  tuple = {t}"
            print(line)
        print()


if __name__ == "__main__":
    main()
