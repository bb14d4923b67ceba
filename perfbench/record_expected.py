"""Record the verdict counts of every audit argument the workloads can draw.

    python3 perfbench/record_expected.py > perfbench/expected_verdicts.json

Run it only at a commit whose verdicts are known good: the benchmark checks
every sampled audit against this file.  Takes a few minutes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rostcalc import steenrod  # noqa: E402
from rostcalc.splitring import make_params  # noqa: E402

import workloads  # noqa: E402

#: (p, n, largest s) of each sampled symbol
SAMPLED = ((2, 4, None), (5, 2, 8), (7, 2, 6))


def main():
    out = {}
    for p, n, s_max in SAMPLED:
        params = make_params(p, n)
        table = {}
        for m, s in workloads.rationality_arguments(p, n):
            if s_max is None or s <= s_max:
                counts = steenrod.audit_rationality(params, m, s).counts()
                table[f"rationality {m} {s}"] = list(counts.values())
        for m, r in workloads.generators_arguments(p, n):
            counts = steenrod.audit_generators(params, m, r).counts()
            table[f"generators {m} {r}"] = list(counts.values())
        out[f"{p},{n}"] = table
        print(f"({p},{n}): {len(table)} arguments", file=sys.stderr)
    sys.stdout.write(dumps(out))


def dumps(table):
    """JSON with one audit argument per line."""
    blocks = []
    for sym in sorted(table):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                           for k, v in sorted(table[sym].items()))
        blocks.append(f" {json.dumps(sym)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
