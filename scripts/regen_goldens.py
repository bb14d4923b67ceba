"""Regenerate the golden CLI fixtures under tests/golden/v1.

Each fixture is the stdout of the argv that tests/golden/v1/argv.json names
for it; the CLI tests read the same table.  Run from the repository root
after an intentional output-format change:

    python3 scripts/regen_goldens.py
"""

import contextlib
import io
import json
import pathlib
import sys

from rostcalc.cli import main

def run():
    root = pathlib.Path(__file__).resolve().parent.parent
    outdir = root / "tests" / "golden" / "v1"
    fixtures = json.loads((outdir / "argv.json").read_text())
    for name, argv in fixtures.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        (outdir / name).write_text(buf.getvalue())
        print(f"wrote {outdir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
