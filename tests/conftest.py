"""Helpers shared by the test modules."""

import os
import pathlib
import re

import rostcalc


def child_env():
    """The environment with the rostcalc under test first on PYTHONPATH,
    for a child Python process."""
    src = str(pathlib.Path(rostcalc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


#: the verdict totals (zero, at-least, exact) of every rationality and
#: generators audit argument of a symbol, recorded in ROADMAP.md
ROADMAP_TOTALS = {
    (2, 3): (5667, 36982, 65),
    (3, 2): (11682, 27463, 32),
    (2, 4): (138886, 1433812, 258),
    (5, 2): (650985, 3788542, 67),
    (3, 3): (2918793, 21926061, 277),
    (2, 5): (3648013, 50133810, 1027),
    (11, 2): (289061922, 289185997530, 244),
    (5, 3): (1905157645, 705229277849, 1496),
    (2, 6): (103295004, 1674030192, 4100),
    (3, 4): (709266798, 16148275802, 2466),
    (2, 7): (3085738043, 54697701614, 16389),
}

_VERDICTS = re.compile(r"trace replay \(\w+\) -- .*; verdicts zero=(\d+) "
                       r"at-least=(\d+) exact=(\d+)$")


def verdict_totals(lines):
    """The verdict totals (zero, at-least, exact) summed over the trace
    replay lines among the lines of a steenrod verify report."""
    found = [match.groups() for match in map(_VERDICTS.search, lines)
             if match]
    return tuple(sum(int(groups[k]) for groups in found) for k in range(3))
