"""Helpers shared by the test modules."""

import os
import pathlib

import rostcalc


def child_env():
    """The environment with the rostcalc under test first on PYTHONPATH,
    for a child Python process."""
    src = str(pathlib.Path(rostcalc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
