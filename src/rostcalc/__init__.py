"""Exact-arithmetic calculus for split Rost motives.

Everything is computed over the localization of the integers at a prime p.
Each module computes one of the paper's objects; import them by module,
as in ``from rostcalc import steenrod``.  The command line is
``rostcalc.cli``.
"""
