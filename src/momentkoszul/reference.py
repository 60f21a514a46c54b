"""Independently tabulated reference data for the verification suite.

Strand grids map (strand, i) -> total Betti number, where strand is the
total internal degree minus i.  These are the known totals for the
special-linear and symplectic families at small n, tabulated separately; the
verification suite reproduces them bit-exactly from the closed forms.
"""

from __future__ import annotations

from .betti import strand_grid  # noqa: F401  (the suites read it from here)

SL_TABLES = {
    2: {(0, 0): 1, (1, 1): 3, (2, 2): 5, (2, 3): 4, (2, 4): 1},
    3: {(0, 0): 1, (1, 1): 8, (1, 2): 12,
        (2, 3): 14, (2, 4): 14, (2, 5): 6, (2, 6): 1},
    4: {(0, 0): 1, (1, 1): 15, (1, 2): 40, (1, 3): 40,
        (2, 4): 42, (2, 5): 48, (2, 6): 27, (2, 7): 8, (2, 8): 1},
    5: {(0, 0): 1, (1, 1): 24, (1, 2): 90, (1, 3): 155, (1, 4): 130,
        (2, 5): 132, (2, 6): 165, (2, 7): 110, (2, 8): 44, (2, 9): 10,
        (2, 10): 1},
    6: {(0, 0): 1, (1, 1): 35, (1, 2): 168, (1, 3): 399, (1, 4): 560,
        (1, 5): 427, (2, 6): 429, (2, 7): 572, (2, 8): 429, (2, 9): 208,
        (2, 10): 65, (2, 11): 12, (2, 12): 1},
}

SP_TABLES = {
    2: {(0, 0): 1, (1, 1): 10, (2, 2): 100, (2, 3): 280, (2, 4): 392,
        (2, 5): 328, (2, 6): 167, (2, 7): 48, (2, 8): 6},
    3: {(0, 0): 1, (1, 1): 21, (2, 2): 525, (2, 3): 2520, (2, 4): 6503,
        (2, 5): 11088, (2, 6): 13365, (2, 7): 11660, (2, 8): 7359,
        (2, 9): 3288, (2, 10): 989, (2, 11): 180, (2, 12): 15},
}

#: Catalan numbers highlighted in the strand-2 rows, at column i = n.
SL_FRAMED = {2: 5, 3: 14, 4: 42, 5: 132, 6: 429}
