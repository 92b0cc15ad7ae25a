"""Monic probabilists' Hermite polynomials.

H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).  Under a standard
Gaussian these satisfy E[H_j(Z) H_k(Z)] = delta_{jk} k!, which is what turns
products of independent cell increments into multiple-integral evaluations.
hermite_rows is the one walk of the recurrence, which the evaluator runs on
each band of paths over every cell; it takes its input as given and checks
nothing.
"""

from __future__ import annotations

import numpy as np


def hermite_rows(x: np.ndarray, degrees, row) -> dict:
    """{k: H_k(x)} for the degrees (each >= 1), from one walk up to the top degree.

    x is a float64 array of at least one dimension, taken as given, and H_1 is
    x itself.  Every other degree asked for goes into row(k), a float64 array
    of x's shape, but when 1 is not asked for the top degree overwrites x,
    after every other step has read it.  Degrees not asked for are
    temporaries, scaled in place when no later step reads them.
    """
    wanted = set(degrees)
    top = max(wanted, default=1)
    rows = {1: x} if 1 in wanted else {}
    prev, cur = 1.0, x  # H_0 stays a float, so no ones array is made
    for j in range(1, top):
        # The last read of H_{j-1}: scale it in place unless it is H_0, x or a kept row.
        scaled = prev * j if j <= 2 or j - 1 in wanted else np.multiply(prev, j, out=prev)
        if j + 1 == top and 1 not in wanted:
            out = x
        else:
            out = row(j + 1) if j + 1 in wanted else None
        prev, cur = cur, np.multiply(x, cur, out=out)
        cur -= scaled
        if j + 1 in wanted:
            rows[j + 1] = cur
    return rows
