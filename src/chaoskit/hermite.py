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
    """{k: H_k(x)} for the degrees (each >= 2), from one walk up to the top degree.

    x is a float64 array of at least one dimension, taken as given: it is
    H_1, and the top degree overwrites it after every other step has read
    it.  Every other degree asked for goes into row(k), a float64 array of
    x's shape.  row(0) is the walk's one scratch array, asked for once when
    the top degree is 3 or more.  Degrees not asked for are temporaries,
    scaled in place when no later step reads them.
    """
    wanted = set(degrees)
    top = max(wanted)
    rows = {}
    scratch = row(0) if top >= 3 else None
    prev, cur = 1.0, x  # H_0 stays a float, so no ones array is made
    for k in range(2, top + 1):
        # The last read of H_{k-2}: scaled in place, but into the scratch
        # array when it is x or a kept row, and as a float when it is H_0.
        if k == 2:
            scaled = prev
        else:
            scaled = np.multiply(prev, k - 1, out=scratch if k == 3 or k - 2 in wanted else prev)
        if k == top:
            out = x
        else:
            out = row(k) if k in wanted else None
        prev, cur = cur, np.multiply(x, cur, out=out)
        cur -= scaled
        if k in wanted:
            rows[k] = cur
    return rows
