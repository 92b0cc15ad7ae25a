"""Monic probabilists' Hermite polynomials.

H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).  Under a standard
Gaussian these satisfy E[H_j(Z) H_k(Z)] = delta_{jk} k!, which is what turns
products of independent cell increments into multiple-integral evaluations.
hermite_rows is the one walk of the recurrence, which the evaluator runs on
each chunk; hermite_eval and hermite_table are its checked public entries.
"""

from __future__ import annotations

import numpy as np

from .grid import check_int, real_array

MAX_DEGREE = 64


def hermite_rows(x: np.ndarray, degrees, row=None) -> dict:
    """{k: H_k(x)} for the degrees (each >= 1), from one walk up to the top degree.

    x is a float64 array of at least one dimension, taken as given, and H_1 is
    x itself.  Every other degree asked for goes into row(k), a float64 array
    of x's shape (a new array when row is None), but when 1 is not asked for
    the top degree overwrites x, after every other step has read it.  Degrees
    not asked for are temporaries, scaled in place when no later step reads them.
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
            out = row(j + 1) if j + 1 in wanted and row is not None else None
        prev, cur = cur, np.multiply(x, cur, out=out)
        cur -= scaled
        if j + 1 in wanted:
            rows[j + 1] = cur
    return rows


def _check_degree(name: str, k) -> int:
    k = check_int(name, k)
    if k > MAX_DEGREE:
        raise ValueError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    return k


def hermite_eval(k: int, x):
    """H_k evaluated pointwise; x may be a real scalar or array, all finite."""
    k = _check_degree("degree k", k)
    arr = real_array("x", x).copy()  # the walk writes its x, and the caller's x is never written
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)  # one entry, so every step of the walk writes into an array
    out = np.ones_like(arr) if k == 0 else hermite_rows(arr, (k,))[k]
    return float(out[0]) if scalar else out


def hermite_table(kmax: int, x) -> np.ndarray:
    """Stack of H_0(x), ..., H_kmax(x); shape (kmax + 1,) + x.shape."""
    kmax = _check_degree("degree kmax", kmax)
    arr = real_array("x", x)
    out = np.empty((kmax + 1, arr.size), dtype=np.float64)  # rows are arrays even for a scalar x
    out[0] = 1.0
    if kmax >= 1:
        out[1] = arr.ravel()
        hermite_rows(out[1], range(1, kmax + 1), lambda k: out[k])
    return out.reshape((kmax + 1,) + arr.shape)
