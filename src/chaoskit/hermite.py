"""Monic probabilists' Hermite polynomials.

H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).  Under a standard
Gaussian these satisfy E[H_j(Z) H_k(Z)] = delta_{jk} k!, which is what turns
products of independent cell increments into multiple-integral evaluations.
"""

from __future__ import annotations

import numpy as np

from .grid import check_int

MAX_DEGREE = 64


def hermite_eval(k: int, x, out: np.ndarray | None = None):
    """H_k evaluated pointwise; x may be a scalar or an ndarray.

    With out (a float64 array of x's shape, or x itself) the same bits are
    written into out, which is returned; no step reads x after out is written.
    """
    k = check_int("degree k", k)
    if k > MAX_DEGREE:
        raise ValueError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    if scalar:
        arr = arr.reshape(1)  # one entry, so every step below writes into an array
    if out is None:
        out = np.empty_like(arr)
    if k <= 1:
        out[...] = arr if k == 1 else 1.0
    else:
        # H_2 = x^2 - 1 starts the recurrence, so no ones array or copy of x is made.
        # A step scales H_{j-1}, which no later step reads, in place, so at most
        # three rows besides x and out are live, and two in the step writing out.
        prev, cur = arr, np.multiply(arr, arr, out=out if k == 2 else None)
        cur -= 1.0
        for j in range(2, k):
            scaled = np.multiply(prev, j, out=None if prev is arr else prev)
            nxt = np.multiply(arr, cur, out=out if j == k - 1 else None)
            nxt -= scaled
            prev, cur = cur, nxt
    return float(out[0]) if scalar else out


def hermite_table(kmax: int, x: np.ndarray) -> np.ndarray:
    """Stack of H_0(x), ..., H_kmax(x); shape (kmax + 1,) + x.shape."""
    kmax = check_int("degree kmax", kmax)
    if kmax > MAX_DEGREE:
        raise ValueError(f"degree {kmax} exceeds the supported maximum {MAX_DEGREE}")
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty((kmax + 1,) + arr.shape, dtype=np.float64)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = arr
    for j in range(1, kmax):
        out[j + 1] = arr * out[j] - j * out[j - 1]
    return out
