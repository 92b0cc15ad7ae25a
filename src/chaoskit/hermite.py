"""Monic probabilists' Hermite polynomials.

H_0 = 1, H_1 = x, H_{k+1}(x) = x H_k(x) - k H_{k-1}(x).  Under a standard
Gaussian these satisfy E[H_j(Z) H_k(Z)] = delta_{jk} k!, which is what turns
products of independent cell increments into multiple-integral evaluations.
"""

from __future__ import annotations

import numpy as np

from .grid import check_int

MAX_DEGREE = 64


def hermite_eval(k: int, x):
    """H_k evaluated pointwise; x may be a scalar or an ndarray."""
    k = check_int("degree k", k)
    if k > MAX_DEGREE:
        raise ValueError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    if k == 0:
        return 1.0 if scalar else np.ones_like(arr)
    if k == 1:
        return float(arr) if scalar else arr.copy()
    # H_2 = x^2 - 1 starts the recurrence, so no ones array or copy of x is made.
    prev, cur = arr, arr * arr - 1.0
    for j in range(2, k):
        prev, cur = cur, arr * cur - j * prev
    return float(cur) if scalar else cur


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
