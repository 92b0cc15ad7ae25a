"""Independent oracles used to validate the library.

The Monte Carlo oracles deliberately avoid the library's algebraic paths:
they work on raw sample arrays and report batch-mean standard errors, so a
closed-form value can be checked against simulation before the algebra is
trusted.

The reference evaluator is the straightforward per-expansion form of the
pathwise evaluator.  The library's evaluator must reproduce it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from chaoskit.chaos import _plan
from chaoskit.grid import BLOCK_SIZE


def batch_mean_se(values: np.ndarray, n_batches: int = 20) -> tuple:
    """Mean and batch-mean standard error of a sample array."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    usable = arr.size - arr.size % n_batches
    batches = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.mean()), float(batches.std(ddof=1) / np.sqrt(n_batches))


def batch_fourth_cumulant_se(values: np.ndarray, n_batches: int = 20) -> tuple:
    """Fourth-cumulant estimate m4 - 3 m2^2 with a batch standard error."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    usable = arr.size - arr.size % n_batches
    chunks = arr[:usable].reshape(n_batches, -1)
    k4 = (chunks**4).mean(axis=1) - 3.0 * (chunks**2).mean(axis=1) ** 2
    return float(k4.mean()), float(k4.std(ddof=1) / np.sqrt(n_batches))


def hermite_recurrence(k: int, x):
    """H_k by the recurrence from H_0 = 1 and H_1 = x, as floats or an array."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(arr)
    if k == 0:
        return float(prev) if scalar else prev
    cur = arr.copy()
    for j in range(1, k):
        prev, cur = cur, arr * cur - j * prev
    return float(cur) if scalar else cur


def evaluate_batch_reference(x, increments: np.ndarray) -> np.ndarray:
    """Pathwise I-sum of one expansion on a (n_samples, m) increment array.

    Hermite rows cover all m columns; each term gather is an axis-1 fancy
    index copied back to C order; terms go in slabs of (1 << 22) // n_samples
    so the partial sums land in the order the library fixes.
    """
    arr = np.asarray(increments, dtype=np.float64)
    n_samples = arr.shape[0]
    out = np.full(n_samples, x.expectation, dtype=np.float64)
    plans = [_plan(k) for n, k in enumerate(x.kernels) if k is not None and n >= 1]
    if not plans or n_samples == 0:
        return out
    z = arr / math.sqrt(x.grid.delta)
    degrees = sorted({k for plan in plans for group in plan for k in group.mults})
    htab = {k: hermite_recurrence(k, z) for k in degrees}
    slab = max(1, (1 << 22) // n_samples)
    for plan in plans:
        for group in plan:
            for lo in range(0, group.cells.shape[0], slab):
                cells = group.cells[lo : lo + slab]
                prod = htab[group.mults[0]][:, cells[:, 0]].copy()
                for r in range(1, len(group.mults)):
                    prod *= htab[group.mults[r]][:, cells[:, r]]
                out += (prod * group.coeffs[lo : lo + slab]).sum(axis=1)
    return out


def evaluate_samples_reference(exps, n_samples: int, stream) -> list:
    """evaluate_batch_reference on each BLOCK_SIZE block of the stream, per expansion."""
    grid = exps[0].grid
    outs = [np.empty(n_samples, dtype=np.float64) for _ in exps]
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        xi = stream.standard_normal_block(grid.m, start, count) * np.sqrt(grid.delta)
        for out, e in zip(outs, exps):
            out[start : start + count] = evaluate_batch_reference(e, xi)
    return outs
