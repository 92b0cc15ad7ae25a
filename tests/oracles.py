"""Independent oracles used to validate the library.

The Monte Carlo oracles deliberately avoid the library's algebraic paths:
they work on raw sample arrays and report batch-mean standard errors, so a
closed-form value can be checked against simulation before the algebra is
trusted.

The reference evaluator is the straightforward per-expansion form of the
pathwise evaluator.  The library's evaluator must reproduce it bit for bit.

The reference fourth cumulant is the earlier two-branch route: contraction
norms for a single order and E[X^4] - 3 E[X^2]^2 through `multiply(x, x)` for
mixed orders, which forms order-2N kernels.
"""

from __future__ import annotations

import math

import numpy as np

from chaoskit.chaos import _plan, multiply, second_moment
from chaoskit.grid import BLOCK_SIZE
from chaoskit.kernels import contract, inner_product, symmetrize


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


def _fourth_cumulant_single(f) -> float:
    """Fourth cumulant of I_q(f) through contraction norms.

    k4 = sum_{p=1}^{q-1} [ (q! C(q,p))^2 ||f ox_p f||^2
                           + (p! C(q,p)^2)^2 (2q-2p)! ||sym(f ox_p f)||^2 ]

    This is the product-formula expansion of E[X^4] - 3 E[X^2]^2 with the
    order-2q term eliminated, so no tensor above order 2q - 2 is formed.
    """
    q = f.order
    total = 0.0
    for p in range(1, q):
        raw = contract(f, f, p)
        sym = symmetrize(raw)
        total += (math.factorial(q) * math.comb(q, p)) ** 2 * inner_product(raw, raw)
        total += (
            (math.factorial(p) * math.comb(q, p) ** 2) ** 2
            * math.factorial(2 * q - 2 * p)
            * inner_product(sym, sym)
        )
    return total


def fourth_cumulant_reference(x) -> float:
    """k4(x) = E[x^4] - 3 E[x^2]^2 for a centered expansion, exact.

    Single-order inputs use the contraction-norm expansion, which never forms
    a kernel above order 2n - 2; mixed-order inputs square the expansion via
    the product formula.
    """
    if x.expectation != 0.0:
        raise ValueError("fourth_cumulant requires a centered expansion")
    orders = [n for n in x.nonzero_orders() if n >= 1]
    if not orders:
        return 0.0
    if len(orders) == 1:
        if orders[0] == 1:
            return 0.0
        return _fourth_cumulant_single(x.kernels[orders[0]])
    squared = multiply(x, x)
    return second_moment(squared) - 3.0 * second_moment(x) ** 2
