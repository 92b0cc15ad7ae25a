"""Concrete expansion families and the strong-independence counterexample.

The workhorse family is a second-chaos element supported on the diagonal of a
cell subset S: f = a * sum_{i in S} e_i (x) e_i with a chosen so that
E[X^2] = c.  Writing n = |S|, evaluation reduces to

    X = sqrt(c / (2n)) * sum_{i in S} H_2(xi_i / sqrt(delta)),

the fourth cumulant is 12 c^2 / n and E[(c - <DX, D(-L)^{-1}X>)^2] = 2 c^2 / n,
so the family converges to N(0, c) at an explicit rate.  Two such elements on
disjoint halves of the grid form a strongly independent couple.

The counterexample pair is built from X1 = sqrt(2) (W(1) - W(1/2)) and
Y1 = sqrt(2) int_0^{1/2} sign(W_s) dW_s, which are independent standard
normals (Y1 carries only even chaos orders).  The rotated pair
X = (X1 + Y1)/sqrt(2), Y = (X1 - Y1)/sqrt(2) is therefore an independent
standard normal couple, yet it is not strongly independent: Y1 has no
first-chaos part, so the first-chaos components of X and Y are both
W(1) - W(1/2) and each projects onto that factor with coefficient 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosExpansion, single_chaos
from .grid import BLOCK_SIZE, Grid, IncrementStream, make_grid
from .kernels import StepKernel, inner_product, is_symmetric, step_kernel


def diagonal_second_chaos(grid: Grid, cells, c: float) -> ChaosExpansion:
    """Second-chaos element a * sum_{i in cells} e_i (x) e_i with E[X^2] = c."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size == 0:
        raise ValueError("need at least one cell")
    if np.unique(cells).size != cells.size:
        raise ValueError("cells must be distinct")
    if cells.min() < 0 or cells.max() >= grid.m:
        raise ValueError(f"cells must lie in [0, {grid.m})")
    if not (c > 0.0):
        raise ValueError(f"target variance must be positive, got {c!r}")
    n = cells.size
    # 2 ||f||^2 = 2 delta^2 n a^2 = c
    a = math.sqrt(c / (2.0 * n)) / grid.delta
    values = np.zeros((grid.m, grid.m))
    values[cells, cells] = a
    return single_chaos(step_kernel(grid, 2, values, copy=False))


def half_support_second_chaos(n_blocks: int, c: float, side: str = "left") -> ChaosExpansion:
    """Diagonal second-chaos element on one half of a 2*n_blocks grid.

    E[X^2] = c exactly; the fourth cumulant is 12 c^2 / n_blocks; left and
    right elements of the same grid are strongly independent.
    """
    if not isinstance(n_blocks, (int, np.integer)) or n_blocks < 1:
        raise ValueError(f"n_blocks must be a positive integer, got {n_blocks!r}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    grid = make_grid(2 * int(n_blocks))
    offset = 0 if side == "left" else int(n_blocks)
    cells = np.arange(offset, offset + int(n_blocks))
    return diagonal_second_chaos(grid, cells, c)


def custom_single_chaos(
    order: int, kernel: StepKernel, normalize_to: float | None = None
) -> ChaosExpansion:
    """Single-chaos expansion from a user kernel, optionally rescaled.

    With normalize_to = v the kernel is scaled so that E[X^2] = n! ||f||^2 = v;
    a zero kernel cannot be normalized.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if kernel.order != order:
        raise ValueError(f"kernel has order {kernel.order}, expected {order}")
    if not is_symmetric(kernel):
        raise ValueError("kernel must be symmetric")
    if normalize_to is not None:
        if not (normalize_to > 0.0):
            raise ValueError(f"normalize_to must be positive, got {normalize_to!r}")
        current = math.factorial(int(order)) * inner_product(kernel, kernel)
        if current <= 0.0:
            raise ValueError("cannot normalize a zero kernel")
        factor = math.sqrt(normalize_to / current)
        kernel = step_kernel(
            kernel.grid, kernel.order, factor * kernel.values, copy=False
        )
    return single_chaos(kernel)


# ---------------------------------------------------------------------------
# Counterexample simulation


@dataclass(frozen=True)
class CounterexampleSample:
    """One draw of the rotated pair."""

    x: float
    y: float
    path_steps: int


@dataclass(frozen=True)
class CounterexampleBatch:
    """All draws of the rotated pair, stored as arrays for statistics.

    Indexing yields individual CounterexampleSample values.  The shared
    Gaussian factor W(1) - W(1/2) of a draw equals (x + y) / 2.
    """

    x: np.ndarray
    y: np.ndarray
    path_steps: int

    def __len__(self) -> int:
        return self.x.size

    def __getitem__(self, i: int) -> CounterexampleSample:
        return CounterexampleSample(
            x=float(self.x[i]), y=float(self.y[i]), path_steps=self.path_steps
        )


def simulate_counterexample(
    path_steps: int, n_samples: int, stream: IncrementStream
) -> CounterexampleBatch:
    """Euler simulation of the independent-but-not-strongly-independent pair.

    The Brownian path on [0,1] uses path_steps left-point increments; the sign
    integrand uses sign(0) = +1.  path_steps must be even (the integrand
    switches at t = 1/2) and at least 100 so the Euler bias stays below the
    Monte Carlo resolution at the default sample sizes.
    """
    if not isinstance(path_steps, (int, np.integer)) or path_steps < 100:
        raise ValueError(f"path_steps must be an integer >= 100, got {path_steps!r}")
    if path_steps % 2 != 0:
        raise ValueError(f"path_steps must be even, got {path_steps}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    path_steps = int(path_steps)
    half = path_steps // 2
    dt = 1.0 / path_steps
    sqrt_dt = math.sqrt(dt)
    sqrt2 = math.sqrt(2.0)
    x_out = np.empty(n_samples, dtype=np.float64)
    y_out = np.empty(n_samples, dtype=np.float64)
    # Each chunk reads exactly one cached raw RNG block.
    for start in range(0, n_samples, BLOCK_SIZE):
        count = min(BLOCK_SIZE, n_samples - start)
        dw = stream.standard_normal_block(path_steps, start, count) * sqrt_dt
        # Left-point path levels W(t_1), ..., W(t_{half-1}) on (0, 1/2)
        w_left = np.cumsum(dw[:, : half - 1], axis=1)
        signs = np.empty((count, half), dtype=np.float64)
        signs[:, 0] = 1.0  # sign(W(0)) = sign(0) = +1
        signs[:, 1:] = np.where(w_left >= 0.0, 1.0, -1.0)
        y1 = sqrt2 * np.einsum("ij,ij->i", signs, dw[:, :half])
        x1 = sqrt2 * dw[:, half:].sum(axis=1)
        x_out[start : start + count] = (x1 + y1) / sqrt2
        y_out[start : start + count] = (x1 - y1) / sqrt2
    x_out.flags.writeable = False
    y_out.flags.writeable = False
    return CounterexampleBatch(x=x_out, y=y_out, path_steps=path_steps)
