"""Concrete expansion families and the strong-independence counterexample.

The workhorse family is a second-chaos element supported on the diagonal of a
cell subset S: f = a * sum_{i in S} e_i (x) e_i with a chosen so that
E[X^2] = c.  Writing n = |S|, evaluation reduces to

    X = sqrt(c / (2n)) * sum_{i in S} H_2(xi_i / sqrt(delta)),

the fourth cumulant is 12 c^2 / n and E[(c - <DX, D(-L)^{-1}X>)^2] = 2 c^2 / n,
so the family converges to N(0, c) at an explicit rate.  diagonal_summands
lays k such elements on the disjoint n-cell blocks of a k*n grid, the
summands of every decoupling experiment; any two form a strongly independent
couple.

The counterexample pair is built from X1 = sqrt(2) (W(1) - W(1/2)) and
Y1 = sqrt(2) int_0^{1/2} sign(W_s) dW_s, which are independent standard
normals (Y1 carries only even chaos orders).  The rotated pair
X = (X1 + Y1)/sqrt(2), Y = (X1 - Y1)/sqrt(2) is therefore an independent
standard normal couple, yet it is not strongly independent: Y1 has no
first-chaos part, so the first-chaos components of X and Y are both
W(1) - W(1/2) and each projects onto that factor with coefficient 1/2.
The simulation reads half + 1 normals per path, half = path_steps/2, from
grid.run_chunks: the left-half increments for the Euler sum of Y1, and X1
itself as one normal, since W(1) - W(1/2) is independent of the left half.
The sign table of a chunk is an array of the thread's grid.Workspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import ChaosExpansion, single_chaos
from .grid import Grid, IncrementStream, Workspace, check_int, check_real, check_run_counts
from .grid import make_grid, run_chunks
from .kernels import check_dense_entries, step_kernel


def diagonal_second_chaos(grid: Grid, cells, c: float) -> ChaosExpansion:
    """Second-chaos element a * sum_{i in cells} e_i (x) e_i with E[X^2] = c."""
    c = check_real("target variance c", c, positive=True)
    cells = np.asarray(cells)
    if cells.size == 0:
        raise ValueError("need at least one cell")
    if cells.dtype.kind not in "iu":  # a float is never truncated, a bool never read as 0/1
        raise ValueError(f"cells must be integers, got dtype {cells.dtype}")
    cells = cells.astype(np.int64)
    if np.unique(cells).size != cells.size:
        raise ValueError("cells must be distinct")
    if cells.min() < 0 or cells.max() >= grid.m:
        raise ValueError(f"cells must lie in [0, {grid.m})")
    check_dense_entries(grid.m, 1, "kernel")  # the m stored entries, before allocating them
    n = cells.size
    # 2 ||f||^2 = 2 delta^2 n a^2 = c
    a = math.sqrt(c / (2.0 * n)) / grid.delta
    values = np.zeros(grid.m)
    values[cells] = a
    kernel = step_kernel(grid, 2, values, diagonal=True)
    del values  # the kernel holds its own copy; free this one before single_chaos checks it
    return single_chaos(kernel)


def diagonal_summands(n: int, split) -> list:
    """Diagonal second-chaos summands on the disjoint n-cell blocks of a k*n grid.

    Summand j = 0 .. k-1 has E[X_j^2] = split[j] on cells j*n .. (j+1)*n - 1,
    where k = len(split); any two of them are strongly independent.
    """
    n = check_int("n", n, 1)
    if not isinstance(split, (list, tuple)) or not split:
        raise ValueError(f"split must be a nonempty list of variances, got {split!r}")
    grid = make_grid(len(split) * n)
    return [diagonal_second_chaos(grid, range(j * n, (j + 1) * n), c) for j, c in enumerate(split)]


# ---------------------------------------------------------------------------
# Counterexample simulation


def check_path_steps(path_steps) -> int:
    """path_steps as an int; ValueError unless it is an even integer >= 100."""
    path_steps = check_int("path_steps", path_steps, 100)
    if path_steps % 2 != 0:
        raise ValueError(f"path_steps must be even, got {path_steps}")
    return path_steps


@dataclass(frozen=True)
class CounterexampleBatch:
    """All draws of the rotated pair, stored as arrays for statistics.

    Draw i is (x[i], y[i]); its shared Gaussian factor W(1) - W(1/2) equals
    (x[i] + y[i]) / 2.
    """

    x: np.ndarray
    y: np.ndarray
    path_steps: int


def simulate_counterexample(
    path_steps: int, n_samples: int, stream: IncrementStream, workers: int = 1
) -> CounterexampleBatch:
    """Euler simulation of the independent-but-not-strongly-independent pair.

    Y1 is the Euler sum of sign(W) against the half = path_steps/2 left-point
    increments of W on [0, 1/2], with sign(0) = +1.  X1 needs no path: the
    right-half increments are independent of the left half and their sum
    W(1) - W(1/2) is N(0, 1/2), so X1 = sqrt(2) (W(1) - W(1/2)) is one
    standard normal draw.  Path i therefore reads row i of the stream's
    (index, half + 1) normal table: columns 0 .. half-1 are the left-half
    increments in units of sqrt(dt) and column half is X1.  The pair keeps
    its exact joint law and the Euler bias of Y1.

    path_steps must be even (the integrand switches at t = 1/2) and at least
    100 so the Euler bias stays below the Monte Carlo resolution at the
    default sample sizes.  Blocks of BLOCK_SIZE paths run on up to `workers`
    threads (an integer >= 1); path i always comes from stream index i, so the
    result is the same for any worker count.
    """
    path_steps = check_path_steps(path_steps)
    check_run_counts(n_samples, workers)
    n_samples = int(n_samples)
    half = path_steps // 2
    dt = 1.0 / path_steps
    sqrt_dt = math.sqrt(dt)
    sqrt2 = math.sqrt(2.0)
    x_out = np.empty(n_samples, dtype=np.float64)
    y_out = np.empty(n_samples, dtype=np.float64)

    def chunk(start: int, table: np.ndarray, workspace: Workspace) -> None:
        # Each chunk writes only its own rows' results; every value depends
        # on its path's row of the table alone.
        count = table.shape[0]
        dw = table[:, :half]
        dw *= sqrt_dt
        # Left-point path levels W(t_1), ..., W(t_{half-1}) on (0, 1/2), summed
        # straight into the sign table and then replaced by their signs.
        signs = workspace.array("signs", (count, half))
        signs[:, 0] = 1.0  # sign(W(0)) = sign(0) = +1
        levels = signs[:, 1:]
        np.cumsum(dw[:, : half - 1], axis=1, out=levels)
        nonneg = levels >= 0.0
        levels.fill(-1.0)
        np.copyto(levels, 1.0, where=nonneg)
        y1 = sqrt2 * np.einsum("ij,ij->i", signs, dw)
        x1 = table[:, half]
        x_out[start : start + count] = (x1 + y1) / sqrt2
        y_out[start : start + count] = (x1 - y1) / sqrt2

    run_chunks(stream, n_samples, half + 1, workers, chunk)
    x_out.flags.writeable = False
    y_out.flags.writeable = False
    return CounterexampleBatch(x=x_out, y=y_out, path_steps=path_steps)
