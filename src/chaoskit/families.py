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
grid.run_chunks, a chunk of grid.chunk_rows(half + 1) paths at a time: the
left-half increments for the Euler sum of Y1, and X1 itself as one normal,
since W(1) - W(1/2) is independent of the left half.  path_steps is bounded
so that one path's row fits in a chunk.  A chunk's path levels are summed a
band of increments at a time and kept only as their signs, one byte an
entry, and the float sign table that the Euler sums read covers one band of
grid.band_rows(half) paths, not the chunk.  The two bands share one array of
the thread's grid.Workspace, so beside its chunk table a thread holds one
band and a boolean table an eighth of the chunk's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as grid_module
from .chaos import ChaosExpansion, single_chaos
from .grid import Grid, IncrementStream, Workspace, check_int, check_real, check_run_counts
from .grid import band_rows, chunk_rows, make_grid, run_chunks
from .kernels import StepKernel, check_dense_entries


def diagonal_second_chaos(grid: Grid, cells, c: float) -> ChaosExpansion:
    """Second-chaos element a * sum_{i in cells} e_i (x) e_i with E[X^2] = c.

    Its kernel keeps the diagonal vector built here, uncopied.
    """
    c = check_real("target variance c", c, positive=True)
    cells = np.asarray(cells)
    if cells.size == 0:
        raise ValueError("need at least one cell")
    if cells.dtype.kind not in "iu":  # a float is never truncated, a bool never read as 0/1
        raise ValueError(f"cells must be integers, got dtype {cells.dtype}")
    # Sorted neighbours, not np.unique, which loads numpy.ma (about 1 MiB).
    cells = np.sort(cells.astype(np.int64).ravel())
    if np.any(cells[1:] == cells[:-1]):
        raise ValueError("cells must be distinct")
    if cells.min() < 0 or cells.max() >= grid.m:
        raise ValueError(f"cells must lie in [0, {grid.m})")
    check_dense_entries(grid.m, 1, "kernel")  # the m stored entries, before allocating them
    n = cells.size
    # 2 ||f||^2 = 2 delta^2 n a^2 = c
    a = math.sqrt(c / (2.0 * n)) / grid.delta
    values = np.zeros(grid.m)
    values[cells] = a
    return single_chaos(StepKernel(grid, 2, values, True))


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
    """path_steps as an int; ValueError unless it is an even integer >= 100
    whose row of path_steps // 2 + 1 normals fits in one chunk of
    grid.CHUNK_ENTRIES, so a worker's table stays one chunk."""
    path_steps = check_int("path_steps", path_steps, 100)
    if path_steps % 2 != 0:
        raise ValueError(f"path_steps must be even, got {path_steps}")
    entries = grid_module.CHUNK_ENTRIES
    if path_steps // 2 + 1 > entries:
        raise ValueError(
            f"path_steps must be at most {2 * (entries - 1)}, so that a path's row of "
            f"path_steps/2 + 1 normals fits in one chunk of {entries}; got {path_steps}"
        )
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
    rows = band_rows(half)  # paths per band of the float sign table
    x_out = np.empty(n_samples, dtype=np.float64)
    y_out = np.empty(n_samples, dtype=np.float64)

    def chunk(start: int, table: np.ndarray, workspace: Workspace) -> None:
        # Each chunk writes only its own rows' results; every value depends
        # on its path's row of the table alone.
        count = table.shape[0]
        dw = table[:, :half]
        dw *= sqrt_dt
        # Left-point path levels W(t_0) = 0, ..., W(t_{half-1}) on [0, 1/2),
        # summed down all of the chunk's paths a band of increments at a
        # time, since numpy holds the GIL in a cumsum over 500 rows or fewer.
        # A block after the first reads the last level of the block before in
        # place of the increment just before it (put back after its cumsum),
        # so every level is its row's running sum bit for bit.  Only the
        # signs are kept, one byte an entry.
        nonneg = np.empty((count, half), dtype=bool)
        cols = min(band_rows(count), half)
        levels = workspace.array("band", (count, cols + 1))
        levels[:, 0] = 0.0
        np.cumsum(dw[:, :cols], axis=1, out=levels[:, 1:])
        np.greater_equal(levels[:, :cols], 0.0, out=nonneg[:, :cols])
        increment = workspace.array("increment", (count,))
        for a in range(cols, half, cols):
            w = min(cols, half - a)
            increment[...] = dw[:, a - 1]
            dw[:, a - 1] = levels[:, cols]
            np.cumsum(dw[:, a - 1 : a + w], axis=1, out=levels[:, : w + 1])
            dw[:, a - 1] = increment
            np.greater_equal(levels[:, :w], 0.0, out=nonneg[:, a : a + w])
        # Y1 / sqrt 2, the sum of sign(W(t_j)) dW_j, a band of paths at a time.
        y1 = workspace.array("y1", (count,))
        for lo in range(0, count, rows):
            band = dw[lo : lo + rows]
            signs = workspace.array("band", band.shape)
            signs.fill(-1.0)
            np.copyto(signs, 1.0, where=nonneg[lo : lo + rows])
            np.einsum("ij,ij->i", signs, band, out=y1[lo : lo + rows])
        y1 *= sqrt2
        x1 = table[:, half]
        x_out[start : start + count] = (x1 + y1) / sqrt2
        y_out[start : start + count] = (x1 - y1) / sqrt2

    run_chunks(stream, n_samples, half + 1, chunk_rows(half + 1), workers, chunk)
    x_out.flags.writeable = False
    y_out.flags.writeable = False
    return CounterexampleBatch(x=x_out, y=y_out, path_steps=path_steps)
