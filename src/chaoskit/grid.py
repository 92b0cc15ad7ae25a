"""Uniform discretization of [0,1] and reproducible Gaussian increment sampling.

The unit interval is split into m equal cells A_i = [i/m, (i+1)/m).  A noise
draw is the vector of increments W(A_i), independent N(0, 1/m) variables.
Sampling is counter-based: the increments for sample index k are a pure
function of (master seed, stream id, k), so Monte Carlo runs reproduce
bit-for-bit no matter how the work is scheduled or parallelized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Samples are generated in fixed blocks of this many indices.  A sample's bits
# depend only on its block id and offset, never on which blocks were generated
# before it.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class Grid:
    """m equal cells on [0,1]; cell i is [i/m, (i+1)/m) with measure delta = 1/m."""

    m: int
    delta: float


def make_grid(m: int) -> Grid:
    """Build the uniform m-cell grid on [0,1]."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1:
        raise ValueError(f"grid size must be a positive integer, got {m!r}")
    return Grid(m=int(m), delta=1.0 / int(m))


@dataclass(frozen=True)
class GaussianSample:
    """One realization of the m increments W(A_0), ..., W(A_{m-1})."""

    grid: Grid
    increments: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.increments, dtype=np.float64)
        if arr.shape != (self.grid.m,):
            raise ValueError(
                f"increments shape {arr.shape} does not match grid m={self.grid.m}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "increments", arr)


@dataclass(frozen=True)
class IncrementStream:
    """Addressable source of standard normal draws keyed by (seed, stream_id).

    Independent purposes (different experiments, different schedule entries)
    should use distinct stream ids; sample indices within one stream then give
    independent draws that are reproducible individually.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.stream_id, (int, np.integer)) or self.stream_id < 0:
            raise ValueError(
                f"stream_id must be a non-negative integer, got {self.stream_id!r}"
            )

    def substream(self, tag: int) -> "IncrementStream":
        """Stream reserved for an independent purpose under the same master seed."""
        return IncrementStream(seed=self.seed, stream_id=int(tag))

    def standard_normal_block(self, n_vars: int, start: int, count: int) -> np.ndarray:
        """Rows start .. start+count-1 of the infinite (index, n_vars) normal table."""
        if n_vars < 1:
            raise ValueError(f"n_vars must be >= 1, got {n_vars}")
        if start < 0 or count < 0:
            raise ValueError(f"need start >= 0 and count >= 0, got {start}, {count}")
        out = np.empty((count, n_vars), dtype=np.float64)
        filled = 0
        while filled < count:
            block_id, offset = divmod(start + filled, BLOCK_SIZE)
            take = min(BLOCK_SIZE - offset, count - filled)
            block = _raw_block(self.seed, self.stream_id, n_vars, block_id)
            out[filled : filled + take] = block[offset : offset + take]
            filled += take
        return out


@lru_cache(maxsize=1)
def _raw_block(seed: int, stream_id: int, n_vars: int, block_id: int) -> np.ndarray:
    # Counter-based key: each block owns a disjoint Philox keyspace, so block
    # contents are independent of generation order.  Samplers walk their blocks
    # once in order, so only the latest block is kept: it serves consecutive
    # single-row reads such as sample_increments within one block.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, block_id))
    gen = np.random.Generator(np.random.Philox(ss))
    block = gen.standard_normal((BLOCK_SIZE, n_vars))
    block.flags.writeable = False
    return block


def sample_increments(grid: Grid, stream: IncrementStream, index: int = 0) -> GaussianSample:
    """Increment vector for one sample index: m independent N(0, delta) draws."""
    row = stream.standard_normal_block(grid.m, int(index), 1)[0]
    return GaussianSample(grid=grid, increments=row * np.sqrt(grid.delta))


def sample_increments_block(
    grid: Grid, stream: IncrementStream, start: int, count: int
) -> np.ndarray:
    """Increment vectors for sample indices start .. start+count-1, shape (count, m)."""
    block = stream.standard_normal_block(grid.m, start, count)
    block *= np.sqrt(grid.delta)  # the block is a fresh array, so scale it in place
    return block
