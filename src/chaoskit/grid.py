"""Uniform discretization of [0,1] and reproducible Gaussian increment sampling.

The unit interval is split into m equal cells A_i = [i/m, (i+1)/m).  A noise
draw is the vector of increments W(A_i), independent N(0, 1/m) variables.
Sampling is counter-based: the increments for sample index k are a pure
function of (master seed, stream id, k), so Monte Carlo runs reproduce
bit-for-bit no matter how the work is scheduled or parallelized.

Each block of BLOCK_SIZE rows has its own Philox generator.  A read that
starts a block, or continues where the calling thread's last read of that
block ended, draws its rows straight into the returned array, so a sampler
that walks a block in order never holds more of it than the rows it asked
for.  run_chunks, the one Monte Carlo sampler, walks blocks that way in
chunks of the rows its caller asks for, each drawn into its thread's
Workspace, so a run's memory is bounded whatever the number of variables
per row.  Only random-access reads materialize a whole block.  A Workspace
is the package's only per-thread scratch memory: run_chunks hands it to
each chunk for its temporaries, and its buffers grow only when outgrown.
The evaluator asks for one band of at most about BAND_ENTRIES float64
entries a chunk (band_rows gives the rows), so its table, Hermite rows and
products are a band each.  The counterexample asks for one chunk of at most
about CHUNK_ENTRIES normals (chunk_rows), since its cumsums down a chunk's
paths need more paths than a band holds to release the GIL; its passes
inside a chunk, and the estimators over whole sample arrays, work a band at
a time, so their temporaries are a fixed size: only an array a pass returns
or keeps for a whole-array reduction is as large as the sample.

run_tasks is the one thread pool of the package: run_chunks hands it the
blocks of a run, and the k-way experiments the estimator calls of a record.
Results come back in submission order, so nothing depends on which thread
ran what.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

# Samples are generated in fixed blocks of this many indices.  A sample's bits
# depend only on its block id and offset, never on which blocks were generated
# before it.
BLOCK_SIZE = 4096

# The counterexample draws at most this many normals a chunk (4 MiB of
# float64), or one row when a row is wider; chunk_rows gives the row count.
# Nothing else in the package reads it.
CHUNK_ENTRIES = 1 << 19

# The evaluator's chunks, the counterexample's level and sign passes, the
# sample estimators and symmetrize work on at most this many float64 entries
# at a time (512 KiB), or one row when a row is wider; band_rows gives the
# row count.
BAND_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Grid:
    """m equal cells on [0,1]; cell i is [i/m, (i+1)/m) with measure delta = 1/m.

    A grid is its m, an integer >= 1; delta is derived, never passed.
    make_grid is this constructor.
    """

    m: int
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", check_int("grid size m", self.m, 1))
        object.__setattr__(self, "delta", 1.0 / self.m)


make_grid = Grid


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
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))

    def standard_normal_block(
        self, n_vars: int, start: int, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows start .. start+count-1 of the infinite (index, n_vars) normal table.

        The rows are written into out when it is given (a C-contiguous
        float64 array of shape (count, n_vars)), else into a new array.
        """
        n_vars = check_int("n_vars", n_vars, 1)
        start, count = check_int("start", start), check_int("count", count)
        if out is None:
            out = np.empty((count, n_vars), dtype=np.float64)
        elif (
            out.shape != (count, n_vars)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {(count, n_vars)}"
            )
        cursor = _cursor
        filled = 0
        while filled < count:
            block_id, offset = divmod(start + filled, BLOCK_SIZE)
            take = min(BLOCK_SIZE - offset, count - filled)
            key = (self.seed, self.stream_id, n_vars, block_id)
            if offset == 0:
                cursor.key, cursor.row = key, 0
                cursor.gen = _block_generator(self.seed, self.stream_id, block_id)
            rows = out[filled : filled + take]
            if cursor.key == key and cursor.row == offset:
                cursor.gen.standard_normal(out=rows)
                cursor.row += take
            else:
                rows[...] = _raw_block(self.seed, self.stream_id, n_vars, block_id)[
                    offset : offset + take
                ]
            filled += take
        return out


class _BlockCursor(threading.local):
    """A thread's open block generator: key (seed, stream_id, n_vars, block_id)
    and the next row it draws."""

    key = None
    row = 0
    gen = None


_cursor = _BlockCursor()


def _block_generator(seed: int, stream_id: int, block_id: int) -> np.random.Generator:
    # Counter-based key: each block owns a disjoint Philox keyspace, so block
    # contents are independent of generation order.
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id, block_id))
    return np.random.Generator(np.random.Philox(ss))


@lru_cache(maxsize=1)
def _raw_block(seed: int, stream_id: int, n_vars: int, block_id: int) -> np.ndarray:
    # The whole block, for random-access reads only: a read that neither
    # starts a block nor continues the thread's open generator copies its
    # rows from here.  The latest block is kept for repeated such reads.
    block = _block_generator(seed, stream_id, block_id).standard_normal((BLOCK_SIZE, n_vars))
    block.flags.writeable = False
    return block


def check_int(name: str, value, minimum: int = 0) -> int:
    """value as an int; ValueError unless it is a non-bool integer >= minimum.

    This is the package's one integer rule: a bool is not a count, and a
    float or string is never truncated or parsed into one.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    rule = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def check_grid(value) -> None:
    """Reject value, a grid argument, unless it is a Grid."""
    if not isinstance(value, Grid):
        raise ValueError(f"grid must be a Grid, got {value!r}")


def check_real(name: str, value, *, positive: bool = False) -> float:
    """value as a float; ValueError unless it is a finite non-bool real number,
    > 0 if positive.

    This is the package's one real-number rule: a bool is not a number, a
    string is never parsed into one, and NaN and inf are never accepted.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer or fraction beyond the float range
            number = math.inf
        if math.isfinite(number) and not (positive and number <= 0.0):
            return number
    rule = f"a {'positive ' if positive else ''}finite real number"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def real_array(name: str, value) -> np.ndarray:
    """value as a float64 array; ValueError unless it holds integers or reals, all finite.

    The array rule beside check_real: bools and strings are not numbers.  A
    float64 array comes back as the same object.  Integers are always
    finite; float values are checked through their min and max, both NaN
    when any entry is, so no mask of the entries is formed.
    """
    arr = np.asarray(value)
    kind = arr.dtype.kind
    if kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if kind == "f" and arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise ValueError(f"{name} must be finite, got a NaN or inf entry")
    return arr


def check_object(what: str, data, keys) -> None:
    """Reject data, the JSON body of a `what`, unless it is an object holding every key in keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing key {key!r}")


def check_run_counts(n_samples, workers) -> None:
    """Reject a sample count or worker count that is not an integer >= 1."""
    check_int("n_samples", n_samples, 1)
    check_int("workers", workers, 1)


def chunk_rows(width: int) -> int:
    """Rows of a width-wide float64 table that fit in one chunk of CHUNK_ENTRIES."""
    return max(1, CHUNK_ENTRIES // width)


def band_rows(width: int) -> int:
    """Rows of a width-wide float64 table that fit in one band of BAND_ENTRIES."""
    return max(1, BAND_ENTRIES // width)


def run_tasks(workers: int, tasks: Sequence[Callable[[], object]]) -> list:
    """Call each task and return their results in submission order.

    With workers == 1, or fewer than two tasks, they run inline in this
    thread, one after another.  Otherwise they run on up to `workers`
    threads, and the exception of the first task to fail, in submission
    order, propagates once every task has run.
    """
    tasks = list(tasks)
    if workers == 1 or len(tasks) < 2:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


class Workspace(threading.local):
    """Reusable float64 buffers, a set per thread, one per name.

    array(name, shape) is a C-contiguous view of the calling thread's buffer
    of that name, replaced by a larger one only when a request outgrows it,
    so same-sized chunks allocate it once.  A request reuses the memory of
    the last one for that name and thread.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=np.float64)
        return buf[:size].reshape(shape)


def run_chunks(
    stream: IncrementStream, n_samples: int, n_vars: int, rows: int, workers: int, chunk: Callable
) -> None:
    """Call chunk(start, table, workspace) over the stream's rows 0 .. n_samples-1.

    Blocks of BLOCK_SIZE rows run as run_tasks tasks on up to `workers`
    threads.  One thread walks a block's chunks in order, each `rows` rows
    but the last, and draws a chunk's n_vars-wide rows
    start .. start+len(table)-1 into table, its "table" array of workspace,
    continuing its open block generator.  chunk may overwrite table and take
    its temporaries from workspace under other names, but must keep no view
    of either: the thread's next chunk reuses them.
    """
    # With fresh arrays per chunk the allocator hands the freed pages back to
    # the kernel and every chunk faults them in again.
    workspace = Workspace()

    def run(block_start: int) -> None:
        stop = min(block_start + BLOCK_SIZE, n_samples)
        for start in range(block_start, stop, rows):
            table = workspace.array("table", (min(rows, stop - start), n_vars))
            stream.standard_normal_block(n_vars, start, table.shape[0], out=table)
            chunk(start, table, workspace)

    run_tasks(workers, [partial(run, s) for s in range(0, n_samples, BLOCK_SIZE)])


def sample_increments_block(
    grid: Grid, stream: IncrementStream, start: int, count: int
) -> np.ndarray:
    """Increment vectors for sample indices start .. start+count-1, shape (count, m)."""
    block = stream.standard_normal_block(grid.m, start, count)
    block *= np.sqrt(grid.delta)  # the block is fresh, so scale it in place
    return block
