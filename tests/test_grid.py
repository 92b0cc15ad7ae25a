from __future__ import annotations

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chaoskit import IncrementStream, make_grid, sample_increments_block
from chaoskit import grid as grid_module
from chaoskit.grid import BLOCK_SIZE


def _row(grid, stream, index):
    """The increment vector of one sample index."""
    return sample_increments_block(grid, stream, index, 1)[0]


def test_make_grid_fields():
    g = make_grid(4)
    assert g.m == 4
    assert g.delta == 0.25


@pytest.mark.parametrize("bad", [0, -1, 2.5, "4", True])
def test_make_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        make_grid(bad)


def test_sample_is_deterministic_in_seed_and_index():
    g = make_grid(4)
    stream = IncrementStream(seed=123)
    a = _row(g, stream, 7)
    b = _row(g, stream, 7)
    assert np.array_equal(a, b)
    # and equals the matching row of a block draw
    block = sample_increments_block(g, stream, 0, 16)
    assert np.array_equal(block[7], a)


def test_distinct_indices_seeds_and_streams_differ():
    g = make_grid(4)
    s = IncrementStream(seed=123)
    assert not np.array_equal(_row(g, s, 0), _row(g, s, 1))
    assert not np.array_equal(_row(g, s, 0), _row(g, IncrementStream(seed=124), 0))
    assert not np.array_equal(_row(g, s, 0), _row(g, IncrementStream(seed=123, stream_id=1), 0))


def test_samples_do_not_depend_on_draw_order():
    g = make_grid(3)
    stream = IncrementStream(seed=9)
    n = 2 * BLOCK_SIZE + 100  # span several blocks
    serial = sample_increments_block(g, stream, 0, n)
    indices = list(range(0, n, 997)) + [n - 1, BLOCK_SIZE, BLOCK_SIZE - 1]
    random.Random(0).shuffle(indices)
    for i in indices:
        assert np.array_equal(_row(g, stream, i), serial[i])


def test_concurrent_block_draws_match_serial():
    g = make_grid(5)
    stream = IncrementStream(seed=31)
    n = 3 * BLOCK_SIZE
    serial = sample_increments_block(g, stream, 0, n)
    chunks = [(s, 512) for s in range(0, n, 512)]
    random.Random(1).shuffle(chunks)

    def fetch(args):
        start, count = args
        return start, sample_increments_block(g, stream, start, count)

    out = np.empty_like(serial)
    with ThreadPoolExecutor(max_workers=8) as pool:
        for start, block in pool.map(fetch, chunks):
            out[start : start + block.shape[0]] = block
    assert np.array_equal(out, serial)


def test_increment_moments():
    g = make_grid(4)
    n = 1_000_000
    xi = sample_increments_block(g, IncrementStream(seed=2024), 0, n)
    # mean 0, variance delta, independent cells
    assert np.all(np.abs(xi.mean(axis=0)) <= 3 * np.sqrt(g.delta / n))
    var = xi.var(axis=0, ddof=1)
    assert np.all(np.abs(var - g.delta) <= 3 * g.delta * np.sqrt(2.0 / n))
    corr = np.corrcoef(xi.T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off_diag)) <= 3.0 / np.sqrt(n)


def test_stream_validation():
    with pytest.raises(ValueError):
        IncrementStream(seed=-1)
    with pytest.raises(ValueError):
        IncrementStream(seed=1, stream_id=-2)
    # a bool is not a count: (True, False) would silently be stream (1, 0)
    for seed, stream_id in ((True, 0), (1, False), (True, False)):
        with pytest.raises(ValueError, match="non-negative integer"):
            IncrementStream(seed=seed, stream_id=stream_id)
    stream = IncrementStream(seed=1)
    with pytest.raises(ValueError):
        stream.standard_normal_block(0, 0, 4)
    with pytest.raises(ValueError):
        stream.standard_normal_block(2, -1, 4)
    for bad in (np.empty((4, 3)), np.empty((4, 2), dtype=np.float32), np.empty((2, 4)).T):
        with pytest.raises(ValueError, match="out"):
            stream.standard_normal_block(2, 0, 4, out=bad)


def test_draws_into_a_given_array():
    stream = IncrementStream(seed=8)
    buf = np.full((BLOCK_SIZE + 10, 6), np.nan)
    rows = stream.standard_normal_block(6, BLOCK_SIZE - 5, 15, out=buf[3:18])
    assert np.shares_memory(rows, buf)
    assert np.array_equal(buf[3:18], stream.standard_normal_block(6, BLOCK_SIZE - 5, 15))
    assert np.isnan(buf[:3]).all() and np.isnan(buf[18:]).all()


def test_run_chunks_draws_each_block_into_one_table_buffer(monkeypatch):
    # 4 rows of 5 normals a chunk: a 4096-row block of 1024 chunks and a
    # 10-row tail ending in a ragged chunk (10 = 2 * 4 + 2).  On one worker
    # every chunk's table is a view of the same buffer.
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 4 * 5 + 2)
    stream = IncrementStream(seed=9, stream_id=1)
    n = BLOCK_SIZE + 10
    tables = {}
    got = np.full((n, 5), np.nan)

    def chunk(start, table, workspace):
        assert np.shares_memory(table, workspace.array("table", table.shape))
        tables[start] = table
        got[start : start + table.shape[0]] = table

    grid_module.run_chunks(stream, n, 5, 1, chunk)
    assert sorted(tables) == list(range(0, BLOCK_SIZE, 4)) + list(range(BLOCK_SIZE, n, 4))
    assert tables[BLOCK_SIZE + 8].shape == (2, 5)
    first = tables[0]
    assert all(np.shares_memory(t, first) for t in tables.values())
    assert np.array_equal(got, stream.standard_normal_block(5, 0, n))


def test_rows_of_one_block_share_the_cached_block(monkeypatch):
    # Consecutive single-row reads from the start of a block continue the
    # thread's generator for that block: it is opened once, and no whole
    # block is drawn.
    grid = make_grid(8)
    stream = IncrementStream(seed=5, stream_id=2)
    opened = []
    original = grid_module._block_generator

    def counting(*args):
        opened.append(args)
        return original(*args)

    monkeypatch.setattr(grid_module, "_block_generator", counting)
    grid_module._raw_block.cache_clear()
    rows = [_row(grid, stream, i) for i in range(10)]
    info = grid_module._raw_block.cache_info()
    assert opened == [(5, 2, 0)]
    assert (info.hits, info.misses, info.maxsize) == (0, 0, 1)
    block = sample_increments_block(grid, stream, 0, 10)
    assert np.array_equal(np.stack(rows), block)


def test_interleaved_chunked_reads_match_serial_table():
    # The reference is each block drawn whole.  Two threads walk blocks 1 and
    # 2 in lock step, in ragged chunks (4096 = 5 * 700 + 596), so each read
    # continues its own thread's generator while the other thread has one
    # open.  Then one thread mixes in reads that continue no open generator.
    stream = IncrementStream(seed=12, stream_id=4)
    n_vars = 3
    serial = np.concatenate(
        [grid_module._raw_block(12, 4, n_vars, b) for b in range(3)]
    )
    got = {}
    barrier = threading.Barrier(2, timeout=30)

    def walk(block_id):
        for lo in range(0, BLOCK_SIZE, 700):
            start = block_id * BLOCK_SIZE + lo
            got[start] = stream.standard_normal_block(n_vars, start, min(700, BLOCK_SIZE - lo))
            barrier.wait()

    threads = [threading.Thread(target=walk, args=(b,)) for b in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 12
    for start, rows in got.items():
        assert np.array_equal(rows, serial[start : start + rows.shape[0]])

    reads = [
        (0, 500),  # opens block 0
        (100, 200),  # backwards
        (500, 400),  # continues block 0 after the backward read
        (2 * BLOCK_SIZE, 900),  # opens block 2
        (900, 100),  # block 0 at the row where the open block 2 stands
        (2 * BLOCK_SIZE + 900, 200),  # continues block 2
        (BLOCK_SIZE - 37, 100),  # unaligned, across the block 0 / 1 seam
        (BLOCK_SIZE + 63, 37),  # continues block 1
    ]
    for start, count in reads:
        rows = stream.standard_normal_block(n_vars, start, count)
        assert np.array_equal(rows, serial[start : start + count])


# ---------------------------------------------------------------------------
# the task runner


def test_run_tasks_returns_results_in_submission_order():
    # Task 0 waits until task 1 has finished, so the results come back in
    # submission order, not in the order the tasks end.
    done = threading.Event()

    def first():
        assert done.wait(timeout=30)
        return "first"

    def second():
        done.set()
        return "second"

    assert grid_module.run_tasks(2, [first, second]) == ["first", "second"]
    assert grid_module.run_tasks(3, [lambda i=i: i * i for i in range(7)]) == [
        i * i for i in range(7)
    ]


def test_run_tasks_raises_the_first_failure():
    # Task 2 fails first in time; task 1's failure comes first in submission
    # order and is the one raised.
    failed = threading.Event()

    def fail_late():
        assert failed.wait(timeout=30)
        raise ValueError("task 1")

    def fail_early():
        failed.set()
        raise ValueError("task 2")

    with pytest.raises(ValueError, match="task 1"):
        grid_module.run_tasks(3, [lambda: 0, fail_late, fail_early])


def test_run_tasks_runs_inline_with_one_worker(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one worker must not start a pool")

    monkeypatch.setattr(grid_module, "ThreadPoolExecutor", no_pool)
    order = []

    def task(i):
        order.append((i, threading.get_ident()))
        return i

    tasks = [lambda i=i: task(i) for i in range(4)]
    assert grid_module.run_tasks(1, tasks) == [0, 1, 2, 3]
    assert order == [(i, threading.get_ident()) for i in range(4)]
    assert grid_module.run_tasks(4, tasks[:1]) == [0]  # a single task needs no pool either
    assert grid_module.run_tasks(2, []) == []
