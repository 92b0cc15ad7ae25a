from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chaoskit import (
    GaussianSample,
    IncrementStream,
    make_grid,
    sample_increments,
    sample_increments_block,
)
from chaoskit import grid as grid_module
from chaoskit.grid import BLOCK_SIZE


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
    a = sample_increments(g, stream, index=7)
    b = sample_increments(g, stream, index=7)
    assert np.array_equal(a.increments, b.increments)
    # and equals the matching row of a block draw
    block = sample_increments_block(g, stream, 0, 16)
    assert np.array_equal(block[7], a.increments)


def test_distinct_indices_seeds_and_streams_differ():
    g = make_grid(4)
    s = IncrementStream(seed=123)
    assert not np.array_equal(
        sample_increments(g, s, 0).increments, sample_increments(g, s, 1).increments
    )
    assert not np.array_equal(
        sample_increments(g, s, 0).increments,
        sample_increments(g, IncrementStream(seed=124), 0).increments,
    )
    assert not np.array_equal(
        sample_increments(g, s, 0).increments,
        sample_increments(g, s.substream(1), 0).increments,
    )


def test_samples_do_not_depend_on_draw_order():
    g = make_grid(3)
    stream = IncrementStream(seed=9)
    n = 2 * BLOCK_SIZE + 100  # span several blocks
    serial = sample_increments_block(g, stream, 0, n)
    indices = list(range(0, n, 997)) + [n - 1, BLOCK_SIZE, BLOCK_SIZE - 1]
    random.Random(0).shuffle(indices)
    for i in indices:
        row = sample_increments(g, stream, i)
        assert np.array_equal(row.increments, serial[i])


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


def test_gaussian_sample_validates_shape():
    g = make_grid(4)
    with pytest.raises(ValueError):
        GaussianSample(grid=g, increments=np.zeros(3))


def test_stream_validation():
    with pytest.raises(ValueError):
        IncrementStream(seed=-1)
    with pytest.raises(ValueError):
        IncrementStream(seed=1, stream_id=-2)
    stream = IncrementStream(seed=1)
    with pytest.raises(ValueError):
        stream.standard_normal_block(0, 0, 4)
    with pytest.raises(ValueError):
        stream.standard_normal_block(2, -1, 4)


def test_rows_of_one_block_share_the_cached_block():
    # The block cache keeps only the latest block: consecutive single-row
    # reads within one block draw it once.
    grid = make_grid(8)
    stream = IncrementStream(seed=5, stream_id=2)
    grid_module._raw_block.cache_clear()
    rows = [sample_increments(grid, stream, i).increments for i in range(10)]
    info = grid_module._raw_block.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (9, 1, 1)
    block = sample_increments_block(grid, stream, 0, 10)
    assert np.array_equal(np.stack(rows), block)
