from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from chaoskit import (
    CounterexampleBatch,
    IncrementStream,
    diagonal_second_chaos,
    diagonal_summands,
    fourth_cumulant,
    gamma_residual,
    inner_product,
    integrals_independent,
    make_grid,
    scale,
    second_moment,
    simulate_counterexample,
    single_chaos,
    step_kernel,
    strongly_independent,
    symmetrize,
)
from chaoskit import grid as grid_module
from chaoskit import kernels as kernels_module
from chaoskit.grid import BLOCK_SIZE
from chaoskit.kernels import dense
from oracles import (
    batch_mean_se,
    simulate_counterexample_block_reference,
    simulate_counterexample_reference,
)


@pytest.mark.parametrize("n", [1, 4, 16, 64])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_diagonal_summands_moments(n, c):
    for x in diagonal_summands(n, (c, c)):
        assert x.grid.m == 2 * n
        assert second_moment(x) == pytest.approx(c, rel=1e-12)
        assert fourth_cumulant(x) == pytest.approx(12.0 * c * c / n, rel=1e-10)
        assert gamma_residual(x, c) == pytest.approx(2.0 * c * c / n, rel=1e-10)


def test_diagonal_summands_placement():
    left, right = diagonal_summands(2, (1.0, 1.0))
    lv = dense(left.kernels[2]).values
    rv = dense(right.kernels[2]).values
    assert lv[0, 0] > 0 and lv[1, 1] > 0 and lv[2, 2] == 0 and lv[3, 3] == 0
    assert rv[0, 0] == 0 and rv[1, 1] == 0 and rv[2, 2] > 0 and rv[3, 3] > 0
    res = strongly_independent(left, right)
    assert res.independent and res.worst_norm == 0.0
    # k summands on the k disjoint n-cell blocks of one k*n grid
    parts = diagonal_summands(3, (0.2, 0.3, 0.5))
    assert all(p.grid == make_grid(9) for p in parts)
    for j, (p, c) in enumerate(zip(parts, (0.2, 0.3, 0.5))):
        assert np.flatnonzero(p.kernels[2].values).tolist() == [3 * j, 3 * j + 1, 3 * j + 2]
        assert second_moment(p) == pytest.approx(c, rel=1e-12)


def test_diagonal_summands_validation():
    for n in (0, -1, 2.5, True, "2"):
        with pytest.raises(ValueError, match="n must be"):
            diagonal_summands(n, (0.5, 0.5))
    for split in ((), [], 0.5, "0.5"):
        with pytest.raises(ValueError, match="split must be"):
            diagonal_summands(2, split)
    with pytest.raises(ValueError):
        diagonal_summands(2, (1.0, -1.0))


def test_diagonal_second_chaos_amplitude():
    # 2 ||f||^2 = c with f = a sum e_i x e_i on n cells: a = sqrt(c/(2n))/delta
    g = make_grid(4)
    x = diagonal_second_chaos(g, [1, 3], 0.5)
    a = math.sqrt(0.5 / 4.0) / g.delta
    vals = dense(x.kernels[2]).values
    assert vals[1, 1] == pytest.approx(a, rel=1e-14)
    assert vals[3, 3] == pytest.approx(a, rel=1e-14)
    assert vals[0, 0] == 0.0 and vals[2, 2] == 0.0
    assert second_moment(x) == pytest.approx(0.5, rel=1e-13)


def test_diagonal_second_chaos_validation():
    g = make_grid(4)
    with pytest.raises(ValueError):
        diagonal_second_chaos(g, [], 1.0)
    with pytest.raises(ValueError):
        diagonal_second_chaos(g, [0, 0], 1.0)
    with pytest.raises(ValueError):
        diagonal_second_chaos(g, [0, 4], 1.0)
    with pytest.raises(ValueError):
        diagonal_second_chaos(g, [-1], 1.0)
    with pytest.raises(ValueError):
        diagonal_second_chaos(g, [0], 0.0)


def test_diagonal_second_chaos_cells_are_integers():
    # Floats were truncated and bools read as 0/1: each of these built the
    # kernel on cells 0 and 1.
    g = make_grid(4)
    for cells in ([0.9, 1.7], [True, False], np.array([0.0, 1.0]), ["0", "1"]):
        with pytest.raises(ValueError, match="cells must be integers"):
            diagonal_second_chaos(g, cells, 1.0)
    with pytest.raises(ValueError, match="need at least one cell"):
        diagonal_second_chaos(g, [], 1.0)
    want = diagonal_second_chaos(g, [1, 3], 0.5).kernels[2].values
    for cells in (range(1, 4, 2), [1, 3], np.array([1, 3], dtype=np.uint8), (np.int64(1), np.int32(3))):
        assert np.array_equal(diagonal_second_chaos(g, cells, 0.5).kernels[2].values, want)


def test_diagonal_second_chaos_rejects_repeated_cells():
    # Checked on the sorted cells, so a repeat anywhere in the list counts.
    g = make_grid(6)
    for cells in ([0, 0], [3, 1, 3], [5, 2, 4, 2], np.array([[1, 4], [4, 0]])):
        with pytest.raises(ValueError, match="cells must be distinct"):
            diagonal_second_chaos(g, cells, 1.0)
    want = diagonal_second_chaos(g, [1, 3, 4], 0.5).kernels[2].values
    assert np.array_equal(diagonal_second_chaos(g, [4, 1, 3], 0.5).kernels[2].values, want)


def test_counterexample_row_fits_in_one_chunk(monkeypatch):
    # path_steps // 2 + 1 normals a row, at most grid.CHUNK_ENTRIES: 200
    # steps read 101, so with 101 entries a chunk 200 runs and 202 do not.
    s = IncrementStream(seed=93)
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 101)
    assert simulate_counterexample(200, 5, s).x.size == 5
    with pytest.raises(ValueError, match="path_steps must be at most 200, .* one chunk of 101; got 202"):
        simulate_counterexample(202, 5, s)


def test_diagonal_second_chaos_rejects_oversized_grid_before_allocating(monkeypatch):
    # m = 12000 would need a 1.15 GB dense (m, m) kernel; the diagonal kernel
    # stores its 12000 entries, and a grid above MAX_ENTRIES stored entries
    # is rejected before anything is allocated.
    sizes = []
    zeros = np.zeros

    def recording_zeros(shape, *args, **kwargs):
        sizes.append(int(np.prod(shape)))
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    tracemalloc.start()
    try:
        x = diagonal_second_chaos(make_grid(12_000), [0], 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [12_000]  # no (m, m) array
    assert x.kernels[2].values.shape == (12_000,)
    assert peak < 12_000 * 8 * 4

    def no_alloc(*args, **kwargs):
        raise AssertionError("an oversized kernel must not be allocated")

    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(kernels_module, "MAX_ENTRIES", 11_999)
    with pytest.raises(ValueError, match="dense-storage"):
        diagonal_second_chaos(make_grid(12_000), [0], 1.0)


def test_single_chaos_scaled_to_a_target_variance():
    rng = np.random.default_rng(80)
    g = make_grid(4)
    k = symmetrize(step_kernel(g, 3, rng.uniform(-1, 1, (4, 4, 4))))
    # E[I_3(k)^2] = 3! ||k||^2, so this factor makes the variance 2
    x = scale(math.sqrt(2.0 / (6.0 * inner_product(k, k))), single_chaos(k))
    f = x.kernels[3]
    assert 6.0 * inner_product(f, f) == pytest.approx(2.0, rel=1e-13)
    assert second_moment(x) == pytest.approx(2.0, rel=1e-13)
    # unscaled, the kernel passes through untouched
    y = single_chaos(k)
    assert np.array_equal(y.kernels[3].values, k.values)


def test_single_chaos_rejects_an_asymmetric_kernel():
    g = make_grid(3)
    asym = step_kernel(g, 2, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="order-2 kernel is not symmetric"):
        single_chaos(asym)
    # symmetrized: 1/2 at (0, 1) and (1, 0), so E[X^2] = 2! * 2 * (1/2)^2 * delta^2
    assert second_moment(single_chaos(symmetrize(asym))) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_diagonal_summands_are_independent_kernelwise():
    left, right = diagonal_summands(4, (1.0, 1.0))
    res = integrals_independent(left.kernels[2], right.kernels[2])
    assert res.independent and res.witness_norm == 0.0


# ---------------------------------------------------------------------------
# counterexample simulation


def test_counterexample_deterministic():
    a = simulate_counterexample(200, 5000, IncrementStream(seed=90))
    b = simulate_counterexample(200, 5000, IncrementStream(seed=90))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    c = simulate_counterexample(200, 5000, IncrementStream(seed=91))
    assert not np.array_equal(a.x, c.x)


def test_counterexample_validation():
    s = IncrementStream(seed=92)
    with pytest.raises(ValueError):
        simulate_counterexample(99, 10, s)  # odd
    with pytest.raises(ValueError):
        simulate_counterexample(50, 10, s)  # too coarse
    with pytest.raises(ValueError):
        simulate_counterexample(200, 0, s)
    for n_samples in (10.5, 3.0, True, "5", None):  # checked before any allocation
        with pytest.raises(ValueError, match="n_samples"):
            simulate_counterexample(200, n_samples, s)
    assert simulate_counterexample(200, np.int64(7), s).x.size == 7
    for workers in (0, -3, 2.5, True, None):  # no silent serial run
        with pytest.raises(ValueError, match="workers"):
            simulate_counterexample(200, 10, s, workers=workers)
    assert simulate_counterexample(200, 7, s, workers=np.int64(2)).x.size == 7


def test_counterexample_x1_is_one_draw():
    # X1 = (x + y)/sqrt(2) is column half of the stream's (index, half + 1)
    # table; the rotation round trip loses a few ulps of the larger of x, y
    s = IncrementStream(seed=97)
    n = BLOCK_SIZE + 50
    batch = simulate_counterexample(200, n, s)
    x1 = s.standard_normal_block(101, 0, n)[:, 100]
    recovered = (batch.x + batch.y) / math.sqrt(2.0)
    scale = np.abs(batch.x) + np.abs(batch.y)
    assert np.all(np.abs(recovered - x1) <= 1e-15 * scale)


def test_counterexample_matches_per_path_reference():
    # 4200 paths cross the first BLOCK_SIZE boundary
    s = IncrementStream(seed=98)
    batch = simulate_counterexample(200, 4200, s)
    x_ref, y_ref = simulate_counterexample_reference(200, 4200, s)
    assert np.allclose(batch.x, x_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(batch.y, y_ref, rtol=0.0, atol=1e-12)


def test_counterexample_draw_count(monkeypatch):
    # half + 1 = 101 normals per path: 100 left-half increments and X1
    calls = []
    original = IncrementStream.standard_normal_block

    def counting(self, n_vars, start, count, out=None):
        out = original(self, n_vars, start, count, out=out)
        calls.append((n_vars, out.size))
        return out

    monkeypatch.setattr(IncrementStream, "standard_normal_block", counting)
    n = 2 * BLOCK_SIZE + 100
    simulate_counterexample(200, n, IncrementStream(seed=99))
    assert {n_vars for n_vars, _ in calls} == {101}
    assert sum(size for _, size in calls) == n * 101


@pytest.mark.parametrize("workers", [2, 3])
def test_counterexample_workers_identical(workers):
    # three blocks, the last one partial
    n = 2 * BLOCK_SIZE + 100
    serial = simulate_counterexample(200, n, IncrementStream(seed=100))
    threaded = simulate_counterexample(200, n, IncrementStream(seed=100), workers=workers)
    assert serial.x.tobytes() == threaded.x.tobytes()
    assert serial.y.tobytes() == threaded.y.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_counterexample_chunk_seams_match_block_reference(workers, monkeypatch):
    # 30 rows of 101 normals a chunk: three blocks, the last one partial, and
    # every block ends in a ragged chunk (4096 = 136 * 30 + 16, 100 = 3 * 30 + 10)
    n = 2 * BLOCK_SIZE + 100
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 30 * 101 + 50)
    want_x, want_y = simulate_counterexample_block_reference(200, n, IncrementStream(seed=101))
    got = simulate_counterexample(200, n, IncrementStream(seed=101), workers=workers)
    assert got.x.tobytes() == want_x.tobytes()
    assert got.y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("band_entries", [7, 7 * 100 + 3])
def test_counterexample_bands_match_block_reference(band_entries, monkeypatch):
    # 7 entries are fewer than a row's 100 increments, so every sign band is
    # one path and every level block one increment; 703 make 7-path sign
    # bands and 23-increment level blocks on a 30-path chunk, which ends in
    # a ragged band of 2 (30 = 4 * 7 + 2), as do the ragged chunks of 16 and
    # 10 paths that end the full block and the partial one.
    n = BLOCK_SIZE + 100
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 30 * 101 + 50)
    monkeypatch.setattr(grid_module, "BAND_ENTRIES", band_entries)
    stream = IncrementStream(seed=103)
    want_x, want_y = simulate_counterexample_block_reference(200, n, stream)
    got = simulate_counterexample(200, n, stream, workers=2)
    assert got.x.tobytes() == want_x.tobytes()
    assert got.y.tobytes() == want_y.tobytes()
    ref_x, ref_y = simulate_counterexample_reference(200, 300, stream)
    assert np.allclose(got.x[:300], ref_x, rtol=0.0, atol=1e-12)
    assert np.allclose(got.y[:300], ref_y, rtol=0.0, atol=1e-12)


def test_counterexample_memory_is_bounded_in_path_steps():
    # One block of 4096 paths at 20 000 steps is a 328 MB table of 10 001
    # normals a path; the chunk walk holds one chunk table, and its sign
    # table and other temporaries cover one band of paths.
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    tracemalloc.start()
    try:
        simulate_counterexample(20_000, BLOCK_SIZE, IncrementStream(seed=102))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes < BLOCK_SIZE * 10_001 * 8 / 16


def test_counterexample_batch_fields():
    batch = simulate_counterexample(200, 50, IncrementStream(seed=93))
    assert isinstance(batch, CounterexampleBatch)
    assert batch.x.shape == batch.y.shape == (50,)
    assert batch.path_steps == 200
    with pytest.raises(ValueError):
        batch.x[0] = 0.0  # frozen arrays


def test_counterexample_moments():
    batch = simulate_counterexample(200, 40_000, IncrementStream(seed=94))
    for arr in (batch.x, batch.y):
        mean, se_m = batch_mean_se(arr)
        assert abs(mean) <= max(3 * se_m, 0.02)
        var, se_v = batch_mean_se(arr**2)
        assert abs(var - 1.0) <= max(3 * se_v, 0.03)
    corr, se_c = batch_mean_se(batch.x * batch.y)
    assert abs(corr) <= max(3 * se_c, 0.03)


def test_counterexample_shared_projection():
    # both X and Y load on the Gaussian factor G = W(1) - W(1/2) = (x + y)/2
    # with E[X G] = E[Y G] = 1/2
    batch = simulate_counterexample(200, 40_000, IncrementStream(seed=95))
    shared = (batch.x + batch.y) / 2.0
    for arr in (batch.x, batch.y):
        proj, se = batch_mean_se(arr * shared)
        assert abs(proj - 0.5) <= max(3 * se, 0.03)
    # the shared factor itself has variance 1/2
    v, se_v = batch_mean_se(shared**2)
    assert abs(v - 0.5) <= max(3 * se_v, 0.02)


def test_counterexample_strong_independence_fails():
    # X and Y are genuinely independent (rotation of an independent pair), but
    # their first-chaos components coincide: both regress on G = (x + y)/2
    # with unit coefficient, so <f_1, g_1> = E[G^2] = 1/2 and the order-(1,1)
    # contraction criterion fails
    batch = simulate_counterexample(200, 40_000, IncrementStream(seed=96))
    shared = (batch.x + batch.y) / 2.0
    var_g = float(np.mean(shared**2))
    beta_x = float(np.mean(batch.x * shared)) / var_g
    beta_y = float(np.mean(batch.y * shared)) / var_g
    assert abs(beta_x - 1.0) <= 0.05
    assert abs(beta_y - 1.0) <= 0.05
    # independence sanity: even nonlinear statistics stay uncorrelated
    ax = np.abs(batch.x) - np.abs(batch.x).mean()
    ay = np.abs(batch.y) - np.abs(batch.y).mean()
    corr = float(np.mean(ax * ay) / (ax.std() * ay.std()))
    assert abs(corr) <= 0.03
