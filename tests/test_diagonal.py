"""Diagonal kernel storage against the dense path.

A diagonal kernel f = sum_i a_i e_i^(x)n is stored as its length-m vector a,
and kernels.dense expands it.  Each operation on diagonal kernels must give
what the same operation gives on their dense expansions: the same bits where
both sum in the same order, and within 1e-15 of the sum of absolute terms
where a full contraction or inner product sums the diagonal in another order.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaoskit import (
    ChaosExpansion,
    add,
    contract,
    cross_gamma,
    diagonal_summands,
    evaluate_batch,
    exact_summary,
    inner_product,
    is_symmetric,
    kernel_from_dict,
    kernel_to_dict,
    linear_combine,
    load_expansion,
    make_grid,
    save_expansion,
    single_chaos,
    step_kernel,
    symmetrize,
)
from chaoskit.kernels import dense

# Relative difference allowed where the dense path sums the diagonal terms in
# another order, taken against the sum of the terms' absolute values.
SUM_ORDER_RTOL = 1e-15


def _dense(x):
    return ChaosExpansion(x.grid, tuple(None if k is None else dense(k) for k in x.kernels))


def _same_kernel(got, want, scale: float) -> None:
    """got (any storage) equals the dense want: bits above order 0, SUM_ORDER_RTOL at order 0."""
    assert got.order == want.order
    if got.order == 0:
        assert abs(float(got.values) - float(want.values)) <= SUM_ORDER_RTOL * scale
    else:
        assert np.array_equal(dense(got).values, want.values)


def _same_expansion(got, want, scale0: float = 0.0) -> None:
    """Bits in every slot above order 0, SUM_ORDER_RTOL * scale0 at order 0."""
    assert abs(got.expectation - want.expectation) <= SUM_ORDER_RTOL * scale0
    for n in range(1, max(got.max_order, want.max_order) + 1):
        g, w = got.kernel(n), want.kernel(n)
        if g is None or w is None:
            assert g is None and w is None
        else:
            assert np.array_equal(dense(g).values, w.values)


_entries = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, allow_subnormal=False))


@st.composite
def diagonal_pairs(draw):
    m = draw(st.integers(1, 10))
    p, q = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    a = draw(hnp.arrays(np.float64, m, elements=_entries))
    b = draw(hnp.arrays(np.float64, m, elements=_entries))
    grid = make_grid(m)
    return step_kernel(grid, p, a, diagonal=True), step_kernel(grid, q, b, diagonal=True)


@settings(max_examples=60, deadline=None)
@given(diagonal_pairs(), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_diagonal_algebra_matches_the_dense_path(pair, alpha, seed):
    f, g = pair
    df, dg = dense(f), dense(g)
    a, b, delta = f.values, g.values, f.grid.delta
    assert f.diagonal and g.diagonal and not df.diagonal
    assert is_symmetric(f) and symmetrize(f) is f
    assert np.array_equal(dense(symmetrize(f)).values, symmetrize(df).values)
    abs_ab = float(np.abs(a * b).sum())
    for ell in range(min(f.order, g.order) + 1):
        # ell = 0 is the outer product, which goes through dense itself
        _same_kernel(contract(f, g, ell), contract(df, dg, ell), abs_ab * delta**ell)
    if f.order == g.order:
        got, want = inner_product(f, g), inner_product(df, dg)
        assert abs(got - want) <= SUM_ORDER_RTOL * abs_ab * delta**f.order
        combined = linear_combine(alpha, f, 1.5, g)
        assert combined.diagonal
        _same_kernel(combined, linear_combine(alpha, df, 1.5, dg), 0.0)
    x, y = single_chaos(f), add(single_chaos(f), single_chaos(g))
    _same_expansion(add(x, y), add(_dense(x), _dense(y)))
    # The order-0 slot is p! times the full contraction of f with f, plus
    # that of f with g when p = q.
    full = (float(np.sum(a * a)) + (f.order == g.order) * abs_ab) * delta**f.order
    _same_expansion(cross_gamma(x, y), cross_gamma(_dense(x), _dense(y)), math.factorial(f.order) * full)
    xi = np.random.default_rng(seed).standard_normal((7, f.grid.m)) * np.sqrt(delta)
    assert np.array_equal(evaluate_batch(y, xi), evaluate_batch(_dense(y), xi))


def test_mixed_storages_densify():
    grid = make_grid(4)
    f = step_kernel(grid, 2, [1.0, 0.0, -2.0, 0.5], diagonal=True)
    h = step_kernel(grid, 2, np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T)
    assert not linear_combine(1.0, f, 2.0, h).diagonal
    assert np.array_equal(linear_combine(1.0, f, 2.0, h).values, dense(f).values + 2.0 * h.values)
    assert inner_product(f, h) == inner_product(dense(f), h)
    assert np.array_equal(contract(f, h, 1).values, contract(dense(f), h, 1).values)
    # an order-1 kernel is its own vector: its contraction with f stays closed
    v = step_kernel(grid, 1, [2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(contract(f, v, 1).values, contract(dense(f), v, 1).values)


def test_dense_checks_entries_before_allocating():
    grid = make_grid(200)
    f = step_kernel(grid, 4, np.ones(200), diagonal=True)  # 200 stored entries
    with pytest.raises(ValueError, match="dense-storage"):
        dense(f)  # 1.6e9 entries
    with pytest.raises(ValueError, match="dense-storage"):
        contract(f, f, 0)
    assert contract(f, f, 1).diagonal


@pytest.mark.parametrize("diagonal", [True, False])
def test_kernel_dict_round_trip_keeps_the_storage(diagonal):
    grid = make_grid(5)
    vector = np.array([0.0, 1.5, -2.0, 0.0, 0.25])
    kernel = step_kernel(grid, 3, vector, diagonal=True)
    if not diagonal:
        kernel = dense(kernel)
    data = json.loads(json.dumps(kernel_to_dict(kernel)))
    assert set(data) == {"order", "m", "diagonal" if diagonal else "values"}
    assert len(data["diagonal" if diagonal else "values"]) == (5 if diagonal else 125)
    back = kernel_from_dict(data)
    assert back.diagonal == diagonal
    assert np.array_equal(back.values, kernel.values)
    assert np.array_equal(dense(back).values, dense(kernel).values)


def test_decouple_summand_file_holds_its_vector(tmp_path):
    # n = 4096 on an m = 8192 grid: 8192 numbers, not the 6.7e7 of a dense kernel.
    _, x = diagonal_summands(4096, (0.5, 0.5))
    path = tmp_path / "summand.json"
    save_expansion(x, path)
    data = json.loads(path.read_text())
    assert data["kernels"][:2] == [None, None]
    assert len(data["kernels"][2]["diagonal"]) == 8192
    assert "values" not in data["kernels"][2]
    back = load_expansion(path)
    assert back.kernels[2].diagonal
    assert np.array_equal(back.kernels[2].values, x.kernels[2].values)


def test_exact_summary_memory_is_linear_in_m():
    # The n = 4096 decouple sum and summands on m = 8192 cells.  A dense
    # order-2 kernel there is 512 MiB; the bound, 32 vectors of m doubles,
    # is 2 MiB.
    n, m = 4096, 8192
    bound = 32 * m * 8
    x, y = diagonal_summands(n, (0.5, 0.5))
    tracemalloc.start()
    try:
        summaries = [exact_summary(add(x, y), 1.0), exact_summary(x, 0.5), exact_summary(y, 0.5)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    whole, left, right = summaries
    assert whole.k4 == pytest.approx(12.0 / (2 * n), rel=1e-10)
    assert left.residual == pytest.approx(2.0 * 0.25 / n, rel=1e-10)
    assert whole.gamma.kernels[2].diagonal
