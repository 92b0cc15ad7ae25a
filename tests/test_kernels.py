from __future__ import annotations

import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chaoskit import (
    StepKernel,
    contract,
    inner_product,
    is_symmetric,
    kernel_from_dict,
    kernel_norm,
    kernel_to_dict,
    linear_combine,
    make_grid,
    step_kernel,
    symmetrize,
)

from chaoskit import grid as grid_module
from chaoskit.chaos import chaos_expansion, exact_summary, gamma, gamma_residual, second_moment, single_chaos
from chaoskit.kernels import MAX_ORDER, SYMMETRY_ATOL
from oracles import contract_reference, is_symmetric_reference, linear_combine_reference, symmetrize_reference


def _random_kernel(rng, grid, order, symmetric=False):
    k = step_kernel(grid, order, rng.uniform(-1.0, 1.0, (grid.m,) * order))
    return symmetrize(k) if symmetric else k


def small_kernels(max_order=4, max_m=4, min_order=1):
    def build(draw_tuple):
        m, order, seed = draw_tuple
        rng = np.random.default_rng(seed)
        grid = make_grid(m)
        return step_kernel(grid, order, rng.uniform(-5.0, 5.0, (m,) * order))

    return st.tuples(
        st.integers(1, max_m), st.integers(min_order, max_order), st.integers(0, 10_000)
    ).map(build)


# ---------------------------------------------------------------------------
# symmetrize


@pytest.mark.parametrize("order", [2, 3, 4])
def test_is_symmetric_uses_the_symmetry_tolerance(order):
    # "Is symmetric" has one rule: every entry within SYMMETRY_ATOL of the
    # symmetrized kernel.
    g = make_grid(3)
    sym = _random_kernel(np.random.default_rng(90 + order), g, order, symmetric=True)
    assert is_symmetric(sym)
    corner = (0,) * (order - 1) + (1,)
    for bump, verdict in ((0.1 * SYMMETRY_ATOL, True), (1e3 * SYMMETRY_ATOL, False)):
        values = sym.values.copy()
        values[corner] += bump
        assert is_symmetric(step_kernel(g, order, values)) is verdict, bump


def test_symmetrize_order2_example():
    g = make_grid(2)
    k = step_kernel(g, 2, [[0.0, 1.0], [0.0, 0.0]])
    s = symmetrize(k)
    assert np.array_equal(s.values, [[0.0, 0.5], [0.5, 0.0]])


def test_symmetrize_leaves_low_orders_alone():
    g = make_grid(3)
    k = step_kernel(g, 1, [1.0, 2.0, 3.0])
    assert np.array_equal(symmetrize(k).values, k.values)
    k0 = step_kernel(g, 0, 2.5)
    assert symmetrize(k0).values == 2.5


@settings(max_examples=40, deadline=None)
@given(small_kernels())
def test_symmetrize_properties(kernel):
    s = symmetrize(kernel)
    # invariant under any axis transposition, exactly (orbit values are shared)
    perm = tuple(reversed(range(kernel.order)))
    assert np.array_equal(s.values, np.transpose(s.values, perm))
    # idempotent
    assert np.allclose(symmetrize(s).values, s.values, atol=1e-12, rtol=0.0)
    # total mass preserved
    assert np.isclose(s.values.sum(), kernel.values.sum(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order,m", [(3, 3), (4, 3), (3, 4)])
def test_symmetrize_matches_permutation_average(order, m):
    rng = np.random.default_rng(order * 10 + m)
    g = make_grid(m)
    k = _random_kernel(rng, g, order)
    brute = np.zeros_like(k.values)
    for perm in itertools.permutations(range(order)):
        brute += np.transpose(k.values, perm)
    brute /= math.factorial(order)
    assert np.max(np.abs(symmetrize(k).values - brute)) <= 1e-13


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_BAND_BYTES = grid_module.BAND_ENTRIES * 8


@pytest.mark.parametrize("m,order", [(32, 4), (12, 6)])
def test_symmetrize_memory_is_its_output_a_quarter_and_bands(m, order):
    # At m = 32 an order-4 kernel has 2^20 entries (8 MiB).  The orbit sums
    # become the output, the counts take one byte an entry up to order 5 and
    # two at order 6, and the orbit keys exist only a band at a time (one
    # first-axis row, 1/12 of the kernel, at m = 12 and order 6), so beside
    # its input symmetrize holds at most 1.25 kernel sizes and a few bands;
    # int64 counts or a separate output array would add a kernel size.
    k = _random_kernel(np.random.default_rng(70), make_grid(m), order)
    size = k.values.nbytes
    bands = 4 * max(_BAND_BYTES, size // m)
    assert _traced_peak(lambda: symmetrize(k)) < 1.25 * size + bands < 1.75 * size
    # A transposed input is copied first: that copy is the input's size.
    view = step_kernel(make_grid(m), order, k.values).values.T
    assert _traced_peak(lambda: symmetrize(StepKernel(k.grid, order, view))) < 2.25 * size + bands
    k2 = _random_kernel(np.random.default_rng(71), make_grid(512), 2)
    assert _traced_peak(lambda: symmetrize(k2)) < k2.values.nbytes + _BAND_BYTES


@pytest.mark.parametrize(
    "m,order",
    [
        (1, 2),
        (7, 2),
        (300, 2),
        (1, 3),
        (1, 6),
        (3, 3),
        (100, 3),  # six first-axis indices a slice, the last slice short
        (32, 4),  # two first-axis indices a slice
        (12, 4),
        (17, 5),  # one first-axis index a slice: 17^4 > 2^16
        (4, 5),
        (10, 6),  # one first-axis index a slice: 10^5 > 2^16
        (3, 6),  # uint16 counts: 6! = 720 < 3^6
        (2, 6),  # uint8 counts: 2^6 < 6!
    ],
)
def test_symmetrize_matches_reference_bits(m, order):
    rng = np.random.default_rng(m * 10 + order)
    k = _random_kernel(rng, make_grid(m), order)
    assert symmetrize(k).values.tobytes() == symmetrize_reference(k).tobytes()


def test_symmetrize_of_transposed_array_matches_reference_bits():
    raw = np.random.default_rng(71).uniform(-1.0, 1.0, (9,) * 4)
    view = raw.transpose(2, 0, 3, 1)
    assert not view.flags.c_contiguous
    k = step_kernel(make_grid(9), 4, view)
    assert symmetrize(k).values.tobytes() == symmetrize_reference(k).tobytes()


@settings(max_examples=40, deadline=None)
@given(small_kernels(max_order=6, max_m=5, min_order=3))
def test_symmetrize_matches_reference_bits_on_small_kernels(kernel):
    assert symmetrize(kernel).values.tobytes() == symmetrize_reference(kernel).tobytes()


@pytest.mark.parametrize("m,order", [(3, 2), (3, 3), (20, 4)])  # (20, 4): 2.4 bands
def test_is_symmetric_matches_reference_on_both_sides_of_the_tolerance(m, order):
    g = make_grid(m)
    sym = _random_kernel(np.random.default_rng(92 + order), g, order, symmetric=True)
    last = (m - 1,) * (order - 1) + (m - 2,)
    for corner in ((0,) * (order - 1) + (1,), last):
        for bump, verdict in ((0.5 * SYMMETRY_ATOL, True), (4.0 * SYMMETRY_ATOL, False)):
            values = sym.values.copy()
            values[corner] += bump
            k = step_kernel(g, order, values)
            assert is_symmetric(k) is is_symmetric_reference(k) is verdict, (corner, bump)
    d = step_kernel(g, order, np.arange(m, dtype=float), diagonal=True)
    assert is_symmetric(d) is is_symmetric_reference(d) is True


# ---------------------------------------------------------------------------
# contract


def _algebra_kernels(m: int, seed: int) -> list:
    # Dense kernels of orders 0 to 4 and diagonal ones of orders 2 and 3.
    rng = np.random.default_rng(seed)
    g = make_grid(m)
    kernels = [step_kernel(g, n, rng.uniform(-1.0, 1.0, (m,) * n)) for n in range(5)]
    kernels += [step_kernel(g, n, rng.uniform(-1.0, 1.0, m), diagonal=True) for n in (2, 3)]
    return kernels


def test_contract_matches_reference_bits():
    # Every depth from 0 to the smaller order, dense and diagonal inputs mixed.
    kernels = _algebra_kernels(5, 93)
    for f, g in itertools.product(kernels, repeat=2):
        for ell in range(min(f.order, g.order) + 1):
            got, want = contract(f, g, ell).values, contract_reference(f, g, ell)
            assert got.shape == want.shape, (f.order, f.diagonal, g.order, g.diagonal, ell)
            assert got.tobytes() == want.tobytes(), (f.order, f.diagonal, g.order, g.diagonal, ell)


def test_contract_memory_is_its_output_and_inputs():
    # tensordot copies g with its contracted axes first; the result is scaled
    # in place, where a scaled copy would add a second output.
    rng = np.random.default_rng(94)
    g = make_grid(32)
    f, h = (step_kernel(g, 3, rng.uniform(-1.0, 1.0, (32,) * 3)) for _ in range(2))
    out_bytes = 32**4 * 8
    peak = _traced_peak(lambda: contract(f, h, 1))
    assert peak < out_bytes + f.values.nbytes + h.values.nbytes < 2 * out_bytes


def test_contract_outer_product_example():
    g = make_grid(2)
    f = step_kernel(g, 1, [1.0, 0.0])
    h = step_kernel(g, 1, [0.0, 1.0])
    out = contract(f, h, 0)
    assert out.order == 2
    assert np.array_equal(out.values, [[0.0, 1.0], [0.0, 0.0]])


def test_contract_full_depth_is_inner_product():
    g = make_grid(2)
    f = step_kernel(g, 1, [1.0, 0.0])
    out = contract(f, f, 1)
    assert out.order == 0
    assert float(out.values) == pytest.approx(0.5, rel=1e-15)  # delta * 1
    rng = np.random.default_rng(5)
    a = symmetrize(_random_kernel(rng, make_grid(3), 3))
    b = symmetrize(_random_kernel(rng, make_grid(3), 3))
    assert float(contract(a, b, 3).values) == pytest.approx(
        inner_product(a, b), rel=1e-13
    )


def test_contract_disjoint_support_is_zero():
    g = make_grid(4)
    f_vals = np.zeros((4, 4))
    f_vals[:2, :2] = 1.0
    g_vals = np.zeros((4, 4))
    g_vals[2:, 2:] = 1.0
    f = step_kernel(g, 2, f_vals)
    h = step_kernel(g, 2, g_vals)
    assert np.all(contract(f, h, 1).values == 0.0)


def test_contract_axis_convention():
    # (f ox_1 g)(s, t) = delta * sum_u f(s, u) g(t, u)
    g = make_grid(3)
    rng = np.random.default_rng(6)
    f = _random_kernel(rng, g, 2)
    h = _random_kernel(rng, g, 2)
    got = contract(f, h, 1).values
    want = g.delta * np.einsum("su,tu->st", f.values, h.values)
    assert np.max(np.abs(got - want)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(small_kernels(max_order=3), st.integers(0, 20_000))
def test_contract_is_bilinear(f, seed):
    rng = np.random.default_rng(seed)
    grid = f.grid
    h = step_kernel(grid, f.order, rng.uniform(-5, 5, f.values.shape))
    other = step_kernel(grid, 2, rng.uniform(-5, 5, (grid.m, grid.m)))
    ell = min(f.order, 2)
    a, b = 0.7, -1.3
    combined = contract(linear_combine(a, f, b, h), other, ell)
    split = a * contract(f, other, ell).values + b * contract(h, other, ell).values
    assert np.max(np.abs(combined.values - split)) <= 1e-12 * max(
        1.0, np.max(np.abs(split))
    )


def test_contract_validation():
    g = make_grid(3)
    f = step_kernel(g, 2, np.ones((3, 3)))
    h = step_kernel(g, 1, np.ones(3))
    with pytest.raises(ValueError):
        contract(f, h, 2)  # depth above min order
    with pytest.raises(ValueError):
        contract(f, h, -1)
    other = step_kernel(make_grid(4), 1, np.ones(4))
    with pytest.raises(ValueError):
        contract(f, other, 1)


def test_dense_storage_guard():
    g = make_grid(200)
    with pytest.raises(ValueError):
        # stride-0 view: the entry-count guard fires before values are read
        step_kernel(g, 4, np.broadcast_to(0.0, (200,) * 4))  # 1.6e9 entries
    # contract guard: output order would blow the entry limit
    g2 = make_grid(100)
    f = step_kernel(g2, 3, np.zeros((100,) * 3))
    with pytest.raises(ValueError):
        contract(f, f, 0)


# ---------------------------------------------------------------------------
# inner products and linear combinations


def test_inner_product_values():
    g = make_grid(2)
    f = step_kernel(g, 2, np.eye(2))
    assert inner_product(f, f) == pytest.approx(2 * g.delta**2, rel=1e-15)
    c = step_kernel(g, 0, 3.0)
    d = step_kernel(g, 0, -2.0)
    assert inner_product(c, d) == -6.0
    assert kernel_norm(f) == pytest.approx(np.sqrt(2) * g.delta, rel=1e-15)


def test_inner_product_validation():
    g = make_grid(2)
    f = step_kernel(g, 1, [1.0, 0.0])
    h = step_kernel(g, 2, np.eye(2))
    with pytest.raises(ValueError):
        inner_product(f, h)
    with pytest.raises(ValueError):
        linear_combine(1.0, f, 1.0, h)


def test_linear_combine():
    g = make_grid(2)
    f = step_kernel(g, 1, [1.0, 2.0])
    h = step_kernel(g, 1, [3.0, -1.0])
    out = linear_combine(2.0, f, -1.0, h)
    assert np.array_equal(out.values, [-1.0, 5.0])


def test_linear_combine_matches_reference_bits():
    # Orders 0 to 4 (order 4 at m = 20 spans 2.4 bands), both storages and mixed.
    for m in (5, 20):
        kernels = _algebra_kernels(m, 95 + m)
        others = _algebra_kernels(m, 96 + m)
        for f, g in itertools.product(kernels, others):
            if f.order != g.order:
                continue
            for a, b in ((0.7, -1.3), (1.0, 1.0), (-2.5, 0.0)):
                got = linear_combine(a, f, b, g)
                want = linear_combine_reference(a, f, b, g)
                assert got.diagonal is (f.diagonal and g.diagonal)
                assert got.values.shape == want.shape
                assert got.values.tobytes() == want.tobytes(), (m, f.order, f.diagonal, g.diagonal)


def test_linear_combine_memory_is_its_output_and_bands():
    rng = np.random.default_rng(97)
    g = make_grid(32)
    f, h = (step_kernel(g, 4, rng.uniform(-1.0, 1.0, (32,) * 4)) for _ in range(2))
    peak = _traced_peak(lambda: linear_combine(0.7, f, -1.3, h))
    assert peak < f.values.nbytes + 2 * _BAND_BYTES


def _random_expansion(m: int, order: int):
    # A dense symmetric single-order input with E[X^2] = 1, as the dense
    # algebra benchmark builds its inputs.
    rng = np.random.default_rng([m, order])
    grid = make_grid(m)
    raw = rng.standard_normal((m,) * order)
    sym = sum(np.transpose(raw, p) for p in itertools.permutations(range(order)))
    sym /= math.factorial(order)
    moment = math.factorial(order) * grid.delta**order * float(np.sum(sym * sym))
    slots = [None] * order + [step_kernel(grid, order, sym * math.sqrt(1.0 / moment))]
    return chaos_expansion(grid, slots)


@pytest.mark.parametrize("m,order", [(12, 4), (32, 3)])
def test_exact_summary_memory_is_within_its_largest_gamma_kernel(m, order):
    # The largest kernel formed is Gamma's, of order 2N - 2: the contraction
    # that makes it, its orbit sums (which become the symmetrized kernel) and
    # the orbit counts (1/8 or 1/4 of its size) are alive at once.  A scaled
    # copy of the contraction, int64 counts or a separate output array would
    # each add a kernel size.
    x = _random_expansion(m, order)
    largest = m ** (2 * order - 2) * 8
    assert _traced_peak(lambda: exact_summary(x, 1.0)) <= 2.6 * largest


def test_kernel_rejects_bad_input():
    g = make_grid(3)
    with pytest.raises(ValueError):
        step_kernel(g, 2, np.ones((3, 2)))
    with pytest.raises(ValueError):
        step_kernel(g, -1, 1.0)
    with pytest.raises(ValueError):
        step_kernel(g, 1, [np.nan, 0.0, 0.0])
    assert np.all(step_kernel(g, 2, np.zeros((3, 3))).values == 0.0)


def test_kernel_values_are_frozen():
    g = make_grid(2)
    f = step_kernel(g, 1, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_step_kernel_keeps_its_own_copy():
    # A write to the caller's array after construction never reaches the
    # kernel, which the caller's array does not share memory with.
    a = np.array([1.0, 2.0, 3.0])
    f = step_kernel(make_grid(3), 1, a)
    a[0] = 99.0
    assert f.values.tolist() == [1.0, 2.0, 3.0]
    assert a.flags.writeable and not np.shares_memory(a, f.values)
    # On order 2 the kernel stays symmetric, and the Gamma kept on its
    # expansion still matches the kernel.
    sym = np.eye(3)
    x = single_chaos(step_kernel(make_grid(3), 2, sym))
    gamma(x)
    sym[0, 1] = 5.0
    assert is_symmetric(x.kernels[2])
    assert gamma_residual(x, 1.0) == gamma_residual(single_chaos(x.kernels[2]), 1.0)
    diag = np.ones(3)
    d = step_kernel(make_grid(3), 2, diag, diagonal=True)
    diag[:] = 0.0
    assert d.values.tolist() == [1.0, 1.0, 1.0]


def test_raw_step_kernel_checks_itself():
    g = make_grid(3)
    for build in (StepKernel, step_kernel):
        with pytest.raises(ValueError, match="grid must be a Grid, got 4"):
            build(4, 0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        StepKernel(g, 1, np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        StepKernel(g, 2, np.ones((3, 2)))
    with pytest.raises(ValueError, match="shape"):
        StepKernel(g, 2, np.ones(4), True)
    # Order 171 is rejected by name before the 171-entry shape tuple is formed.
    with pytest.raises(ValueError, match=f"at most {MAX_ORDER}, got 171"):
        StepKernel(g, 171, np.ones(3), True)
    k = StepKernel(g, 1, [1, 2, 3])
    assert k.values.dtype == np.float64 and not k.values.flags.writeable
    assert k.values.tolist() == [1.0, 2.0, 3.0]
    # diagonal storage is dropped below order 2, as step_kernel drops it
    assert StepKernel(g, 1, np.ones(3), True).diagonal is False


def test_raw_step_kernel_freezes_the_array_it_keeps():
    # StepKernel keeps a float64 C-contiguous array as it is, so a write to
    # the caller's array raises instead of changing the kernel; step_kernel
    # copies and leaves the caller's array writable.
    a = np.array([1.0, 2.0, 3.0])
    kept = StepKernel(make_grid(3), 1, a)
    with pytest.raises(ValueError):
        a[0] = 99.0
    assert kept.values is a and kept.values.tolist() == [1.0, 2.0, 3.0]
    b = np.array([1.0, 2.0, 3.0])
    copied = step_kernel(make_grid(3), 1, b)
    b[0] = 99.0
    assert copied.values.tolist() == [1.0, 2.0, 3.0] and not np.shares_memory(b, copied.values)
    # A transposed array is not C-contiguous: the kernel keeps a C copy.
    t = np.arange(9.0).reshape(3, 3).T
    k = StepKernel(make_grid(3), 2, t)
    assert k.values.flags.c_contiguous and t.flags.writeable and np.array_equal(k.values, t)


@pytest.mark.parametrize("stored", ["diagonal", "values"])
def test_kernel_order_is_bounded_before_any_shape(stored):
    # 170! is the largest factorial that is a finite double: an order-10^6
    # body is rejected by name before its shape tuple or any factorial is formed.
    body = {"order": 10**6, "m": 2, stored: [1.0, 1.0]}
    message = f"kernel order must be at most {MAX_ORDER}, got {10**6}"
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel_from_dict(body)
    with pytest.raises(ValueError, match=re.escape(message)):
        step_kernel(make_grid(2), 10**6, [1.0, 1.0], diagonal=stored == "diagonal")
    top = kernel_from_dict({"order": MAX_ORDER, "m": 2, "diagonal": [1.0, 1.0]})
    assert math.isfinite(second_moment(single_chaos(top)))


# ---------------------------------------------------------------------------
# serialization


def test_kernel_round_trip():
    rng = np.random.default_rng(8)
    g = make_grid(3)
    k = symmetrize(_random_kernel(rng, g, 3))
    back = kernel_from_dict(kernel_to_dict(k))
    assert back.order == k.order
    assert back.grid == k.grid
    assert np.array_equal(back.values, k.values)


def test_kernel_load_rejects_asymmetric():
    # A loaded kernel is checked for symmetry, from a dict or from JSON text.
    k = step_kernel(make_grid(2), 2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        kernel_from_dict(kernel_to_dict(k))
    with pytest.raises(ValueError, match="not symmetric"):
        kernel_from_dict(json.loads(json.dumps(kernel_to_dict(k))))


def test_kernel_json_text_round_trip():
    rng = np.random.default_rng(9)
    for order in (0, 1, 3):
        k = symmetrize(_random_kernel(rng, make_grid(4), order))
        back = kernel_from_dict(json.loads(json.dumps(kernel_to_dict(k))))
        assert back.order == k.order
        assert back.grid == k.grid
        assert np.array_equal(back.values, k.values)


_KERNEL_BODY = {"order": 1, "m": 2, "values": [0.5, 1.5]}


@pytest.mark.parametrize(
    "body,message",
    [
        ([], "kernel must be a JSON object, got list"),
        (None, "kernel must be a JSON object, got NoneType"),
        ({"m": 2, "values": [0.5, 1.5]}, "kernel is missing key 'order'"),
        ({"order": 1, "values": [0.5, 1.5]}, "kernel is missing key 'm'"),
        ({"order": 1, "m": 2}, "exactly one of the keys 'values' and 'diagonal', got []"),
        (
            {**_KERNEL_BODY, "diagonal": [0.5, 1.5]},
            "exactly one of the keys 'values' and 'diagonal', got ['values', 'diagonal']",
        ),
    ],
    ids=["list", "null", "no_order", "no_m", "no_values", "values_and_diagonal"],
)
def test_kernel_from_dict_rejects_malformed_bodies(body, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        kernel_from_dict(body)
    assert np.array_equal(kernel_from_dict(_KERNEL_BODY).values, [0.5, 1.5])
