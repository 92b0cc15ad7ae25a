from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import (
    ChaosExpansion,
    IncrementStream,
    add,
    chaos_expansion,
    constant,
    contract,
    cross_gamma,
    diagonal_second_chaos,
    diagonal_summands,
    evaluate_batch,
    evaluate_samples,
    exact_summary,
    expansion_from_dict,
    expansion_to_dict,
    fourth_cumulant,
    gamma,
    gamma_residual,
    inner_product,
    load_expansion,
    make_grid,
    multiply,
    sample_increments_block,
    save_expansion,
    scale,
    second_moment,
    single_chaos,
    step_kernel,
    symmetrize,
    variance,
)
from chaoskit import chaos as chaos_module
from chaoskit import grid as grid_module
from chaoskit import kernels as kernels_module
from chaoskit.kernels import dense
from chaoskit.grid import BLOCK_SIZE
from chaoskit.harness import EXACT_IDENTITY_RTOL
from oracles import (
    _build_plan,
    batch_fourth_cumulant_se,
    batch_mean_se,
    evaluate_batch_reference,
    evaluate_batch_terms_reference,
    evaluate_samples_reference,
    fourth_cumulant_reference,
)


def _dense(x):
    """x with every kernel in dense storage, the one storage the oracles read."""
    return ChaosExpansion(x.grid, tuple(None if k is None else dense(k) for k in x.kernels))


def _dense_all(exps):
    return [_dense(e) for e in exps]


def _sym_kernel(rng, grid, order, scale_=1.0):
    vals = rng.uniform(-1.0, 1.0, (grid.m,) * order) * scale_
    return symmetrize(step_kernel(grid, order, vals))


def _random_expansion(rng, grid, orders):
    slots = [None] * (max(orders) + 1)
    for n in orders:
        slots[n] = _sym_kernel(rng, grid, n)
    return chaos_expansion(grid, slots)


# ---------------------------------------------------------------------------
# construction


def test_expansion_accessors():
    g = make_grid(3)
    x = single_chaos(step_kernel(g, 2, np.eye(3)))
    assert x.max_order == 2
    assert x.expectation == 0.0
    assert x.nonzero_orders() == [2]
    assert x.kernel(5) is None


def test_expansion_drops_zero_kernels():
    g = make_grid(2)
    x = chaos_expansion(g, [None, step_kernel(g, 1, [0.0, 0.0])])
    assert x.nonzero_orders() == []
    assert x.max_order == 0


def test_expansion_validates_symmetry_and_slots():
    g = make_grid(2)
    asym = step_kernel(g, 2, [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        chaos_expansion(g, [None, None, asym])
    with pytest.raises(ValueError):
        chaos_expansion(g, [step_kernel(g, 1, [1.0, 0.0])])  # order 1 at slot 0
    with pytest.raises(ValueError):
        chaos_expansion(g, [None, step_kernel(make_grid(3), 1, np.ones(3))])


def test_linear_ops():
    g = make_grid(2)
    x = single_chaos(step_kernel(g, 1, [1.0, 2.0]))
    y = single_chaos(step_kernel(g, 1, [0.5, -2.0]))
    s = add(x, y)
    assert np.array_equal(s.kernels[1].values, [1.5, 0.0])
    doubled = scale(2.0, x)
    assert np.array_equal(doubled.kernels[1].values, [2.0, 4.0])
    c = constant(g, 3.0)
    assert c.expectation == 3.0
    assert add(x, c).expectation == 3.0


# ---------------------------------------------------------------------------
# evaluation


def _one_path(grid, stream, index):
    """The increment vector of one sample index."""
    return sample_increments_block(grid, stream, index, 1)[0]


def _value_at(x, row):
    """x at one increment vector, as a one-row batch."""
    return float(evaluate_batch(x, row[None])[0])


def test_evaluate_first_order_is_linear_form():
    g = make_grid(4)
    x = single_chaos(step_kernel(g, 1, np.ones(4)))
    xi = _one_path(g, IncrementStream(seed=1), 0)
    assert _value_at(x, xi) == pytest.approx(xi.sum(), rel=1e-14)


def test_evaluate_second_order_diagonal():
    # I_2(e_j x e_j) = xi_j^2 - delta
    g = make_grid(4)
    vals = np.zeros((4, 4))
    vals[1, 1] = 1.0
    x = single_chaos(step_kernel(g, 2, vals))
    xi = _one_path(g, IncrementStream(seed=2), 5)
    want = xi[1] ** 2 - g.delta
    assert _value_at(x, xi) == pytest.approx(want, rel=1e-13)


def test_evaluate_second_order_off_diagonal():
    # I_2(e_i x e_j + e_j x e_i) = 2 xi_i xi_j
    g = make_grid(4)
    vals = np.zeros((4, 4))
    vals[0, 2] = vals[2, 0] = 1.0
    x = single_chaos(step_kernel(g, 2, vals))
    xi = _one_path(g, IncrementStream(seed=3), 0)
    want = 2.0 * xi[0] * xi[2]
    assert _value_at(x, xi) == pytest.approx(want, rel=1e-13)


def test_evaluate_third_order_mixed_multiplicity():
    # kernel symmetric over the multiset {i, i, j}: coefficient 3, value
    # 3 f(iij) delta^{3/2} H_2(z_i) H_1(z_j)
    g = make_grid(3)
    vals = np.zeros((3, 3, 3))
    for pos in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        vals[pos] = 1.0
    x = single_chaos(step_kernel(g, 3, vals))
    xi = _one_path(g, IncrementStream(seed=4), 0)
    z = xi / math.sqrt(g.delta)
    want = 3.0 * g.delta**1.5 * (z[0] ** 2 - 1.0) * z[1]
    assert _value_at(x, xi) == pytest.approx(want, rel=1e-13)


def test_evaluate_constants_and_zero():
    g = make_grid(3)
    xi = _one_path(g, IncrementStream(seed=5), 0)
    assert _value_at(constant(g, 2.5), xi) == 2.5
    assert _value_at(constant(g, 0.0), xi) == 0.0


def test_evaluate_batch_validates_shape():
    g = make_grid(3)
    x = constant(g, 1.0)
    with pytest.raises(ValueError):
        evaluate_batch(x, np.zeros((5, 4)))
    with pytest.raises(ValueError):
        evaluate_batch(x, np.zeros(3))  # one increment vector is a (1, m) batch


def test_second_order_diagonal_moments_mc():
    # brute-force oracle: sample increments directly, E = 0 and E^2 = 2 delta^2
    g = make_grid(4)
    vals = np.zeros((4, 4))
    vals[2, 2] = 1.0
    x = single_chaos(step_kernel(g, 2, vals))
    xi = sample_increments_block(g, IncrementStream(seed=6), 0, 400_000)
    direct = xi[:, 2] ** 2 - g.delta
    through_eval = evaluate_batch(x, xi)
    assert np.max(np.abs(direct - through_eval)) <= 1e-14
    mean, se_m = batch_mean_se(direct)
    assert abs(mean) <= 3 * se_m
    sq_mean, se_s = batch_mean_se(direct**2)
    assert abs(sq_mean - 2 * g.delta**2) <= 3 * se_s
    assert second_moment(x) == pytest.approx(2 * g.delta**2, rel=1e-14)


def test_isometry_mc_small():
    rng = np.random.default_rng(11)
    g = make_grid(6)
    f = _sym_kernel(rng, g, 2)
    h = _sym_kernel(rng, g, 2)
    k3 = _sym_kernel(rng, g, 3)
    x, y, w = single_chaos(f), single_chaos(h), single_chaos(k3)
    xs, ys, ws = evaluate_samples([x, y, w], 150_000, IncrementStream(seed=12))
    mean, se = batch_mean_se(xs * ys)
    assert abs(mean - 2 * inner_product(f, h)) <= 3 * se
    mean0, se0 = batch_mean_se(xs * ws)  # cross order
    assert abs(mean0) <= 3 * se0


# ---------------------------------------------------------------------------
# products


def test_multiply_by_constant_is_identity():
    rng = np.random.default_rng(13)
    g = make_grid(4)
    x = _random_expansion(rng, g, [1, 2, 3])
    p = multiply(x, constant(g, 1.0))
    assert p.nonzero_orders() == x.nonzero_orders()
    for n in x.nonzero_orders():
        assert np.max(np.abs(p.kernels[n].values - x.kernels[n].values)) <= 1e-15


def test_multiply_first_order_structure():
    # I_1(f) I_1(g) = I_2(sym(f x g)) + <f, g>
    rng = np.random.default_rng(14)
    g = make_grid(4)
    f = step_kernel(g, 1, rng.uniform(-1, 1, 4))
    h = step_kernel(g, 1, rng.uniform(-1, 1, 4))
    p = multiply(single_chaos(f), single_chaos(h))
    want2 = symmetrize(step_kernel(g, 2, np.multiply.outer(f.values, h.values)))
    assert p.expectation == pytest.approx(inner_product(f, h), rel=1e-14)
    assert np.max(np.abs(p.kernels[2].values - want2.values)) <= 1e-15


def test_multiply_matches_pathwise_product():
    rng = np.random.default_rng(15)
    g = make_grid(6)
    x = _random_expansion(rng, g, [1, 2])
    y = _random_expansion(rng, g, [1, 3])
    p = multiply(x, y)
    xi = sample_increments_block(g, IncrementStream(seed=16), 0, 500)
    xv, yv, pv = (evaluate_batch(e, xi) for e in (x, y, p))
    assert np.max(np.abs(pv - xv * yv) / (1.0 + np.abs(xv * yv))) <= 1e-9


def test_multiply_order_guard():
    g = make_grid(2)
    rng = np.random.default_rng(17)
    x = single_chaos(_sym_kernel(rng, g, 4))
    y = single_chaos(_sym_kernel(rng, g, 5))
    with pytest.raises(ValueError):
        multiply(x, y)  # output order 9 > 8
    assert multiply(x, x).max_order == 8  # order 8 is still allowed


def test_multiply_grid_mismatch():
    x = constant(make_grid(2), 1.0)
    y = constant(make_grid(3), 1.0)
    with pytest.raises(ValueError):
        multiply(x, y)


# ---------------------------------------------------------------------------
# moments


def test_second_moment_closed_forms():
    g = make_grid(4)
    rng = np.random.default_rng(18)
    f = _sym_kernel(rng, g, 2)
    x = single_chaos(f)
    assert second_moment(x) == pytest.approx(2 * inner_product(f, f), rel=1e-14)
    assert second_moment(constant(g, 3.0)) == 9.0
    shifted = add(x, constant(g, 2.0))
    assert variance(shifted) == pytest.approx(second_moment(x), rel=1e-14)
    mixed = _random_expansion(rng, g, [1, 2, 3])
    want = sum(
        math.factorial(n) * inner_product(mixed.kernels[n], mixed.kernels[n])
        for n in (1, 2, 3)
    )
    assert second_moment(mixed) == pytest.approx(want, rel=1e-14)


def test_fourth_cumulant_gaussian_is_zero():
    g = make_grid(4)
    x = single_chaos(step_kernel(g, 1, [1.0, -0.5, 0.25, 2.0]))
    assert fourth_cumulant(x) == 0.0


def test_fourth_cumulant_rejects_nonzero_mean():
    g = make_grid(2)
    with pytest.raises(ValueError):
        fourth_cumulant(constant(g, 1.0))


@pytest.mark.parametrize("order,m", [(2, 4), (3, 4), (2, 6)])
def test_fourth_cumulant_paths_agree(order, m):
    # iterated-Gamma route vs E[X^4] - 3 E[X^2]^2 through the product formula
    rng = np.random.default_rng(order * 100 + m)
    g = make_grid(m)
    x = single_chaos(_sym_kernel(rng, g, order))
    via_contraction = fourth_cumulant(x)
    squared = multiply(x, x)
    via_product = second_moment(squared) - 3.0 * second_moment(x) ** 2
    assert via_contraction == pytest.approx(via_product, rel=1e-10)


def test_fourth_cumulant_mixed_orders_mc():
    rng = np.random.default_rng(19)
    g = make_grid(4)
    x = _random_expansion(rng, g, [1, 2])
    exact = fourth_cumulant(x)
    vals = evaluate_samples([x], 600_000, IncrementStream(seed=20))[0]
    est, se = batch_fourth_cumulant_se(vals)
    assert abs(est - exact) <= 3 * se, (est, exact, se)


def test_fourth_cumulant_additive_for_disjoint_single_chaos():
    g = make_grid(6)
    rng = np.random.default_rng(21)
    left = np.zeros((6, 6))
    left[:3, :3] = rng.uniform(-1, 1, (3, 3))
    right = np.zeros((6, 6))
    right[3:, 3:] = rng.uniform(-1, 1, (3, 3))
    x = single_chaos(symmetrize(step_kernel(g, 2, left)))
    y = single_chaos(symmetrize(step_kernel(g, 2, right)))
    total = fourth_cumulant(add(x, y))
    parts = fourth_cumulant(x) + fourth_cumulant(y)
    assert abs(total - parts) <= 1e-10 * max(1.0, abs(parts))


# The iterated-Gamma route and the earlier contraction-norm / product route
# sum the same quantity in different orders, so they agree to rounding.
ROUTE_RTOL = 1e-12


@pytest.mark.parametrize(
    "orders,m",
    [((1, 2), 16), ((2, 3), 8), ((1, 2, 3), 8), ((1, 3), 10), ((2,), 16), ((3,), 16)],
)
def test_fourth_cumulant_matches_reference_route(orders, m):
    rng = np.random.default_rng([23, m, *orders])
    x = _random_expansion(rng, make_grid(m), list(orders))
    got, want = fourth_cumulant(x), fourth_cumulant_reference(x)
    assert abs(got - want) <= ROUTE_RTOL * abs(want), (got, want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.sets(st.sampled_from((1, 2, 3)), min_size=1),
    st.integers(0, 2**32 - 1),
)
def test_fourth_cumulant_matches_reference_route_property(m, orders, seed):
    x = _random_expansion(np.random.default_rng(seed), make_grid(m), sorted(orders))
    got, want = fourth_cumulant(x), fourth_cumulant_reference(x)
    # The product route forms k4 as E[X^4] - 3 E[X^2]^2, so its rounding
    # scales with E[X^2]^2 even where k4 nearly cancels.
    assert abs(got - want) <= ROUTE_RTOL * max(abs(want), second_moment(x) ** 2), (got, want)


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_fourth_cumulant_reference_bits_on_decouple_couples(n):
    x, y = diagonal_summands(n, (0.5, 0.5))
    for e in (x, y, add(x, y)):
        assert fourth_cumulant(e) == fourth_cumulant_reference(e)


@pytest.mark.parametrize("orders,m", [((1, 2), 128), ((2, 3), 24)])
def test_fourth_cumulant_beyond_product_route_limit(orders, m):
    # Each order lives on its own half of the grid, so the parts are
    # independent and k4 is additive.  Squaring through `multiply` would form
    # an order-2N kernel above the dense-storage limit.
    rng = np.random.default_rng([29, m])
    g = make_grid(m)
    half = m // 2
    parts = []
    for i, n in enumerate(orders):
        vals = np.zeros((m,) * n)
        vals[(slice(i * half, (i + 1) * half),) * n] = rng.uniform(-1.0, 1.0, (half,) * n)
        parts.append(single_chaos(symmetrize(step_kernel(g, n, vals))))
    x = add(parts[0], parts[1])
    top = x.kernels[x.max_order]
    with pytest.raises(ValueError, match="dense-storage"):
        contract(top, top, 0)  # the order-2N term of multiply(x, x)
    total = fourth_cumulant(x)
    split = fourth_cumulant(parts[0]) + fourth_cumulant(parts[1])
    assert split > 0.0
    assert abs(total - split) <= EXACT_IDENTITY_RTOL * abs(split), (total, split)


# ---------------------------------------------------------------------------
# Gamma functionals


def test_gamma_of_first_chaos_is_constant():
    g = make_grid(4)
    f = step_kernel(g, 1, [1.0, 0.5, -0.25, 2.0])
    gx = gamma(single_chaos(f))
    assert gx.nonzero_orders() == [0]
    assert gx.expectation == pytest.approx(inner_product(f, f), rel=1e-14)


def test_gamma_of_second_chaos_structure():
    # Gamma(I_2(f)) = 2 I_2(sym(f ox_1 f)) + 2 <f, f>
    rng = np.random.default_rng(22)
    g = make_grid(4)
    f = _sym_kernel(rng, g, 2)
    gx = gamma(single_chaos(f))
    assert gx.expectation == pytest.approx(2 * inner_product(f, f), rel=1e-14)
    from chaoskit import contract

    want = 2.0 * symmetrize(contract(f, f, 1)).values
    assert np.max(np.abs(gx.kernels[2].values - want)) <= 1e-14


def test_gamma_expectation_equals_second_moment():
    rng = np.random.default_rng(23)
    g = make_grid(5)
    for orders in ([1], [2], [1, 2], [1, 2, 3], [3]):
        x = _random_expansion(rng, g, orders)
        assert gamma(x).expectation == pytest.approx(second_moment(x), rel=1e-12)


def test_gamma_bilinear_decomposition():
    rng = np.random.default_rng(24)
    g = make_grid(4)
    x = _random_expansion(rng, g, [1, 2])
    y = _random_expansion(rng, g, [2, 3])
    whole = gamma(add(x, y))
    parts = add(
        add(gamma(x), gamma(y)), add(cross_gamma(x, y), cross_gamma(y, x))
    )
    assert whole.nonzero_orders() == parts.nonzero_orders()
    for n in whole.nonzero_orders():
        diff = np.max(np.abs(whole.kernels[n].values - parts.kernels[n].values))
        assert diff <= 1e-10, (n, diff)


def test_cross_gamma_of_disjoint_supports_is_zero():
    g = make_grid(4)
    rng = np.random.default_rng(25)
    lv = np.zeros((4, 4))
    lv[:2, :2] = rng.uniform(-1, 1, (2, 2))
    rv = np.zeros((4, 4))
    rv[2:, 2:] = rng.uniform(-1, 1, (2, 2))
    x = single_chaos(symmetrize(step_kernel(g, 2, lv)))
    y = single_chaos(symmetrize(step_kernel(g, 2, rv)))
    cg = cross_gamma(x, y)
    assert cg.nonzero_orders() == []


def test_cross_gamma_requires_centered():
    g = make_grid(2)
    x = add(single_chaos(step_kernel(g, 1, [1.0, 0.0])), constant(g, 1.0))
    y = single_chaos(step_kernel(g, 1, [0.0, 1.0]))
    with pytest.raises(ValueError):
        cross_gamma(x, y)
    with pytest.raises(ValueError):
        gamma(x)


def test_gamma_mc_consistency():
    # pathwise Gamma evaluation has the same mean as E[X^2]
    rng = np.random.default_rng(26)
    g = make_grid(4)
    x = _random_expansion(rng, g, [2])
    gx = gamma(x)
    g_vals = evaluate_samples([gx], 200_000, IncrementStream(seed=27))[0]
    mean, se = batch_mean_se(g_vals)
    assert abs(mean - second_moment(x)) <= 3 * se


def test_gamma_residual_closed_form():
    x, _ = diagonal_summands(8, (0.5, 0.5))
    assert gamma_residual(x, 0.5) == pytest.approx(2 * 0.25 / 8, rel=1e-12)


@pytest.mark.parametrize("orders", [(2,), (1, 2), (1, 2, 3)])
def test_exact_summary_matches_the_separate_routes(orders):
    rng = np.random.default_rng([31, *orders])
    x = _random_expansion(rng, make_grid(6), list(orders))
    c = 0.75
    summary = exact_summary(x, c)
    assert summary.var == second_moment(x)
    assert summary.k4 == fourth_cumulant(x)
    assert summary.residual == gamma_residual(x, c)
    assert summary.bound == math.sqrt(abs(fourth_cumulant(x))) / second_moment(x)
    want = gamma(x)
    assert len(summary.gamma.kernels) == len(want.kernels)
    for got_k, want_k in zip(summary.gamma.kernels, want.kernels):
        assert (got_k is None) == (want_k is None)
        if got_k is not None:
            assert np.array_equal(got_k.values, want_k.values)
    with pytest.raises(ValueError, match="centered"):
        exact_summary(add(x, constant(x.grid, 1.0)), c)


def test_fourth_moment_bound_family():
    for n in (4, 16, 64):
        x, _ = diagonal_summands(n, (1.0, 1.0))
        assert exact_summary(x, 1.0).bound == pytest.approx(math.sqrt(12.0 / n), rel=1e-10)


def test_fourth_moment_bound_first_chaos_is_zero():
    g = make_grid(4)
    x = single_chaos(step_kernel(g, 1, [1.0, 0.0, -2.0, 0.5]))
    assert exact_summary(x, 1.0).bound == 0.0


def test_fourth_moment_bound_validation():
    g = make_grid(4)
    k1 = step_kernel(g, 1, np.random.default_rng(43).uniform(-1, 1, 4))
    with pytest.raises(ValueError, match="variance"):
        exact_summary(constant(g, 0.0), 1.0).bound
    with pytest.raises(ValueError, match="centered"):
        exact_summary(add(single_chaos(k1), constant(g, 1.0)), 1.0)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_bound_rejects_a_zero_expansion_of_any_order(order):
    # A zero kernel leaves no chaos, so the variance is zero at every order.
    g = make_grid(3)
    x = single_chaos(step_kernel(g, order, np.zeros((3,) * order)))
    assert x.nonzero_orders() == [] and second_moment(x) == 0.0
    with pytest.raises(ValueError, match="nonzero variance"):
        exact_summary(x, 1.0).bound


def _same_bits(got, want) -> bool:
    return len(got.kernels) == len(want.kernels) and all(
        (a is None and b is None)
        or (a is not None and b is not None and a.diagonal == b.diagonal and np.array_equal(a.values, b.values))
        for a, b in zip(got.kernels, want.kernels)
    )


def test_each_exact_functional_reads_one_gamma_build(monkeypatch):
    x = _random_expansion(np.random.default_rng(60), make_grid(6), [3])
    builds = []
    cross_gamma_ = chaos_module._cross_gamma

    def counting(a, b, *args, **kwargs):
        builds.append(a is x and b is x)
        return cross_gamma_(a, b, *args, **kwargs)

    monkeypatch.setattr(chaos_module, "_cross_gamma", counting)
    fourth_cumulant(x)
    gamma_residual(x, 0.5)
    summary = exact_summary(x, 0.5)
    exact_summary(x, 0.0).bound
    g1 = gamma(x)
    assert builds.count(True) == 1
    assert gamma(x) is g1 and summary.gamma is g1


def test_gamma_from_two_threads_has_the_bits_of_one_build():
    x = _random_expansion(np.random.default_rng(61), make_grid(8), [1, 2, 3])
    want = gamma(chaos_expansion(x.grid, x.kernels))
    got = grid_module.run_tasks(2, [lambda: gamma(x), lambda: gamma(x)])
    assert all(_same_bits(g, want) for g in got)
    assert _same_bits(gamma(x), want)


@pytest.mark.parametrize("orders", [(2,), (1, 2, 3)])
def test_the_kept_gamma_is_invisible(orders):
    x = _random_expansion(np.random.default_rng([62, *orders]), make_grid(6), list(orders))
    c = 0.75
    g1 = gamma(x)
    fresh = chaos_expansion(x.grid, x.kernels)
    assert x == fresh
    assert repr(x) == repr(fresh) and "_gamma" not in repr(x)
    assert expansion_to_dict(x) == expansion_to_dict(fresh)
    assert fourth_cumulant(x).hex() == fourth_cumulant(fresh).hex()
    assert gamma_residual(x, c).hex() == gamma_residual(fresh, c).hex()
    kept, new = exact_summary(x, c), exact_summary(fresh, c)
    assert [kept.var.hex(), kept.k4.hex(), kept.residual.hex()] == [
        new.var.hex(), new.k4.hex(), new.residual.hex()
    ]
    assert kept.gamma is g1 and _same_bits(kept.gamma, new.gamma)


def test_k4_and_residual_after_gamma_stay_below_one_gamma_kernel():
    # A dense order-3 x at m = 32 has an order-4 Gamma_1 of m^4 entries
    # (8.4 MB).  Once gamma(x) is kept, fourth_cumulant and gamma_residual
    # build no Gamma_1 of their own, and the residual copies none.
    m = 32
    x = _random_expansion(np.random.default_rng(63), make_grid(m), [3])
    c = second_moment(x)
    gamma(x)
    peak = _traced_peak(lambda: (fourth_cumulant(x), gamma_residual(x, c)))
    assert peak < m**4 * 8


# ---------------------------------------------------------------------------
# shared-sample evaluation


def test_evaluate_samples_worker_count_is_invisible():
    rng = np.random.default_rng(28)
    g = make_grid(4)
    x = _random_expansion(rng, g, [1, 2])
    serial = evaluate_samples([x], 20_000, IncrementStream(seed=29), workers=1)[0]
    threaded = evaluate_samples([x], 20_000, IncrementStream(seed=29), workers=4)[0]
    assert np.array_equal(serial, threaded)


def test_evaluate_samples_workspaces_are_per_thread(monkeypatch):
    # Four threads, switching every microsecond, walk six blocks in 100-row
    # chunks: a workspace shared between threads would mix their chunk tables
    # and products.
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 100 * 8)
    exps = _diagonal_gaps()
    serial = evaluate_samples(exps, 6 * BLOCK_SIZE, IncrementStream(seed=54))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = evaluate_samples(exps, 6 * BLOCK_SIZE, IncrementStream(seed=54), workers=4)
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want)


def _half_support_couple(n):
    x, y = diagonal_summands(n, (0.5, 0.5))
    return [x, y, gamma(x), gamma(y)]


def _dense_with_gamma(m, orders, seed):
    x = _random_expansion(np.random.default_rng(seed), make_grid(m), orders)
    return [x, gamma(x)]


def _sparse_with_gamma(m, orders, seed):
    # Exactly symmetric kernels with about half their cell multisets zero:
    # every entry takes the value drawn at its sorted index tuple.
    rng = np.random.default_rng(seed)
    grid = make_grid(m)
    slots = [None] * (max(orders) + 1)
    for n in orders:
        shape = (m,) * n
        draws = rng.uniform(-1.0, 1.0, shape) * (rng.uniform(size=shape) < 0.5)
        slots[n] = step_kernel(grid, n, draws[tuple(np.sort(np.indices(shape), axis=0))])
    x = chaos_expansion(grid, slots)
    return [x, gamma(x)]


def _diagonal_gaps():
    # x sits on cells {0, 2, 5, 6}; the sum reads all eight cells at degree 2,
    # so x's and G_X's terms are at non-contiguous Hermite columns, while the
    # sum's are one contiguous run.
    grid = make_grid(8)
    x = diagonal_second_chaos(grid, [0, 2, 5, 6], 0.7)
    return [x, gamma(x), add(x, diagonal_second_chaos(grid, [1, 3, 4, 7], 0.3))]


def _diagonal_split_run():
    # y's 1060 terms, on cells 40 to 1099, form a one-factor group wider than
    # the earlier 1024-term slab: the evaluator sums it in one pass along each
    # row, where the term reference sums it in two slabs.
    grid = make_grid(1100)
    y = diagonal_second_chaos(grid, range(40, 1100), 0.7)
    return [diagonal_second_chaos(grid, range(40), 0.3), y, gamma(y)]


def _first_and_diagonal():
    # Degrees 1 and 2 both read all eight columns, so H_1 is the chunk table
    # itself and H_2 must not be written over it.
    grid = make_grid(8)
    rng = np.random.default_rng(49)
    linear = single_chaos(step_kernel(grid, 1, rng.uniform(0.5, 1.5, 8)))
    return [add(linear, diagonal_second_chaos(grid, range(8), 0.6))]


# Each case is a list of expansions on one grid.  The dense (1, 2, 3) case has
# multi-cell groups up to order 4 in its Gamma; the dense order-2 case at
# m = 64 has a (1, 1) group of 2016 terms, and the dense order-3 case at m = 24
# a (1, 1, 1) group of 2024 terms, more than one 1024-term slab.  The sparse
# case has orders 1-4 with half the multisets zero and a Gamma up to order 6.
# The diagonal cases cover single-factor groups on consecutive cells and on
# cells with gaps, and one group wider than 1024 terms.  In the
# first-and-diagonal case degrees 1 and 2 read the same full column set.
_REFERENCE_CASES = {
    "half_support_n4": lambda: _half_support_couple(4),
    "half_support_n256": lambda: _half_support_couple(256),
    "dense_123_m8": lambda: _dense_with_gamma(8, [1, 2, 3], seed=41),
    "dense_2_m64": lambda: [_random_expansion(np.random.default_rng(42), make_grid(64), [2])],
    "dense_3_m24": lambda: [_random_expansion(np.random.default_rng(45), make_grid(24), [3])],
    "sparse_1234_m6": lambda: _sparse_with_gamma(6, [1, 2, 3, 4], seed=48),
    "diagonal_gaps_m8": _diagonal_gaps,
    "diagonal_split_run_m1100": _diagonal_split_run,
    "first_and_diagonal_m8": _first_and_diagonal,
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_samples_matches_reference_bits(case, workers):
    exps = _REFERENCE_CASES[case]()
    # 5000 paths leave a tail block after the first 4096
    want = evaluate_samples_reference(_dense_all(exps), 5000, IncrementStream(seed=43, stream_id=3))
    got = evaluate_samples(exps, 5000, IncrementStream(seed=43, stream_id=3), workers=workers)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_samples_chunk_seams_match_reference_bits(case, workers, monkeypatch):
    exps = _REFERENCE_CASES[case]()
    m = exps[0].grid.m
    # 300 rows a chunk: of 5000 paths, the 4096-path block is 13 chunks and
    # the 904-path tail 4, each ending in a ragged chunk
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 300 * m + m // 2)
    want = evaluate_samples_reference(_dense_all(exps), 5000, IncrementStream(seed=43, stream_id=3))
    got = evaluate_samples(exps, 5000, IncrementStream(seed=43, stream_id=3), workers=workers)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_evaluate_samples_draws_only_through_standard_normal_block(monkeypatch):
    # The benchmark's tracer counts normals at this method and reads the
    # block cache's statistics.
    sizes = []
    original = IncrementStream.standard_normal_block

    def counting(self, n_vars, start, count, out=None):
        out = original(self, n_vars, start, count, out=out)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(IncrementStream, "standard_normal_block", counting)
    grid_module._raw_block.cache_clear()
    exps = _half_support_couple(256)
    evaluate_samples(exps, 5000, IncrementStream(seed=46), workers=2)
    assert sum(sizes) == 5000 * 512
    assert len(sizes) == 5  # 1024-row chunks: four in the first block, one in the tail
    info = grid_module._raw_block.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (0, 0, 1)


def test_evaluate_samples_products_are_bounded_in_rows():
    # One block of 4096 paths at m = 64 is one chunk, and the (1, 1) groups
    # have 2016 terms: a product of even 1024 of them would be 32 MiB over
    # the chunk's rows.  Taking one prefix's run of at most 63 terms at a
    # time, the evaluation holds a few chunk-sized arrays and the bits do
    # not move.
    exps = _dense_with_gamma(64, [1, 2], seed=50)
    want = evaluate_samples_reference(_dense_all(exps), BLOCK_SIZE, IncrementStream(seed=51))
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    tracemalloc.start()
    try:
        got = evaluate_samples(exps, BLOCK_SIZE, IncrementStream(seed=51))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * chunk_bytes < BLOCK_SIZE * 1024 * 8
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("chunk_entries", [None, 20])
def test_kernel_terms_match_reference_plan(chunk_entries, monkeypatch):
    # Random symmetric kernels of orders 1-3 with about half their cell
    # multisets zero, and a diagonal kernel.  With 20 entries a chunk, the
    # nonzero entries of the m = 9 kernels are listed a few first-axis slices
    # at a time, the last slice ragged.
    if chunk_entries is not None:
        monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", chunk_entries)
    x = _sparse_with_gamma(9, [1, 2, 3], seed=52)[0]
    kernels = [x.kernel(n) for n in (1, 2, 3)]
    kernels.append(diagonal_second_chaos(make_grid(9), [0, 3, 4, 8], 0.6).kernel(2))
    for kernel in kernels:
        _assert_terms_match_plan(chaos_module._kernel_terms(kernel), kernel)


def _assert_terms_match_plan(got, kernel):
    want = _build_plan(dense(kernel))
    assert [mults for mults, _, _ in got] == [group.mults for group in want]
    for (_, cells, coeffs), group in zip(got, want):
        assert np.array_equal(cells, group.cells)
        assert np.array_equal(coeffs, group.coeffs)


def test_multi_factor_groups_over_first_axis_slices_match_reference_bits(monkeypatch):
    # With 20 entries a chunk, the m = 9 kernels list their terms one
    # first-axis slice at a time, run_chunks walks 2 rows a chunk, and the
    # multi-factor groups, whose longest runs hold 4 to 8 terms, sum their
    # prefixes over chunks of 2 paths.
    exps = _sparse_with_gamma(9, [1, 2, 3], seed=52)
    want = evaluate_samples_reference(_dense_all(exps), 300, IncrementStream(seed=57))
    monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", 20)
    _, groups = chaos_module._compile(exps)
    for mults, runs, width in (g for exp_groups in groups for g in exp_groups if len(g[0]) > 1):
        # Each prefix is one run of terms, its distinct leading cells in order,
        # its last cells ascending and past its own.
        leads = [lead for lead, _, _ in runs]
        assert all(len(lead) == len(mults) - 1 for lead in leads)
        assert leads == sorted(set(leads))
        for lead, cells, coeff in runs:
            assert coeff.shape == (cells.size, 1) and 0 < cells.size <= width
            assert np.all(np.diff(cells) > 0) and cells[0] > lead[-1]
        assert width == max(coeff.shape[0] for _, _, coeff in runs)
    got = evaluate_samples(exps, 300, IncrementStream(seed=57))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_kernel_terms_build_no_dense_mask():
    # A diagonal kernel at m = 4096 has 4096 terms among 2^24 entries; a
    # boolean mask over the entries alone would be 16 MiB.
    kernel = diagonal_second_chaos(make_grid(4096), range(4096), 1.0).kernel(2)
    tracemalloc.start()
    try:
        chaos_module._kernel_terms(kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_samples_memory_is_bounded_in_m():
    # One block of 4096 paths at m = 4096 is 128 MiB of increments.  The
    # traced peak covers the whole call: the chunk walk holds one chunk table,
    # whose H_2 rows overwrite it, and one product buffer, and the plan's
    # compile pass builds no m x m mask.
    exps = diagonal_summands(2048, (0.5, 0.5))
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    peak = _traced_peak(lambda: evaluate_samples(exps, BLOCK_SIZE, IncrementStream(seed=47)))
    assert peak < 2 * chunk_bytes < BLOCK_SIZE * 4096 * 8 / 2


def test_evaluate_samples_memory_per_worker():
    # The decouple expansions at n = 256 over three blocks on two workers:
    # each worker holds one chunk table (1024 paths at m = 512), reused by
    # every chunk it walks.  Each group carries one coefficient on one run of
    # cells, so it is summed from a column slice and no worker holds a
    # product buffer (1024 paths by 256 terms, half a chunk size).
    exps = _half_support_couple(256)
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    peak = _traced_peak(
        lambda: evaluate_samples(exps, 3 * BLOCK_SIZE, IncrementStream(seed=53), workers=2)
    )
    assert peak < 2.5 * chunk_bytes


@pytest.mark.parametrize("n_rows", [5000, 20_000])
def test_evaluate_batch_memory_does_not_grow_with_the_batch(n_rows):
    # The n = 256 diagonal summand at m = 512: 20 000 paths are 78 MiB of
    # increments, and a copy of them divided by sqrt(delta) as large.  The
    # walk divides one 1024-path chunk at a time into its workspace table.
    x, _ = diagonal_summands(256, (0.5, 0.5))
    xi = sample_increments_block(x.grid, IncrementStream(seed=59), 0, n_rows)
    peak = _traced_peak(lambda: evaluate_batch(x, xi))
    assert peak < 3 * grid_module.CHUNK_ENTRIES * 8


def test_evaluate_batch_checks_every_chunk_and_writes_no_increments():
    # Finiteness is checked chunk by chunk: a NaN in the last of three
    # chunks still fails.  The dtype is checked before the walk, at zero
    # rows too, and the caller's increments come back as they were.
    x, _ = diagonal_summands(256, (0.5, 0.5))
    xi = sample_increments_block(x.grid, IncrementStream(seed=60), 0, 2 * 1024 + 5)
    kept = xi.copy()
    evaluate_batch(x, xi)
    assert np.array_equal(xi, kept)
    xi[-1, -1] = math.nan
    with pytest.raises(ValueError, match="increments must be finite"):
        evaluate_batch(x, xi)
    with pytest.raises(ValueError, match="increments must be real numbers"):
        evaluate_batch(x, np.zeros((0, x.grid.m), dtype=bool))
    assert evaluate_batch(x, np.zeros((0, x.grid.m))).shape == (0,)


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
@pytest.mark.parametrize("chunk_entries", [None, 20])
def test_run_plan_gets_one_chunk_at_a_time(case, chunk_entries, monkeypatch):
    # The evaluator's only memory unit is the chunk: both routes hand
    # _run_plan at least one and at most max(1, CHUNK_ENTRIES // m) rows,
    # and every row once.  That is why its gathers and products need no
    # split of their own.  At 20 entries a chunk the m = 1100 case walks
    # one row at a time.
    if chunk_entries is not None:
        monkeypatch.setattr(grid_module, "CHUNK_ENTRIES", chunk_entries)
    shapes = []
    monkeypatch.setattr(chaos_module, "_run_plan", lambda d, g, z, outs, w: shapes.append(z.shape))
    exps = _REFERENCE_CASES[case]()
    m = exps[0].grid.m
    most = max(1, grid_module.CHUNK_ENTRIES // m)
    n_rows = 2 * most + 3
    evaluate_samples(exps, n_rows, IncrementStream(seed=61))
    xi = sample_increments_block(exps[0].grid, IncrementStream(seed=61), 0, n_rows)
    evaluate_batch(exps[0], xi)
    assert all(1 <= rows <= most and width == m for rows, width in shapes)
    assert sum(rows for rows, _ in shapes) == 2 * n_rows


def _diagonal_orders(m, orders):
    # One expansion whose order-n kernel sits on the diagonal (j, ..., j).
    grid = make_grid(m)
    rng = np.random.default_rng(55)
    slots = [None] * (max(orders) + 1)
    for n in orders:
        values = np.zeros((m,) * n)
        values[(np.arange(m),) * n] = rng.uniform(0.5, 1.5, m)
        slots[n] = step_kernel(grid, n, values)
    return chaos_expansion(grid, slots)


@pytest.mark.parametrize(
    "m, orders, bound", [(64, [1, 2, 3, 4], 3.0), (128, [3], 3.1), (64, [4], 2.1)]
)
def test_evaluate_samples_walks_hermite_degrees_once(m, orders, bound):
    # One block of 4096 paths is one chunk table.  With orders 1-4, H_1 is the
    # table and H_2 .. H_4 come from one walk of the recurrence into workspace
    # rows; a walk per degree would hold its own H_2 and H_3 beside them.
    # Without H_1 the walk's top degree overwrites the table.
    exps = [_diagonal_orders(m, orders)]
    want = evaluate_samples_reference(_dense_all(exps), BLOCK_SIZE, IncrementStream(seed=56))
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    got = []
    peak = _traced_peak(lambda: got.extend(evaluate_samples(exps, BLOCK_SIZE, IncrementStream(seed=56))))
    assert peak < bound * chunk_bytes
    assert np.array_equal(got[0], want[0])


def test_kernel_terms_memory_of_dense_order_4():
    # The order-4 Gamma kernel at m = 24 is dense: 331 776 entries, 17 550
    # terms.  Its first-axis slices are sized by argwhere's index words, n per
    # nonzero entry; a slice sized by entries alone would be the whole kernel,
    # and listing it would peak at about 5 chunk sizes.
    kernel = gamma(_dense_with_gamma(24, [3], seed=50)[0]).kernel(4)
    got = []
    peak = _traced_peak(lambda: got.extend(chaos_module._kernel_terms(kernel)))
    assert peak < 2 * grid_module.CHUNK_ENTRIES * 8
    _assert_terms_match_plan(got, kernel)


def test_evaluate_samples_memory_of_dense_order_3_with_gamma():
    # One block of 4096 paths at m = 24 is one chunk table of 0.19 chunk
    # sizes.  Listing the terms of the order-4 Gamma kernel from its 331 776
    # entries peaks at about 1.4 chunk sizes; with the cells-by-paths Hermite
    # copies and the products of one prefix's run at a time, the call peaks
    # at about 1.8.
    exps = _dense_with_gamma(24, [3], seed=50)
    want = evaluate_samples_reference(_dense_all(exps), BLOCK_SIZE, IncrementStream(seed=51))
    chunk_bytes = grid_module.CHUNK_ENTRIES * 8
    got = []
    peak = _traced_peak(lambda: got.extend(evaluate_samples(exps, BLOCK_SIZE, IncrementStream(seed=51))))
    assert peak < 4.5 * chunk_bytes
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_evaluate_batch_matches_reference_bits(case):
    exps = _REFERENCE_CASES[case]()
    xi = sample_increments_block(exps[0].grid, IncrementStream(seed=44), 0, 5000)
    for e in exps:
        assert np.array_equal(evaluate_batch(e, xi), evaluate_batch_reference(_dense(e), xi))
        assert np.array_equal(evaluate_batch(e, xi[:1]), evaluate_batch_reference(_dense(e), xi[:1]))


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_evaluate_batch_matches_term_reference_to_rounding(case):
    # The multi-factor groups sum their terms a prefix at a time and the
    # one-factor groups in one pass, where the earlier rule summed every group
    # in 1024-term slabs; the values agree to rounding.
    exps = _REFERENCE_CASES[case]()
    xi = sample_increments_block(exps[0].grid, IncrementStream(seed=44), 0, 5000)
    for e in exps:
        got, want = evaluate_batch(e, xi), evaluate_batch_terms_reference(_dense(e), xi)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["half_support_n4", "half_support_n256"])
def test_power_of_two_coefficients_keep_the_product_bits(case):
    # Every group of the decouple couples carries one coefficient, 1/(2 sqrt n)
    # on X and Y and 1/(2n) on their Gammas, a power of two at n = 4 and 256.
    # Then a * sum_j H_j is sum_j a * H_j bit for bit, so summing before
    # multiplying leaves the values of the product rule, which the term
    # reference applies to these groups of fewer than 1024 terms.
    exps = _REFERENCE_CASES[case]()
    xi = sample_increments_block(exps[0].grid, IncrementStream(seed=44), 0, 5000)
    for e in exps:
        (exp_groups,) = chaos_module._compile([e])[1]
        assert all(math.frexp(coeff)[0] == 0.5 for _, _, coeff in exp_groups)
        assert np.array_equal(evaluate_batch(e, xi), evaluate_batch_terms_reference(_dense(e), xi))


def test_coefficients_one_bit_apart_take_the_product_rule():
    # Equal means exactly equal: a diagonal kernel whose last value is one
    # ulp above the others keeps its coefficient vector and the product
    # rule's bits.  The same kernel with equal values sums first, and its
    # coefficient 0.3 / 8 is not a power of two, so its bits differ.
    grid = make_grid(8)
    xi = sample_increments_block(grid, IncrementStream(seed=58), 0, 5000)
    values = np.full(8, 0.3)
    equal = single_chaos(step_kernel(grid, 2, np.diag(values)))
    values[-1] = np.nextafter(0.3, 1.0)
    apart = single_chaos(step_kernel(grid, 2, np.diag(values)))
    (((_, _, coeffs),),) = chaos_module._compile([apart])[1]
    assert isinstance(coeffs, np.ndarray) and np.unique(coeffs).size == 2
    assert np.array_equal(evaluate_batch(apart, xi), evaluate_batch_terms_reference(apart, xi))
    (((_, _, coeff),),) = chaos_module._compile([equal])[1]
    assert coeff == 0.3 / 8
    assert np.array_equal(evaluate_batch(equal, xi), evaluate_batch_reference(equal, xi))
    assert not np.array_equal(evaluate_batch(equal, xi), evaluate_batch_terms_reference(equal, xi))


@pytest.mark.parametrize(
    "case",
    [
        "dense_123_m8",
        "dense_2_m64",
        "dense_3_m24",
        "sparse_1234_m6",
        "diagonal_gaps_m8",
        "diagonal_split_run_m1100",
        "first_and_diagonal_m8",
    ],
)
def test_a_path_value_does_not_depend_on_its_batch(case):
    # The split run's 1060-term one-factor group, wider than the earlier
    # 1024-term slab, is summed in one pass along each row, in the same order
    # on a short batch or one row as on a full block; so are the groups with
    # one coefficient on cells with gaps, gathered a chunk at a time, and the
    # row sums that several expansions share.  The multi-factor groups,
    # such as the 2016-term (1, 1) group at m = 64, sum their prefixes in one
    # order for any chunk length, one path included, where numpy's add.reduce
    # is pairwise on a single path.
    exps = _REFERENCE_CASES[case]()
    stream = IncrementStream(seed=43, stream_id=3)
    xi = sample_increments_block(exps[0].grid, stream, 0, 5000)
    for e, want in zip(exps, evaluate_samples(exps, 5000, stream)):
        assert np.array_equal(evaluate_batch(e, xi), want)
        assert np.array_equal(evaluate_batch(e, xi[100:110]), want[100:110])
        assert np.array_equal(evaluate_batch(e, xi[BLOCK_SIZE:]), want[BLOCK_SIZE:])
        assert np.array_equal(evaluate_batch(e, xi[2048:2049]), want[2048:2049])


@settings(max_examples=12, deadline=None)
@given(st.integers(900, 2200), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
def test_one_factor_groups_across_the_old_slab_width(m, density, seed):
    # An order-1 kernel is one one-factor group, as wide as its nonzero
    # cells: here from about 270 to 2200 terms, so widths fall on both sides
    # of 1024 and 2048.  300 paths are two chunks of rows on a grid of more
    # than 1747 cells.
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, m) * (rng.uniform(size=m) < density)
    grid = make_grid(m)
    x = chaos_expansion(grid, [None, step_kernel(grid, 1, values)])
    xi = sample_increments_block(x.grid, IncrementStream(seed=seed), 0, 300)
    full = evaluate_batch(x, xi)
    assert np.array_equal(full, evaluate_batch_reference(x, xi))
    rows = np.sort(rng.choice(300, size=int(rng.integers(1, 300)), replace=False))
    assert np.array_equal(evaluate_batch(x, xi[rows]), full[rows])


def test_evaluate_samples_validates_counts(monkeypatch):
    x, _ = diagonal_summands(4, (0.5, 0.5))
    stream = IncrementStream(seed=1)
    want = evaluate_samples([x], 7, stream)[0]
    assert np.array_equal(evaluate_samples([x], np.int64(7), stream, workers=np.int64(2))[0], want)

    def no_draws(*args, **kwargs):
        raise AssertionError("a rejected call must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    for n_samples in (10.5, 3.0, True, "5", None, 0):
        with pytest.raises(ValueError, match="n_samples"):
            evaluate_samples([x], n_samples, stream)
    for workers in (0, -3, 2.5, True, None):  # no silent serial run
        with pytest.raises(ValueError, match="workers"):
            evaluate_samples([x], 10, stream, workers=workers)


def test_evaluate_samples_requires_common_grid():
    x = constant(make_grid(2), 1.0)
    y = constant(make_grid(3), 1.0)
    with pytest.raises(ValueError):
        evaluate_samples([x, y], 10, IncrementStream(seed=1))


# ---------------------------------------------------------------------------
# serialization


def test_expansion_round_trip():
    rng = np.random.default_rng(30)
    g = make_grid(3)
    x = _random_expansion(rng, g, [1, 3])
    back = expansion_from_dict(expansion_to_dict(x))
    assert back.grid == x.grid
    assert back.nonzero_orders() == x.nonzero_orders()
    for n in x.nonzero_orders():
        assert np.array_equal(back.kernels[n].values, x.kernels[n].values)


def test_expansion_file_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    g = make_grid(4)
    x = add(_random_expansion(rng, g, [1, 3]), constant(g, 0.25))
    path = tmp_path / "expansion.json"
    save_expansion(x, path)
    back = load_expansion(path)
    assert back.grid == x.grid
    assert back.expectation == x.expectation
    assert back.nonzero_orders() == x.nonzero_orders()
    for n in x.nonzero_orders():
        assert np.array_equal(back.kernels[n].values, x.kernels[n].values)


def test_expansion_load_validates_symmetry():
    g = make_grid(2)
    data = {
        "m": 2,
        "max_order": 2,
        "kernels": [None, None, {"order": 2, "m": 2, "values": [0.0, 1.0, 0.0, 0.0]}],
    }
    with pytest.raises(ValueError):
        expansion_from_dict(data)


def test_expansion_load_checks_symmetry_once_per_kernel(monkeypatch):
    # is_symmetric symmetrizes each kernel of order >= 2 once; a load that
    # also checked each kernel as it was read would symmetrize it twice.
    x = _random_expansion(np.random.default_rng(31), make_grid(3), [1, 2, 3])
    data = expansion_to_dict(x)
    calls = []
    original = kernels_module.symmetrize

    def counting(kernel):
        calls.append(kernel.order)
        return original(kernel)

    monkeypatch.setattr(kernels_module, "symmetrize", counting)
    back = expansion_from_dict(data)
    assert sorted(calls) == [2, 3]
    for n in (1, 2, 3):
        assert np.array_equal(back.kernels[n].values, x.kernels[n].values)
