from __future__ import annotations

import numpy as np
import pytest

from chaoskit import (
    IncrementStream,
    add,
    chaos_expansion,
    char_fn_estimates,
    constant,
    cross_gamma,
    diagonal_summands,
    evaluate_samples,
    gamma,
    integrals_independent,
    make_grid,
    second_moment,
    single_chaos,
    step_kernel,
    strongly_independent,
    symmetrize,
)


def _disjoint_pair(m=4, order=2, seed=60):
    rng = np.random.default_rng(seed)
    half = m // 2
    g = make_grid(m)
    lv = np.zeros((m,) * order)
    lv[(slice(0, half),) * order] = rng.uniform(-1, 1, (half,) * order)
    rv = np.zeros((m,) * order)
    rv[(slice(half, m),) * order] = rng.uniform(-1, 1, (half,) * order)
    return (
        symmetrize(step_kernel(g, order, lv)),
        symmetrize(step_kernel(g, order, rv)),
    )


def test_disjoint_first_order_independent():
    g = make_grid(4)
    f = step_kernel(g, 1, [1.0, 2.0, 0.0, 0.0])
    h = step_kernel(g, 1, [0.0, 0.0, -1.0, 3.0])
    res = integrals_independent(f, h)
    assert res.independent
    assert res.witness_norm == 0.0


def test_identical_kernel_not_independent():
    f, _ = _disjoint_pair()
    res = integrals_independent(f, f)
    assert not res.independent
    assert res.witness_norm > 0.0


def test_witness_value_for_indicator():
    # f = indicator of [1/2, 1] on m = 2: f ox_1 f = delta * sum f^2 = 1/2
    g = make_grid(2)
    f = step_kernel(g, 1, [0.0, 1.0])
    res = integrals_independent(f, f)
    assert not res.independent
    assert res.witness_norm == pytest.approx(0.5, rel=1e-14)


def test_independence_rejects_order_zero():
    g = make_grid(2)
    f = step_kernel(g, 0, 1.0)
    h = step_kernel(g, 1, [1.0, 0.0])
    with pytest.raises(ValueError):
        integrals_independent(f, h)
    with pytest.raises(ValueError):
        integrals_independent(h, f)


def test_default_verdict_is_scale_invariant():
    f, h = _disjoint_pair(seed=61)
    # perturb so the contraction is tiny but nonzero
    vals = h.values.copy()
    vals[0, 0] += 1e-14
    h2 = symmetrize(step_kernel(h.grid, 2, vals))
    big = step_kernel(f.grid, 2, f.values * 1e8)
    r1 = integrals_independent(f, h2)
    r2 = integrals_independent(big, h2)
    assert r1.independent == r2.independent


# "Is zero" has one rule, DEFAULT_REL_TOL * ||f|| * ||g||: it must keep the
# verdicts of exactly disjoint and of overlapping kernels at every scale.
SCALES = [1e-60, 1e-8, 1.0, 1e8, 1e60]


def _scaled(kernel, s):
    return step_kernel(kernel.grid, kernel.order, kernel.values * s)


@pytest.mark.parametrize("s", SCALES)
def test_integrals_independent_verdicts_hold_at_every_scale(s):
    f, h = _disjoint_pair(seed=73)
    f, h = _scaled(f, s), _scaled(h, s)
    disjoint = integrals_independent(f, h)
    assert disjoint.independent and disjoint.witness_norm == 0.0
    overlap = integrals_independent(f, f)
    assert not overlap.independent and overlap.witness_norm > 0.0


@pytest.mark.parametrize("s", SCALES)
def test_strongly_independent_verdicts_hold_at_every_scale(s):
    f, h = _disjoint_pair(seed=74)
    x, y = single_chaos(_scaled(f, s)), single_chaos(_scaled(h, s))
    disjoint = strongly_independent(x, y)
    assert disjoint.independent and disjoint.worst_norm == 0.0
    overlap = strongly_independent(x, x)
    assert not overlap.independent and overlap.worst_pair == (2, 2)


@pytest.mark.parametrize("s", SCALES)
def test_cross_gamma_residual_is_exactly_zero_at_every_scale(s):
    # The k-way records' independence entry: the verdict and the residual
    # E[Gamma(X, Y)^2] that bounds |E[e^{it(X+Y)} Gamma(X, Y)]|.
    f, h = _disjoint_pair(seed=75)
    x, y = single_chaos(_scaled(f, s)), single_chaos(_scaled(h, s))
    verdict = strongly_independent(x, y)
    assert verdict.independent and verdict.worst_norm == 0.0
    assert second_moment(cross_gamma(x, y)) == 0.0


def test_strongly_independent_disjoint_couple():
    g = make_grid(4)
    rng = np.random.default_rng(62)
    f1 = step_kernel(g, 1, np.concatenate([rng.uniform(-1, 1, 2), np.zeros(2)]))
    f2, g2 = _disjoint_pair(seed=63)
    x = chaos_expansion(g, [None, f1, f2])
    y = chaos_expansion(g, [None, None, g2])
    res = strongly_independent(x, y)
    assert res.independent
    assert res.worst_norm == 0.0


def test_strongly_independent_flags_self_overlap():
    f, _ = _disjoint_pair(seed=64)
    x = single_chaos(f)
    res = strongly_independent(x, x)
    assert not res.independent
    assert res.worst_pair == (2, 2)
    assert res.worst_norm > 0.0


def test_strongly_independent_ignores_constants():
    g = make_grid(4)
    f = step_kernel(g, 1, [1.0, 0.0, 0.0, 0.0])
    h = step_kernel(g, 1, [0.0, 0.0, 1.0, 0.0])
    from chaoskit import add

    x = add(single_chaos(f), constant(g, 5.0))
    y = add(single_chaos(h), constant(g, -2.0))
    res = strongly_independent(x, y)
    assert res.independent
    assert res.worst_pair == (1, 1)


def test_strongly_independent_grid_mismatch():
    x = constant(make_grid(2), 1.0)
    y = constant(make_grid(3), 1.0)
    with pytest.raises(ValueError):
        strongly_independent(x, y)


# ---------------------------------------------------------------------------
# the cross functional <DX, D(-L)^{-1} Y> of the characteristic-function argument


def test_disjoint_cross_functional_estimates_are_exact_zeros():
    f, h = _disjoint_pair(seed=65)
    x, y = single_chaos(f), single_chaos(h)
    s_vals, cg_vals = evaluate_samples(
        [add(x, y), cross_gamma(x, y)], 2000, IncrementStream(seed=66)
    )
    estimates = char_fn_estimates(s_vals, cg_vals, [0.5, 1.0, 2.0])
    assert len(estimates) == 3
    for est, t in zip(estimates, [0.5, 1.0, 2.0]):
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.parameter == t


def test_self_coupling_cross_functional_is_gamma():
    # X = Y: at t = 0 the estimate is |E[Gamma(X)]| = E[X^2]
    f, _ = _disjoint_pair(seed=67)
    x = single_chaos(f)
    s_vals, g_vals = evaluate_samples([add(x, x), gamma(x)], 100_000, IncrementStream(seed=68))
    (est,) = char_fn_estimates(s_vals, g_vals, [0.0])
    assert abs(est.value - second_moment(x)) <= 3 * est.std_error
    assert est.value > 0.0
    # and the exact residual of the pair is E[Gamma(X)^2]: 0.375 at n = 4, c = 0.5
    left, _ = diagonal_summands(4, (0.5, 0.5))
    assert not strongly_independent(left, left).independent
    assert second_moment(cross_gamma(left, left)) == second_moment(gamma(left)) == 0.375


@pytest.mark.parametrize("s", SCALES)
def test_self_coupling_cross_gamma_residual_at_every_scale(s):
    # The nonzero side of the independence entry: X paired with itself is not
    # strongly independent, and its residual is E[Gamma(X)^2], scaling as s^4.
    f, _ = _disjoint_pair(seed=76)
    x, unit = single_chaos(_scaled(f, s)), single_chaos(f)
    verdict = strongly_independent(x, x)
    assert not verdict.independent and verdict.worst_pair == (2, 2)
    residual = second_moment(cross_gamma(x, x))
    assert residual == second_moment(gamma(x)) > 0.0
    assert residual == pytest.approx(s**4 * second_moment(gamma(unit)), rel=1e-12)


@pytest.mark.parametrize("n,c", [(1, 0.5), (2, 0.5), (4, 0.5), (16, 0.25), (64, 0.3)])
def test_diagonal_summand_residuals_closed_form(n, c):
    # A diagonal summand of variance c on n cells has Gamma = c + (c/n) sum of
    # n centred chi-square cells: E[Gamma^2] = c^2 (1 + 2/n) paired with itself,
    # and exactly 0 against the summand on the other block, in either order.
    left, right = diagonal_summands(n, (c, 1.0 - c))
    assert second_moment(cross_gamma(left, left)) == pytest.approx(c * c * (1 + 2 / n), rel=1e-12)
    assert second_moment(cross_gamma(left, right)) == 0.0
    assert second_moment(cross_gamma(right, left)) == 0.0


def _first_chaos(cells, seed):
    # a first-chaos kernel on the given cells of the m = 4 grid
    vals = np.zeros(4)
    vals[list(cells)] = np.random.default_rng(seed).uniform(0.5, 1.0, len(cells))
    return step_kernel(make_grid(4), 1, vals)


def _mixed_couple(layout):
    f2, h2 = _disjoint_pair(seed=77)
    g = f2.grid
    low, high = _first_chaos((0, 1), 78), _first_chaos((2, 3), 79)
    low_too = _first_chaos((0, 1), 80)
    if layout == "disjoint":
        return chaos_expansion(g, [None, low, f2]), chaos_expansion(g, [None, high, h2])
    if layout == "shared first chaos":
        return chaos_expansion(g, [None, low, f2]), chaos_expansion(g, [None, low_too, h2])
    if layout == "shared second chaos":
        return chaos_expansion(g, [None, high, f2]), chaos_expansion(g, [None, None, f2])
    # first chaos of X on the cells of Y's second chaos
    return chaos_expansion(g, [None, low, None]), chaos_expansion(g, [None, None, f2])


@pytest.mark.parametrize(
    "layout,worst_pair",
    [
        ("disjoint", None),
        ("shared first chaos", (1, 1)),
        ("shared second chaos", (2, 2)),
        ("first against second", (1, 2)),
    ],
)
def test_cross_gamma_residual_vanishes_with_the_verdict_on_mixed_orders(layout, worst_pair):
    # The two exact fields of an independence entry agree across chaos orders:
    # a zero residual with the verdict, and a positive one at the overlapping pair.
    x, y = _mixed_couple(layout)
    verdict = strongly_independent(x, y)
    residual = second_moment(cross_gamma(x, y))
    if worst_pair is None:
        assert verdict.independent and verdict.worst_norm == 0.0
        assert residual == 0.0
    else:
        assert not verdict.independent and verdict.worst_pair == worst_pair
        assert verdict.worst_norm > 0.0 and residual > 0.0
