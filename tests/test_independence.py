from __future__ import annotations

import numpy as np
import pytest

from chaoskit import (
    IncrementStream,
    chaos_expansion,
    class_a_diagnostic,
    constant,
    integrals_independent,
    make_grid,
    second_moment,
    single_chaos,
    step_kernel,
    strongly_independent,
    symmetrize,
)
from oracles import batch_mean_se
from oracles import class_a_diagnostic as class_a_diagnostic_drawn


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
def test_class_a_diagnostic_is_exactly_zero_at_every_scale(s):
    f, h = _disjoint_pair(seed=75)
    out = class_a_diagnostic(
        single_chaos(_scaled(f, s)), single_chaos(_scaled(h, s)), t_grid=[0.0, 1.0],
        n_samples=16, stream=IncrementStream(seed=76),
    )
    assert out.max_modulus == 0.0
    assert all(est.value == 0.0 and est.std_error == 0.0 for est in out.estimates)


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
# class-A diagnostic


def test_class_a_diagnostic_exact_zero_for_disjoint():
    f, h = _disjoint_pair(seed=65)
    out = class_a_diagnostic(
        single_chaos(f), single_chaos(h), t_grid=[0.5, 1.0, 2.0],
        n_samples=2000, stream=IncrementStream(seed=66),
    )
    assert out.max_modulus == 0.0
    assert len(out.estimates) == 3
    for est, t in zip(out.estimates, [0.5, 1.0, 2.0]):
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.parameter == t


@pytest.mark.parametrize("n_samples", [1, 2000])
def test_class_a_diagnostic_zero_cross_functional_draws_nothing(n_samples, monkeypatch):
    # Equal to evaluating and then estimating, n_samples included; a single
    # path, which has no standard error, is rejected before any draw; bad
    # counts are still rejected.
    f, h = _disjoint_pair(seed=71)
    x, y = single_chaos(f), single_chaos(h)
    args = (x, y, [0.0, 1.0], n_samples, IncrementStream(seed=72))
    drawn = class_a_diagnostic_drawn(*args) if n_samples > 1 else None

    def no_draws(*args, **kwargs):
        raise AssertionError("an exactly zero diagnostic must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    if drawn is None:
        with pytest.raises(ValueError, match="two samples"):
            class_a_diagnostic(*args, workers=2)
    else:
        out = class_a_diagnostic(*args, workers=2)
        assert repr(out) == repr(drawn)
        assert all(e.n_samples == n_samples for e in out.estimates)
    with pytest.raises(ValueError, match="n_samples"):
        class_a_diagnostic(*args[:3], 0, args[4])
    with pytest.raises(ValueError, match="workers"):
        class_a_diagnostic(*args, workers=0)


def test_class_a_diagnostic_detects_self_coupling():
    # X = Y: at t = 0 the diagnostic is |E[Gamma(X)]| = E[X^2]
    f, _ = _disjoint_pair(seed=67)
    x = single_chaos(f)
    out = class_a_diagnostic(
        x, x, t_grid=[0.0], n_samples=100_000, stream=IncrementStream(seed=68),
    )
    est = out.estimates[0]
    assert abs(est.value - second_moment(x)) <= 3 * est.std_error
    assert out.max_modulus == est.value > 0.0


def test_class_a_diagnostic_empty_grid():
    f, h = _disjoint_pair(seed=69)
    out = class_a_diagnostic(
        single_chaos(f), single_chaos(h), t_grid=[],
        n_samples=100, stream=IncrementStream(seed=70),
    )
    assert out.max_modulus == 0.0
    assert out.estimates == ()
