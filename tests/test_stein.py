from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from chaoskit import (
    CriterionEstimate,
    IncrementStream,
    add,
    binned_residual_estimate,
    char_fn_estimates,
    conditional_residual_estimate,
    constant,
    criterion_functionals,
    fourth_moment_bound,
    half_support_second_chaos,
    inner_product,
    kolmogorov_distance_mc,
    make_grid,
    single_chaos,
    stein_estimates,
    stein_solution,
    step_kernel,
    symmetrize,
)
from chaoskit import stein as stein_module

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _quadrature_solution(z: float, x: float) -> float:
    """f_z(x) = e^{x^2/2} int_{-inf}^x (1_{w<=z} - Phi(z)) e^{-w^2/2} dw.

    The integrand has a jump at w = z, so the kink is passed to quad
    explicitly; a default-tolerance quad without it is only ~1e-5 accurate.
    """
    phi_z = norm.cdf(z)

    def integrand(w):
        return ((w <= z) - phi_z) * math.exp(-w * w / 2.0)

    lo = -12.0
    points = [z] if lo < z < x else None
    val, _ = quad(integrand, lo, x, points=points, limit=200, epsabs=1e-12, epsrel=1e-12)
    return math.exp(x * x / 2.0) * val


def test_stein_solution_at_origin():
    f, _ = stein_solution(0.0, 0.0)
    assert f == pytest.approx(SQRT_2PI / 4.0, abs=1e-12)


@pytest.mark.parametrize("z", [-1.5, 0.0, 0.8, 2.0])
@pytest.mark.parametrize("x", [-3.0, -0.7, 0.0, 0.9, 2.5])
def test_stein_solution_matches_quadrature(z, x):
    f, _ = stein_solution(z, x)
    assert f == pytest.approx(_quadrature_solution(z, x), abs=1e-8)


def test_stein_pair_satisfies_equation():
    xs = np.linspace(-8.0, 8.0, 4001)
    for z in (-2.0, -0.5, 0.0, 1.0, 2.0):
        f, fp = stein_solution(z, xs)
        resid = fp - xs * f - ((xs <= z).astype(float) - norm.cdf(z))
        assert np.max(np.abs(resid)) <= 1e-10


def test_stein_derivative_finite_difference():
    h = 1e-5
    xs = np.linspace(-8.0, 8.0, 801)
    for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
        keep = np.abs(xs - z) > 1e-3  # the derivative jumps at the kink
        x = xs[keep]
        _, fp = stein_solution(z, x)
        fu, _ = stein_solution(z, x + h)
        fl, _ = stein_solution(z, x - h)
        fd = (fu - fl) / (2.0 * h)
        assert np.max(np.abs(fp - fd)) <= 1e-6


def test_stein_solution_uniform_bound():
    xs = np.linspace(-40.0, 40.0, 20001)
    for z in (-3.0, -1.0, 0.0, 0.5, 2.0):
        f, _ = stein_solution(z, xs)
        assert np.max(np.abs(f)) <= SQRT_2PI / 4.0 + 1e-12


def test_stein_solution_tail_decay():
    # far tails decay like a normal-CDF weight over x, so they are small but
    # nowhere near underflow: |f_z(38)| is about 0.026 at |z| = 2
    xs = np.linspace(10.0, 38.0, 200)
    for z in (-2.0, 0.0, 2.0):
        for side in (xs, -xs):
            f, _ = stein_solution(z, side)
            assert np.all(np.diff(np.abs(f)) < 0.0)
            assert 0.0 < abs(f[-1]) <= 0.05


def test_stein_solution_argument_guard():
    stein_solution(0.0, 40.0)  # boundary is allowed
    with pytest.raises(ValueError):
        stein_solution(0.0, 40.5)
    with pytest.raises(ValueError):
        stein_solution(41.0, 0.0)
    with pytest.raises(ValueError):
        stein_solution(0.0, np.array([0.0, -40.1]))


def test_stein_solution_rejects_nan():
    # at the parent these returned (nan, nan) and reported value=nan
    with pytest.raises(ValueError):
        stein_solution(math.nan, 0.0)
    with pytest.raises(ValueError):
        stein_solution(0.0, math.nan)
    with pytest.raises(ValueError):
        stein_solution(0.0, np.array([0.0, math.nan]))
    x = np.array([-1.0, 0.5, math.nan, 2.0])
    with pytest.raises(ValueError):
        stein_estimates(x, np.ones_like(x), [0.0])


def test_stein_solution_rejects_non_real_z():
    # float(z) would read True and '1' as z = 1.0
    for z in (True, "1", None, np.array([1.0]), 1.0 + 0.0j):
        with pytest.raises(ValueError):
            stein_solution(z, 0.5)
    for z in (1, np.float64(1.0), np.int64(1)):
        assert stein_solution(z, 0.5) == stein_solution(1.0, 0.5)


def test_stein_solution_scalar_and_array_agree():
    z = 0.7
    xs = np.array([-1.0, 0.2, 3.0])
    fv, fpv = stein_solution(z, xs)
    for i, x in enumerate(xs):
        f, fp = stein_solution(z, float(x))
        assert isinstance(f, float)
        assert f == fv[i]
        assert fp == fpv[i]


# ---------------------------------------------------------------------------
# Kolmogorov distance


def test_kolmogorov_permutation_invariant():
    rng = np.random.default_rng(40)
    x = rng.standard_normal(1000)
    d1 = kolmogorov_distance_mc(x, 1.0)
    d2 = kolmogorov_distance_mc(rng.permutation(x), 1.0)
    assert d1 == d2


def test_kolmogorov_point_mass():
    # empirical CDF jumps 0 -> 1 at 0 where the normal CDF is 1/2
    assert kolmogorov_distance_mc(np.zeros(10), 1.0) == pytest.approx(0.5)


def test_kolmogorov_standard_normal_is_small():
    x = IncrementStream(seed=41).standard_normal_block(1, 0, 100_000)[:, 0]
    assert kolmogorov_distance_mc(x, 1.0) <= 0.01


def test_kolmogorov_detects_wrong_variance():
    x = 2.0 * IncrementStream(seed=42).standard_normal_block(1, 0, 50_000)[:, 0]
    assert kolmogorov_distance_mc(x, 1.0) >= 0.1
    assert kolmogorov_distance_mc(x, 4.0) <= 0.01


def test_kolmogorov_validation():
    with pytest.raises(ValueError):
        kolmogorov_distance_mc(np.array([]), 1.0)
    with pytest.raises(ValueError):
        kolmogorov_distance_mc(np.array([0.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        kolmogorov_distance_mc(np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        kolmogorov_distance_mc(np.array([0.0]), -1.0)
    with pytest.raises(ValueError, match="variance"):
        kolmogorov_distance_mc(np.array([0.0]), True)  # a bool is not a variance
    with pytest.raises(ValueError, match="variance"):
        kolmogorov_distance_mc(np.array([0.0]), "1")  # nor is a string


# ---------------------------------------------------------------------------
# fourth-moment bound


def test_fourth_moment_bound_family():
    for n in (4, 16, 64):
        x = half_support_second_chaos(n, 1.0, "left")
        assert fourth_moment_bound(x) == pytest.approx(math.sqrt(12.0 / n), rel=1e-10)


def test_fourth_moment_bound_first_chaos_is_zero():
    g = make_grid(4)
    x = single_chaos(step_kernel(g, 1, [1.0, 0.0, -2.0, 0.5]))
    assert fourth_moment_bound(x) == 0.0


def test_fourth_moment_bound_validation():
    g = make_grid(4)
    rng = np.random.default_rng(43)
    k1 = step_kernel(g, 1, rng.uniform(-1, 1, 4))
    k2 = symmetrize(step_kernel(g, 2, rng.uniform(-1, 1, (4, 4))))
    from chaoskit import chaos_expansion

    multi = chaos_expansion(g, [None, k1, k2])
    with pytest.raises(ValueError):
        fourth_moment_bound(multi)
    with pytest.raises(ValueError):
        fourth_moment_bound(constant(g, 0.0))
    with pytest.raises(ValueError):
        fourth_moment_bound(add(single_chaos(k1), constant(g, 1.0)))


# ---------------------------------------------------------------------------
# criterion functionals


def _unit_first_chaos(m=4):
    g = make_grid(m)
    f = step_kernel(g, 1, np.ones(m))
    return single_chaos(f), inner_product(f, f)


def test_criterion_functionals_vanish_for_matched_gaussian():
    # Gamma(I_1(f)) = <f, f> exactly, so the residual is identically zero
    x, c = _unit_first_chaos()
    out = criterion_functionals(
        x, c, t_grid=[0.5, 1.0], z_grid=[-1.0, 0.0], n_samples=2000,
        stream=IncrementStream(seed=44),
    )
    assert len(out.char_fn) == 2 and len(out.stein) == 2
    for est in (*out.char_fn, *out.stein):
        assert isinstance(est, CriterionEstimate)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.n_samples == 2000
    assert [e.parameter for e in out.char_fn] == [0.5, 1.0]
    assert [e.parameter for e in out.stein] == [-1.0, 0.0]


def test_criterion_char_fn_at_t_zero_reads_off_variance_error():
    # at t = 0 the functional is |E[c' - G]| = |c' - c| when G is constant
    x, c = _unit_first_chaos()
    delta = 0.125
    out = criterion_functionals(
        x, c + delta, t_grid=[0.0], z_grid=[], n_samples=500,
        stream=IncrementStream(seed=45),
    )
    assert out.char_fn[0].value == pytest.approx(delta, abs=1e-15)
    assert out.stein == ()


def test_criterion_functionals_require_positive_target():
    x, _ = _unit_first_chaos()
    with pytest.raises(ValueError):
        criterion_functionals(x, 0.0, [1.0], [0.0], 100, IncrementStream(seed=1))


def test_criterion_functionals_family_magnitude():
    # for the c = 1 family the residual has variance 2/n; the t-functional is
    # bounded by E|R| so it should sit well under 3 sigma of that scale
    x = half_support_second_chaos(8, 1.0, "left")
    out = criterion_functionals(
        x, 1.0, t_grid=[1.0], z_grid=[0.0], n_samples=50_000,
        stream=IncrementStream(seed=46),
    )
    scale = math.sqrt(2.0 / 8.0)
    assert 0.0 < out.char_fn[0].value <= scale
    assert abs(out.stein[0].value) <= scale
    assert out.char_fn[0].std_error < 0.01


# ---------------------------------------------------------------------------
# conditional residual


def test_conditional_residual_zero_for_matched_gaussian():
    x, c = _unit_first_chaos()
    est = conditional_residual_estimate(
        x, c, n_bins=16, n_samples=4000, stream=IncrementStream(seed=47)
    )
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.parameter == 16.0


def test_conditional_residual_sees_constant_offset():
    x, c = _unit_first_chaos()
    delta = 0.25
    est = conditional_residual_estimate(
        x, c + delta, n_bins=16, n_samples=4000, stream=IncrementStream(seed=48)
    )
    assert est.value == pytest.approx(delta, abs=1e-12)


def test_conditional_residual_family_decay():
    # Gamma is affine in X for this family, so the proxy tracks
    # sqrt(E[R^2]) = sqrt(2 c^2 / n)
    vals = {}
    for n in (4, 16):
        x = half_support_second_chaos(n, 0.5, "left")
        est = conditional_residual_estimate(
            x, 0.5, n_bins=32, n_samples=60_000, stream=IncrementStream(seed=49)
        )
        vals[n] = est.value
        want = math.sqrt(2.0 * 0.25 / n)
        assert est.value == pytest.approx(want, rel=0.15)
    assert vals[4] > vals[16]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_estimators_reject_non_finite_samples(bad):
    # A NaN would sort into the last bin, or into a complex mean, and be
    # reported as a number.
    good = np.array([0.0, 1.0, 0.5, 2.0])
    worse = np.array([0.0, 1.0, bad, 2.0])
    for x_vals, resid_vals in ((worse, np.ones(4)), (good, worse)):
        with pytest.raises(ValueError, match="finite"):
            binned_residual_estimate(x_vals, resid_vals, 2)
        with pytest.raises(ValueError, match="finite"):
            char_fn_estimates(x_vals, resid_vals, [1.0])
        with pytest.raises(ValueError, match="finite"):
            stein_estimates(x_vals, resid_vals, [0.0])


def test_sample_estimators_reject_residuals_that_would_overflow():
    # Squared in a variance, 1e200 overflowed: char_fn_estimates reported
    # std_error=inf with an overflow warning, which the suite makes an error.
    x_vals = np.array([0.0, 1.0, 0.5, 2.0])
    for big in (1e200, -1e200, 2 * stein_module.RESID_MAX):
        resid_vals = np.array([1.0, big, -1.0, 0.0])
        with pytest.raises(ValueError, match="resid_vals must satisfy"):
            char_fn_estimates(x_vals, resid_vals, [1.0])
        with pytest.raises(ValueError, match="resid_vals must satisfy"):
            stein_estimates(x_vals, resid_vals, [0.0])
        with pytest.raises(ValueError, match="resid_vals must satisfy"):
            binned_residual_estimate(x_vals, resid_vals, 2)
    # At the bound every estimate and standard error is finite, the binned
    # one included, whose standard error holds a fourth power of R.
    resid_vals = stein_module.RESID_MAX * np.array([1.0, -1.0, 1.0, 0.5])
    estimates = [
        *char_fn_estimates(x_vals, resid_vals, [0.0, 1.0]),
        *stein_estimates(x_vals, resid_vals, [0.0, 1.0]),
        binned_residual_estimate(x_vals, resid_vals, 2),
    ]
    for est in estimates:
        assert math.isfinite(est.value) and math.isfinite(est.std_error) and est.std_error > 0.0


@pytest.mark.parametrize("resid_shape", [(1,), (10, 1), (9,)])
def test_sample_estimators_reject_mismatched_residuals(resid_shape):
    # A length-1 or (10, 1) residual broadcast against x_vals and reported a
    # number (char_fn_estimates read 0.752); a shorter one raised IndexError
    # in the binned estimate.
    x_vals = np.linspace(-1.0, 1.0, 10)
    resid_vals = np.ones(resid_shape)
    with pytest.raises(ValueError, match="equal length"):
        char_fn_estimates(x_vals, resid_vals, [1.0])
    with pytest.raises(ValueError, match="equal length"):
        stein_estimates(x_vals, resid_vals, [0.0])
    with pytest.raises(ValueError, match="equal length"):
        binned_residual_estimate(x_vals, resid_vals, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1", 1j])
def test_sample_estimators_reject_bad_parameters(bad):
    # NaN or inf reported value=nan with a RuntimeWarning, and True read as 1.0.
    x_vals = np.linspace(-1.0, 1.0, 10)
    with pytest.raises(ValueError, match="t_grid"):
        char_fn_estimates(x_vals, np.ones(10), [0.5, bad])
    with pytest.raises(ValueError, match="z_grid"):
        stein_estimates(x_vals, np.ones(10), [0.5, bad])


def test_sample_estimators_need_two_samples():
    # One sample has no standard error: the char and Stein estimates reported
    # std_error=nan for it.
    one = np.array([0.5])
    with pytest.raises(ValueError, match="two samples"):
        char_fn_estimates(one, one, [1.0])
    with pytest.raises(ValueError, match="two samples"):
        stein_estimates(one, one, [0.0])
    with pytest.raises(ValueError, match="two samples"):
        binned_residual_estimate(one, one, 1)
    two = np.array([0.5, -0.5])
    assert math.isfinite(char_fn_estimates(two, two, [1.0])[0].std_error)


def test_char_fn_estimates_rejects_an_overflowing_phase():
    # t * x overflowed to inf, so e^{itx} and the estimate were NaN.
    x_vals = np.array([-2.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="t_grid"):
        char_fn_estimates(x_vals, np.ones(3), [1.0, 1e308])
    est = char_fn_estimates(x_vals, np.ones(3), [1e307])[0]
    assert math.isfinite(est.value) and math.isfinite(est.std_error)


def test_conditional_residual_validation():
    x, c = _unit_first_chaos()
    with pytest.raises(ValueError):
        conditional_residual_estimate(x, c, n_bins=0, n_samples=100,
                                      stream=IncrementStream(seed=50))
    with pytest.raises(ValueError):
        conditional_residual_estimate(x, c, n_bins=200, n_samples=100,
                                      stream=IncrementStream(seed=50))
    with pytest.raises(ValueError):
        conditional_residual_estimate(x, -1.0, n_bins=4, n_samples=100,
                                      stream=IncrementStream(seed=50))
    zero_x = constant(make_grid(2), 0.0)
    with pytest.raises(ValueError):
        conditional_residual_estimate(zero_x, 1.0, n_bins=4, n_samples=100,
                                      stream=IncrementStream(seed=50))
