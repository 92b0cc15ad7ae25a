from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from chaoskit import (
    CriterionEstimate,
    IncrementStream,
    binned_residual_estimate,
    char_fn_estimates,
    diagonal_summands,
    evaluate_samples,
    gamma,
    inner_product,
    kolmogorov_distance_mc,
    make_grid,
    single_chaos,
    stein_estimates,
    stein_solution,
    step_kernel,
)
from chaoskit import grid as grid_module
from chaoskit import stein as stein_module
from oracles import binned_residual_estimate_reference, char_fn_estimates_reference

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


@pytest.mark.parametrize("z", [-40.0, -3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 3.0, 40.0])
def test_stein_solution_reflection(z):
    # f_z(x) = f_{-z}(-x) holds bit for bit: (z, x) and (-z, -x) take the
    # same closed form at the same |x| and w, at x = z and x = 0 too.
    # f' = x f + 1_{x <= z} - Phi(z) is odd under the reflection away from
    # the kink, up to the rounding of 1 - Phi(z) against Phi(-z).
    x = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, z]])
    f, fp = stein_solution(z, x)
    g, gp = stein_solution(-z, -x)
    assert np.array_equal(f, g)
    off = x != z
    np.testing.assert_allclose(fp[off], -gp[off], rtol=0.0, atol=2.0**-51)


# ---------------------------------------------------------------------------
# Kolmogorov distance


# Unit roundoff of a double.
_U = 2.0**-53


def test_erfcx_matches_mpmath_and_scipy():
    # Each rational fit is within 1e-16 relative.  Horner on coefficients of
    # one sign at t >= 0 adds at most 2 * 8 roundings per polynomial (Higham's
    # gamma_16), and the quotient one: 33 u.  The points around 4 straddle the
    # switch from P/Q in t to the tail form in 1/t^2.
    import mpmath
    from scipy.special import erfcx

    bound = 33 * _U
    t = np.concatenate([np.linspace(0.0, 30.0, 3001), np.nextafter(4.0, [0.0, 8.0]), [4.0, 1e-300]])
    got = stein_module._erfcx(t)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(mpmath.mpf(v) ** 2) * mpmath.erfc(mpmath.mpf(v))) for v in t])
    assert np.all(np.abs(got - want) <= bound * want)
    assert np.all(np.abs(got - erfcx(t)) <= 2 * bound * want)


def test_ndtr_matches_mpmath_and_scipy():
    # Phi(-a) = exp(-a^2/2) erfcx(a/sqrt 2) / 2: erfcx's 33 u, u for a/sqrt 2
    # (erfcx has condition <= 1), exp's own rounding and (a^2/2) u from the
    # rounding of a^2, two products: (38 + x^2/2) u; 1 - Phi(-a) stays within
    # it.  Below Phi = 2^-1022 the result is subnormal, so an absolute floor
    # covers the last rounding there.  scipy rounds x/sqrt 2 before squaring,
    # so it carries up to (8 + x^2) 2u of its own in the tails, and it
    # returns 0 for subnormal results, so it is compared above 2^-1022 only.
    import mpmath
    from scipy.special import ndtr as scipy_ndtr

    x = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0, -0.0, 1e-300, -1e-300]])
    got = stein_module.ndtr(x)
    with mpmath.workdps(40):
        want = [mpmath.ncdf(mpmath.mpf(v)) for v in x]
    bound = (38 + x * x / 2) * _U
    floor = 2.0**-1070
    err = np.array([float(abs(mpmath.mpf(g) - w) - b * w) for g, w, b in zip(got, want, bound)])
    assert np.all(err <= floor)
    want = np.array([float(w) for w in want])
    normal = want >= 2.0**-1022
    gap = np.abs(got - scipy_ndtr(x))[normal]
    assert np.all(gap <= ((bound + (8 + x * x) * 2 * _U) * want)[normal])


def test_ndtr_limits_and_scalars():
    # Any real x: the exponent is capped, so huge and infinite x give 0 and 1
    # with no overflow warning, and a scalar gives a 0-d array.
    x = np.array([-np.inf, -1e300, -41.0, 41.0, 1e300, np.inf])
    assert stein_module.ndtr(x).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert stein_module.ndtr(0.0) == 0.5 and stein_module.ndtr(-0.0) == 0.5
    assert stein_module.ndtr(1.5).shape == ()
    assert float(stein_module.ndtr(1.5)) == stein_module.ndtr(np.array([1.5]))[0]


def test_ndtr_is_the_same_band_by_band(monkeypatch):
    # 7-entry bands: 25 entries end in a ragged band of 4, and the entries
    # cover the cap at 40, both zeros and both sides of erfcx's switch at 4.
    specials = [-41.0, -40.0, -4.0 * math.sqrt(2.0), -1e-300, -0.0, 0.0, 1e-300, 4.0, 40.0, 41.0, 0.5]
    x = np.concatenate([specials, 5.0 * np.random.default_rng(43).standard_normal(14)])
    inputs = (x, x[::2], x[:24].reshape(4, 6), x[:21], x[0], np.empty(0))
    want = [stein_module.ndtr(v) for v in inputs] + [stein_module._erfcx(np.abs(x))]
    monkeypatch.setattr(grid_module, "BAND_ENTRIES", 7)
    got = [stein_module.ndtr(v) for v in inputs] + [stein_module._erfcx(np.abs(x))]
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert stein_module.ndtr(-0.0) == 0.5 and stein_module.ndtr(-40.0) < 1e-300


@pytest.mark.parametrize("n", [96, 98])  # ragged and whole 7-entry bands
def test_sample_estimators_are_the_same_band_by_band(n, monkeypatch):
    # With fewer than BAND_ENTRIES samples the whole sample is one band, so
    # the default size gives the bits of one pass over the whole array.
    rng = np.random.default_rng(44)
    x, r = rng.standard_normal(n), rng.standard_normal(n)
    z_grid = (-2.0, -0.5, 0.0, 0.3, 1.0)
    want = (kolmogorov_distance_mc(x, 1.0), kolmogorov_distance_mc(x, 0.7), stein_estimates(x, r, z_grid))
    monkeypatch.setattr(grid_module, "BAND_ENTRIES", 7)
    got = (kolmogorov_distance_mc(x, 1.0), kolmogorov_distance_mc(x, 0.7), stein_estimates(x, r, z_grid))
    assert got == want


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_memory_is_one_sample_plus_bands():
    # kolmogorov_distance_mc keeps one sorted copy and stein_estimates one
    # array of f_z'(X) R (and the variance reads its deviations once the
    # bands are done); every other temporary is band-sized, so each peak
    # stays well below the several sample sizes of a whole-sample pass.
    n = 100_000
    rng = np.random.default_rng(45)
    x, r = rng.standard_normal(n), rng.standard_normal(n)
    sample_bytes, band_bytes = n * 8, grid_module.BAND_ENTRIES * 8
    assert _traced_peak(lambda: kolmogorov_distance_mc(x, 1.0)) < sample_bytes + 6 * band_bytes
    assert _traced_peak(lambda: stein_estimates(x, r, (-1.0, 0.0, 1.0))) < sample_bytes + 6 * band_bytes
    assert sample_bytes + 6 * band_bytes < 6 * sample_bytes


def test_char_fn_estimates_refill_one_complex_array():
    # One complex array of 16 bytes a sample serves every t, and each
    # variance reads one float copy of its real or imaginary part: about 3
    # sample sizes, where a fresh array per t, formed before the last one
    # is freed, peaked at 4.2.  The bits are those of the fresh arrays.
    n = 100_000
    rng = np.random.default_rng(46)
    x, r = rng.standard_normal(n), rng.standard_normal(n)
    t_grid = (0.5, 1.0, 2.0, -3.0)
    got = []
    peak = _traced_peak(lambda: got.extend(char_fn_estimates(x, r, t_grid)))
    assert peak <= 3.2 * n * 8
    assert tuple(got) == char_fn_estimates_reference(x, r, t_grid)


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
# criterion functionals


def _unit_first_chaos(m=4):
    g = make_grid(m)
    f = step_kernel(g, 1, np.ones(m))
    return single_chaos(f), inner_product(f, f)


def _with_residual(x, c, n_samples, seed):
    """Samples of X and of c - <DX, D(-L)^{-1} X> on the same paths."""
    x_vals, g_vals = evaluate_samples([x, gamma(x)], n_samples, IncrementStream(seed=seed))
    return x_vals, c - g_vals


def test_criterion_estimates_vanish_for_matched_gaussian():
    # Gamma(I_1(f)) = <f, f> exactly, so the residual is identically zero
    x, c = _unit_first_chaos()
    x_vals, resid = _with_residual(x, c, 2000, 44)
    char = char_fn_estimates(x_vals, resid, [0.5, 1.0])
    stein = stein_estimates(x_vals, resid, [-1.0, 0.0])
    assert len(char) == 2 and len(stein) == 2
    for est in (*char, *stein):
        assert isinstance(est, CriterionEstimate)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.n_samples == 2000
    assert [e.parameter for e in char] == [0.5, 1.0]
    assert [e.parameter for e in stein] == [-1.0, 0.0]


def test_criterion_char_fn_at_t_zero_reads_off_variance_error():
    # at t = 0 the functional is |E[c' - G]| = |c' - c| when G is constant
    x, c = _unit_first_chaos()
    delta = 0.125
    x_vals, resid = _with_residual(x, c + delta, 500, 45)
    assert char_fn_estimates(x_vals, resid, [0.0])[0].value == pytest.approx(delta, abs=1e-15)
    assert stein_estimates(x_vals, resid, []) == ()


def test_criterion_estimates_family_magnitude():
    # for the c = 1 family the residual has variance 2/n; the t-functional is
    # bounded by E|R| so it should sit well under 3 sigma of that scale
    x, _ = diagonal_summands(8, (1.0, 1.0))
    x_vals, resid = _with_residual(x, 1.0, 50_000, 46)
    (char,) = char_fn_estimates(x_vals, resid, [1.0])
    (stein,) = stein_estimates(x_vals, resid, [0.0])
    scale = math.sqrt(2.0 / 8.0)
    assert 0.0 < char.value <= scale
    assert abs(stein.value) <= scale
    assert char.std_error < 0.01


def test_stein_estimates_are_the_mean_and_variance_of_the_stein_solution():
    # The erfcx factor is formed once per sample array and read for every z;
    # each estimate still has the bits of f_z'(X) R over the whole array.
    # The samples span three bands; z lies below, at and above every sample.
    n = 2 * grid_module.BAND_ENTRIES + 123
    rng = np.random.default_rng(50)
    x, r = rng.standard_normal(n), rng.standard_normal(n)
    z_grid = (float(x.min()) - 0.5, float(x.min()), float(x[n // 2]), 0.0, float(x.max()), 6.0)
    for est, z in zip(stein_estimates(x, r, z_grid), z_grid):
        vals = stein_solution(z, x)[1] * r
        assert (est.value, est.std_error) == (float(vals.mean()), math.sqrt(vals.var(ddof=1) / n)), z


# ---------------------------------------------------------------------------
# binned conditional residual


@pytest.mark.parametrize("n_bins", [1, 7, 64])
def test_binned_residual_ranks_ties_as_a_stable_sort(n_bins):
    # x rounded to one decimal ties almost every sample with a neighbour, and
    # -0.0 ties with 0.0; ranked by the default sort, those ties would move
    # residuals between bins.  The estimate keeps the stable ranking's bits.
    rng = np.random.default_rng(51)
    x, r = np.round(rng.standard_normal(100_000), 1), rng.standard_normal(100_000)
    signed_zero = np.where(rng.random(1000) < 0.5, -0.0, 0.0)
    signed_zero[:2] = (-0.5, 0.5)
    for xs, rs in ((x, r), (signed_zero, r[:1000])):
        assert binned_residual_estimate(xs, rs, n_bins) == binned_residual_estimate_reference(xs, rs, n_bins)
    distinct = rng.standard_normal(100_000)
    assert binned_residual_estimate(distinct, r, n_bins) == binned_residual_estimate_reference(distinct, r, n_bins)


def test_binned_residual_zero_for_matched_gaussian():
    x, c = _unit_first_chaos()
    est = binned_residual_estimate(*_with_residual(x, c, 4000, 47), 16)
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert est.parameter == 16.0


def test_binned_residual_sees_constant_offset():
    x, c = _unit_first_chaos()
    delta = 0.25
    est = binned_residual_estimate(*_with_residual(x, c + delta, 4000, 48), 16)
    assert est.value == pytest.approx(delta, abs=1e-12)


def test_binned_residual_family_decay():
    # Gamma is affine in X for this family, so the proxy tracks
    # sqrt(E[R^2]) = sqrt(2 c^2 / n)
    vals = {}
    for n in (4, 16):
        x, _ = diagonal_summands(n, (0.5, 0.5))
        est = binned_residual_estimate(*_with_residual(x, 0.5, 60_000, 49), 32)
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


def test_binned_residual_validation():
    x_vals, resid = _with_residual(*_unit_first_chaos(), 100, 50)
    with pytest.raises(ValueError, match="n_bins"):
        binned_residual_estimate(x_vals, resid, 0)
    with pytest.raises(ValueError, match="n_bins <= n_samples"):
        binned_residual_estimate(x_vals, resid, 200)
    with pytest.raises(ValueError, match="degenerate"):  # X = 0 on every path
        binned_residual_estimate(np.zeros(100), resid, 4)
