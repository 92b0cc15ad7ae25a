"""Stein-equation machinery and normal-approximation estimators over samples.

For a centered F with E[F^2] = c, the distance to N(0, c) is controlled by
how far <DF, D(-L)^{-1} F> sits from the constant c.  This module provides
the bounded solution of the Stein equation, Kolmogorov distances against a
normal target, and Monte Carlo estimators of the criterion functionals.
Every estimator takes sample arrays, never an expansion: samples of X and of
a residual R on the same paths, so one evaluation serves every parameter.
Callers evaluate X and R = c - <DX, D(-L)^{-1} X> through
chaos.evaluate_samples, then pass the arrays here.

The normal CDF and erfcx are numpy rational functions (the split of Cody,
Math. Comp. 23, 1969), with coefficients fitted by tools/fit_erfcx.py, so
the module needs no scipy.

ndtr, erfcx, the Kolmogorov distance and the Stein estimates work one band
of grid.band_rows(1) entries at a time: ndtr and erfcx fill their output
band by band, the Kolmogorov distance takes its maximum gap over the bands
of its one sorted copy, and the Stein estimates fill, band by band, one
array of sqrt(pi/2) erfcx(|X|/sqrt2), the factor of f_z(X) that every z
reads, and one of f_z'(X) R for each z in turn.  Beside those, only the
arrays that a whole-array reduction reads (a sort, a mean, a variance) are
as large as the sample, so each holds a fixed number of band-sized
temporaries whatever the sample size, and the bits are those of one pass
over the whole array.  char_fn_estimates keeps one complex array whole,
since its mean and variance read all of it, and refills it for each t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import band_rows, check_int, check_real, real_array

# The closed form of the Stein solution multiplies exp((x^2 - z^2)/2) by a
# normal tail; beyond this magnitude the intermediate terms are no longer
# trustworthy in double precision.
STEIN_MAX_ARG = 40.0

# The sample estimators square the residuals in every standard error, and the
# binned one multiplies squared bin means by bin variances, a fourth power of
# R.  Below this magnitude R^4 times any sample count that fits in memory
# stays finite, so no estimate or standard error overflows to inf.
RESID_MAX = 1e60

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# erfcx(t) = exp(t^2) erfc(t) is _ERFCX_P(t) / _ERFCX_Q(t) on [0, 4] and
# (1 + u _TAIL_P(u) / _TAIL_Q(u)) / (sqrt(pi) t) with u = 1/t^2 above 4;
# coefficients lowest degree first.  Both fits are within 1e-16 relative.
_ERFCX_P = (
    1.0, 1.6077285402823729, 1.3021843413735579, 0.6497087873672936, 0.21243450817122225,
    0.045185475730632446, 0.005788534554244734, 0.00034630493044359394, 4.457119669685451e-11,
)
_ERFCX_Q = (
    1.0, 2.7361077073778812, 3.389551277308422, 2.490552905166075, 1.1914158675967994,
    0.38164803694447336, 0.08039724813394855, 0.010259829063541736, 0.0006138131504409708,
)
_TAIL_P = (
    -0.49999999999999994, -12.43031297773863, -99.09010586744594, -289.847966746381,
    -251.4434483071408, -13.917523010799952,
)
_TAIL_Q = (1.0, 26.360625955476763, 233.97115066851748, 844.9253120303047, 1179.803787535798, 467.859183249559)


def _polynomial(coeffs: tuple, t: np.ndarray) -> np.ndarray:
    # sum_k coeffs[k] t^k by Horner's rule, in place on one new array.
    out = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


def _rational(p: tuple, q: tuple, t: np.ndarray) -> np.ndarray:
    out = _polynomial(p, t)
    out /= _polynomial(q, t)
    return out


def _banded(fill, x) -> np.ndarray:
    # fill(x_band, out_band) over one band of x's entries at a time, into a
    # new float64 array of x's shape (a 0-d array for a scalar x).
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    rows = band_rows(1)
    for lo in range(0, flat_x.size, rows):
        fill(flat_x[lo : lo + rows], flat_out[lo : lo + rows])
    return out


def _erfcx_band(t: np.ndarray, out: np.ndarray) -> None:
    # t may be out: the far entries are read before any of them is written.
    near = t <= 4.0
    out[near] = _rational(_ERFCX_P, _ERFCX_Q, t[near])
    far = t[~near]
    u = 1.0 / far
    u *= u
    out[~near] = (1.0 + u * _rational(_TAIL_P, _TAIL_Q, u)) / (_SQRT_PI * far)


def _erfcx(t) -> np.ndarray:
    """exp(t^2) erfc(t) for t >= 0 (an array or scalar), to a few ulps; wrong below 0."""
    return _banded(_erfcx_band, t)


def _ndtr_band(x: np.ndarray, out: np.ndarray) -> None:
    a = np.abs(x)
    np.minimum(a, 40.0, out=a)
    np.multiply(a, _INV_SQRT2, out=out)
    _erfcx_band(out, out)
    a *= a
    a *= -0.5
    out *= np.exp(a, out=a)
    out *= 0.5  # Phi(-a)
    np.subtract(1.0, out, out=out, where=x >= 0.0)  # Phi(a) = 1 - Phi(-a) where x >= 0


def ndtr(x) -> np.ndarray:
    """The standard normal CDF at every real x (an array or scalar).

    Phi(-a) = exp(-a^2/2) erfcx(a/sqrt 2) / 2 and Phi(a) = 1 - Phi(-a) with
    a = min(|x|, 40), past which Phi(-a) is 0 in doubles: within a few ulps
    of Phi(-a) but for the rounding of a^2 in the exponent.
    """
    return _banded(_ndtr_band, x)


@dataclass(frozen=True)
class CriterionEstimate:
    """One Monte Carlo functional: value, its standard error, and its parameter."""

    value: float
    std_error: float
    n_samples: int
    parameter: float


def stein_solution(z: float, x):
    """Bounded solution f_z of f'(x) - x f(x) = 1_{(-inf, z]}(x) - Phi(z).

    Returns (f_z(x), f_z'(x)); x may be a scalar or ndarray.  Evaluation goes
    through erfcx so the exp(x^2/2) growth cancels analytically; f' comes from
    the equation itself, so the residual is zero to rounding.
    """
    z = check_real("stein_solution z", z)
    xs = real_array("stein_solution x", x)
    _check_stein_args((z,), xs)
    f, fprime = _stein_solution(z, xs, _banded(_stein_tail_band, xs))
    if xs.ndim == 0:
        return float(f), float(fprime)
    return f, fprime


def _check_stein_args(zs: tuple, xs: np.ndarray) -> None:
    # max and -min bound |x| without an |x| temporary.
    if any(abs(z) > STEIN_MAX_ARG for z in zs) or (
        xs.size and max(xs.max(), -xs.min()) > STEIN_MAX_ARG
    ):
        raise ValueError(f"stein_solution arguments must satisfy |x|, |z| <= {STEIN_MAX_ARG}")


def _stein_tail_band(x: np.ndarray, out: np.ndarray) -> None:
    # sqrt(pi/2) erfcx(|x|/sqrt2): the factor of f_z(x) that depends on x
    # alone wherever x is not strictly between 0 and z.
    np.abs(x, out=out)
    out *= _INV_SQRT2
    _erfcx_band(out, out)
    out *= _SQRT_HALF_PI


def _stein_solution(z: float, xs: np.ndarray, tail: np.ndarray) -> tuple:
    # stein_solution on checked arguments, given tail, _stein_tail_band of
    # xs: (f_z(xs), f_z'(xs)) as arrays, f' from the equation itself.
    f = _stein_f(z, xs, tail)
    fprime = xs * f
    fprime += xs <= z
    fprime -= ndtr(z)
    return f, fprime


def _stein_f(z: float, xs: np.ndarray, tail: np.ndarray) -> np.ndarray:
    # f_z(x) = f_{-z}(-x): with (u, w) = (-x, -z) for x <= z and (x, z) for
    # x >= z, u >= w and |u| = |x|, so two closed forms cover every x.  (z, x)
    # and (-z, -x) take the same form at the same |x| and w, so f keeps the
    # reflection bit for bit; at z = 0 both sides take x = 0, to the same bits.
    lo, hi = xs <= min(z, 0.0), xs >= max(z, 0.0)
    # w <= u < 0, x strictly between 0 and z:  sqrt(pi/2) Phi(-u) erfcx(-w/sqrt2)
    # e^{(u^2-w^2)/2}, where -u = |x| and -w = |z|.  Formed before f, so f
    # and the temporaries of this ndtr are not held at once.
    mid = ~(lo | hi)
    v = np.abs(xs[mid])
    v = _SQRT_HALF_PI * ndtr(v) * _erfcx(abs(z) * _INV_SQRT2) * np.exp((v * v - z * z) / 2.0)
    f = np.empty_like(xs)
    f[mid] = v
    # u >= 0, x <= min(z, 0) or x >= max(z, 0):  sqrt(pi/2) erfcx(u/sqrt2) Phi(w)
    for side, w in ((lo, -z), (hi, z)):
        np.multiply(tail, ndtr(w), out=f, where=side)
    return f


def kolmogorov_distance_mc(samples: np.ndarray, variance: float) -> float:
    """Kolmogorov distance between the empirical law of `samples` and N(0, variance).

    Both sides of each empirical CDF step are checked, which is what makes the
    statistic exact for the sorted sample.
    """
    arr = real_array("samples", samples).ravel()
    if arr.size == 0:
        raise ValueError("need at least one sample")
    variance = check_real("variance", variance, positive=True)
    n = arr.size
    scale = math.sqrt(variance)
    ordered = np.sort(arr)
    rows = band_rows(1)
    gap_max = -math.inf
    for lo in range(0, n, rows):
        band = ordered[lo : lo + rows]
        band /= scale
        cdf = ndtr(band)
        # the empirical CDF after lo, lo + 1, ..., lo + len(band) samples
        steps = np.arange(lo, lo + band.size + 1, dtype=np.float64)
        steps /= n
        # the band's sorted samples are read: it holds the gaps from here on
        upper = np.subtract(steps[1:], cdf, out=band).max()
        lower = np.subtract(cdf, steps[:-1], out=band).max()
        gap_max = max(gap_max, upper, lower)
    return float(gap_max)


# ---------------------------------------------------------------------------
# Criterion functionals on shared samples


def _check_samples(x_vals, resid_vals) -> tuple:
    # A length-1 or (n, 1) residual would broadcast, a NaN would sort into a
    # bin or vanish from a modulus, and one sample has no standard error; each
    # would report a number.  A residual beyond RESID_MAX would report inf.
    x_vals, resid_vals = real_array("x_vals", x_vals), real_array("resid_vals", resid_vals)
    shapes = (x_vals.shape, resid_vals.shape)
    if len(shapes[0]) != 1 or shapes[0] != shapes[1]:
        raise ValueError(f"x_vals and resid_vals must be 1-D of equal length, got shapes {shapes}")
    if x_vals.size < 2:
        raise ValueError(f"need at least two samples, got {x_vals.size}")
    if max(resid_vals.max(), -resid_vals.min()) > RESID_MAX:  # no |R| temporary
        raise ValueError(f"resid_vals must satisfy |R| <= {RESID_MAX:g}, got an entry beyond it")
    return x_vals, resid_vals


def char_fn_estimates(
    x_vals: np.ndarray, resid_vals: np.ndarray, t_grid: Sequence[float]
) -> tuple:
    """|E[e^{itX} R]| for each t in t_grid, each with a complex-mean standard error."""
    x_vals, resid_vals = _check_samples(x_vals, resid_vals)
    t_grid = tuple(check_real("t_grid entry", t) for t in t_grid)
    x_max = float(max(x_vals.max(), -x_vals.min()))  # no |x| temporary
    n = x_vals.size
    for t in t_grid:
        # A phase t*x that overflows would make e^{itx} NaN.
        check_real(f"t_grid entry {t!r} times max |x_vals|", t * x_max)
    vals = np.empty(n, dtype=np.complex128)  # e^{itX} R, one t after another
    estimates = []
    for t in t_grid:
        np.multiply(1j * t, x_vals, out=vals)
        np.exp(vals, out=vals)
        vals *= resid_vals
        se = math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n)
        estimates.append(CriterionEstimate(float(abs(vals.mean())), se, n, t))
    return tuple(estimates)


def stein_estimates(
    x_vals: np.ndarray, resid_vals: np.ndarray, z_grid: Sequence[float]
) -> tuple:
    """E[f_z'(X) R] for each z in z_grid, each with its standard error."""
    x_vals, resid_vals = _check_samples(x_vals, resid_vals)
    z_grid = tuple(check_real("z_grid entry", z) for z in z_grid)
    _check_stein_args(z_grid, x_vals)
    n = x_vals.size
    rows = band_rows(1)
    tail = _banded(_stein_tail_band, x_vals)  # read for every z
    vals = np.empty(n)  # f_z'(X) R, filled band by band for each z
    estimates = []
    for z in z_grid:
        for lo in range(0, n, rows):
            band = slice(lo, lo + rows)
            # one statement, so a band's f_z and f_z' are freed before the next band's
            np.multiply(_stein_solution(z, x_vals[band], tail[band])[1], resid_vals[band], out=vals[band])
        se = math.sqrt(vals.var(ddof=1) / n)
        estimates.append(CriterionEstimate(float(vals.mean()), se, n, z))
    return tuple(estimates)


def _stable_argsort(x: np.ndarray) -> np.ndarray:
    # np.argsort(x, kind="stable"), from the faster default sort when no two
    # entries compare equal (-0.0 and 0.0 do), since distinct values have one
    # ranking.  The sorted neighbours are compared a band at a time.
    order = np.argsort(x)
    rows = band_rows(1)
    for lo in range(0, x.size - 1, rows):
        ranked = x[order[lo : lo + rows + 1]]
        if np.any(ranked[1:] == ranked[:-1]):
            return np.argsort(x, kind="stable")
    return order


def binned_residual_estimate(
    x_vals: np.ndarray, resid_vals: np.ndarray, n_bins: int
) -> CriterionEstimate:
    """L2 proxy for ||E[R | X]||: equal-count bins on X, root-mean-square of bin means."""
    x_vals, resid_vals = _check_samples(x_vals, resid_vals)
    n = x_vals.size
    n_bins = check_int("n_bins", n_bins, 1)
    if n_bins > n:
        raise ValueError(f"need n_bins <= n_samples, got n_bins={n_bins}, n={n}")
    if np.min(x_vals) == np.max(x_vals):
        raise ValueError("degenerate binning: all conditioning samples are equal")
    order = _stable_argsort(x_vals)
    edges = np.linspace(0, n, n_bins + 1).astype(np.int64)
    value_sq = 0.0
    var_sq = 0.0
    fallback_var = 0.0
    for b in range(n_bins):
        sel = order[edges[b] : edges[b + 1]]
        nb = sel.size
        if nb == 0:
            raise ValueError("degenerate binning: empty bin")
        w = nb / n
        resid = resid_vals[sel]
        mb = resid.mean()
        vb = resid.var(ddof=1) / nb if nb > 1 else 0.0
        value_sq += w * mb * mb
        var_sq += (2.0 * w * mb) ** 2 * vb
        fallback_var += w * w * vb
    value = math.sqrt(value_sq)
    if value > 0.0 and var_sq > 0.0:
        se = math.sqrt(var_sq) / (2.0 * value)
    else:
        se = math.sqrt(fallback_var)
    return CriterionEstimate(
        value=value, std_error=se, n_samples=n, parameter=float(n_bins)
    )
