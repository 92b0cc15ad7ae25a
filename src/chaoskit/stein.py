"""Stein-equation machinery and normal-approximation diagnostics.

For a centered F with E[F^2] = c, the distance to N(0, c) is controlled by
how far <DF, D(-L)^{-1} F> sits from the constant c.  This module provides
the bounded solution of the Stein equation, Kolmogorov distances against a
normal target, the fourth-moment bound sqrt(|k4|)/E[F^2] for a single-order
F (read from chaos.exact_summary, which forms it), and Monte Carlo
estimators of the criterion functionals.  The sample-level estimators take
samples of X and of a residual R on the same paths, so one evaluation serves
every parameter; `criterion_functionals` and `conditional_residual_estimate`
evaluate X and R = c - <DX, D(-L)^{-1} X>, then call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erfcx, ndtr

from .chaos import ChaosExpansion, evaluate_samples, exact_summary, gamma
from .grid import IncrementStream, check_int, check_real, real_array

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
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CriterionEstimate:
    """One Monte Carlo functional: value, its standard error, and its parameter."""

    value: float
    std_error: float
    n_samples: int
    parameter: float


class CriterionFunctionals(NamedTuple):
    """Characteristic-function and Stein-kernel criterion estimates."""

    char_fn: tuple
    stein: tuple


def stein_solution(z: float, x):
    """Bounded solution f_z of f'(x) - x f(x) = 1_{(-inf, z]}(x) - Phi(z).

    Returns (f_z(x), f_z'(x)); x may be a scalar or ndarray.  Evaluation goes
    through erfcx so the exp(x^2/2) growth cancels analytically; f' comes from
    the equation itself, so the residual is zero to rounding.
    """
    z = check_real("stein_solution z", z)
    xs = real_array("stein_solution x", x)
    if abs(z) > STEIN_MAX_ARG or np.any(np.abs(xs) > STEIN_MAX_ARG):
        raise ValueError(f"stein_solution arguments must satisfy |x|, |z| <= {STEIN_MAX_ARG}")
    phi_z = ndtr(z)
    q_z = ndtr(-z)
    f = np.empty_like(xs)
    below = xs <= z
    # x <= z, x <= 0:  sqrt(pi/2) erfcx(-x/sqrt2) (1 - Phi(z))
    mask = below & (xs <= 0.0)
    f[mask] = _SQRT_HALF_PI * erfcx(-xs[mask] * _INV_SQRT2) * q_z
    # 0 < x <= z:      sqrt(pi/2) Phi(x) erfcx(z/sqrt2) e^{(x^2-z^2)/2}
    mask = below & (xs > 0.0)
    if np.any(mask):
        xb = xs[mask]
        f[mask] = _SQRT_HALF_PI * ndtr(xb) * erfcx(z * _INV_SQRT2) * np.exp((xb * xb - z * z) / 2.0)
    # x > z, x >= 0:   sqrt(pi/2) erfcx(x/sqrt2) Phi(z)
    mask = (~below) & (xs >= 0.0)
    f[mask] = _SQRT_HALF_PI * erfcx(xs[mask] * _INV_SQRT2) * phi_z
    # z < x < 0:       sqrt(pi/2) Phi(-x) erfcx(-z/sqrt2) e^{(x^2-z^2)/2}
    mask = (~below) & (xs < 0.0)
    if np.any(mask):
        xb = xs[mask]
        f[mask] = _SQRT_HALF_PI * ndtr(-xb) * erfcx(-z * _INV_SQRT2) * np.exp((xb * xb - z * z) / 2.0)
    fprime = xs * f + below.astype(np.float64) - phi_z
    if xs.ndim == 0:
        return float(f), float(fprime)
    return f, fprime


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
    cdf = ndtr(np.sort(arr) / math.sqrt(variance))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def fourth_moment_bound(x: ChaosExpansion) -> float:
    """Kolmogorov bound sqrt(|k4|) / E[X^2] for X living in a single chaos."""
    orders = [n for n in x.nonzero_orders() if n >= 1]
    if x.expectation != 0.0 or len(orders) != 1:
        raise ValueError("fourth_moment_bound requires a centered single-order expansion")
    summary = exact_summary(x, 0.0)  # the residual's target plays no part in the bound
    if summary.var <= 0.0:
        raise ValueError("fourth_moment_bound requires a nonzero expansion")
    return summary.bound


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
    x_max = float(np.max(np.abs(x_vals)))
    n = x_vals.size
    estimates = []
    for t in t_grid:
        # A phase t*x that overflows would make e^{itx} NaN.
        check_real(f"t_grid entry {t!r} times max |x_vals|", t * x_max)
        vals = np.exp(1j * t * x_vals) * resid_vals
        se = math.sqrt((vals.real.var(ddof=1) + vals.imag.var(ddof=1)) / n)
        estimates.append(CriterionEstimate(float(abs(vals.mean())), se, n, t))
    return tuple(estimates)


def stein_estimates(
    x_vals: np.ndarray, resid_vals: np.ndarray, z_grid: Sequence[float]
) -> tuple:
    """E[f_z'(X) R] for each z in z_grid, each with its standard error."""
    x_vals, resid_vals = _check_samples(x_vals, resid_vals)
    z_grid = tuple(check_real("z_grid entry", z) for z in z_grid)
    n = x_vals.size
    estimates = []
    for z in z_grid:
        _, fprime = stein_solution(z, x_vals)
        vals = fprime * resid_vals
        se = math.sqrt(vals.var(ddof=1) / n)
        estimates.append(CriterionEstimate(float(vals.mean()), se, n, z))
    return tuple(estimates)


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
    order = np.argsort(x_vals, kind="stable")
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
        mb = resid_vals[sel].mean()
        vb = resid_vals[sel].var(ddof=1) / nb if nb > 1 else 0.0
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


def criterion_functionals(
    x: ChaosExpansion,
    c: float,
    t_grid: Sequence[float],
    z_grid: Sequence[float],
    n_samples: int,
    stream: IncrementStream,
    workers: int = 1,
) -> CriterionFunctionals:
    """Monte Carlo criterion functionals |E[e^{itX}(c - G)]| and E[f_z'(X)(c - G)].

    G = <DX, D(-L)^{-1} X> is expanded once and evaluated pathwise on the same
    increments as X, so each estimate couples X with its own Gamma functional.
    """
    c = check_real("target variance c", c, positive=True)
    x_vals, g_vals = evaluate_samples([x, gamma(x)], n_samples, stream, workers=workers)
    resid = c - g_vals
    char_fn = char_fn_estimates(x_vals, resid, t_grid)
    stein = stein_estimates(x_vals, resid, z_grid)
    return CriterionFunctionals(char_fn=char_fn, stein=stein)


def conditional_residual_estimate(
    x: ChaosExpansion,
    c: float,
    n_bins: int = 32,
    n_samples: int = 100_000,
    stream: IncrementStream = IncrementStream(seed=0),
    workers: int = 1,
) -> CriterionEstimate:
    """Binned L2 proxy for ||E[c - G | X]|| with G = <DX, D(-L)^{-1} X>."""
    c = check_real("target variance c", c, positive=True)
    x_vals, g_vals = evaluate_samples([x, gamma(x)], n_samples, stream, workers=workers)
    return binned_residual_estimate(x_vals, c - g_vals, n_bins)
