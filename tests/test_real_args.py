"""Every real-valued argument follows one rule, grid.check_real, and every
real-valued array one rule, grid.real_array.

A bool is not a number, a string is never parsed into one, and NaN and inf
are never accepted; numpy floats and integers are real numbers and give the
same bits as Python floats of the same value.  Each entry below names the
argument its error message must name and a valid value of it.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from chaoskit import (
    ExperimentConfig,
    GaussianSample,
    IncrementStream,
    binned_residual_estimate,
    char_fn_estimates,
    conditional_residual_estimate,
    constant,
    criterion_functionals,
    custom_single_chaos,
    diagonal_second_chaos,
    evaluate,
    evaluate_batch,
    exact_summary,
    gamma_residual,
    half_support_second_chaos,
    hermite_eval,
    hermite_table,
    integrals_independent,
    is_symmetric,
    kernel_from_dict,
    kolmogorov_distance_mc,
    linear_combine,
    make_grid,
    scale,
    single_chaos,
    stein_estimates,
    stein_solution,
    step_kernel,
    strongly_independent,
)

G4 = make_grid(4)
STREAM = IncrementStream(seed=1)
F1 = step_kernel(G4, 1, np.arange(4.0))
F2 = step_kernel(G4, 2, np.eye(4))
X = single_chaos(F1)
LEFT, RIGHT = (half_support_second_chaos(2, 0.5, side) for side in ("left", "right"))
# Dyadic, so a float32 copy holds the same values.
SAMPLES = np.array([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def _config(experiment="counterexample", **kwargs):
    return ExperimentConfig(experiment=experiment, **kwargs)


# entry point -> (call with the value under test, argument name, valid value)
SCALARS = {
    "constant": (lambda v: constant(G4, v), "value", 2.0),
    "scale": (lambda v: scale(v, X), "a", 2.0),
    "gamma_residual": (lambda v: gamma_residual(X, v), "c", 1.0),
    "exact_summary": (lambda v: exact_summary(X, v), "c", 1.0),
    "linear_combine.a": (lambda v: linear_combine(v, F1, 1.0, F1), "a", 2.0),
    "linear_combine.b": (lambda v: linear_combine(1.0, F1, v, F1), "b", 2.0),
    "is_symmetric": (lambda v: is_symmetric(F2, atol=v), "atol", 0.25),
    "integrals_independent": (lambda v: integrals_independent(F1, F1, tol=v), "tol", 0.25),
    "strongly_independent": (lambda v: strongly_independent(X, X, tol=v), "tol", 0.25),
    "stein_solution.z": (lambda v: stein_solution(v, SAMPLES), "z", 1.0),
    "char_fn_estimates": (lambda v: char_fn_estimates(SAMPLES, SAMPLES, [v]), "t_grid entry", 1.0),
    "stein_estimates": (lambda v: stein_estimates(SAMPLES, SAMPLES, [v]), "z_grid entry", 1.0),
    "hermite_eval.x": (lambda v: hermite_eval(3, v), "x", 2.0),
    "hermite_table.x": (lambda v: hermite_table(3, v), "x", 2.0),
    "ExperimentConfig.t_grid": (lambda v: _config(t_grid=(v,)), "t_grid entry", 2.0),
    "ExperimentConfig.z_grid": (lambda v: _config(z_grid=(v,)), "z_grid entry", 2.0),
    "ExperimentConfig.c1": (lambda v: _config(c1=v), "c1", 0.25),
    "ExperimentConfig.c2": (lambda v: _config(c2=v), "c2", 0.25),
}

# Arguments that must also be > 0.
POSITIVE = {
    "kolmogorov_distance_mc": (lambda v: kolmogorov_distance_mc(SAMPLES, v), "variance", 2.0),
    "criterion_functionals": (
        lambda v: criterion_functionals(X, v, [1.0], [0.0], 16, STREAM), "c", 1.0
    ),
    "conditional_residual_estimate": (
        lambda v: conditional_residual_estimate(X, v, n_bins=2, n_samples=16, stream=STREAM),
        "c",
        1.0,
    ),
    "diagonal_second_chaos": (lambda v: diagonal_second_chaos(G4, [0, 1], v), "c", 1.0),
    "half_support_second_chaos": (lambda v: half_support_second_chaos(2, v), "c", 1.0),
    "custom_single_chaos": (
        lambda v: custom_single_chaos(1, F1, normalize_to=v), "normalize_to", 2.0
    ),
    "ExperimentConfig.c1": (lambda v: _config("decouple", c1=v, c2=0.5), "c1", 0.5),
    "ExperimentConfig.c3": (lambda v: _config("three_way", c1=0.25, c2=0.25, c3=v), "c3", 0.5),
}

# Tolerances, which must also be >= 0: a negative one gave wrong verdicts
# (the identity "not symmetric", disjoint diagonal summands "not independent").
NON_NEGATIVE = {
    "is_symmetric": (lambda v: is_symmetric(F2, atol=v), "atol", 0.0),
    "integrals_independent": (
        lambda v: integrals_independent(LEFT.kernels[2], RIGHT.kernels[2], tol=v), "tol", 0.0
    ),
    "strongly_independent": (lambda v: strongly_independent(LEFT, RIGHT, tol=v), "tol", 0.0),
}

ARRAYS = {
    "GaussianSample": (lambda v: GaussianSample(G4, v), "increments", np.arange(4.0)),
    "evaluate": (lambda v: evaluate(X, v), "sample", np.arange(4.0)),
    "evaluate_batch": (lambda v: evaluate_batch(X, v), "increments", np.arange(12.0).reshape(3, 4)),
    "step_kernel": (lambda v: step_kernel(G4, 2, v), "kernel values", np.eye(4)),
    "kernel_from_dict": (
        lambda v: kernel_from_dict({"order": 1, "m": 4, "values": np.asarray(v).tolist()}),
        "kernel values",
        np.arange(4.0),
    ),
    "stein_solution.x": (lambda v: stein_solution(0.5, v), "x", SAMPLES),
    "hermite_eval.x": (lambda v: hermite_eval(3, v), "x", SAMPLES),
    "hermite_table.x": (lambda v: hermite_table(3, v), "x", SAMPLES),
    "kolmogorov_distance_mc": (lambda v: kolmogorov_distance_mc(v, 1.0), "samples", SAMPLES),
    "char_fn_estimates.x_vals": (lambda v: char_fn_estimates(v, SAMPLES, [1.0]), "x_vals", SAMPLES),
    "char_fn_estimates.resid_vals": (
        lambda v: char_fn_estimates(SAMPLES, v, [1.0]), "resid_vals", SAMPLES
    ),
    "stein_estimates.x_vals": (lambda v: stein_estimates(v, SAMPLES, [0.0]), "x_vals", SAMPLES),
    "binned_residual_estimate.resid_vals": (
        lambda v: binned_residual_estimate(SAMPLES, v, 2), "resid_vals", SAMPLES
    ),
}

BAD_SCALARS = {
    "bool": True, "str": "1", "nan": math.nan, "inf": math.inf, "complex": 1j, "huge_int": 10**400
}
NON_POSITIVE = {**BAD_SCALARS, "zero": 0, "negative": -1.0}


def _bad_arrays(good: np.ndarray) -> dict:
    nan, inf = good.copy(), good.copy()
    nan.flat[0], inf.flat[-1] = math.nan, -math.inf
    return {"bool": good > 0, "str": good.astype(str).tolist(), "nan": nan, "inf": inf}


def _bits(obj):
    """A form of a result that tells any two bit patterns and value types apart."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, float):
        return type(obj).__name__, float(obj).hex()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        return type(obj).__name__, [_bits(v) for v in obj]
    return type(obj).__name__, repr(obj)


def _rejects(call, name, bad) -> None:
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("bad", BAD_SCALARS.values(), ids=BAD_SCALARS)
@pytest.mark.parametrize("entry", SCALARS)
def test_real_argument_rejects_non_finite_non_reals(entry, bad):
    call, name, _ = SCALARS[entry]
    _rejects(call, name, bad)


@pytest.mark.parametrize("bad", NON_POSITIVE.values(), ids=NON_POSITIVE)
@pytest.mark.parametrize("entry", POSITIVE)
def test_positive_argument_rejects_non_positive_values(entry, bad):
    call, name, _ = POSITIVE[entry]
    _rejects(call, name, bad)


@pytest.mark.parametrize("bad", [-1.0, -5e-324, -1])
@pytest.mark.parametrize("entry", NON_NEGATIVE)
def test_tolerance_rejects_negative_values_and_accepts_zero(entry, bad):
    call, name, zero = NON_NEGATIVE[entry]
    with pytest.raises(ValueError, match=rf"\b{name} must be a non-negative"):
        call(bad)
    verdict = call(zero)
    assert verdict is True or verdict.independent


@pytest.mark.parametrize("kind", ["bool", "str", "nan", "inf"])
@pytest.mark.parametrize("entry", ARRAYS)
def test_real_array_rejects_bools_strings_and_non_finite_entries(entry, kind):
    call, name, good = ARRAYS[entry]
    _rejects(call, name, _bad_arrays(good)[kind])


ALL_SCALARS = {**SCALARS, **{f"{entry} (positive)": case for entry, case in POSITIVE.items()}}


@pytest.mark.parametrize("entry", ALL_SCALARS)
def test_real_argument_accepts_numpy_numbers_with_the_same_bits(entry):
    call, _, good = ALL_SCALARS[entry]
    same = [np.float64(good), np.float32(good)]
    if float(good).is_integer():
        same += [int(good), np.int64(good)]
    expected = _bits(call(good))
    for value in same:
        assert _bits(call(value)) == expected, type(value)


@pytest.mark.parametrize("entry", ARRAYS)
def test_real_array_accepts_numpy_floats_and_integers_with_the_same_bits(entry):
    call, _, good = ARRAYS[entry]
    same = [good.astype(np.float32), good.tolist()]
    if np.all(good == np.round(good)):
        same += [good.astype(np.int64), good.astype(np.int8)]
    expected = _bits(call(good))
    for value in same:
        assert _bits(call(value)) == expected, np.asarray(value).dtype
