"""Every integer argument follows one rule, grid.check_int.

A bool is not a count, and a float or string is never truncated or parsed
into one; numpy integers are integers.  Each entry below names the argument
its error message must name and a valid value of it.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from chaoskit import (
    ExperimentConfig,
    IncrementStream,
    binned_residual_estimate,
    contract,
    diagonal_summands,
    evaluate_samples,
    kernel_from_dict,
    make_grid,
    run_experiment,
    sample_increments_block,
    simulate_counterexample,
    single_chaos,
    step_kernel,
)
from chaoskit.grid import check_run_counts

G4 = make_grid(4)
STREAM = IncrementStream(seed=1)
F1 = step_kernel(G4, 1, np.arange(4.0))
F2 = step_kernel(G4, 2, np.eye(4))
X = np.linspace(-1.0, 1.0, 8)


def _config(**kwargs):
    return ExperimentConfig(experiment="counterexample", **kwargs)


# entry point -> (call with the value under test, argument name, valid value)
CASES = {
    "make_grid": (lambda v: make_grid(v), "m", 4),
    "IncrementStream.seed": (lambda v: IncrementStream(seed=v), "seed", 3),
    "IncrementStream.stream_id": (lambda v: IncrementStream(1, stream_id=v), "stream_id", 2),
    "check_run_counts.n_samples": (lambda v: check_run_counts(v, 1), "n_samples", 10),
    "check_run_counts.workers": (lambda v: check_run_counts(10, v), "workers", 2),
    "standard_normal_block.n_vars": (lambda v: STREAM.standard_normal_block(v, 0, 2), "n_vars", 2),
    "standard_normal_block.start": (lambda v: STREAM.standard_normal_block(2, v, 2), "start", 1),
    "standard_normal_block.count": (lambda v: STREAM.standard_normal_block(2, 0, v), "count", 2),
    "sample_increments_block": (lambda v: sample_increments_block(G4, STREAM, v, 1), "start", 1),
    "sample_increments_block.count": (
        lambda v: sample_increments_block(G4, STREAM, 0, v), "count", 2
    ),
    "evaluate_samples.n_samples": (
        lambda v: evaluate_samples([single_chaos(F1)], v, STREAM), "n_samples", 4
    ),
    "evaluate_samples.workers": (
        lambda v: evaluate_samples([single_chaos(F1)], 4, STREAM, workers=v), "workers", 2
    ),
    # with nothing to evaluate the counts are still checked
    "evaluate_samples.empty.n_samples": (lambda v: evaluate_samples([], v, STREAM), "n_samples", 4),
    "evaluate_samples.empty.workers": (
        lambda v: evaluate_samples([], 4, STREAM, workers=v), "workers", 2
    ),
    "run_experiment.workers": (
        lambda v: run_experiment(
            ExperimentConfig("three_way", n_schedule=(4,), mc_samples=16, n_bins=4), workers=v
        ),
        "workers",
        2,
    ),
    "step_kernel": (lambda v: step_kernel(G4, v, np.eye(4)), "order", 2),
    "contract": (lambda v: contract(F2, F2, v), "ell", 1),
    "kernel_from_dict.m": (
        lambda v: kernel_from_dict({"order": 1, "m": v, "values": [0.0] * 4}), "m", 4
    ),
    "kernel_from_dict.order": (
        lambda v: kernel_from_dict({"order": v, "m": 2, "values": [0.0] * 4}), "order", 2
    ),
    "diagonal_summands": (lambda v: diagonal_summands(v, (0.5, 0.5)), "n", 2),
    "binned_residual_estimate": (lambda v: binned_residual_estimate(X, X, v), "n_bins", 2),
    "simulate_counterexample": (
        lambda v: simulate_counterexample(v, 4, STREAM), "path_steps", 100
    ),
    "simulate_counterexample.n_samples": (
        lambda v: simulate_counterexample(100, v, STREAM), "n_samples", 4
    ),
    "simulate_counterexample.workers": (
        lambda v: simulate_counterexample(100, 4, STREAM, workers=v), "workers", 2
    ),
    "ExperimentConfig.n_schedule": (lambda v: _config(n_schedule=(v,)), "n_schedule entry", 4),
    "ExperimentConfig.mc_samples": (lambda v: _config(mc_samples=v), "mc_samples", 100),
    "ExperimentConfig.seed": (lambda v: _config(seed=v), "seed", 7),
    "ExperimentConfig.n_bins": (lambda v: _config(n_bins=v), "n_bins", 8),
    "ExperimentConfig.path_steps": (lambda v: _config(path_steps=v), "path_steps", 200),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("entry", CASES)
def test_integer_argument_rejects_non_integers(entry, bad):
    call, name, _ = CASES[entry]
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)} must be"):
        call(bad)


@pytest.mark.parametrize("entry", CASES)
def test_integer_argument_accepts_numpy_integers(entry):
    call, _, good = CASES[entry]
    call(np.int64(good))


@pytest.mark.parametrize("n_samples,workers", [(-5, 0), (0, 1), (4, 0)])
def test_evaluate_samples_checks_the_counts_with_nothing_to_evaluate(n_samples, workers):
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        evaluate_samples([], n_samples, STREAM, workers=workers)
    assert evaluate_samples([], 4, STREAM, workers=2) == []
