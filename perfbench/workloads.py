"""The benchmark's three workloads: inputs, one timed pass, and its correctness check.

decouple_default
    The paper's headline experiment through the CLI at its defaults; most of
    its time is the pathwise evaluator on sparse diagonal kernels, then RNG.
counterexample_default
    The CLI counterexample at its defaults; mostly RNG draws.  It never enters
    `hermite`, the evaluator or the kernel algebra, so it is their bypass
    workload, where the prediction for changes there is no change.
dense_algebra
    Seeded random symmetric mixed-order expansions and a fixed task list;
    kernel algebra through the `multiply` route and term-bound evaluation.

perfbench/README.md gives the full reasons for each choice.  An operation is
one CLI schedule record or one dense_algebra task.  It fails if it raises,
yields a non-finite value, or fails its check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

import chaoskit as ck
from chaoskit import cli, harness

# Monte Carlo checks accept an estimate within this many of its standard
# errors of the exact value.  A Gaussian estimate leaves that band about
# once in 1.7 million checks.
SE_MULTIPLE = 5.0

# E[G_X] = E[X^2] and the generated E[X^2] = 1 are exact identities.
DENSE_RTOL = 1e-10

# (m, orders, evaluate G_X too).  G_X of the order-3 input at m = 32 has an
# order-4 plan of 52 360 terms, about 13 s per 4096 paths, so only X is
# evaluated there.
DENSE_INPUTS = {
    "full": ((12, (1, 2, 3), True), (32, (3,), False), (64, (1, 2), True)),
    "reduced": ((6, (1, 2, 3), True), (8, (3,), False), (10, (1, 2), True)),
}
DENSE_PATHS = {"full": 4096, "reduced": 512}

# CLI flags of the reduced size the self-test runs; the full size passes none.
REDUCED_CLI = {
    "decouple": {"n_schedule": (4, 16), "mc_samples": 8192},
    "counterexample": {"path_steps": 200, "mc_samples": 8192},
}
_FLAGS = {"n_schedule": "--n-schedule", "mc_samples": "--mc", "path_steps": "--path-steps"}


class Outcome:
    """Operations attempted and failed in one pass, and a digest of its results."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    if isinstance(obj, bool):
        return True
    return isinstance(obj, (int, float)) and math.isfinite(obj)


def _close(value, expected: float, rtol: float) -> bool:
    return _finite(value) and abs(value - expected) <= rtol * abs(expected)


def _within_se(value, expected: float, se) -> bool:
    return _finite(value) and _finite(se) and abs(value - expected) <= SE_MULTIPLE * se


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload:
    def __init__(self, experiment: str) -> None:
        self.experiment = experiment

    def setup(self, seed: int, size: str, tmp: Path):
        overrides = REDUCED_CLI[self.experiment] if size == "reduced" else {}
        config = harness.ExperimentConfig(experiment=self.experiment, seed=seed, **overrides)
        out = tmp / f"{self.experiment}.json"
        argv = [self.experiment, "--seed", str(seed), "--out", str(out)]
        for key, value in overrides.items():
            argv += [_FLAGS[key], ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
        return config, argv, out

    def run(self, state, tracer) -> Outcome:
        config, argv, out = state
        outcome = Outcome()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except RuntimeError:  # an exact identity failed inside the run
            code = None
        expected = len(config.n_schedule) if self.experiment == "decouple" else 1
        with _span(tracer, "bench.check"):
            try:
                records = json.loads(out.read_text())["records"] if code == 0 else []
            except (OSError, ValueError, KeyError):
                records = []
            if len(records) != expected:
                records = [None] * expected
            for record in records:
                outcome.record(self.check(record, config))
            outcome.digest.update(json.dumps(records, sort_keys=True).encode())
        return outcome

    def check(self, record, config) -> bool:
        try:
            if not _finite(record["mc"]):
                return False
            if self.experiment == "decouple":
                return _check_decouple(record, config)
            return _check_counterexample(record["mc"])
        except (KeyError, TypeError):  # a record without the reported fields
            return False


def _check_decouple(record: dict, config) -> bool:
    """Closed forms of the diagonal couple: E[X^2] = c, k4 = 12c^2/n, residual 2c^2/n."""
    n, exact = record["n"], record["exact"]
    c1, c2 = config.c1, config.c2
    expected = {
        "var_x": c1,
        "var_y": c2,
        "k4_x": 12 * c1**2 / n,
        "k4_y": 12 * c2**2 / n,
        "k4_sum": 12 * (c1**2 + c2**2) / n,
        "gamma_residual_x": 2 * c1**2 / n,
        "gamma_residual_y": 2 * c2**2 / n,
        "gamma_residual_sum": 2 * (c1**2 + c2**2) / n,
    }
    rtol = harness.EXACT_IDENTITY_RTOL
    return all(_close(exact[key], value, rtol) for key, value in expected.items())


def _check_counterexample(mc: dict) -> bool:
    """The rotated pair is standard normal, uncorrelated, and projects 1/2 on W(1) - W(1/2)."""
    return (
        _within_se(mc["var_x"], 1.0, mc["var_se"])
        and _within_se(mc["var_y"], 1.0, mc["var_se"])
        and _within_se(mc["corr_xy"], 0.0, mc["corr_se"])
        and _within_se(mc["proj_x"], 0.5, mc["proj_x_se"])
        and _within_se(mc["proj_y"], 0.5, mc["proj_y_se"])
    )


# ---------------------------------------------------------------------------
# dense_algebra


def _random_expansion(rng, m: int, orders) -> "ck.ChaosExpansion":
    """Dense random symmetric kernels, each order carrying an equal share of E[X^2] = 1."""
    grid = ck.make_grid(m)
    slots = [None] * (max(orders) + 1)
    for n in orders:
        raw = rng.standard_normal((m,) * n)
        sym = sum(np.transpose(raw, p) for p in itertools.permutations(range(n)))
        sym /= math.factorial(n)
        moment = math.factorial(n) * grid.delta**n * float(np.sum(sym * sym))
        slots[n] = ck.step_kernel(grid, n, sym * math.sqrt(1.0 / (len(orders) * moment)))
    return ck.chaos_expansion(grid, slots)


class DenseAlgebra:
    def setup(self, seed: int, size: str, tmp: Path):
        inputs = []
        for index, (m, orders, eval_gamma) in enumerate(DENSE_INPUTS[size]):
            x = _random_expansion(np.random.default_rng([seed, index, 0]), m, orders)
            y = _random_expansion(np.random.default_rng([seed, index, 1]), m, orders)
            stream = ck.IncrementStream(seed, stream_id=index)
            inputs.append((x, y, eval_gamma, stream))
        return inputs, DENSE_PATHS[size]

    def run(self, state, tracer) -> Outcome:
        inputs, n_paths = state
        outcome = Outcome()
        for x, y, eval_gamma, stream in inputs:
            results: dict = {}
            for task in _DENSE_TASKS:
                try:
                    ok = task(x, y, eval_gamma, stream, n_paths, results, tracer)
                except (ArithmeticError, KeyError, RuntimeError, ValueError):
                    ok = False
                outcome.record(ok)
            with _span(tracer, "bench.check"):
                for key in sorted(results):
                    value = results[key]
                    if isinstance(value, np.ndarray):
                        outcome.digest.update(value.tobytes())
                    elif isinstance(value, float):
                        outcome.digest.update(repr(value).encode())
        return outcome


def _second_moment(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    results["c"] = c = ck.second_moment(x)
    return _close(c, 1.0, DENSE_RTOL)


def _fourth_cumulant(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    results["k4"] = k4 = ck.fourth_cumulant(x)
    return _finite(k4)


def _gamma(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    results["gamma"] = g = ck.gamma(x)
    results["gamma_mean"] = g.expectation
    return _close(g.expectation, results["c"], DENSE_RTOL)


def _gamma_residual(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    results["residual"] = r = ck.gamma_residual(x, results["c"])
    return _finite(r) and r >= 0.0


def _strongly_independent(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    # Two dense random expansions on one grid share every cell, so their
    # first contractions cannot vanish.
    verdict = ck.strongly_independent(x, y)
    results["independence_norm"] = verdict.worst_norm
    return (not verdict.independent) and _finite(verdict.worst_norm) and verdict.worst_norm > 0.0


def _json_round_trip(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    data = ck.expansion_to_dict(x)
    with _span(tracer, "bench.json"):
        data = json.loads(json.dumps(data))
    back = ck.expansion_from_dict(data)
    return len(back.kernels) == len(x.kernels) and all(
        (a is None and b is None) or (a is not None and b is not None and np.array_equal(a.values, b.values))
        for a, b in zip(x.kernels, back.kernels)
    )


def _evaluate(x, y, eval_gamma, stream, n_paths, results, tracer) -> bool:
    exps = [x, results["gamma"]] if eval_gamma else [x]
    values = ck.evaluate_samples(exps, n_paths, stream)
    with _span(tracer, "bench.check"):
        c, root_n = results["c"], math.sqrt(n_paths)
        xs = values[0]
        results["x_samples"] = xs
        mean, var = float(xs.mean()), float(xs.var(ddof=1))
        var_se = float(((xs - mean) ** 2).std(ddof=1)) / root_n
        ok = _within_se(mean, 0.0, math.sqrt(var) / root_n) and _within_se(var, c, var_se)
        if eval_gamma:
            gs = values[1]
            results["g_samples"] = gs
            ok = ok and _within_se(float(gs.mean()), c, float(gs.std(ddof=1)) / root_n)
    return ok


_DENSE_TASKS = (
    _second_moment,
    _fourth_cumulant,
    _gamma,
    _gamma_residual,
    _strongly_independent,
    _json_round_trip,
    _evaluate,
)


def largest_dense_kernel_mb(size: str) -> float:
    """Largest kernel dense_algebra forms, computed from its inputs.

    A mixed-order fourth cumulant squares X through `multiply`, which forms an
    order-2N kernel; a single order-q input forms contractions of order
    2q - 2 and, through G_X, of the same order.
    """
    largest = 0
    for m, orders, _ in DENSE_INPUTS[size]:
        top = max(orders)
        order = 2 * top if len(orders) > 1 else 2 * top - 2
        largest = max(largest, m**order * 8)
    return largest / 1e6


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    "decouple_default": CliWorkload("decouple"),
    "counterexample_default": CliWorkload("counterexample"),
    "dense_algebra": DenseAlgebra(),
}
