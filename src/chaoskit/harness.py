"""Experiment drivers and report serialization.

Each experiment produces one record per schedule entry with two sections:
`exact` values computed through the kernel algebra (a pure function of the
config) and `mc` values estimated by Monte Carlo (a pure function of config
and seed).  Reports serialize to JSON or flattened CSV.

Experiments:

    decouple        left/right second-chaos couple: variance split c1 + c2 = 1,
                    fourth cumulants, Gamma residual additivity, fourth-moment
                    bounds, Kolmogorov distances, criterion functionals
    three_way       the same decomposition across three disjoint summands
    class_a         characteristic-function cross diagnostic for a strongly
                    independent couple
    counterexample  Euler simulation of the independent, not strongly independent pair

decouple and three_way are k = 2 and k = 3 of one k-way runner: k diagonal
second-chaos summands on disjoint n-cell blocks of a k*n grid, with the
variance split `ExperimentConfig.split`.  They differ only in their record
layout: decouple spreads each per-summand list into `_x`/`_y` keys and
carries the full criterion block, three_way keeps lists and the
characteristic-function criterion only.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .chaos import add, evaluate_samples, fourth_cumulant, gamma, gamma_residual, second_moment
from .families import diagonal_second_chaos, simulate_counterexample
from .grid import IncrementStream, make_grid
from .independence import class_a_diagnostic, strongly_independent
from .stein import (
    STEIN_MAX_ARG,
    CriterionEstimate,
    binned_residual_estimate,
    char_fn_estimates,
    fourth_moment_bound,
    kolmogorov_distance_mc,
    stein_estimates,
)

EXPERIMENTS = ("decouple", "counterexample", "class_a", "three_way")

# Exact identities (cumulant additivity, Gamma residual additivity) must hold
# to this relative tolerance or the run aborts.
EXACT_IDENTITY_RTOL = 1e-10

_SPLIT_ATOL = 1e-12


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_schedule: tuple = (4, 16, 64, 256)
    c1: float = 0.5
    c2: float = 0.5
    c3: float | None = None
    mc_samples: int = 100_000
    seed: int = 42
    t_grid: tuple = (0.5, 1.0, 2.0)
    z_grid: tuple = (-1.0, 0.0, 1.0)
    path_steps: int = 1000
    n_bins: int = 32
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        schedule = tuple(self.n_schedule)
        if not schedule:
            raise ValueError("n_schedule must be nonempty")
        if not all(_is_int(n) for n in schedule):
            raise ValueError(f"n_schedule entries must be integers, got {schedule}")
        schedule = tuple(int(n) for n in schedule)
        if any(n < 1 for n in schedule):
            raise ValueError(f"n_schedule entries must be >= 1, got {schedule}")
        if any(a <= b for b, a in zip(schedule, schedule[1:])):
            raise ValueError(f"n_schedule must be strictly increasing, got {schedule}")
        object.__setattr__(self, "n_schedule", schedule)
        if not all(_is_real(v) for v in tuple(self.t_grid) + tuple(self.z_grid)):
            raise ValueError(
                f"t_grid and z_grid entries must be real numbers, got {self.t_grid} and {self.z_grid}"
            )
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        object.__setattr__(self, "z_grid", tuple(float(z) for z in self.z_grid))
        if not self.t_grid or not self.z_grid:
            raise ValueError("t_grid and z_grid must be nonempty")
        # Every report echoes both grids, so they must be finite even where unused.
        if not all(math.isfinite(v) for v in self.t_grid + self.z_grid):
            raise ValueError(
                f"t_grid and z_grid must be finite, got {self.t_grid} and {self.z_grid}"
            )
        if not _is_int(self.mc_samples) or self.mc_samples < 2:
            raise ValueError(f"mc_samples must be an integer >= 2, got {self.mc_samples!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # Every report echoes the split, so it must be finite even where unused.
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if value is None and name == "c3":
                continue
            if not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be 'json' or 'csv', got {self.fmt!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if not _is_int(self.n_bins) or self.n_bins < 1:
            raise ValueError(f"n_bins must be an integer >= 1, got {self.n_bins!r}")
        if self.experiment == "decouple":
            if self.n_bins > self.mc_samples:
                raise ValueError(
                    f"n_bins must not exceed mc_samples, got {self.n_bins} > {self.mc_samples}"
                )
            if any(abs(z) > STEIN_MAX_ARG for z in self.z_grid):
                raise ValueError(
                    f"z_grid entries must satisfy |z| <= {STEIN_MAX_ARG}, got {self.z_grid}"
                )
        if self.experiment == "counterexample":
            if not _is_int(self.path_steps) or self.path_steps < 100 or self.path_steps % 2 != 0:
                raise ValueError(
                    f"path_steps must be an even integer >= 100, got {self.path_steps!r}"
                )
        if self.experiment == "three_way":
            c3 = self.c3 if self.c3 is not None else 1.0 - self.c1 - self.c2
            object.__setattr__(self, "c3", float(c3))
        if self.experiment != "counterexample":  # the only one without summands
            cs = self.split
            if not all(c > 0.0 for c in cs):
                raise ValueError(f"variance split must be strictly positive, got {cs}")
            if abs(sum(cs) - 1.0) > _SPLIT_ATOL:
                raise ValueError(f"variance split must sum to 1, got {cs}")

    @property
    def split(self) -> tuple:
        """Summand variances (c1, c2, c3) for three_way, else (c1, c2)."""
        if self.experiment == "three_way":
            return (self.c1, self.c2, self.c3)
        return (self.c1, self.c2)

    def to_dict(self) -> dict:
        # The echo describes the experiment itself; output destination and
        # format are presentation details and stay out of the report body.
        out = {}
        for f in fields(self):
            if f.name in ("out", "fmt"):
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    records: list
    runtime_ms: float


def _est_dict(est: CriterionEstimate, param_name: str) -> dict:
    return {
        param_name: est.parameter,
        "value": est.value,
        "std_error": est.std_error,
    }


def _check_additivity(total: float, parts: float, label: str) -> float:
    scale = max(abs(total), abs(parts), 1e-300)
    gap = abs(total - parts) / scale
    if gap > EXACT_IDENTITY_RTOL:
        raise RuntimeError(
            f"{label} additivity violated: total={total!r} parts={parts!r} rel gap={gap:.3e}"
        )
    return gap


def _timed_report(config: ExperimentConfig, schedule, record) -> ExperimentReport:
    """Build one record per schedule entry from record(n) -> (exact, mc), timing the run."""
    start = time.perf_counter()
    records = []
    for n in schedule:
        exact, mc = record(n)
        records.append({"n": int(n), "exact": exact, "mc": mc})
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)


def _diagonal_summands(n: int, split: tuple) -> list:
    """Diagonal second-chaos summands on the disjoint n-cell blocks of a k*n grid, E = split."""
    grid = make_grid(len(split) * n)
    return [diagonal_second_chaos(grid, range(j * n, (j + 1) * n), c) for j, c in enumerate(split)]


def _run_k_way(config: ExperimentConfig, workers: int, layout) -> ExperimentReport:
    """The decoupling experiment on k = len(config.split) disjoint summands.

    Per schedule entry it computes the exact per-summand lists (var, k4,
    gamma_residual, bound) with the totals and both additivity checks, then
    evaluates the summands and their Gammas on one shared stream.
    layout(exact, samples, resid_vals) returns the record's (exact, mc)
    sections, where samples[j] holds the draws of summand j and resid_vals[j]
    those of c_j - Gamma_j on the same paths.
    """
    cs = config.split

    def record(n):
        parts = _diagonal_summands(n, cs)
        total = functools.reduce(add, parts)
        k4 = [fourth_cumulant(p) for p in parts]
        k4_sum = fourth_cumulant(total)
        residuals = [gamma_residual(p, c) for p, c in zip(parts, cs)]
        res_sum = gamma_residual(total, 1.0)
        add_gap = _check_additivity(res_sum, sum(residuals), "Gamma residual")
        k4_gap = _check_additivity(k4_sum, sum(k4), "fourth cumulant")
        exact = {
            "var": [second_moment(p) for p in parts],
            "k4": k4,
            "k4_sum": k4_sum,
            "k4_additivity_gap_rel": k4_gap,
            "gamma_residual": residuals,
            "gamma_residual_sum": res_sum,
            "additivity_gap_rel": add_gap,
            "bound": [fourth_moment_bound(p) for p in parts],
        }
        stream = IncrementStream(config.seed, stream_id=n)
        vals = evaluate_samples(
            parts + [gamma(p) for p in parts], config.mc_samples, stream, workers=workers
        )
        samples = vals[: len(parts)]
        resid_vals = [c - g for c, g in zip(cs, vals[len(parts) :])]
        return layout(exact, samples, resid_vals)

    return _timed_report(config, config.n_schedule, record)


def _spread_xy(block: dict) -> dict:
    """Replace each two-entry list `key` by `key_x` and `key_y`, keeping key order."""
    out = {}
    for key, value in block.items():
        if isinstance(value, list):
            out[f"{key}_x"], out[f"{key}_y"] = value
        else:
            out[key] = value
    return out


def run_decoupling(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    def layout(exact, samples, resid_vals):
        mc = {
            "dkol": [kolmogorov_distance_mc(v, var) for v, var in zip(samples, exact["var"])],
            "dkol_sum": kolmogorov_distance_mc(sum(samples[1:], samples[0]), 1.0),
            "crit": [
                {
                    "char": [_est_dict(e, "t") for e in char_fn_estimates(v, r, config.t_grid)],
                    "stein": [_est_dict(e, "z") for e in stein_estimates(v, r, config.z_grid)],
                    "conditional": _est_dict(binned_residual_estimate(v, r, config.n_bins), "n_bins"),
                }
                for v, r in zip(samples, resid_vals)
            ],
        }
        return _spread_xy(exact), _spread_xy(mc)

    return _run_k_way(config, workers, layout)


def run_three_way(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    def layout(exact, samples, resid_vals):
        # Against the target c_j, where decouple uses the exact E[X_j^2]; the two
        # can differ in the last bit, so each keeps its own.
        mc = {
            "dkol": [kolmogorov_distance_mc(v, c) for v, c in zip(samples, config.split)],
            "dkol_sum": kolmogorov_distance_mc(sum(samples[1:], samples[0]), 1.0),
            "char": [
                [_est_dict(e, "t") for e in char_fn_estimates(v, r, config.t_grid)]
                for v, r in zip(samples, resid_vals)
            ],
        }
        return exact, mc

    return _run_k_way(config, workers, layout)


def run_class_a(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    def record(n):
        x, y = _diagonal_summands(n, config.split)
        si = strongly_independent(x, y)
        stream = IncrementStream(config.seed, stream_id=n)
        diag = class_a_diagnostic(
            x, y, config.t_grid, config.mc_samples, stream, workers=workers
        )
        exact = {
            "strongly_independent": bool(si.independent),
            "worst_pair": list(si.worst_pair) if si.worst_pair is not None else None,
            "worst_contraction_norm": si.worst_norm,
        }
        mc = {
            "max_modulus": diag.max_modulus,
            "moduli": [_est_dict(e, "t") for e in diag.estimates],
        }
        return exact, mc

    return _timed_report(config, config.n_schedule, record)


def run_counterexample(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    def record(path_steps):
        stream = IncrementStream(config.seed, stream_id=path_steps)
        batch = simulate_counterexample(path_steps, config.mc_samples, stream)
        x, y = batch.x, batch.y
        n = x.size
        w = (x + y) / 2.0  # the shared Gaussian factor W(1) - W(1/2)
        sqrt_n = math.sqrt(n)
        xw, yw = x * w, y * w
        corr = float(np.corrcoef(x, y)[0, 1])
        mc = {
            "var_x": float(x.var(ddof=1)),
            "var_y": float(y.var(ddof=1)),
            "var_se": math.sqrt(2.0 / (n - 1)),
            "corr_xy": corr,
            "corr_se": 1.0 / sqrt_n,
            "proj_x": float(xw.mean()),
            "proj_x_se": float(xw.std(ddof=1) / sqrt_n),
            "proj_y": float(yw.mean()),
            "proj_y_se": float(yw.std(ddof=1) / sqrt_n),
            "dkol_x": kolmogorov_distance_mc(x, 1.0),
            "dkol_y": kolmogorov_distance_mc(y, 1.0),
            "dkol_scaled_sum": kolmogorov_distance_mc((x + y) / math.sqrt(2.0), 1.0),
        }
        return {}, mc

    return _timed_report(config, (config.path_steps,), record)


_RUNNERS = {
    "decouple": run_decoupling,
    "three_way": run_three_way,
    "class_a": run_class_a,
    "counterexample": run_counterexample,
}


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    return _RUNNERS[config.experiment](config, workers=workers)


# ---------------------------------------------------------------------------
# Report serialization


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config,
        "records": report.records,
        "runtime_ms": report.runtime_ms,
    }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, allow_nan=False)


def report_from_json(text: str) -> ExperimentReport:
    data = json.loads(text)
    return ExperimentReport(
        config=data["config"], records=data["records"], runtime_ms=data["runtime_ms"]
    )


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = obj


def report_to_csv(report: ExperimentReport) -> str:
    """One row per (experiment, n) with dotted flattened columns."""
    experiment = report.config.get("experiment", "")
    rows = []
    for record in report.records:
        flat: dict = {}
        _flatten("", record, flat)
        flat = {"experiment": experiment, **flat}
        rows.append(flat)
    header: list = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def save_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    if fmt == "json":
        Path(path).write_text(report_to_json(report))
    elif fmt == "csv":
        Path(path).write_text(report_to_csv(report))
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
