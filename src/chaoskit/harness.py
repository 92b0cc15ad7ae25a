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
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .chaos import ChaosExpansion, add, evaluate_samples, fourth_cumulant, gamma, gamma_residual, second_moment
from .families import diagonal_second_chaos, half_support_second_chaos, simulate_counterexample
from .grid import IncrementStream, make_grid
from .independence import class_a_diagnostic, strongly_independent
from .stein import (
    STEIN_MAX_ARG,
    CriterionEstimate,
    _binned_residual_estimate,
    _char_fn_estimate,
    _stein_estimate,
    fourth_moment_bound,
    kolmogorov_distance_mc,
)

EXPERIMENTS = ("decouple", "counterexample", "class_a", "three_way")

# Exact identities (cumulant additivity, Gamma residual additivity) must hold
# to this relative tolerance or the run aborts.
EXACT_IDENTITY_RTOL = 1e-10

_SPLIT_ATOL = 1e-12


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
        schedule = tuple(int(n) for n in self.n_schedule)
        if not schedule:
            raise ValueError("n_schedule must be nonempty")
        if any(n < 1 for n in schedule):
            raise ValueError(f"n_schedule entries must be >= 1, got {schedule}")
        if any(a <= b for b, a in zip(schedule, schedule[1:])):
            raise ValueError(f"n_schedule must be strictly increasing, got {schedule}")
        object.__setattr__(self, "n_schedule", schedule)
        object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        object.__setattr__(self, "z_grid", tuple(float(z) for z in self.z_grid))
        if not self.t_grid or not self.z_grid:
            raise ValueError("t_grid and z_grid must be nonempty")
        # Every report echoes both grids, so they must be finite even where unused.
        if not all(math.isfinite(v) for v in self.t_grid + self.z_grid):
            raise ValueError(
                f"t_grid and z_grid must be finite, got {self.t_grid} and {self.z_grid}"
            )
        if not isinstance(self.mc_samples, (int, np.integer)) or self.mc_samples < 2:
            raise ValueError(f"mc_samples must be an integer >= 2, got {self.mc_samples!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # Every report echoes the split, so it must be finite even where unused.
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if value is None and name == "c3":
                continue
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"format must be 'json' or 'csv', got {self.fmt!r}")
        if (
            not isinstance(self.n_bins, (int, np.integer))
            or isinstance(self.n_bins, bool)
            or self.n_bins < 1
        ):
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
            if (
                not isinstance(self.path_steps, (int, np.integer))
                or self.path_steps < 100
                or self.path_steps % 2 != 0
            ):
                raise ValueError(
                    f"path_steps must be an even integer >= 100, got {self.path_steps!r}"
                )
        if self.experiment in ("decouple", "class_a"):
            if not (self.c1 > 0.0 and self.c2 > 0.0):
                raise ValueError("variance split requires c1 > 0 and c2 > 0")
            if abs(self.c1 + self.c2 - 1.0) > _SPLIT_ATOL:
                raise ValueError(
                    f"variance split must satisfy c1 + c2 = 1, got {self.c1} + {self.c2}"
                )
        if self.experiment == "three_way":
            c3 = self.c3 if self.c3 is not None else 1.0 - self.c1 - self.c2
            object.__setattr__(self, "c3", float(c3))
            cs = (self.c1, self.c2, self.c3)
            if any(not (c > 0.0) for c in cs):
                raise ValueError(f"three_way split must be strictly positive, got {cs}")
            if abs(sum(cs) - 1.0) > _SPLIT_ATOL:
                raise ValueError(f"three_way split must sum to 1, got {cs}")

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


def _criterion_block(
    x_vals: np.ndarray,
    g_vals: np.ndarray,
    c: float,
    t_grid,
    z_grid,
    n_bins: int,
) -> dict:
    resid = c - g_vals
    return {
        "char": [_est_dict(_char_fn_estimate(x_vals, resid, t), "t") for t in t_grid],
        "stein": [_est_dict(_stein_estimate(x_vals, resid, z), "z") for z in z_grid],
        "conditional": _est_dict(
            _binned_residual_estimate(x_vals, resid, n_bins), "n_bins"
        ),
    }


def _check_additivity(total: float, parts: float, label: str) -> float:
    scale = max(abs(total), abs(parts), 1e-300)
    gap = abs(total - parts) / scale
    if gap > EXACT_IDENTITY_RTOL:
        raise RuntimeError(
            f"{label} additivity violated: total={total!r} parts={parts!r} rel gap={gap:.3e}"
        )
    return gap


def run_decoupling(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    records = []
    for n in config.n_schedule:
        x = half_support_second_chaos(n, config.c1, "left")
        y = half_support_second_chaos(n, config.c2, "right")
        s = add(x, y)
        var_x = second_moment(x)
        var_y = second_moment(y)
        k4_x = fourth_cumulant(x)
        k4_y = fourth_cumulant(y)
        k4_sum = fourth_cumulant(s)
        res_x = gamma_residual(x, config.c1)
        res_y = gamma_residual(y, config.c2)
        res_sum = gamma_residual(s, 1.0)
        add_gap = _check_additivity(res_sum, res_x + res_y, "Gamma residual")
        k4_gap = _check_additivity(k4_sum, k4_x + k4_y, "fourth cumulant")
        exact = {
            "var_x": var_x,
            "var_y": var_y,
            "k4_x": k4_x,
            "k4_y": k4_y,
            "k4_sum": k4_sum,
            "k4_additivity_gap_rel": k4_gap,
            "gamma_residual_x": res_x,
            "gamma_residual_y": res_y,
            "gamma_residual_sum": res_sum,
            "additivity_gap_rel": add_gap,
            "bound_x": fourth_moment_bound(x),
            "bound_y": fourth_moment_bound(y),
        }
        stream = IncrementStream(config.seed, stream_id=n)
        x_vals, y_vals, gx_vals, gy_vals = evaluate_samples(
            [x, y, gamma(x), gamma(y)], config.mc_samples, stream, workers=workers
        )
        s_vals = x_vals + y_vals
        mc = {
            "dkol_x": kolmogorov_distance_mc(x_vals, var_x),
            "dkol_y": kolmogorov_distance_mc(y_vals, var_y),
            "dkol_sum": kolmogorov_distance_mc(s_vals, 1.0),
            "crit_x": _criterion_block(
                x_vals, gx_vals, config.c1, config.t_grid, config.z_grid, config.n_bins
            ),
            "crit_y": _criterion_block(
                y_vals, gy_vals, config.c2, config.t_grid, config.z_grid, config.n_bins
            ),
        }
        records.append({"n": int(n), "exact": exact, "mc": mc})
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)


def run_three_way(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    cs = (config.c1, config.c2, config.c3)
    records = []
    for n in config.n_schedule:
        grid = make_grid(3 * n)
        parts = [
            diagonal_second_chaos(grid, range(k * n, (k + 1) * n), cs[k])
            for k in range(3)
        ]
        total = add(add(parts[0], parts[1]), parts[2])
        k4s = [fourth_cumulant(p) for p in parts]
        k4_sum = fourth_cumulant(total)
        residuals = [gamma_residual(p, cs[k]) for k, p in enumerate(parts)]
        res_sum = gamma_residual(total, 1.0)
        add_gap = _check_additivity(res_sum, sum(residuals), "Gamma residual")
        k4_gap = _check_additivity(k4_sum, sum(k4s), "fourth cumulant")
        exact = {
            "var": [second_moment(p) for p in parts],
            "k4": k4s,
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
        part_vals, gamma_vals = vals[:3], vals[3:]
        sum_vals = part_vals[0] + part_vals[1] + part_vals[2]
        mc = {
            "dkol": [
                kolmogorov_distance_mc(part_vals[k], cs[k]) for k in range(3)
            ],
            "dkol_sum": kolmogorov_distance_mc(sum_vals, 1.0),
            "char": [
                [
                    _est_dict(
                        _char_fn_estimate(part_vals[k], cs[k] - gamma_vals[k], t), "t"
                    )
                    for t in config.t_grid
                ]
                for k in range(3)
            ],
        }
        records.append({"n": int(n), "exact": exact, "mc": mc})
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)


def run_class_a(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    records = []
    for n in config.n_schedule:
        x = half_support_second_chaos(n, config.c1, "left")
        y = half_support_second_chaos(n, config.c2, "right")
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
        records.append({"n": int(n), "exact": exact, "mc": mc})
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)


def run_counterexample(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    start = time.perf_counter()
    stream = IncrementStream(config.seed, stream_id=config.path_steps)
    batch = simulate_counterexample(config.path_steps, config.mc_samples, stream)
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
    records = [{"n": int(config.path_steps), "exact": {}, "mc": mc}]
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(config=config.to_dict(), records=records, runtime_ms=runtime_ms)


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
