"""Experiment drivers and report serialization.

Each experiment produces one record per schedule entry with two sections:
`exact` values computed through the kernel algebra (a pure function of the
config) and `mc` values estimated by Monte Carlo (a pure function of config
and seed).  Reports serialize to JSON or flattened CSV.

run_experiment is the one entry point: it runs the experiment that
config.experiment names, so a runner never sees another experiment's config.

Experiments:

    decouple        left/right second-chaos couple: variance split c1 + c2 = 1,
                    fourth cumulants, Gamma residual additivity, fourth-moment
                    bounds (ExactSummary.bound), Kolmogorov distances,
                    criterion functionals
    three_way       the same decomposition across three disjoint summands
    counterexample  Euler simulation of the independent, not strongly independent pair

decouple and three_way are k = 2 and k = 3 of one k-way runner: k diagonal
second-chaos summands on disjoint n-cell blocks of a k*n grid, with the
variance split `ExperimentConfig.split`.  Each record holds one list entry
per summand (exact variance, cumulant, residual and bound; Kolmogorov
distance and criterion block char, stein, conditional); decouple spreads
each two-entry list into `_x`/`_y` keys.  Both end their exact section with
an `independence` list: per summand pair, the strong-independence verdict and
E[Gamma(X_i, X_j)^2], whose root bounds |E[e^{it(X_i+X_j)} Gamma(X_i, X_j)]|.

Threads: run_experiment's `workers` bounds the threads of grid.run_tasks.
Every experiment draws and evaluates its Monte Carlo paths on them, block by
block (evaluate_samples, simulate_counterexample).  In decouple and
three_way, once a record's paths are evaluated, its estimator calls (each
summand's Kolmogorov distance, char, Stein and binned estimates, and the
sum's Kolmogorov distance) run on them too.  The exact algebra and the
counterexample's statistics run on the calling thread.
Records are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .chaos import add, cross_gamma, evaluate_samples, exact_summary, second_moment
from .families import check_path_steps, diagonal_summands, simulate_counterexample
from .grid import IncrementStream, check_int, check_object, check_real, run_tasks
from .independence import strongly_independent
from .kernels import check_dense_entries
from .stein import (
    STEIN_MAX_ARG,
    CriterionEstimate,
    binned_residual_estimate,
    char_fn_estimates,
    kolmogorov_distance_mc,
    stein_estimates,
)

# Exact identities (cumulant additivity, Gamma residual additivity) must hold
# to this relative tolerance or the run aborts.
EXACT_IDENTITY_RTOL = 1e-10

# The characteristic-function criteria read e^{itX} through the phase t*X.
# For samples X of a few units, |t*X| then stays below about 1e7, where a
# double still resolves the phase to about 2e-9 rad; far beyond, the phase
# is mostly rounding, and near 1e308 / |X| it overflows and e^{itX} is NaN.
CHAR_FN_MAX_T = 1e6

_SPLIT_ATOL = 1e-12

# The formats a report is written in, by report_to_json and report_to_csv.
REPORT_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_schedule: tuple = (4, 16, 64, 256)
    # With no split entry given, the summands share the variance equally;
    # otherwise a missing c1 or c2 is 0.5 and three_way's c3 is the remainder.
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    mc_samples: int = 100_000
    seed: int = 42
    t_grid: tuple = (0.5, 1.0, 2.0)
    z_grid: tuple = (-1.0, 0.0, 1.0)
    path_steps: int = 1000
    n_bins: int = 32

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("n_schedule", "t_grid", "z_grid"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError(f"{name} must be a nonempty list, got {value!r}")
        schedule = tuple(check_int("n_schedule entry", n, 1) for n in self.n_schedule)
        if any(a <= b for b, a in zip(schedule, schedule[1:])):
            raise ValueError(f"n_schedule must be strictly increasing, got {schedule}")
        object.__setattr__(self, "n_schedule", schedule)
        # Every report echoes both grids, so they must be finite even where unused.
        for name in ("t_grid", "z_grid"):
            values = tuple(check_real(f"{name} entry", v) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        # path_steps is read by counterexample alone, but every report echoes it.
        for name, minimum in (("mc_samples", 2), ("seed", 0), ("n_bins", 1), ("path_steps", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), minimum))
        if self.experiment != "three_way" and self.c3 is not None:
            raise ValueError(f"c3 is a three_way field, got c3={self.c3!r} for {self.experiment}")
        no_split = all(getattr(self, name) is None for name in ("c1", "c2", "c3"))
        k = 3 if self.experiment == "three_way" and no_split else 2
        for name in ("c1", "c2", "c3")[:k]:
            if getattr(self, name) is None:
                object.__setattr__(self, name, 1.0 / k)
        # Every report echoes the split, so it must be finite even where unused;
        # every experiment but counterexample builds summands of these variances.
        positive = self.experiment != "counterexample"
        for name in ("c1", "c2"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), positive=positive))
        if self.experiment == "three_way":
            c3 = self.c3 if self.c3 is not None else 1.0 - self.c1 - self.c2
            object.__setattr__(self, "c3", check_real("c3", c3, positive=True))
        if self.experiment == "counterexample":
            check_path_steps(self.path_steps)
        else:  # the experiments with summands read the split, both grids and n_bins
            if abs(sum(self.split) - 1.0) > _SPLIT_ATOL:
                raise ValueError(f"variance split must sum to 1, got {self.split}")
            if any(abs(t) > CHAR_FN_MAX_T for t in self.t_grid):
                raise ValueError(f"t_grid entries must satisfy |t| <= {CHAR_FN_MAX_T}, got {self.t_grid}")
            if any(abs(z) > STEIN_MAX_ARG for z in self.z_grid):
                raise ValueError(f"z_grid entries must satisfy |z| <= {STEIN_MAX_ARG}, got {self.z_grid}")
            if self.n_bins > self.mc_samples:
                raise ValueError(f"n_bins must not exceed mc_samples, got {self.n_bins} > {self.mc_samples}")
            # Entry n puts each diagonal summand's m = k*n stored entries on a
            # k*n-cell grid; checked here, not at the first oversized entry
            # after the earlier ones have sampled.
            for n in self.n_schedule:
                check_dense_entries(len(self.split) * n, 1, f"n_schedule entry {n}'s diagonal kernel")

    @property
    def split(self) -> tuple:
        """Summand variances (c1, c2, c3) for three_way, else (c1, c2)."""
        if self.experiment == "three_way":
            return (self.c1, self.c2, self.c3)
        return (self.c1, self.c2)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
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


def _call_tasks(tree, workers: int):
    """tree, a nest of dicts and lists, with each leaf task replaced by task().

    The leaves are zero-argument calls; they run through run_tasks on up to
    `workers` threads and their results land in tree order, so the returned
    nest is the same for any worker count.
    """

    def rebuild(node, leaf):
        if isinstance(node, dict):
            return {key: rebuild(value, leaf) for key, value in node.items()}
        if isinstance(node, list):
            return [rebuild(value, leaf) for value in node]
        return leaf(node)

    tasks: list = []
    rebuild(tree, tasks.append)
    results = iter(run_tasks(workers, tasks))
    return rebuild(tree, lambda task: next(results))


def _run_k_way(config: ExperimentConfig, workers: int) -> ExperimentReport:
    """The decoupling experiment on k = len(config.split) disjoint summands.

    Per schedule entry it reads the exact per-summand lists (var, k4,
    gamma_residual, bound) from one exact_summary per summand, and the
    totals from one of the sum, checks both additivities, forms the
    pairwise `independence` list, then evaluates the summands and their
    summaries' Gammas on one shared stream.  The mc section is a nest of
    estimator tasks: per summand its Kolmogorov distance against its exact
    variance and its criterion block, and the sum's distance against 1.  The
    tasks run on up to `workers` threads once evaluate_samples has returned,
    so their temporaries never sit on top of the evaluator's chunk buffers.
    decouple spreads each two-entry list into `_x`/`_y` keys.
    """
    cs = config.split

    def criteria(v, r):
        return {
            "char": lambda: [_est_dict(e, "t") for e in char_fn_estimates(v, r, config.t_grid)],
            "stein": lambda: [_est_dict(e, "z") for e in stein_estimates(v, r, config.z_grid)],
            "conditional": lambda: _est_dict(binned_residual_estimate(v, r, config.n_bins), "n_bins"),
        }

    def record(n):
        parts = diagonal_summands(n, cs)
        whole = exact_summary(functools.reduce(add, parts), 1.0)
        k4_sum, res_sum = whole.k4, whole.residual
        del whole  # only the summands' Gammas are sampled; free the sum's first
        summaries = [exact_summary(p, c) for p, c in zip(parts, cs)]
        k4 = [s.k4 for s in summaries]
        residuals = [s.residual for s in summaries]
        add_gap = _check_additivity(res_sum, sum(residuals), "Gamma residual")
        k4_gap = _check_additivity(k4_sum, sum(k4), "fourth cumulant")
        independence = _independence(parts)
        exact = {
            "var": [s.var for s in summaries],
            "k4": k4,
            "k4_sum": k4_sum,
            "k4_additivity_gap_rel": k4_gap,
            "gamma_residual": residuals,
            "gamma_residual_sum": res_sum,
            "additivity_gap_rel": add_gap,
            "bound": [s.bound for s in summaries],
        }
        stream = IncrementStream(config.seed, stream_id=n)
        vals = evaluate_samples(
            parts + [s.gamma for s in summaries], config.mc_samples, stream, workers=workers
        )
        samples = vals[: len(parts)]
        resid_vals = [c - g for c, g in zip(cs, vals[len(parts) :])]
        mc = {
            "dkol": [
                functools.partial(kolmogorov_distance_mc, v, var) for v, var in zip(samples, exact["var"])
            ],
            "dkol_sum": functools.partial(kolmogorov_distance_mc, sum(samples[1:], samples[0]), 1.0),
            "crit": [criteria(v, r) for v, r in zip(samples, resid_vals)],
        }
        if config.experiment == "decouple":
            exact, mc = _spread_xy(exact), _spread_xy(mc)
        return {**exact, "independence": independence}, _call_tasks(mc, workers)

    return _timed_report(config, config.n_schedule, record)


def _independence(parts) -> list:
    """Per summand pair i < j, in the order (0, 1), (0, 2), (1, 2): the pair's
    strongly_independent verdict and cross_gamma_residual = E[Gamma(X_i, X_j)^2]."""
    entries = []
    for i, j in itertools.combinations(range(len(parts)), 2):
        si = strongly_independent(parts[i], parts[j])
        entries.append({
            "pair": [i, j],
            "strongly_independent": bool(si.independent),
            "worst_pair": list(si.worst_pair),
            "worst_contraction_norm": si.worst_norm,
            "cross_gamma_residual": second_moment(cross_gamma(parts[i], parts[j])),
        })
    return entries


def _spread_xy(block: dict) -> dict:
    """Replace each two-entry list `key` by `key_x` and `key_y`, keeping key order."""
    out = {}
    for key, value in block.items():
        if isinstance(value, list):
            out[f"{key}_x"], out[f"{key}_y"] = value
        else:
            out[key] = value
    return out


def _run_counterexample(config: ExperimentConfig, workers: int) -> ExperimentReport:
    def record(path_steps):
        stream = IncrementStream(config.seed, stream_id=path_steps)
        batch = simulate_counterexample(path_steps, config.mc_samples, stream, workers=workers)
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
    "decouple": _run_k_way,
    "three_way": _run_k_way,
    "counterexample": _run_counterexample,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run config.experiment's runner on up to `workers` threads."""
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
    """The report in a report_to_json body; ValueError unless it is an object with every field."""
    data = json.loads(text)
    check_object("report", data, ("config", "records", "runtime_ms"))
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


def check_format(fmt) -> str:
    """fmt; ValueError unless it names one of REPORT_FORMATS."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {fmt!r}")
    return fmt


def save_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write the report to path as report_to_json or, with fmt "csv", report_to_csv text."""
    text = report_to_json(report) if check_format(fmt) == "json" else report_to_csv(report)
    Path(path).write_text(text)
