"""Command line entry point: chaoskit <experiment> [options].

Flags and --config fields set the ExperimentConfig of the run; explicit flags
override the file.  --workers, --out and --format ("workers", "out" and "fmt"
in the file) are read the same way, but they are options of the run, not
config fields, so the report does not echo them: the threads that evaluate
blocks of Monte Carlo paths and, in decouple and three_way, run each record's
estimators (by default the CPUs the process may run on; the records are the
same for any count), the report file (stdout without it) and its format.  A
bad config, worker count, format or --out destination exits 2 with one
"error:" line on stderr before any draw.
`python -m chaoskit` runs the same entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .grid import check_int
from .harness import (
    EXPERIMENTS,
    REPORT_FORMATS,
    ExperimentConfig,
    check_format,
    report_to_csv,
    report_to_json,
    run_experiment,
    save_report,
)


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _csv_floats(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="Run a chaos-decoupling experiment and write its report.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--config",
        type=str,
        default=None,
        help="JSON file with config fields; explicit flags override its values",
    )
    parser.add_argument("--n-schedule", type=_csv_ints, default=None, metavar="N1,N2,...")
    parser.add_argument("--c1", type=float, default=None)
    parser.add_argument("--c2", type=float, default=None)
    parser.add_argument("--c3", type=float, default=None, help="three_way only")
    parser.add_argument("--mc", type=int, default=None, dest="mc_samples", metavar="N")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--t-grid", type=_csv_floats, default=None, metavar="T1,T2,...")
    parser.add_argument("--z-grid", type=_csv_floats, default=None, metavar="Z1,Z2,...")
    parser.add_argument("--path-steps", type=int, default=None)
    parser.add_argument("--n-bins", type=int, default=None, metavar="N")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="threads for Monte Carlo blocks and estimators "
        "(default: CPUs available to this process)",
    )
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=REPORT_FORMATS, default=None, dest="fmt")
    return parser


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "experiment")
_RUN_OPTIONS = ("workers", "out", "fmt")


def _load_config_file(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_FIELDS + _RUN_OPTIONS) - {"experiment"}
    if unknown:
        raise ValueError(f"unknown config fields in {path}: {sorted(unknown)}")
    return data


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kwargs: dict = {}
        if args.config is not None:
            file_conf = _load_config_file(args.config)
            file_conf.pop("experiment", None)  # the positional argument decides
            kwargs.update(file_conf)
        for key in _CONFIG_FIELDS + _RUN_OPTIONS:
            value = getattr(args, key, None)
            if value is not None:
                kwargs[key] = value
        workers = check_int("workers", kwargs.pop("workers", _available_cpus()), 1)
        out = kwargs.pop("out", None)
        if out is not None and not isinstance(out, str):
            raise ValueError(f"out must be a path string, got {out!r}")
        fmt = check_format(kwargs.pop("fmt", "json"))
        config = ExperimentConfig(experiment=args.experiment, **kwargs)
        if out is not None:
            open(out, "a").close()  # an unwritable destination fails before the run
        report = run_experiment(config, workers=workers)
        if out is not None:
            save_report(report, out, fmt)
            print(out)
        elif fmt == "csv":
            print(report_to_csv(report), end="")
        else:
            print(report_to_json(report))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
