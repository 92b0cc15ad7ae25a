"""Command line entry point: chaoskit <experiment> [options]."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (
    EXPERIMENTS,
    ExperimentConfig,
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
    parser.add_argument("--n-bins", type=int, default=None, metavar="N", help="decouple only")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    return parser


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "experiment")


def _load_config_file(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_FIELDS) - {"experiment"}
    if unknown:
        raise ValueError(f"unknown config fields in {path}: {sorted(unknown)}")
    for key in ("n_schedule", "t_grid", "z_grid"):
        if key in data and not isinstance(data[key], list):
            raise ValueError(f"{key} in {path} must be a JSON array, got {data[key]!r}")
    return data


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        kwargs: dict = {}
        if args.config is not None:
            file_conf = _load_config_file(args.config)
            file_conf.pop("experiment", None)  # the positional argument decides
            kwargs.update(file_conf)
        for key in _CONFIG_FIELDS:
            value = getattr(args, key, None)
            if value is not None:
                kwargs[key] = value
        if args.experiment == "three_way" and not any(
            kwargs.get(k) is not None for k in ("c1", "c2", "c3")
        ):
            kwargs["c1"] = kwargs["c2"] = kwargs["c3"] = 1.0 / 3.0
        config = ExperimentConfig(experiment=args.experiment, **kwargs)
        report = run_experiment(config)
        if config.out is not None:
            save_report(report, config.out, config.fmt)
            print(config.out)
        else:
            print(report_to_json(report))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
