"""The README's library tour runs as written, its CLI examples name the
experiments that exist, its flag table names the CLI's flags and config
fields, and its example CSV columns appear in real reports."""

from __future__ import annotations

import csv
import dataclasses
import io
import re
from pathlib import Path

from chaoskit import EXPERIMENTS, ExperimentConfig, report_to_csv, run_experiment
from chaoskit.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "the library tour has no python block"
    exec(compile(block.group(1), "README.md library tour", "exec"), {})


def test_cli_examples_name_exactly_the_experiments():
    named = set(re.findall(r"^chaoskit (\w+)", README.read_text(), re.MULTILINE))
    assert named == set(EXPERIMENTS)


def _flag_table() -> list:
    # The rows of the table under "| flag | config field | meaning |" as
    # lists of cells; a cell may hold an escaped pipe, as in `json\|csv`.
    text = README.read_text()
    table = text[text.index("| flag | config field | meaning |") :].split("\n\n", 1)[0]
    rows = [re.split(r"(?<!\\)\|", line)[1:-1] for line in table.splitlines()[2:]]
    assert rows and all(len(row) == 3 for row in rows)
    return rows


def test_flag_table_names_exactly_the_cli_flags():
    documented = {flag for flag_cell, _, _ in _flag_table() for flag in re.findall(r"--[\w-]+", flag_cell)}
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert documented == options


def test_flag_table_config_fields_exist():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for flag_cell, field_cell, _ in _flag_table():
        if field_cell.strip() == "none":
            continue
        named = re.findall(r"`(\w+)`", field_cell)
        assert named and set(named) <= fields, (flag_cell, field_cell)


def test_csv_column_examples_appear_in_reports():
    # Each example column in the README's CSV sentence heads a column of a
    # small run of decouple or three_way, and each of the two has an example.
    text = README.read_text()
    sentence = text[text.index("CSV output flattens") :].split("\n\n", 1)[0]
    documented = re.findall(r"`([\w.]+)`", sentence)
    assert documented
    headers = {}
    for experiment in ("decouple", "three_way"):
        config = ExperimentConfig(experiment, n_schedule=(4,), mc_samples=64, n_bins=4)
        csv_text = report_to_csv(run_experiment(config))
        headers[experiment] = next(csv.reader(io.StringIO(csv_text)))
    owners = {column: [e for e, header in headers.items() if column in header] for column in documented}
    assert all(owners.values()), owners
    assert {e for found in owners.values() for e in found} == set(headers), owners
