"""The records of three small runs, pinned against golden reports in tests/data.

`tools/golden_records.py --write` wrote each tests/data/golden_<experiment>.json
at seed 4242 with 1 and 2 workers: the config the report echoed, its records
and their sha256.  Each test rebuilds the config from the file, runs it and
compares the records by assert_same_records, the rule the script also checks
by when run without --write.  test_runner_records_match_reference checks the
runners against an oracle built from the same primitives, so a change to
the evaluator or the draws moves both; this test holds the numbers
themselves.  A change that moves records on purpose reruns the script with
--write and logs the move.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from chaoskit import ExperimentConfig, report_to_json, run_experiment

DATA = Path(__file__).resolve().parent / "data"

# Floats are not compared bit for bit: numpy's SIMD exp and log may differ in
# the last ulp between CPU feature sets, and so may the order of a BLAS sum.
# A Monte Carlo move shifts a value by far more than this relative tolerance.
REL_TOL = 1e-12
# Exact zeros (the contraction norms of disjoint summands, the additivity
# gaps) have no relative scale; every nonzero float in the files is above 1e-6.
ABS_FLOOR = 1e-15


def assert_same_records(got, want, path: str = "records") -> None:
    """Keys, ints, bools, strings and None exactly; floats to REL_TOL or ABS_FLOOR."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{path}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key, value in want.items():
            assert_same_records(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: {got!r} != {want!r}"
        for i, value in enumerate(want):
            assert_same_records(got[i], value, f"{path}.{i}")
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", ["decouple", "three_way", "counterexample"])
def test_records_match_golden_report(experiment, workers):
    golden = json.loads((DATA / f"golden_{experiment}.json").read_text())
    config = ExperimentConfig(**golden["config"])
    body = json.loads(report_to_json(run_experiment(config, workers=workers)))
    digest = hashlib.sha256(json.dumps(body["records"], sort_keys=True).encode()).hexdigest()
    print(f"{experiment} workers={workers}: records sha256 {digest} (golden {golden['sha256']})")
    assert body["config"] == golden["config"]
    assert_same_records(body["records"], golden["records"])
