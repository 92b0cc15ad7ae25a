"""Rewrite the golden records of tests/data and print the record digests.

    PYTHONPATH=src python3 tools/golden_records.py

Runs each small config of CASES at seed 4242 with 1 and 2 workers, stops
unless both give the same records, and writes tests/data/golden_<experiment>.json:
the config the report echoes, the records, and the sha256 of the records
JSON with sorted keys.  tests/test_golden_records.py reruns each config and
compares its records with the file.  A change that moves records on purpose
reruns this script in the same change and logs the move.

It then prints the same digest of the records of each experiment at its CLI
defaults (`chaoskit <experiment> --seed 4242`), with 1 and 2 workers: the
digests that a change which keeps the records quotes.  Those runs take a few
seconds each.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chaoskit import ExperimentConfig, report_to_json, run_experiment  # noqa: E402

SEED = 4242
DATA = ROOT / "tests" / "data"

# Configs that each run in well under a second.
CASES = {
    "decouple": {"n_schedule": (4, 16, 64), "mc_samples": 4096},
    "three_way": {"n_schedule": (4, 16, 64), "mc_samples": 4096},
    "counterexample": {"path_steps": 200, "mc_samples": 4096},
}


def records_sha256(records) -> str:
    """sha256 of the records JSON with sorted keys."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def report(experiment: str, fields: dict, workers: int) -> dict:
    """The JSON body of the report the CLI writes for this config, without its runtime."""
    config = ExperimentConfig(experiment=experiment, seed=SEED, **fields)
    body = json.loads(report_to_json(run_experiment(config, workers=workers)))
    return {"config": body["config"], "records": body["records"]}


def same_on_workers_1_and_2(experiment: str, fields: dict) -> dict:
    one, two = (report(experiment, fields, workers) for workers in (1, 2))
    if one != two:
        raise SystemExit(f"{experiment}: records differ between 1 and 2 workers")
    return one


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for experiment, fields in CASES.items():
        body = same_on_workers_1_and_2(experiment, fields)
        body["sha256"] = records_sha256(body["records"])
        path = DATA / f"golden_{experiment}.json"
        path.write_text(json.dumps(body, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: records sha256 {body['sha256']}")
    for experiment in CASES:
        body = same_on_workers_1_and_2(experiment, {})
        print(f"{experiment} at CLI defaults, workers 1 and 2: records sha256 {records_sha256(body['records'])}")


if __name__ == "__main__":
    main()
