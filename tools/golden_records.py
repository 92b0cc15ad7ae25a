"""Check the golden records of tests/data and print the record digests.

    PYTHONPATH=src python3 tools/golden_records.py           # check, write nothing
    PYTHONPATH=src python3 tools/golden_records.py --write   # rewrite the files

Runs each small config of CASES at seed 4242 with 1 and 2 workers and stops
unless both give the same records.  By default it compares those records
with tests/data/golden_<experiment>.json under the rule of
tests/test_golden_records.py (floats to a relative 1e-12, everything else
exactly), prints each case's digest beside the file's, and exits 1 if any
case differs; no file is written, so running it to quote digests never
re-pins records a change has moved.  With --write it writes each file
instead: the config the report echoes, the records, and the sha256 of the
records JSON with sorted keys.  A change that moves records on purpose
reruns it with --write in the same change and logs the move.

Either way it then prints the same digest of the records of each experiment
at its CLI defaults (`chaoskit <experiment> --seed 4242`), with 1 and 2
workers: the digests that a change which keeps the records quotes.  Those
runs take a few seconds each.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from chaoskit import ExperimentConfig, report_to_json, run_experiment  # noqa: E402
from test_golden_records import assert_same_records  # noqa: E402

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


def check(path: Path, body: dict) -> bool:
    """Whether body matches the golden file at path; prints both digests."""
    golden = json.loads(path.read_text())
    name = path.relative_to(ROOT)
    digest = records_sha256(body["records"])
    try:
        assert body["config"] == golden["config"], "config differs"
        assert_same_records(body["records"], golden["records"])
    except AssertionError as err:
        print(f"MISMATCH {name}: records sha256 {digest} (golden {golden['sha256']}): {err}")
        return False
    print(f"matches {name}: records sha256 {digest} (golden {golden['sha256']})")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/data/golden_*.json")
    args = parser.parse_args(argv)
    ok = True
    for experiment, fields in CASES.items():
        body = same_on_workers_1_and_2(experiment, fields)
        path = DATA / f"golden_{experiment}.json"
        if args.write:
            body["sha256"] = records_sha256(body["records"])
            DATA.mkdir(exist_ok=True)
            path.write_text(json.dumps(body, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}: records sha256 {body['sha256']}")
        else:
            ok = check(path, body) and ok
    for experiment in CASES:
        body = same_on_workers_1_and_2(experiment, {})
        print(f"{experiment} at CLI defaults, workers 1 and 2: records sha256 {records_sha256(body['records'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
