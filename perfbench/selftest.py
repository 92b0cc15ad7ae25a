"""Self-test of the benchmark at reduced input sizes.

    python3 perfbench/selftest.py

For every workload it runs the launcher once untraced and twice traced with
one seed and the reduced inputs, and checks that

- each run reports correct results with no failed operation;
- the result holds exactly the metrics BENCHMARK.json declares for its mode,
  each with its declared unit, and nothing measured goes undeclared;
- the layer self times add up to the traced wall time;
- the computed counts repeat exactly between the two traced runs.

It also checks that the launcher fails, without printing a result, in a copy
of the benchmark that has no chaoskit sources beside it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402
from spans import COMPUTED_COUNTS, SELF_TIME_METRICS  # noqa: E402

SEED = 3


def launch(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0.1", "--trace", str(trace), "--size", "reduced"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int, declared: list, problems: list) -> dict:
    proc = launch(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
        return {}
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    unreported = json.loads(info_line)["info"]["unreported"]
    if unreported:
        problems.append(f"{where}: measured but not declared in BENCHMARK.json: {unreported}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        if entry.get("unit") != units.get(name) or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{where}: {name} = {entry}")
    return {name: entry["value"] for name, entry in metrics.items()}


def check_workload(workload: str, spec: dict, problems: list) -> None:
    result_of(workload, 0, spec["end_to_end"], problems)
    first = result_of(workload, 1, spec["per_layer"], problems)
    second = result_of(workload, 1, spec["per_layer"], problems)
    if not first or not second:
        return
    for values in (first, second):
        accounted = sum(values[m] for m in SELF_TIME_METRICS.values()) + values["harness.self_s"]
        if not math.isclose(accounted, values["trace.wall_s"], rel_tol=1e-9):
            problems.append(f"{workload}: self times add to {accounted}, traced wall is {values['trace.wall_s']}")
    for name in COMPUTED_COUNTS:
        if first[name] != second[name]:
            problems.append(f"{workload}: {name} changed between runs: {first[name]} vs {second[name]}")


def check_without_sources(problems: list) -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = launch(WORKLOADS[0], 0, cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("launcher without chaoskit sources did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    for workload in WORKLOADS:
        check_workload(workload, spec, problems)
    check_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
