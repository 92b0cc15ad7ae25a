"""chaoskit benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass of a workload runs in a fresh
single-threaded process (perfbench/worker.py) that imports chaoskit from the
checkout's src/, so an import, a cold cache or memory freed by one pass never
reaches the next.  Passes start while fewer than S seconds have gone since the
first one started, as far as the passes so far predict.

--trace 0 reports the end-to-end metrics: median wall_s and peak_rss_mb over
the passes, and median setup_s over the passes plus set-up-only processes, so
that there are at least SETUP_SAMPLES of them.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced pass with
the median wall time, its wall time, and the tracing overhead.  Metric names
and units come from BENCHMARK.json.  A line of run details (sample counts,
machine facts, record digests) precedes the last stdout line, which is the
result object.  The program is single-threaded and has no queues, so no
wait time is reported.

See perfbench/README.md for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decouple_default", "counterexample_default", "dense_algebra")
SETUP_SAMPLES = 9
# Whole run, children included, stays below the 180 s a run may take.
DEADLINE_S = 170.0
# BLAS and OpenMP pools are fixed at one thread (nproc is 2 on the reference
# machine), so kernel contractions through tensordot time the same code path
# on every machine.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size",
        choices=("full", "reduced"),
        default="full",
        help="reduced inputs for the self-test; measurements use full",
    )
    return parser.parse_args(argv)


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        llc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        llc = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_bytes": int(llc) if llc.isdigit() else None,
        "threads": THREAD_ENV,
    }


class Launcher:
    def __init__(self, args, tmp: Path) -> None:
        self.args = args
        self.tmp = tmp
        self.started = time.monotonic()
        self.env = dict(os.environ, **THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, trace: int, setup_only: bool = False) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), a.workload, str(a.seed % 2**32), a.size, str(trace)]
        cmd += [repr(time.monotonic()), str(self.tmp)] + (["--setup-only"] if setup_only else [])
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self):
        """(untraced passes, traced passes) for --seconds of measurement.

        Another pass (or untraced and traced pair) starts only while the mean
        time per pass so far says it ends within --seconds; there is always one.
        """
        untraced, traced = [], []
        begin = time.monotonic()
        while True:
            untraced.append(self.spawn(0))
            if self.args.trace:
                traced.append(self.spawn(1))
            elapsed = time.monotonic() - begin
            if elapsed * (len(untraced) + 1) / len(untraced) > self.args.seconds:
                return untraced, traced


def median_pass(passes: list) -> dict:
    """The pass with the median wall time (the lower one for an even count)."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chaoskit" / "__init__.py").is_file():
        print(f"error: no chaoskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        launcher = Launcher(args, tmp)
        untraced, traced = launcher.passes()
        setups = [p["setup_s"] for p in untraced]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - len(setups)):
                setups.append(launcher.spawn(0, setup_only=True)["setup_s"])
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    everything = untraced + traced
    digests = sorted({p["records_sha256"] for p in everything})
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    walls = [p["wall_s"] for p in untraced]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": machine_facts(),
        "versions": everything[0]["versions"],
        "largest_kernel_mb": everything[0].get("largest_kernel_mb"),
        "records_sha256": digests,
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "wall_s_samples": walls,
        "setup_s_samples": setups,
        "peak_rss_mb_samples": [p["peak_rss_mb"] for p in untraced],
    }
    if args.trace:
        chosen = median_pass(traced)
        values = dict(chosen["layers"])
        values["trace.wall_s"] = chosen["wall_s"]
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
        info["traced_wall_s_samples"] = [p["wall_s"] for p in traced]
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        declared = spec["end_to_end"]
    info["unreported"] = sorted(set(values) - {m["name"] for m in declared})
    print(json.dumps({"info": info}))
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    except KeyError as exc:
        print(f"error: metric {exc} was not measured", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
