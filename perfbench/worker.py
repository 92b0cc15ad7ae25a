"""One benchmark pass in a fresh process; run.py starts it, never a user.

Usage: worker.py WORKLOAD SEED SIZE TRACE T0 TMPDIR [--setup-only]

T0 is the launcher's time.monotonic() just before it started this process,
so setup_s covers interpreter start, the imports and input building.  The
pass, and wall_s with it, runs from the first call into the workload to a
checked result.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    workload, seed, size, trace, t0, tmp = argv[:6]
    setup_only = "--setup-only" in argv[6:]
    root = Path(__file__).resolve().parent.parent
    import chaoskit

    if root / "src" not in Path(chaoskit.__file__).resolve().parents:
        print(f"chaoskit imported from {chaoskit.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.WORKLOADS[workload]
    state = spec.setup(int(seed), size, Path(tmp))
    setup_s = time.monotonic() - float(t0)
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    outcome = spec.run(state, tracer)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "records_sha256": outcome.digest.hexdigest(),
        "versions": _versions(),
    }
    if workload == "dense_algebra":
        result["largest_kernel_mb"] = workloads.largest_dense_kernel_mb(size)
    if tracer is not None:
        from chaoskit import grid

        result["layers"] = tracer.metrics(wall_s, grid._raw_block.cache_info())
    print(json.dumps(result))
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
