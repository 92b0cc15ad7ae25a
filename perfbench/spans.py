"""Span tracing of chaoskit from outside the package.

`Tracer.install` wraps every public function of the chaoskit modules, every
helper one module imports from another, and
`IncrementStream.standard_normal_block`, by rebinding the names in each module
that holds them (the package namespace included).  Nothing under `src/`
changes.  Each call becomes a span (name, layer, start, end, parent), where
the layer is the module that defines the function.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
layers, plus the time no span covers, add up to the traced wall time.

The tracer keeps one span stack, so it assumes a single thread: the CLI and
the workloads call the evaluator with workers=1.

Counters named (computed) come from argument and result shapes, so they
repeat exactly between runs of the same inputs.  Evaluator counts are worked
out from the evaluated expansions after the pass, outside the timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = (
    "grid",
    "hermite",
    "kernels",
    "chaos",
    "families",
    "stein",
    "independence",
    "harness",
    "cli",
)

# Layer self times that together with harness.self_s account for the traced
# wall time; harness.self_s takes the rest (harness glue, array arithmetic in
# the runners and anything outside a span).
SELF_TIME_METRICS = {
    "grid": "grid.draw_s",
    "hermite": "hermite.eval_s",
    "chaos": "chaos.self_s",
    "kernels": "kernels.self_s",
    "stein": "stein.self_s",
    "independence": "independence.self_s",
    "families": "families.self_s",
    "cli": "cli.parse_s",
    "bench": "bench.self_s",
}

# Counters that depend only on the inputs; the self-test requires them to
# repeat exactly between two traced runs of one seed.
COMPUTED_COUNTS = (
    "grid.normals_drawn",
    "hermite.values_computed",
    "chaos.term_evals",
    "kernels.contract.macs",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, layer, start, end, parent index]
        self._stack: list = []
        self.counts: Counter = Counter()
        self.max_kernel_bytes = 0
        self._evaluated: list = []  # (expansion, n_samples) per evaluate_batch call
        self._hooks = {
            "grid.IncrementStream.standard_normal_block": self._count_draw,
            "hermite.hermite_eval": self._count_hermite,
            "hermite.hermite_table": self._count_hermite,
            "chaos.evaluate_batch": self._record_evaluation,
            "kernels.contract": self._count_contract,
            "kernels.symmetrize": self._count_symmetrize,
            "kernels.step_kernel": self._track_kernel,
            "stein.kolmogorov_distance_mc": self._count_sorted,
            "stein._binned_residual_estimate": self._count_sorted,
            "harness.save_report": self._count_report,
        }

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span of `layer`; the default layer is the benchmark's own code."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        """Rebind chaoskit's functions, in every module that holds them, to traced wrappers."""
        package = importlib.import_module("chaoskit")
        modules = [importlib.import_module(f"chaoskit.{name}") for name in MODULES]
        wrappers: dict = {}
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or getattr(obj, "__perfbench_traced__", False):
                    continue
                home = obj.__module__
                if not home.startswith("chaoskit."):
                    continue
                if attr.startswith("_") and home == module.__name__:
                    continue  # a module's own private helper stays inside its caller's span
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, home.split(".", 1)[1])
                setattr(module, attr, wrappers[obj])
        grid = importlib.import_module("chaoskit.grid")
        stream_cls = grid.IncrementStream
        stream_cls.standard_normal_block = self._wrap(stream_cls.standard_normal_block, "grid")

    # -- counters ------------------------------------------------------------

    def _count_draw(self, args, kwargs, result) -> None:
        self.counts["grid.normals_drawn"] += result.size

    def _count_hermite(self, args, kwargs, result) -> None:
        self.counts["hermite.values_computed"] += np.size(result)

    def _record_evaluation(self, args, kwargs, result) -> None:
        self._evaluated.append((args[0], np.size(result)))

    def _count_contract(self, args, kwargs, result) -> None:
        ell = args[2] if len(args) > 2 else kwargs["ell"]
        # m^(free coordinates) outputs, each a sum over m^ell products
        self.counts["kernels.contract.macs"] += result.grid.m ** (result.order + int(ell))

    def _count_symmetrize(self, args, kwargs, result) -> None:
        if result.order >= 2:
            self.counts["kernels.symmetrize.entries"] += result.values.size

    def _track_kernel(self, args, kwargs, result) -> None:
        self.max_kernel_bytes = max(self.max_kernel_bytes, result.values.nbytes)

    def _count_sorted(self, args, kwargs, result) -> None:
        self.counts["stein.samples_sorted"] += np.size(args[0])

    def _count_report(self, args, kwargs, result) -> None:
        self.counts["harness.report_bytes"] += os.path.getsize(args[1])

    # -- results -------------------------------------------------------------

    def _evaluator_counts(self) -> dict:
        """Term evaluations, gathered bytes and referenced Hermite columns, computed."""
        per_expansion: dict = {}
        term_evals = gathered = useful = 0
        for x, n_samples in self._evaluated:
            key = id(x)
            if key not in per_expansion:
                per_expansion[key] = _term_structure(x)
            terms, gathers, pairs = per_expansion[key]
            term_evals += terms * n_samples
            gathered += gathers * n_samples
            useful += pairs * n_samples
        computed = self.counts["hermite.values_computed"]
        return {
            "chaos.term_evals": term_evals,
            "chaos.gather_mb": gathered * 8 / 1e6,
            "hermite.useful_ratio": useful / computed if computed else 0.0,
        }

    def metrics(self, wall_s: float, block_cache_info) -> dict:
        """Per-layer metrics of one traced pass that took wall_s seconds."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        layer_self: Counter = Counter()
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
            layer_self[layer] += end - start - covered[i]

        def incl(*names):
            return float(sum(total[n] for n in names))

        out = {metric: float(layer_self[layer]) for layer, metric in SELF_TIME_METRICS.items()}
        out["harness.self_s"] = wall_s - sum(out.values())
        normals = self.counts["grid.normals_drawn"]
        lookups = block_cache_info.hits + block_cache_info.misses
        out.update(
            {
                "grid.normals_drawn": normals,
                "grid.ns_per_normal": out["grid.draw_s"] / normals * 1e9 if normals else 0.0,
                "grid.block_cache_hit_ratio": block_cache_info.hits / lookups if lookups else 0.0,
                "hermite.calls": calls["hermite.hermite_eval"] + calls["hermite.hermite_table"],
                "hermite.values_computed": self.counts["hermite.values_computed"],
                "chaos.evaluate_batch.self_s": float(own["chaos.evaluate_batch"]),
                "chaos.evaluate_batch.calls": calls["chaos.evaluate_batch"],
                "chaos.multiply.s": incl("chaos.multiply"),
                "chaos.cross_gamma.s": incl("chaos.cross_gamma"),
                "chaos.fourth_cumulant.s": incl("chaos.fourth_cumulant"),
                "chaos.gamma_residual.s": incl("chaos.gamma_residual"),
                "kernels.contract.s": incl("kernels.contract"),
                "kernels.contract.calls": calls["kernels.contract"],
                "kernels.contract.macs": self.counts["kernels.contract.macs"],
                "kernels.symmetrize.s": incl("kernels.symmetrize"),
                "kernels.symmetrize.entries": self.counts["kernels.symmetrize.entries"],
                "kernels.inner_product.s": incl("kernels.inner_product"),
                "kernels.max_kernel_mb": self.max_kernel_bytes / 1e6,
                "kernels.serialize.s": incl("kernels.kernel_to_dict", "kernels.kernel_from_dict"),
                "stein.kolmogorov.s": incl("stein.kolmogorov_distance_mc"),
                "stein.samples_sorted": self.counts["stein.samples_sorted"],
                "stein.char_fn.s": incl("stein._char_fn_estimate"),
                "stein.stein_fn.s": incl("stein._stein_estimate"),
                "stein.binned.s": incl("stein._binned_residual_estimate"),
                "independence.strongly_independent.s": incl("independence.strongly_independent"),
                "families.build_s": incl(
                    "families.diagonal_second_chaos",
                    "families.half_support_second_chaos",
                    "families.custom_single_chaos",
                ),
                "families.simulate.self_s": float(own["families.simulate_counterexample"]),
                "harness.report_s": incl("harness.save_report"),
                "harness.report_bytes": self.counts["harness.report_bytes"],
            }
        )
        out.update(self._evaluator_counts())
        return out


def _term_structure(x) -> tuple:
    """(terms, gathered columns over all terms, distinct (column, degree) pairs) of x.

    A term is one cell multiset with a nonzero kernel value; it reads one
    Hermite column per distinct cell, at that cell's multiplicity.
    """
    terms = gathers = 0
    pairs: set = set()
    for order, kernel in enumerate(x.kernels):
        if order == 0 or kernel is None:
            continue
        rows = np.unique(np.sort(np.argwhere(kernel.values != 0.0), axis=1), axis=0)
        terms += rows.shape[0]
        for row in rows.tolist():
            runs = Counter(row)
            gathers += len(runs)
            pairs.update(runs.items())
    return terms, gathers, len(pairs)

