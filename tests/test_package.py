"""Package structure: public names resolve and no module reaches into another's privates.

The test oracles are held to the same rule: a reference that imports the
library's private helpers shares the code it is meant to check.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import chaoskit

SRC = Path(chaoskit.__file__).resolve().parent
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _private_imports(path: Path, is_package_import) -> list:
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and is_package_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} from {node.module} import {alias.name}")
    return offenders


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        offenders += _private_imports(path, lambda node: node.level >= 1)
    assert offenders == []


def test_only_grid_draws_normals():
    # grid.run_chunks owns the Monte Carlo draw: every other module reads the
    # tables it hands out.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "standard_normal_block"
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_grid_keeps_thread_local_state():
    # A run's per-thread scratch memory is the Workspace grid.run_chunks hands
    # each chunk: no other module keeps buffers of its own per thread.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "local"
                and isinstance(node.value, ast.Name)
                and node.value.id == "threading"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "threading"
                and any(alias.name == "local" for alias in node.names)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_stein_imports_nothing_from_chaos():
    # stein is estimators over sample arrays: callers evaluate expansions
    # through chaos and pass the samples in, so of the package stein reads
    # only grid's input checks.
    tree = ast.parse((SRC / "stein.py").read_text())
    package_sources = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level >= 1
    }
    assert package_sources == {"grid"}


def test_only_kernels_reads_the_kernel_storage():
    # Whether a kernel is stored dense or diagonal is read in kernels alone;
    # every other module goes through its algebra and kernels.dense.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "diagonal":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _names(tree) -> set:
    """Every name a module spells: bare names, attributes and imported aliases."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
            if isinstance(node.value, ast.Name):
                out.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_each_input_rule_lives_in_one_module():
    # grid.check_int is the one integer rule, grid.check_real and
    # grid.real_array the one real-number rule, and
    # kernels.check_dense_entries the one dense-storage check; every other
    # module calls them.
    owners = {
        "np.integer": "grid.py",
        "numbers.Real": "grid.py",
        "math.isfinite": "grid.py",
        "np.isfinite": "grid.py",
        "MAX_ENTRIES": "kernels.py",
    }
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        names = _names(ast.parse(path.read_text(), filename=str(path)))
        for name, owner in owners.items():
            if name in names and path.name != owner:
                offenders.append(f"{path.name}: {name}")
    assert offenders == []


def test_oracles_import_no_private_names():
    def from_chaoskit(node):
        return node.level == 0 and (node.module or "").split(".")[0] == "chaoskit"

    assert _private_imports(ORACLES, from_chaoskit) == []


def test_public_names_resolve():
    missing = [name for name in chaoskit.__all__ if not hasattr(chaoskit, name)]
    assert missing == []
    assert len(set(chaoskit.__all__)) == len(chaoskit.__all__)
    for name in ("char_fn_estimates", "stein_estimates", "binned_residual_estimate"):
        assert name in chaoskit.__all__


def test_retired_second_routes_stay_gone():
    # One route per job: each of these had a replacement on the route the
    # experiments take (see CHANGES.md).
    from chaoskit import chaos, families, grid, harness, hermite, independence, kernels, stein

    retired = {
        chaos: ["evaluate", "shift", "fourth_moment_bound", "save_expansion", "load_expansion"],
        families: ["CounterexampleSample", "half_support_second_chaos", "custom_single_chaos"],
        grid: ["GaussianSample", "sample_increments"],
        harness: [
            "run_decoupling", "run_three_way", "run_class_a", "run_counterexample", "_run_class_a",
            "_run_decoupling", "_run_three_way", "_dkol_tasks",
        ],
        hermite: ["hermite_eval", "hermite_table", "MAX_DEGREE", "_check_degree"],
        independence: ["class_a_diagnostic", "ClassADiagnostic"],
        kernels: ["zero_kernel", "save_kernel", "load_kernel"],
        stein: ["CriterionFunctionals", "conditional_residual_estimate", "criterion_functionals"],
    }
    for module, names in retired.items():
        for name in names:
            assert name not in chaoskit.__all__ and not hasattr(chaoskit, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("__len__", "__getitem__"):
        assert not hasattr(families.CounterexampleBatch, name), name
    assert not hasattr(grid.IncrementStream, "substream")
    # run_experiment dispatches on config.experiment, so no runner gets another's config
    assert [name for name in chaoskit.__all__ if name.startswith("run_")] == ["run_experiment"]
    # out and fmt are CLI options: a library config has no destination it ignores
    config_fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert not config_fields & {"out", "fmt"}
    # "is zero" and "is symmetric" each have one rule: no tolerance argument;
    # a loaded kernel is always checked for symmetry; the evaluator's Hermite
    # rows always go where the caller says; a constructed kernel always holds
    # its own copy of the caller's values
    for fn, params in (
        (kernels.step_kernel, ["grid", "order", "values", "diagonal"]),
        (independence.integrals_independent, ["f", "g"]),
        (independence.strongly_independent, ["x", "y"]),
        (kernels.is_symmetric, ["kernel"]),
        (kernels.kernel_from_dict, ["data"]),
        (hermite.hermite_rows, ["x", "degrees", "row"]),
    ):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    assert inspect.signature(hermite.hermite_rows).parameters["row"].default is inspect.Parameter.empty


# Calls and modules through which code reads or writes a file.
FILE_ACCESS = {
    "open", "io", "pathlib", "Path", "read_text", "write_text", "read_bytes", "write_bytes",
    "json.load", "json.dump", "np.load", "np.save", "np.savez", "np.loadtxt", "np.savetxt",
    "np.fromfile", "tofile", "os.open", "shutil", "tempfile",
}


def test_only_harness_and_cli_touch_files():
    # The algebra, sampling and estimators work on objects in memory: a
    # caller serializes with the *_to_dict and *_from_dict pairs and json.
    # Reports are written by harness.save_report, and cli reads --config.
    touching = {}
    for path in sorted(SRC.glob("*.py")):
        found = _names(ast.parse(path.read_text(), filename=str(path))) & FILE_ACCESS
        if found:
            touching[path.name] = sorted(found)
    assert set(touching) <= {"harness.py", "cli.py"}, touching
    assert "write_text" in touching["harness.py"] and "open" in touching["cli.py"]


def _chaoskit_aliases(tree) -> dict:
    """Local name -> chaoskit module path, for each chaoskit module a file imports."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chaoskit":
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "chaoskit" and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"chaoskit.{alias.name}"
    return aliases


def _attribute_chain(node) -> list | None:
    """["root", "a", "b"] for root.a.b, None unless the chain starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_benchmark_library_surface_resolves():
    # The benchmark's workloads and worker read chaoskit through these
    # chains (ck.<name>, harness.<name>, cli.<name>, grid._raw_block.cache_info);
    # a simplification that removes one breaks every benchmark run.  The
    # files are parsed, not imported.
    import importlib

    bench = Path(__file__).resolve().parent.parent / "perfbench"
    read = []
    for name in ("workloads.py", "worker.py"):
        tree = ast.parse((bench / name).read_text(), filename=name)
        aliases = _chaoskit_aliases(tree)
        for node in ast.walk(tree):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain is None or chain[0] not in aliases:
                continue
            obj = importlib.import_module(aliases[chain[0]])
            for i, attr in enumerate(chain[1:], 1):
                assert hasattr(obj, attr), f"{name}: {'.'.join(chain[: i + 1])} does not resolve"
                obj = getattr(obj, attr)
            read.append(".".join(chain))
    for chain in ("ck.evaluate_samples", "harness.ExperimentConfig", "cli.main", "grid._raw_block.cache_info"):
        assert chain in read


def test_no_module_imports_scipy():
    # chaoskit runs on numpy alone: `import scipy.special` cost about a third
    # of each CLI run's peak RSS, so no module imports scipy, at module level
    # or inside a function.  Tests may.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_library_and_cli_paths_load_no_scipy(tmp_path):
    # The import, each experiment at a tiny config and the multi-factor
    # evaluator on dense order-2 and order-3 kernels: after each step the
    # process holds no scipy module.
    probe = (
        "import itertools, sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "import chaoskit as ck\n"
        "from chaoskit import cli\n"
        "def report(step):\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy'))\n"
        "    print('probe', step, ','.join(loaded) or 'none')\n"
        "report('import')\n"
        "out = Path(sys.argv[1])\n"
        "for argv in (['decouple', '--n-schedule', '4', '--mc', '64', '--n-bins', '4'],\n"
        "             ['three_way', '--n-schedule', '4', '--mc', '64'],\n"
        "             ['counterexample', '--path-steps', '100', '--mc', '64']):\n"
        "    code = cli.main(argv + ['--workers', '2', '--out', str(out / (argv[0] + '.json'))])\n"
        "    report(f'{argv[0]}:{code}')\n"
        "grid = ck.make_grid(6)\n"
        "rng = np.random.default_rng(3)\n"
        "for n in (2, 3):\n"
        "    raw = rng.standard_normal((6,) * n)\n"
        "    sym = sum(raw.transpose(p) for p in itertools.permutations(range(n)))\n"
        "    ck.evaluate_samples([ck.single_chaos(ck.step_kernel(grid, n, sym))], 100, ck.IncrementStream(seed=1))\n"
        "    report(f'dense_order_{n}')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # The CLI prints its summaries on the same stdout.
    steps = [line.split()[1:] for line in done.stdout.splitlines() if line.startswith("probe ")]
    assert [step for step, _ in steps] == [
        "import", "decouple:0", "three_way:0", "counterexample:0", "dense_order_2", "dense_order_3"
    ]
    assert all(loaded == "none" for _, loaded in steps), steps
