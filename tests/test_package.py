"""Package structure: public names resolve and no module reaches into another's privates.

The test oracles are held to the same rule: a reference that imports the
library's private helpers shares the code it is meant to check.
"""

from __future__ import annotations

import ast
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


def test_only_hermite_calls_the_checked_hermite_entries():
    # hermite_eval and hermite_table check and copy their x for the caller;
    # the evaluator walks each chunk's rows through hermite.hermite_rows.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "hermite.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("hermite_eval", "hermite_table"):
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


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


def test_import_loads_no_scipy_subpackage_but_special():
    # `import scipy.stats` alone roughly triples the cost of `import chaoskit`,
    # which every CLI run and benchmark pass pays; a module that needs another
    # scipy subpackage imports it inside the function that uses it.
    probe = (
        "import sys, chaoskit\n"
        "print(' '.join(sorted(name for name, mod in list(sys.modules.items())\n"
        "    if name.count('.') == 1 and name.startswith('scipy.')\n"
        "    and not name.split('.')[1].startswith('_') and hasattr(mod, '__path__'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["scipy.special"]


def test_evaluate_samples_loads_scipy_sparse_only_for_multi_factor_groups():
    # The diagonal families have only one-factor term groups, so their runs
    # never import scipy.sparse; a dense order-2 kernel has a (1, 1) group,
    # whose terms are summed through a sparse product.
    probe = (
        "import sys\n"
        "from chaoskit import (IncrementStream, diagonal_second_chaos, evaluate_samples, gamma,\n"
        "    make_grid, single_chaos, step_kernel)\n"
        "grid = make_grid(8)\n"
        "x = diagonal_second_chaos(grid, range(8), 0.5)\n"
        "evaluate_samples([x, gamma(x)], 100, IncrementStream(seed=1))\n"
        "print('scipy.sparse' in sys.modules)\n"
        "dense = single_chaos(step_kernel(grid, 2, [[float(i + j) for j in range(8)] for i in range(8)]))\n"
        "evaluate_samples([dense], 100, IncrementStream(seed=1))\n"
        "print('scipy.sparse' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
