"""Package structure: public names resolve and no module reaches into another's privates."""

from __future__ import annotations

import ast
from pathlib import Path

import chaoskit

SRC = Path(chaoskit.__file__).resolve().parent


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} from .{node.module} import {alias.name}")
    assert offenders == []


def test_public_names_resolve():
    missing = [name for name in chaoskit.__all__ if not hasattr(chaoskit, name)]
    assert missing == []
    assert len(set(chaoskit.__all__)) == len(chaoskit.__all__)
    for name in ("char_fn_estimates", "stein_estimates", "binned_residual_estimate"):
        assert name in chaoskit.__all__
