"""The README's library tour runs as written, and its CLI examples name the experiments that exist."""

from __future__ import annotations

import re
from pathlib import Path

from chaoskit import EXPERIMENTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "the library tour has no python block"
    exec(compile(block.group(1), "README.md library tour", "exec"), {})


def test_cli_examples_name_exactly_the_experiments():
    named = set(re.findall(r"^chaoskit (\w+)", README.read_text(), re.MULTILINE))
    assert named == set(EXPERIMENTS)
