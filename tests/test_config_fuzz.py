"""Fuzz the CLI config: every config either fails before sampling or reports clean numbers.

Each example writes a --config file for one experiment: a valid config,
with `n_schedule` and `mc_samples` always set and every other field and
`workers` present or left out, in which up to two fields (the variance split
included) are replaced by junk: bools, floats, NaN, strings, negatives,
lists or null.  A rejected config must exit 2 with one
"error:" line and no draw from the increment streams; an accepted one must
exit 0 with a report free of NaN and inf.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit import EXPERIMENTS, IncrementStream
from chaoskit.cli import main as cli_main

JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.integers(-3, 0),
    st.lists(st.integers(0, 3), max_size=2),
    st.none(),
)

_GRID = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3)

# Valid values, small enough that an accepted config runs in well under a second.
VALID = {
    "n_schedule": st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted),
    "mc_samples": st.integers(2, 3000),
    "seed": st.integers(0, 2**40),
    "t_grid": _GRID,
    "z_grid": _GRID,
    "path_steps": st.integers(50, 400),
    "n_bins": st.integers(1, 64),
    "fmt": st.sampled_from(["json", "csv"]),
    "out": st.just("report.out"),
    "workers": st.integers(1, 3),
}
SPLIT = ("c1", "c2", "c3")


@st.composite
def cli_configs(draw):
    """(experiment, config): a valid config with up to two fields replaced by junk."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    required = ("n_schedule", "mc_samples")  # so that no run takes the default sizes
    conf = draw(
        st.fixed_dictionaries(
            {key: VALID[key] for key in required},
            optional={key: value for key, value in VALID.items() if key not in required},
        )
    )
    if draw(st.booleans()):
        k = 3 if experiment == "three_way" else 2
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
        conf.update(zip(SPLIT, (w / sum(weights) for w in weights)))
    for key in draw(st.sets(st.sampled_from(sorted(VALID) + list(SPLIT)), max_size=2)):
        conf[key] = draw(JUNK)
    return experiment, conf


def _no_constants(name):
    raise AssertionError(f"report holds {name}")


def _assert_clean(text: str, fmt) -> None:
    if fmt == "csv":
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), row
    else:
        json.loads(text, parse_constant=_no_constants)


@settings(max_examples=40, deadline=None)
@given(cli_configs())
def test_cli_config_fails_before_sampling_or_reports_finite_values(case):
    experiment, conf = case
    draws = []
    real_block = IncrementStream.standard_normal_block

    def spy(self, *args, **kwargs):
        draws.append(args)
        return real_block(self, *args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if isinstance(conf.get("out"), str):  # every path lands under tmp
            conf["out"] = f"{tmp}/{conf['out']}"
        path = Path(tmp) / "conf.json"
        path.write_text(json.dumps(conf))
        mp.setattr(IncrementStream, "standard_normal_block", spy)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([experiment, "--config", str(path)])
        if code == 0:
            text = out.getvalue()
            if isinstance(conf.get("out"), str):
                text = Path(conf["out"]).read_text()
    if code == 2:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert draws == [], lines[0]
    else:
        assert code == 0 and err.getvalue() == ""
        _assert_clean(text, conf.get("fmt", "json"))
