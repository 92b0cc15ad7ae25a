from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaoskit
from chaoskit import (
    EXPERIMENTS,
    ExperimentConfig,
    IncrementStream,
    ExperimentReport,
    diagonal_summands,
    report_from_json,
    report_to_csv,
    report_to_dict,
    report_to_json,
    run_experiment,
    save_report,
)
from chaoskit import chaos as chaos_module
from chaoskit import cli, harness
from chaoskit import kernels as kernels_module
from chaoskit.cli import main as cli_main
from oracles import run_k_way_reference


def _small_decouple(**overrides):
    base = dict(
        experiment="decouple",
        n_schedule=(4, 8),
        mc_samples=4000,
        seed=7,
        t_grid=(1.0,),
        z_grid=(0.0,),
        n_bins=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")


def test_config_rejects_bad_schedule():
    with pytest.raises(ValueError):
        _small_decouple(n_schedule=())
    with pytest.raises(ValueError):
        _small_decouple(n_schedule=(4, 4))
    with pytest.raises(ValueError):
        _small_decouple(n_schedule=(8, 4))
    with pytest.raises(ValueError):
        _small_decouple(n_schedule=(0, 4))
    # a list field that is not a list is named, not a TypeError from tuple()
    for field, value in (("n_schedule", 5), ("t_grid", 1.0), ("z_grid", None)):
        with pytest.raises(ValueError, match=field):
            _small_decouple(**{field: value})


def test_config_rejects_bad_split():
    with pytest.raises(ValueError):
        _small_decouple(c1=0.7, c2=0.7)
    with pytest.raises(ValueError):
        _small_decouple(c1=-0.5, c2=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="three_way", c1=0.9, c2=0.2, c3=0.1)
    # exact split within the absolute tolerance is accepted
    _small_decouple(c1=0.3, c2=0.7)


def test_config_default_split_is_equal():
    # With no split entry the k summands share the variance equally.
    assert ExperimentConfig(experiment="three_way").split == (1.0 / 3, 1.0 / 3, 1.0 / 3)
    for experiment in ("decouple", "counterexample"):
        cfg = ExperimentConfig(experiment=experiment)
        assert (cfg.c1, cfg.c2, cfg.c3) == (0.5, 0.5, None)
    # one entry given: the others follow the explicit-split rules
    assert ExperimentConfig(experiment="three_way", c1=0.2).split == (0.2, 0.5, 1.0 - 0.2 - 0.5)
    assert ExperimentConfig(experiment="decouple", c2=0.5).split == (0.5, 0.5)


def test_config_three_way_split():
    cfg = ExperimentConfig(experiment="three_way", c1=0.4, c2=0.4)
    assert cfg.c3 == pytest.approx(0.2)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="three_way", c1=0.5, c2=0.5)  # c3 = 0
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="three_way", c1=0.5, c2=0.3, c3=0.1)
    # the two-way invariant must not leak into three_way
    ExperimentConfig(experiment="three_way", c1=0.2, c2=0.3, c3=0.5)


def test_config_counterexample_path_steps():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="counterexample", path_steps=999)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="counterexample", path_steps=50)
    # other experiments do not validate path_steps
    _small_decouple(path_steps=7)


def test_config_misc_validation():
    with pytest.raises(ValueError):
        _small_decouple(mc_samples=1)
    with pytest.raises(ValueError):
        _small_decouple(seed=-1)
    with pytest.raises(ValueError):
        _small_decouple(t_grid=())
    with pytest.raises(ValueError):
        _small_decouple(n_bins=0)


def test_config_rejects_unusable_grids_and_bins():
    with pytest.raises(ValueError, match="finite"):
        _small_decouple(t_grid=(1.0, math.nan))
    with pytest.raises(ValueError, match="finite"):
        ExperimentConfig(experiment="counterexample", z_grid=(math.inf,))
    with pytest.raises(ValueError, match="z_grid"):
        _small_decouple(z_grid=(0.0, 40.5))
    with pytest.raises(ValueError, match="n_bins"):
        _small_decouple(n_bins="7")
    with pytest.raises(ValueError, match="n_bins"):
        _small_decouple(n_bins=4001)
    _small_decouple(n_bins=4000, z_grid=(-40.0, 40.0))
    # the Stein bound and the n_bins <= mc_samples bound apply where they are
    # read: by both k-way experiments, not by counterexample
    with pytest.raises(ValueError, match="z_grid"):
        ExperimentConfig(experiment="three_way", z_grid=(100.0,), mc_samples=16)
    with pytest.raises(ValueError, match="n_bins"):
        ExperimentConfig(experiment="three_way", mc_samples=16)
    ExperimentConfig(experiment="three_way", z_grid=(-40.0, 40.0), mc_samples=32)
    ExperimentConfig(experiment="counterexample", z_grid=(100.0,), mc_samples=16)


def test_config_bounds_t_where_it_is_read():
    bound = harness.CHAR_FN_MAX_T
    for experiment in ("decouple", "three_way"):
        with pytest.raises(ValueError, match="t_grid"):
            ExperimentConfig(experiment=experiment, t_grid=(1.0, -2.0 * bound))
        ExperimentConfig(experiment=experiment, t_grid=(-bound, bound))
    # counterexample echoes t_grid but never reads it
    ExperimentConfig(experiment="counterexample", t_grid=(2.0 * bound,))


@pytest.mark.parametrize(
    "field,value", [("c1", "0.5"), ("c2", True), ("c3", "x"), ("c1", math.inf), ("c3", [0.2])]
)
def test_config_rejects_non_real_split(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(experiment="three_way", **{field: value})
    # every report echoes the split, so unused fields are checked too
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(experiment="counterexample", **{field: value})


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_config_echo_names_every_field(experiment):
    # Every field is part of the experiment: the report echoes them all.
    echo = ExperimentConfig(experiment).to_dict()
    assert list(echo) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_config_schedule_bound_counts_the_diagonal_entries():
    # Each summand of entry n stores its k*n-cell diagonal vector, 12000
    # numbers for decouple at n = 6000 (a dense order-2 kernel would hold
    # 12000^2 = 1.44e8), and counterexample reads no schedule at all.
    ExperimentConfig(experiment="decouple", n_schedule=(6000,), mc_samples=100)
    ExperimentConfig(experiment="counterexample", n_schedule=(8000,))
    ExperimentConfig(experiment="counterexample", n_schedule=(10**9,))
    for experiment, k in (("decouple", 2), ("three_way", 3)):
        n = kernels_module.MAX_ENTRIES // k
        ExperimentConfig(experiment=experiment, n_schedule=(4, n))
        with pytest.raises(ValueError, match=f"n_schedule entry {n + 1}'s diagonal kernel"):
            ExperimentConfig(experiment=experiment, n_schedule=(4, n + 1))


# ---------------------------------------------------------------------------
# decouple experiment


def test_decouple_exact_closed_forms():
    cfg = _small_decouple()
    report = run_experiment(cfg)
    assert [r["n"] for r in report.records] == [4, 8]
    for rec in report.records:
        n = rec["n"]
        e = rec["exact"]
        assert e["var_x"] == pytest.approx(0.5, rel=1e-12)
        assert e["var_y"] == pytest.approx(0.5, rel=1e-12)
        assert e["k4_x"] == pytest.approx(12 * 0.25 / n, rel=1e-10)
        assert e["k4_sum"] == pytest.approx(e["k4_x"] + e["k4_y"], rel=1e-12)
        assert e["gamma_residual_x"] == pytest.approx(2 * 0.25 / n, rel=1e-10)
        assert e["gamma_residual_sum"] == pytest.approx(
            e["gamma_residual_x"] + e["gamma_residual_y"], rel=1e-12
        )
        assert e["additivity_gap_rel"] <= 1e-10
        assert e["k4_additivity_gap_rel"] <= 1e-10
        assert e["bound_x"] == pytest.approx(math.sqrt(12.0 / n), rel=1e-10)
        m = rec["mc"]
        assert 0.0 < m["dkol_x"] < 0.5
        assert 0.0 < m["dkol_sum"] < 0.5
        assert len(m["crit_x"]["char"]) == 1
        assert m["crit_x"]["char"][0]["t"] == 1.0
        assert m["crit_x"]["stein"][0]["z"] == 0.0
        assert m["crit_x"]["conditional"]["n_bins"] == 8.0


def test_decouple_distances_shrink_along_schedule():
    cfg = ExperimentConfig(
        experiment="decouple", n_schedule=(4, 64), mc_samples=20_000,
        seed=11, t_grid=(1.0,), z_grid=(0.0,), n_bins=16,
    )
    report = run_experiment(cfg)
    first, last = report.records
    assert last["mc"]["dkol_x"] < first["mc"]["dkol_x"]
    assert last["exact"]["bound_x"] < first["exact"]["bound_x"]


def test_decouple_bitwise_deterministic():
    a = run_experiment(_small_decouple())
    b = run_experiment(_small_decouple())
    assert a.records == b.records
    assert a.config == b.config


def test_decouple_seed_moves_mc_not_exact():
    a = run_experiment(_small_decouple(seed=7))
    b = run_experiment(_small_decouple(seed=8))
    for ra, rb in zip(a.records, b.records):
        assert ra["exact"] == rb["exact"]
        assert ra["mc"] != rb["mc"]


def test_decouple_workers_do_not_change_results():
    a = run_experiment(_small_decouple())
    b = run_experiment(_small_decouple(), workers=4)
    assert a.records == b.records


# ---------------------------------------------------------------------------
# other experiments


@pytest.mark.parametrize("experiment,builds", [("decouple", 7), ("three_way", 11)])
def test_k_way_record_builds_each_gamma_once(experiment, builds, monkeypatch):
    # One exact_summary per summand and one for the sum, each forming Gamma_1
    # and Gamma_2 once, and one cross Gamma per summand pair for the
    # independence list: 2 * (k + 1) + k * (k - 1) / 2 builds per record.
    calls = []
    cross_gamma = chaos_module._cross_gamma

    def counting(*args, **kwargs):
        calls.append(1)
        return cross_gamma(*args, **kwargs)

    monkeypatch.setattr(chaos_module, "_cross_gamma", counting)
    config = _small_decouple(experiment=experiment, n_schedule=(4,), mc_samples=64)
    run_experiment(config)
    assert len(calls) == builds


def test_three_way_records():
    # CLI defaults fill the thirds; direct construction needs an explicit split
    cfg = ExperimentConfig(
        experiment="three_way", n_schedule=(2, 8), mc_samples=4000,
        seed=5, t_grid=(1.0,), z_grid=(0.0,), c1=1 / 3, c2=1 / 3, c3=1 / 3,
    )
    report = run_experiment(cfg)
    for rec in report.records:
        n = rec["n"]
        e = rec["exact"]
        assert len(e["var"]) == 3
        for v in e["var"]:
            assert v == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert e["gamma_residual_sum"] == pytest.approx(sum(e["gamma_residual"]), rel=1e-10)
        assert e["additivity_gap_rel"] <= 1e-10
        for k4, c in zip(e["k4"], (1 / 3, 1 / 3, 1 / 3)):
            assert k4 == pytest.approx(12 * c * c / n, rel=1e-10)
        m = rec["mc"]
        assert len(m["dkol"]) == 3
        assert len(m["crit"]) == 3
        for crit in m["crit"]:
            assert [e["t"] for e in crit["char"]] == [1.0]
            assert [e["z"] for e in crit["stein"]] == [0.0]
            assert crit["conditional"]["n_bins"] == 32.0
    first, last = report.records
    assert last["exact"]["gamma_residual_sum"] < first["exact"]["gamma_residual_sum"]


@pytest.mark.parametrize(
    "experiment,pairs,split",
    [
        ("decouple", [[0, 1]], {}),
        ("three_way", [[0, 1], [0, 2], [1, 2]], {}),
        ("decouple", [[0, 1]], {"c1": 0.3, "c2": 0.7}),
        ("three_way", [[0, 1], [0, 2], [1, 2]], {"c1": 0.2, "c2": 0.3, "c3": 0.5}),
    ],
    ids=[
        "decouple-pairs0", "three_way-pairs1", "decouple-unequal_split", "three_way-unequal_split"
    ],
)
def test_k_way_independence_list_is_exact_zeros_in_pair_order(experiment, pairs, split):
    # The summands sit on disjoint cells: every pair is strongly independent
    # and its cross Gamma is the zero expansion, so the bound on
    # |E[e^{it(X_i + X_j)} Gamma(X_i, X_j)]| is exactly 0, for any split.
    cfg = ExperimentConfig(
        experiment=experiment, n_schedule=(2, 4), mc_samples=3000,
        seed=3, t_grid=(0.5, 1.0), z_grid=(0.0,), **split
    )
    report = run_experiment(cfg)
    for rec in report.records:
        entries = rec["exact"]["independence"]
        assert [entry["pair"] for entry in entries] == pairs
        for entry in entries:
            assert entry["strongly_independent"] is True
            assert entry["worst_pair"] == [2, 2]
            assert entry["worst_contraction_norm"] == 0.0
            assert entry["cross_gamma_residual"] == 0.0


@pytest.mark.parametrize(
    "layout,expected",
    [
        ("aa", [(False, 0.375)]),
        ("aba", [(True, 0.0), (False, 0.375), (True, 0.0)]),
        ("aab", [(False, 0.375), (True, 0.0), (True, 0.0)]),
    ],
)
def test_independence_list_reads_a_self_coupled_pair_without_a_draw(layout, expected, monkeypatch):
    # X paired with itself (n = 4, c = 0.5) reads E[Gamma(X)^2] = 0.375 at its
    # own pair and the others stay exact zeros; the list is algebra only.
    def no_draws(*args, **kwargs):
        raise AssertionError("the independence list must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    a, b = diagonal_summands(4, (0.5, 0.5))
    entries = harness._independence([{"a": a, "b": b}[name] for name in layout])
    assert [entry["pair"] for entry in entries] == [[0, 1], [0, 2], [1, 2]][: len(expected)]
    for entry, (independent, residual) in zip(entries, expected):
        assert entry["strongly_independent"] is independent
        assert entry["worst_pair"] == [2, 2]
        assert (entry["worst_contraction_norm"] == 0.0) is independent
        assert entry["cross_gamma_residual"] == residual


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "experiment,split",
    [
        ("decouple", {}),
        ("decouple", {"c1": 0.3, "c2": 0.7, "n_bins": 8}),
        ("three_way", {"c1": 1 / 3, "c2": 1 / 3, "c3": 1 / 3}),
        ("three_way", {"c1": 0.2, "c2": 0.3, "c3": 0.5}),
        ("decouple", {"t_grid": (0.0, 0.25, 3.0), "z_grid": (-2.0, 0.5, 2.0)}),
        ("three_way", {"t_grid": (0.0, 0.25, 3.0), "z_grid": (-2.0, 0.5, 2.0), "n_bins": 8}),
    ],
)
def test_runner_records_match_reference(experiment, split, workers):
    # The k-way runner and the public estimators must reproduce the
    # reference k-way runner byte for byte, key order included.
    config = ExperimentConfig(
        experiment=experiment, n_schedule=(4, 16, 64), mc_samples=5000, seed=11, **split
    )
    got = run_experiment(config, workers=workers).records
    assert json.dumps(got) == json.dumps(run_k_way_reference(config, workers=workers).records)


def test_decouple_keys_spread_the_three_way_keys():
    # One layout: every decouple key is a three_way key, its per-summand
    # lists spread into `_x`/`_y` keys in place; the independence list stays.
    def spread(block):
        keys = []
        for key, value in block.items():
            listed = isinstance(value, list) and key != "independence"
            keys += [f"{key}_x", f"{key}_y"] if listed else [key]
        return keys

    two, three = (
        run_experiment(_small_decouple(experiment=experiment, n_schedule=(4,))).records[0]
        for experiment in ("decouple", "three_way")
    )
    for part in ("exact", "mc"):
        assert list(two[part]) == spread(three[part]), part
    assert two["mc"]["crit_x"].keys() == three["mc"]["crit"][0].keys()


def test_counterexample_record():
    cfg = ExperimentConfig(
        experiment="counterexample", path_steps=200, mc_samples=20_000, seed=9,
    )
    report = run_experiment(cfg)
    (rec,) = report.records
    assert rec["n"] == 200
    m = rec["mc"]
    assert abs(m["var_x"] - 1.0) <= 0.05
    assert abs(m["var_y"] - 1.0) <= 0.05
    assert abs(m["corr_xy"]) <= 0.05
    assert abs(m["proj_x"] - 0.5) <= 0.05
    assert abs(m["proj_y"] - 0.5) <= 0.05
    assert m["dkol_scaled_sum"] <= 0.05
    assert m["proj_x_se"] > 0.0
    again = run_experiment(cfg)
    assert again.records == report.records


def test_counterexample_workers_do_not_change_records():
    # CLI defaults: path_steps 1000, 100 000 paths over 25 blocks
    cfg = ExperimentConfig(experiment="counterexample", seed=4242)
    serial = run_experiment(cfg).records
    assert json.dumps(run_experiment(cfg, workers=2).records) == json.dumps(serial)


# ---------------------------------------------------------------------------
# serialization


def test_report_json_round_trip():
    report = run_experiment(_small_decouple())
    back = report_from_json(report_to_json(report))
    assert isinstance(back, ExperimentReport)
    assert back.config == report.config
    assert back.records == report.records
    assert back.runtime_ms == report.runtime_ms
    # a report is outside input: a malformed body names what is wrong
    with pytest.raises(ValueError, match="missing key 'records'"):
        report_from_json('{"config": {}}')
    with pytest.raises(ValueError, match="must be a JSON object"):
        report_from_json("[1]")


# Where each experiment's records carry their own layout: one key no other
# experiment's records have.
LAYOUT_MARKERS = {
    "decouple": ("exact", "bound_x"),
    "three_way": ("exact", "bound"),
    "counterexample": ("mc", "corr_xy"),
}


def _small_config(experiment):
    extra = {"path_steps": 200} if experiment == "counterexample" else {}
    return ExperimentConfig(
        experiment=experiment, n_schedule=(4, 8), mc_samples=200, seed=3, **extra
    )


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_run_experiment_runs_the_configs_experiment(experiment):
    # One entry point: the report echoes the config it was given, and every
    # record has that experiment's layout and no other's.
    config = _small_config(experiment)
    report = run_experiment(config)
    assert report.config == config.to_dict()
    want = [200] if experiment == "counterexample" else [4, 8]
    assert [record["n"] for record in report.records] == want
    for record in report.records:
        for other, (part, key) in LAYOUT_MARKERS.items():
            assert (key in record[part]) == (other == experiment), (other, key)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_experiment_round_trips_through_json_and_csv(experiment):
    report = run_experiment(_small_config(experiment))
    back = report_from_json(report_to_json(report))
    assert (back.config, back.records, back.runtime_ms) == (
        report.config, report.records, report.runtime_ms
    )
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert [row["experiment"] for row in rows] == [experiment] * len(report.records)
    assert [row["n"] for row in rows] == [str(record["n"]) for record in report.records]


_FULL_REPORT = {"config": {}, "records": [], "runtime_ms": 0.0}


@pytest.mark.parametrize(
    "body,message",
    [
        ("[1]", "must be a JSON object, got list"),
        ("1", "must be a JSON object, got int"),
        ('"report"', "must be a JSON object, got str"),
        ("null", "must be a JSON object, got NoneType"),
        ("true", "must be a JSON object, got bool"),
        *[
            (json.dumps({k: v for k, v in _FULL_REPORT.items() if k != key}), f"key '{key}'")
            for key in _FULL_REPORT
        ],
    ],
    ids=["list", "int", "str", "null", "bool", "no_config", "no_records", "no_runtime_ms"],
)
def test_report_from_json_rejects_malformed_bodies(body, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        report_from_json(body)


def test_report_dict_shape():
    report = run_experiment(_small_decouple())
    d = report_to_dict(report)
    assert set(d) == {"config", "records", "runtime_ms"}
    json.dumps(d)  # must be JSON-ready as-is


def test_report_json_rejects_nan():
    report = ExperimentReport(config={}, records=[{"mc": {"value": math.nan}}], runtime_ms=1.0)
    with pytest.raises(ValueError):
        report_to_json(report)


def test_report_csv_layout():
    report = run_experiment(_small_decouple())
    text = report_to_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["experiment"] == "decouple"
    assert rows[0]["n"] == "4"
    want_var = report.records[0]["exact"]["var_x"]
    assert float(rows[0]["exact.var_x"]) == want_var
    assert "mc.crit_x.char.0.value" in rows[0]


def test_save_report_files(tmp_path):
    report = run_experiment(_small_decouple())
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    save_report(report, jpath, "json")
    save_report(report, cpath, "csv")
    assert report_from_json(jpath.read_text()).records == report.records
    assert cpath.read_text().startswith("experiment,")
    with pytest.raises(ValueError):
        save_report(report, tmp_path / "r.x", "yaml")


# ---------------------------------------------------------------------------
# CLI


def _cli_args(*extra):
    return [
        "decouple", "--n-schedule", "4", "--mc", "2000", "--seed", "3",
        "--t-grid", "1.0", "--z-grid", "0.0", *extra,
    ]


def test_cli_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli_main(_cli_args("--out", str(out)))
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    data = json.loads(out.read_text())
    assert data["config"]["experiment"] == "decouple"
    assert data["config"]["mc_samples"] == 2000
    assert len(data["records"]) == 1


def test_cli_prints_json_without_out(capsys):
    code = cli_main(_cli_args())
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["seed"] == 3


def test_cli_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = cli_main(_cli_args("--out", str(out), "--format", "csv"))
    assert code == 0
    assert out.read_text().startswith("experiment,")


def test_cli_prints_csv_without_out(capsys):
    code = cli_main(_cli_args("--format", "csv"))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(row["experiment"], row["n"]) for row in rows] == [("decouple", "4")]


def test_cli_rejects_bad_split(capsys):
    code = cli_main(_cli_args("--c1", "0.7", "--c2", "0.7"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "n_schedule": [4], "mc_samples": 2000, "seed": 3,
        "t_grid": [1.0], "z_grid": [0.0],
    }))
    code = cli_main(["decouple", "--config", str(conf), "--seed", "9"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["seed"] == 9
    assert data["config"]["mc_samples"] == 2000


def test_cli_n_bins_flag(capsys):
    code = cli_main(_cli_args("--n-bins", "8"))
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["n_bins"] == 8
    assert data["records"][0]["mc"]["crit_x"]["conditional"]["n_bins"] == 8.0


@pytest.mark.parametrize(
    "argv",
    [
        ["decouple", "--t-grid", "nan,inf"],
        # t * x overflowed for every sample: all drawn, then NaN failed the JSON encoding
        ["decouple", "--t-grid", "1e308"],
        ["decouple", "--z-grid", "100"],
        ["decouple", "--mc", "10"],  # below the default n_bins of 32
        ["decouple", "--config", {"n_bins": "7"}],
        # no silent coercion: "16" would run [1, 6], [2.9, 4.5] would run [2, 4]
        ["decouple", "--config", {"n_schedule": "16"}],
        ["decouple", "--config", {"n_schedule": [2.9, 4.5]}],
        ["decouple", "--config", {"n_schedule": [True, 3]}],
        ["decouple", "--config", {"seed": True}],
        ["decouple", "--config", {"t_grid": "12"}],
        ["decouple", "--config", {"z_grid": ["1"]}],
        ["decouple", "--config", {"z_grid": 5}],
        ["decouple", "--config", {"n_schedule": None}],
        ["decouple", "--config", {"out": 5}],  # would fail only after the run
        ["decouple", "--config", {"fmt": "yaml"}],
        ["decouple", "--config", {"fmt": None}],
        ["decouple", "--workers", "0"],
        ["decouple", "--workers", "-1"],
        ["decouple", "--config", {"workers": 1.5}],
        ["decouple", "--config", {"workers": True}],
        ["decouple", "--config", {"workers": "3"}],
        # c3 is a three_way field; elsewhere it would be echoed unused
        ["decouple", "--c3", "0.9"],
        ["decouple", "--config", {"c3": 0.2}],
        # unused outside counterexample, but echoed: NaN failed only at serialization
        ["decouple", "--config", {"path_steps": math.nan}],
        # an unwritable --out failed only once the report was written
        ["decouple", "--n-schedule", "2", "--mc", "500", "--out", "."],
        ["decouple", "--n-schedule", "2", "--mc", "500", "--out", "/nonexistent/r.json"],
        # diagonal kernels above kernels.MAX_ENTRIES stored entries, rejected
        # before n = 4 samples
        ["decouple", "--n-schedule", "50000001"],
        ["decouple", "--n-schedule", "4,50000001"],
        ["three_way", "--n-schedule", "4,33333334"],
        # three_way reads the Stein grid and n_bins as decouple does
        ["three_way", "--z-grid", "41"],
        ["three_way", "--mc", "64", "--n-bins", "65"],
    ],
)
def test_cli_bad_config_fails_before_sampling(argv, tmp_path, capsys, monkeypatch):
    conf = tmp_path / "conf.json"

    def as_arg(arg):
        if isinstance(arg, dict):  # the body of a --config file
            conf.write_text(json.dumps(arg))
            return str(conf)
        return arg

    def no_draws(*args, **kwargs):
        raise AssertionError("a rejected config must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    code = cli_main([as_arg(a) for a in argv])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_out_and_format_stay_out_of_the_echo(tmp_path, monkeypatch, capsys):
    # out and fmt are CLI options, taken from a --config file like workers:
    # the report goes to harness.save_report with them and echoes neither.
    saved = []
    monkeypatch.setattr(cli, "save_report", lambda report, path, fmt: saved.append((report, path, fmt)))
    out = str(tmp_path / "x.json")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "n_schedule": [4, 8], "mc_samples": 4000, "seed": 7, "t_grid": [1.0], "z_grid": [0.0],
        "n_bins": 8, "out": out, "fmt": "csv",
    }))
    assert cli_main(["decouple", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.strip() == out
    [(report, path, fmt)] = saved
    assert (path, fmt) == (out, "csv")
    assert report.config == _small_decouple().to_dict()
    assert "out" not in report.config and "fmt" not in report.config


def test_cli_rejects_an_unknown_format_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli_main(_cli_args("--format", "yaml"))
    assert exit_info.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


def test_cli_rejects_a_retired_experiment(capsys, monkeypatch):
    # An experiment name outside EXPERIMENTS fails in argparse, before any draw.
    def no_draws(*args, **kwargs):
        raise AssertionError("a rejected experiment must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["class_a"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'class_a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decouple", "--n-schedule", "4,16", "--mc", "9000"],
        ["counterexample", "--path-steps", "200", "--mc", "9000"],
    ],
)
def test_cli_records_do_not_depend_on_workers(argv, tmp_path, capsys):
    # 9000 paths are three blocks; the last run takes the default worker count
    records = []
    for extra in (["--workers", "1"], ["--workers", "2"], []):
        out = tmp_path / f"report{len(records)}.json"
        assert cli_main(argv + extra + ["--out", str(out)]) == 0
        records.append(json.dumps(json.loads(out.read_text())["records"]))
    assert records[0] == records[1] == records[2]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(chaoskit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        cmd = [sys.executable, "-m", "chaoskit", *args]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    out = tmp_path / "report.json"
    done = run("decouple", "--n-schedule", "4", "--mc", "100", "--n-bins", "4", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert [r["n"] for r in json.loads(out.read_text())["records"]] == [4]
    bad = run("decouple", "--workers", "0")
    assert bad.returncode == 2
    err = bad.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_cli_workers_default_and_override(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_run(config, workers):
        seen.append(workers)
        raise ValueError("stop")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"workers": 5}))
    cli_main(["decouple"])
    cli_main(["decouple", "--workers", "2"])
    cli_main(["decouple", "--config", str(conf)])
    cli_main(["decouple", "--config", str(conf), "--workers", "4"])
    assert seen == [3, 2, 5, 4]


@pytest.mark.parametrize(
    "experiment,conf",
    [("decouple", {"c1": "0.5"}), ("decouple", {"c2": False}), ("three_way", {"c3": "0.2"})],
)
def test_cli_non_real_split_fails_before_sampling(experiment, conf, tmp_path, capsys, monkeypatch):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))

    def no_draws(*args, **kwargs):
        raise AssertionError("a rejected config must not sample")

    monkeypatch.setattr(IncrementStream, "standard_normal_block", no_draws)
    code = cli_main([experiment, "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and next(iter(conf)) in err[0]


def test_cli_rejects_unknown_config_fields(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"mc_samples": 2000, "bogus": 1}))
    code = cli_main(["decouple", "--config", str(conf)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    code = cli_main(["decouple", "--config", "/nonexistent/conf.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_three_way_defaults_to_thirds(capsys):
    code = cli_main([
        "three_way", "--n-schedule", "2", "--mc", "2000", "--seed", "3",
        "--t-grid", "1.0", "--z-grid", "0.0",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["c1"] == pytest.approx(1 / 3)
    assert data["config"]["c3"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("experiment,pairs", [("decouple", 1), ("three_way", 3)])
def test_cli_default_independence_entries_are_exact_zeros(experiment, pairs, capsys):
    # The list depends on the schedule and the split alone, so the CLI's
    # defaults are read with fewer paths.
    assert cli_main([experiment, "--mc", "2000", "--seed", "4242", "--workers", "2"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [rec["n"] for rec in records] == list(ExperimentConfig(experiment).n_schedule)
    for rec in records:
        entries = rec["exact"]["independence"]
        assert len(entries) == pairs
        for entry in entries:
            assert entry["strongly_independent"] is True
            assert entry["worst_contraction_norm"] == 0.0
            assert entry["cross_gamma_residual"] == 0.0


def test_cli_counterexample(capsys):
    code = cli_main([
        "counterexample", "--path-steps", "200", "--mc", "5000", "--seed", "4",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["records"][0]["n"] == 200
    assert abs(data["records"][0]["mc"]["proj_x"] - 0.5) < 0.1
