"""The benchmark's own tests: every workload at reduced size, every check on
corrupted outputs, and the tracer's wrapping and counts.

    python3 -m pytest -q perfbench/selftest.py

(Named so that the repository's test discovery does not collect it.)
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "MB")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """One reduced-size round of every workload: {workload: (runs, round dir, failed)}."""
    out = {}
    for workload in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        runs, paths = run.prepare(cli, workload, workdir, small=True)
        _, failed, _ = run.run_round(cli, runs, paths, runs, workdir / "round")
        out[workload] = (runs, workdir / "round", failed)
    return out


def _get(outputs, workload, name):
    runs, round_dir, _ = outputs[workload]
    return next(r for r in runs if r.name == name), round_dir


def _corrupted(outputs, tmp_path, workload, name, edit):
    """Check a copy of one run's outputs after ``edit(copy_dir)``."""
    cli_run, round_dir = _get(outputs, workload, name)
    copy_round = tmp_path / "round"
    copy_round.mkdir()
    for d in round_dir.iterdir():
        shutil.copytree(d, copy_round / d.name)
    edit(copy_round / name)
    with pytest.raises(checks.CheckFailed):
        cli_run.check(copy_round / name, cli_run.config)


def _edit_json(filename, key, fn):
    def edit(d):
        payload = json.loads((d / filename).read_text())
        payload[key] = fn(payload)
        (d / filename).write_text(json.dumps(payload))
    return edit


def _inner_trace_row(rows) -> int:
    """Index of a path-trace row that is neither the first nor the last of its path."""
    return next(i for i in range(1, len(rows) - 1) if rows[i - 1][0] == rows[i][0] == rows[i + 1][0])


def _edit_csv(filename, fn):
    """``fn(rows)`` edits the data rows (lists of strings) in place."""
    def edit(d):
        with open(d / filename, newline="") as fh:
            rows = list(csv.reader(fh))
        fn(rows[1:])
        with open(d / filename, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return edit


# -- configuration -------------------------------------------------------------


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_config_text_round_trips(cli):
    from nonlocal_logistic.config import parse_config_text

    for workload in workloads.WORKLOADS:
        for r in workloads.runs_for(workload):
            assert parse_config_text(workloads.config_text(r.config)) == r.config


# -- every workload passes every check at reduced size -----------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_workload_passes_every_check(outputs, workload):
    runs, _, failed = outputs[workload]
    assert runs and failed == []


# -- each check rejects a corrupted output --------------------------------------------


CORRUPTIONS = {
    "lambda1 off by 1%": ("grid-refine", "eigen-199",
                          _edit_json("eigen.json", "lambda1", lambda p: p["lambda1"] * 1.01)),
    "relativistic lambda1 off eigvalsh": (
        "grid-refine", "eigen-relativistic-199",
        _edit_json("eigen.json", "lambda1", lambda p: p["lambda1"] * (1 + 1e-6))),
    "eigenvector sign change": ("grid-refine", "eigen-99",
                                _edit_csv("eigen.csv", lambda rows: rows[0].__setitem__(2, "-1e-9"))),
    "logistic above a/b": ("grid-refine", "steady-99", _edit_csv(
        "steady.csv", lambda rows: rows[50].__setitem__(2, "100.0"))),
    "unstable logistic state": ("grid-refine", "steady-99", _edit_json(
        "steady.json", "logistic_lambda_star", lambda p: -p["logistic_lambda_star"])),
    "torsion 1% low": ("grid-refine", "diagnose-99", _edit_csv(
        "ratio_fields.csv",
        lambda rows: [r.__setitem__(4, repr(float(r[4]) * 0.99)) for r in rows if r[0] == "torsion"])),
    "c_star above its bound": ("harvest-scan", "bifurcate-fractional-a2",
                               _edit_json("bifurcation.json", "c_star", lambda p: 1.03 * (
                                   p["a"] - p["lambda1"]) ** 2 / 4)),
    "existence above the bound": ("harvest-scan", "bifurcate-baseline", _edit_json(
        "bifurcation.json", "a", lambda p: p["lambda1"] + 0.5 * (p["a"] - p["lambda1"]))),
    "non-monotone exists flag": ("harvest-scan", "bifurcate-sum-saturating", _edit_csv(
        "bifurcation.csv", lambda rows: rows[1].__setitem__(1, "false"))),
    "bracket wider than rel_tol": ("harvest-scan", "bifurcate-relativistic", _edit_json(
        "bifurcation.json", "bracket_lo", lambda p: p["bracket_lo"] * 0.99)),
    "sup_u1 not decreasing": ("harvest-scan", "bifurcate-fractional-a2", _edit_csv(
        "bifurcation.csv", lambda rows: rows[1].__setitem__(2, repr(float(rows[0][2]) * 1.1)))),
    "small branch above maximal": ("harvest-scan", "bifurcate-fractional-a2", _edit_csv(
        "bifurcation.csv", lambda rows: rows[0].__setitem__(3, repr(float(rows[0][2]) * 1.1)))),
    "lambda_star not decreasing": ("harvest-scan", "bifurcate-relativistic", _edit_csv(
        "bifurcation.csv", lambda rows: rows[2].__setitem__(4, repr(float(rows[0][4]) * 1.1)))),
    "Laplace check 5 SE off": ("mc-paths", "mc-sum", _edit_csv(
        "laplace_check.csv",
        lambda rows: rows[1].__setitem__(1, repr(float(rows[1][3]) + 5 * float(rows[1][2]))))),
    "green_mc biased": ("mc-paths", "mc-baseline", _edit_json(
        "mc_check.json", "green_mc", lambda p: {**p["green_mc"], "value": 1.1})),
    "lambda1_hat off by 6%": ("mc-paths", "mc-relativistic", _edit_json(
        "mc_check.json", "lambda1_hat", lambda p: p["lambda1_spectral"] * 1.06)),
    "fractional lambda1_hat off by 6%": ("mc-paths", "mc-baseline", _edit_json(
        "mc_check.json", "lambda1_hat", lambda p: checks.KWASNICKI_LAMBDA1 * 0.94)),
    "survival increases": ("mc-paths", "mc-sum", _edit_csv(
        "survival.csv", lambda rows: rows[3].__setitem__(1, repr(float(rows[2][1]) + 0.01)))),
    "trace starts at x0 + h": ("mc-paths", "mc-baseline", _edit_csv(
        "path_traces.csv", lambda rows: rows[0].__setitem__(2, "0.02"))),
    "trace id missing": ("mc-paths", "mc-baseline", _edit_csv(
        "path_traces.csv",
        lambda rows: [r.__setitem__(0, "998") for r in rows if r[0] == "999"])),
    "trace time off the dt_path grid": ("mc-paths", "mc-baseline", _edit_csv(
        "path_traces.csv", lambda rows: rows[_inner_trace_row(rows)].__setitem__(
            1, repr(float(rows[_inner_trace_row(rows)][1]) * 1.01)))),
    "trace continues outside": ("mc-paths", "mc-baseline", _edit_csv(
        "path_traces.csv", lambda rows: rows[_inner_trace_row(rows)].__setitem__(2, "1.5"))),
    "wrong verdict": ("parabolic-longtime", "longtime-a2",
                      _edit_json("longtime.json", "verdict", lambda p: "to_zero")),
    "decay time 6% above the linear prediction": (
        "parabolic-longtime", "longtime-a0.8", _edit_json(
            "longtime.json", "s_reached", lambda p: 1.06 * 0.01 * math.log(1e-4 / 0.01) / math.log(
                (1 + 0.01 * p["a"]) / (1 + 0.01 * p["lambda1"])))),
    "sup norm not monotone": ("parabolic-longtime", "longtime-a0.8", _edit_csv(
        "distance_curve.csv", lambda rows: rows[10].__setitem__(1, repr(float(rows[9][1]) * 1.01)))),
    "negative snapshot": ("parabolic-longtime", "evolve-sum", _edit_csv(
        "snapshots.csv", lambda rows: rows[3].__setitem__(3, "-1e-6"))),
    "snapshot above a/b": ("parabolic-longtime", "evolve-sum", _edit_csv(
        "snapshots.csv", lambda rows: rows[-5].__setitem__(3, "100.0"))),
    "snapshot sup not monotone": ("parabolic-longtime", "evolve-a2", _edit_csv(
        "snapshots.csv", lambda rows: [r.__setitem__(3, repr(float(r[3]) * 0.1))
                                       for r in rows if r[0] == "4.0"])),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_output(outputs, tmp_path, case):
    workload, name, edit = CORRUPTIONS[case]
    _corrupted(outputs, tmp_path, workload, name, edit)


def test_harvest_floor_is_the_saturating_minimum():
    assert checks.harvest_floor({"kind": "constant_yield", "h0": 2.0}) == 2.0
    assert checks.harvest_floor({"kind": "saturating", "h0": 2.0, "q": 0.5}) == 1.0


# -- tracing ------------------------------------------------------------------------


def test_install_wraps_every_binding_and_uninstall_restores(cli):
    from nonlocal_logistic import parabolic, spectral, steady

    original = spectral.principal_eigenpair
    uninstall = tracing.install(tracing.Tracer())
    try:
        wrapped = spectral.principal_eigenpair
        assert wrapped is not original
        assert steady.principal_eigenpair is wrapped
        assert parabolic.principal_eigenpair is wrapped
        assert cli.principal_eigenpair is wrapped
    finally:
        uninstall()
    for module in (spectral, steady, parabolic, cli):
        assert module.principal_eigenpair is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: sum(range(100_000)), "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    outer()
    assert tracer.counts["inner.calls"] == 2
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(tracer.total_s["outer"])
    assert tracer.self_s["outer"] < tracer.total_s["outer"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(cli, tmp_path, workload):
    runs, paths = run.prepare(cli, workload, tmp_path, small=True)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    rounds = []
    try:
        for i in range(2):
            tracer.reset()
            _, failed, _ = run.run_round(cli, runs, paths, runs[::1 - 2 * i], tmp_path / f"r{i}")
            assert failed == []
            rounds.append(tracer.metrics())
    finally:
        uninstall()
    units = dict(tracing.PER_LAYER)
    assert set(rounds[0]) == set(units)
    counts = [{k: v for k, v in r.items() if units[k] in COUNT_UNITS or k.endswith("_probe")}
              for r in rounds]
    assert counts[0] == counts[1]
    assert any(v > 0 for v in counts[0].values())
    assert np.all([v >= 0 for v in rounds[0].values()])
