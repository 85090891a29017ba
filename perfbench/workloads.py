"""The four benchmark workloads: generated configs, CLI argument lists, checks.

Each workload is a fixed list of CLI runs (one *round*).  A config is a
dict of blocks rendered in the program's key/table grammar; nothing is
read from the repository's ``configs/`` directory, so a change there
cannot change what is measured.  The three stochastic configs and
``baseline`` mirror the shipped ``configs/*.cfg`` block for block.

``small=True`` gives the reduced sizes the benchmark's own tests run with:
the same problems and the same checks on smaller grids and fewer paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

WORKLOADS = ("harvest-scan", "grid-refine", "mc-paths", "parabolic-longtime")

FRACTIONAL = {"kind": "fractional", "alpha": 1.0}
RELATIVISTIC = {"kind": "relativistic", "alpha": 1.0, "m": 1.0}
SUM_FRACTIONAL = {"kind": "sum_fractional", "alpha": 1.0, "beta": 1.5}
CROWDING = {"kind": "quadratic", "b": 1.0}
SOLVER = {"tol": 1e-10}
DISCRETIZATION = {"far_cutoff": 4.0}
WORKERS = 1


@dataclass(frozen=True)
class CliRun:
    """One CLI invocation of a round and the check applied to its outputs."""

    name: str
    subcommand: str
    config: dict
    check: Callable
    flags: tuple = ()

    def argv(self, config_path, outdir) -> list[str]:
        return [self.subcommand, "--config", str(config_path), "--output", str(outdir),
                "--workers", str(WORKERS), *self.flags]


def _value(v) -> str:
    if isinstance(v, dict):
        return "{ " + ", ".join(f"{k} = {_value(x)}" for k, x in v.items()) + " }"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_value(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return json.dumps(v)
    return repr(v)


def config_text(blocks: dict) -> str:
    """Render config blocks in the program's key/table grammar."""
    return "".join(f"{key} = {_value(block)}\n" for key, block in blocks.items())


def _domain(n: int) -> dict:
    return {"left": -1.0, "right": 1.0, "n": n}


def _config(symbol: dict, n: int, **blocks) -> dict:
    return {"symbol": symbol, "domain": _domain(n), "discretization": DISCRETIZATION,
            "solver": SOLVER, **blocks}


# ---------------------------------------------------------------------------
# harvest-scan: the critical-harvest scan at n = 199
# ---------------------------------------------------------------------------

def _scan_problem(symbol, n, a_rel, harvest, c_max):
    problem = {"a_rel": a_rel, "c": 0.0, "f": CROWDING, "h": harvest}
    return _config(symbol, n, problem=problem,
                   # rel_tol 1e-2, not the shipped 1e-3: the probes nearest the fold
                   # are the slowest, and skipping them lets three rounds fit in 25 s
                   scan={"c_max": c_max, "rel_tol": 1e-2, "ladder": 4})


def harvest_scan(small: bool) -> list[CliRun]:
    n = 63 if small else 199
    constant = {"kind": "constant_yield", "h0": 1.0}
    saturating = {"kind": "saturating", "h0": 1.0, "q": 0.5}
    problems = [
        # configs/baseline.cfg: a just above lambda_1, so the fold is close and slow
        ("baseline", FRACTIONAL, 1.05, constant, 0.2),
        ("fractional-a2", FRACTIONAL, 2.0, constant, 1.0),
        ("sum-saturating", SUM_FRACTIONAL, 1.5, saturating, 2.0),
        ("relativistic", RELATIVISTIC, 1.2, constant, 1.0),
    ]
    runs = []
    for name, symbol, a_rel, harvest, c_max in problems:
        cfg = _scan_problem(symbol, n, a_rel, harvest, c_max)
        if name == "baseline":
            cfg["problem"]["c"] = 0.001
        runs.append(CliRun(f"bifurcate-{name}", "bifurcate", cfg, checks.bifurcation))
    return runs


# ---------------------------------------------------------------------------
# grid-refine: operator and spectral layers at large n
# ---------------------------------------------------------------------------

def grid_refine(small: bool) -> list[CliRun]:
    sizes = (99, 199, 399) if small else (799, 1599, 3199)
    problem = {"a_rel": 2.0, "f": CROWDING}
    runs = []
    for n in sizes:
        runs.append(CliRun(f"eigen-{n}", "eigen", _config(FRACTIONAL, n, problem=problem),
                           checks.eigen))
    cfg = _config(FRACTIONAL, sizes[0], problem=problem)
    runs.append(CliRun(f"steady-{sizes[0]}", "steady", cfg, checks.logistic))
    runs.append(CliRun(f"diagnose-{sizes[0]}", "diagnose", cfg, checks.torsion))
    n_rel = sizes[1]
    runs.append(CliRun(f"eigen-relativistic-{n_rel}", "eigen", _config(RELATIVISTIC, n_rel),
                       checks.eigen))
    return runs


# ---------------------------------------------------------------------------
# mc-paths: the killed-path engine on the three stochastic configs
# ---------------------------------------------------------------------------

def mc_paths(small: bool) -> list[CliRun]:
    n = 99 if small else 199
    scale = 5 if small else 1
    baseline = _config(FRACTIONAL, n, stochastic={
        "n_paths": 40_000 // scale, "dt_path": 0.01, "seed": 0, "x0": 0.0,
        "horizon": 64.0, "t_max": 3.0, "n_t": 12})
    relativistic = _config(RELATIVISTIC, n, stochastic={
        "n_paths": 20_000 // scale, "dt_path": 0.01, "seed": 2, "t_max": 6.0, "n_t": 12})
    # the sum symbol decays fastest (lambda_1 ~ 2.8): keep >= 50 survivors at t_max
    sum_kernel = _config(SUM_FRACTIONAL, n, stochastic={
        "n_paths": 50_000 // min(scale, 2), "dt_path": 0.01, "seed": 1,
        "t_max": 2.0, "n_t": 10})
    return [
        CliRun("mc-baseline", "mc-check", baseline, partial(checks.monte_carlo, trace=True),
               flags=("--trace-paths",)),
        CliRun("mc-relativistic", "mc-check", relativistic, checks.monte_carlo),
        CliRun("mc-sum", "mc-check", sum_kernel, checks.monte_carlo),
    ]


# ---------------------------------------------------------------------------
# parabolic-longtime: the IMEX stepper
# ---------------------------------------------------------------------------

def parabolic_longtime(small: bool) -> list[CliRun]:
    n = 99 if small else 799
    runs = []
    for tag, a_rel in (("a2", 2.0), ("a0.8", 0.8)):
        cfg = _config(FRACTIONAL, n, problem={"a_rel": a_rel, "f": CROWDING}, parabolic={
            "dt": 0.01, "horizon": 4.0, "s_max": 200.0, "verdict_tol": 1e-4,
            "snapshot_times": [0.0, 0.5, 1.0, 2.0, 3.0, 4.0],
            "u0": {"kind": "eigenfunction", "scale": 0.01}})
        runs.append(CliRun(f"evolve-{tag}", "evolve", cfg,
                           partial(checks.evolve, partner=f"longtime-{tag}")))
        runs.append(CliRun(f"longtime-{tag}", "longtime", cfg, checks.longtime))
    # configs/sum_kernel.cfg: a bump initial datum, so no monotonicity in time
    sum_cfg = _config(SUM_FRACTIONAL, 99 if small else 199,
                      problem={"a_rel": 2.0, "f": CROWDING}, parabolic={
                          "dt": 0.005, "horizon": 1.0, "s_max": 100.0, "verdict_tol": 1e-4,
                          "snapshot_times": [0.0, 0.5, 1.0],
                          "u0": {"kind": "bump", "scale": 0.1}})
    runs.append(CliRun("evolve-sum", "evolve", sum_cfg,
                       partial(checks.evolve, partner="longtime-sum")))
    runs.append(CliRun("longtime-sum", "longtime", sum_cfg, checks.longtime))
    return runs


_BUILDERS = {
    "harvest-scan": harvest_scan,
    "grid-refine": grid_refine,
    "mc-paths": mc_paths,
    "parabolic-longtime": parabolic_longtime,
}


def runs_for(workload: str, small: bool = False) -> list[CliRun]:
    return _BUILDERS[workload](small)


# The same small harvest-free steady solve precedes every workload, so the
# first timed call pays no lazy import and set-up times compare across workloads.
WARMUP = CliRun("warmup", "steady", _config(FRACTIONAL, 63, problem={"a_rel": 2.0, "f": CROWDING}),
                checks.logistic)
