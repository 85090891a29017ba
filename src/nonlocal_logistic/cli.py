"""Configuration-driven command line front end.

Subcommands: validate-kernel, eigen, steady, bifurcate, evolve, longtime,
mc-check, diagnose.  Each run validates the whole config first, computes,
then writes CSV data files, a JSON summary, and a manifest.json recording
the config hash, package and library versions, and seeds.  Every handler
gives its CSV data as columns, which ``RunOutput.write`` streams in blocks
of ``CSV_BLOCK`` rows.  Exit codes:
0 success, 2 configuration error, 3 numeric/convergence error,
4 statistical-power error; argparse exits 2 on a flag ``FLAGS`` does not give
the subcommand.  Data files are byte-deterministic for a fixed config and
seed; only the manifest carries a timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bernstein import check_scaling, kernel_moments
from .boundary import hopf_ratio, v_modulus
from .config import RunConfig, build_initial_field, load_config, parse_config_text
from .errors import (
    ConfigurationError,
    NonlocalLogisticError,
    NumericError,
    StatisticalPowerError,
)
from .operator import assemble, green_solve
from .parabolic import evolve, longtime_classify
from .spectral import principal_eigenpair
from .steady import maximal_harvest, scan_cstar, small_branch, solve_logistic, stability_index
from .stochastic import SubordinatorSampler, exit_pass, survival_grid, trace_rows

ENV_OUTDIR = "NONLOCAL_LOGISTIC_OUTDIR"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the scales at which validate-kernel splits the kernel's moments (kernel_moments' h and R)
MOMENT_H, MOMENT_R = 0.01, 10.0

CSV_BLOCK = 8192  # rows turned into Python objects at a time by RunOutput.write

# exact types formatted without the isinstance chain: ``.tolist()`` gives these
_EXACT_FMT = {float: float.__repr__, np.float64: float.__repr__, int: int.__repr__,
              str: str.__str__}


def _fmt(value) -> str:
    """A CSV field: ``true``/``false``, ``repr`` of a float, ``str`` of anything else."""
    exact = _EXACT_FMT.get(type(value))
    if exact is not None:
        return exact(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _column_format(col):
    """The formatter of every field of a column, chosen once by an array's dtype."""
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return float.__repr__
        if col.dtype.kind in "iu":
            return int.__repr__
    return _fmt


def _jsonable(value):
    """Plain JSON values; a non-finite float (NaN, an undefined residual) is null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Stream equal-length columns (1-D arrays or lists) as CSV, ``CSV_BLOCK`` rows at a time.

    Only the slice of each column in the current block becomes Python
    objects (``.tolist()`` of an array slice), so memory stays bounded by one
    block whatever the file's length.  Each column's formatter is chosen
    once (:func:`_column_format`), not per field.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    formats = [_column_format(col) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, CSV_BLOCK):
            fields = []
            for col, fmt in zip(columns, formats):
                part = col[lo:lo + CSV_BLOCK]
                fields.append(map(fmt, part.tolist() if isinstance(part, np.ndarray) else part))
            fh.write("".join([",".join(row) + "\n" for row in zip(*fields)]))


class RunOutput:
    """Accumulates artifacts; nothing touches disk until the run succeeded.

    ``csvs[name]`` is ``(header, columns)``: one equal-length 1-D array or
    list per header field, written row by row in blocks by :meth:`write`.
    """

    def __init__(self):
        self.jsons: dict[str, dict] = {}
        self.csvs: dict[str, tuple[list[str], list]] = {}
        self.texts: dict[str, str] = {}
        self.solvers: dict[str, int] = {}  # solver work counts for the manifest
        self.op = None  # the assembled operator, for --dump-matrix

    def write(self, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, columns) in self.csvs.items():
            _write_csv(outdir / name, header, columns)
        for name, payload in self.jsons.items():
            (outdir / name).write_text(
                json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
            )
        for name, text in self.texts.items():
            (outdir / name).write_text(text)


def _eigenpair(cfg: RunConfig, out: RunOutput):
    """The assembled operator and its principal eigenpair; records the iterations."""
    if cfg.grid is None:
        raise ConfigurationError("this subcommand needs a domain block")
    op = out.op = assemble(cfg.grid, cfg.kernel, cfg.far_cutoff)
    pair = principal_eigenpair(op, tol=cfg.tol)
    out.solvers["eigen_iterations"] = pair.iterations
    return op, pair


def _dump_matrix(out: RunOutput):
    a = out.op.matrix
    rows, cols = np.nonzero(a)
    out.csvs["operator_matrix.csv"] = (["row", "col", "value"], [rows, cols, a[rows, cols]])


def _plot_script(csv_name: str, xcol: str, ycol: str, title: str) -> str:
    return (
        "#!/usr/bin/env python3\n"
        "import csv\n"
        "import matplotlib.pyplot as plt\n\n"
        f"xs, ys = [], []\n"
        f"with open({csv_name!r}) as fh:\n"
        "    for row in csv.DictReader(fh):\n"
        f"        xs.append(float(row[{xcol!r}]))\n"
        f"        ys.append(float(row[{ycol!r}]))\n"
        "plt.plot(xs, ys)\n"
        f"plt.xlabel({xcol!r}); plt.ylabel({ycol!r}); plt.title({title!r})\n"
        "plt.savefig('plot.png', dpi=150)\n"
    )


# the file --plot-script writes, per subcommand: {name: text}
PLOT_SCRIPTS = {
    "eigen": {"plot_eigen.py": _plot_script("eigen.csv", "x", "phi", "principal eigenfunction")},
    "steady": {"plot_steady.py": _plot_script("steady.csv", "x", "logistic", "steady states")},
    "bifurcate": {"plot_bifurcation.py":
                  _plot_script("bifurcation.csv", "c", "sup_u1", "bifurcation diagram")},
    "longtime": {"plot_longtime.py":
                 _plot_script("distance_curve.csv", "s", "sup_norm", "long-time behavior")},
    "evolve": {"plot_snapshots.py": (
        "#!/usr/bin/env python3\n"
        "import csv\n"
        "from collections import defaultdict\n"
        "import matplotlib.pyplot as plt\n\n"
        "series = defaultdict(lambda: ([], []))\n"
        "with open('snapshots.csv') as fh:\n"
        "    for row in csv.DictReader(fh):\n"
        "        xs, ys = series[row['s']]\n"
        "        xs.append(float(row['x'])); ys.append(float(row['value']))\n"
        "for s, (xs, ys) in sorted(series.items(), key=lambda kv: float(kv[0])):\n"
        "    plt.plot(xs, ys, label=f's={s}')\n"
        "plt.legend(); plt.xlabel('x'); plt.ylabel('u')\n"
        "plt.savefig('snapshots.png', dpi=150)\n")},
}

# output flag: (the subcommands that honour it, help).  The parser declares a
# flag only there (elsewhere it is a usage error) and reads an absent one as off.
FLAGS = {
    "--dump-matrix": (("eigen", "steady"), "export the operator matrix as CSV"),
    "--plot-script": (tuple(PLOT_SCRIPTS), "emit a plain-text plot script reading the CSVs"),
    "--trace-paths": (("mc-check",), "dump path traces (at most 1000 paths; needs a domain)"),
}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def run_validate_kernel(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    r_grid = np.logspace(0, 6, 40)
    scaling = check_scaling(cfg.symbol, r_grid)
    b2 = cfg.kernel.shift_ratio_bound(np.linspace(1.0, 50.0, 99))
    mom = kernel_moments(cfg.kernel, MOMENT_H, MOMENT_R)
    rs = np.logspace(-3, 2, 100)
    out.csvs["kernel_density.csv"] = (["r", "j"], [rs, [cfg.kernel.density(r) for r in rs]])
    out.jsons["kernel_report.json"] = {
        "symbol": cfg.symbol.as_config(),
        "mode": cfg.kernel.mode,
        "scaling": {
            "kappa1_declared": cfg.symbol.kappa1,
            "kappa2_declared": cfg.symbol.kappa2,
            "b1_declared": cfg.symbol.b1,
            "kappa1_emp": scaling.kappa1_emp,
            "kappa2_emp": scaling.kappa2_emp,
            "b1_emp": scaling.b1_emp,
            "passed": scaling.passed,
        },
        "shift_bound_b2": b2,
        "moments": {
            "h": MOMENT_H,
            "R": MOMENT_R,
            "sigma2_local": mom.sigma2_local,
            "mid_mass_total": float(mom.mass_mid.sum()),
            "tail_mass": mom.tail_mass,
        },
        "normalization_note": "scaled_profile mode uses unit normalization; "
        "the true density is only comparable to the profile",
    }
    return out


def run_eigen(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    out.csvs["eigen.csv"] = (["node", "x", "phi"], [np.arange(op.n), op.grid.nodes, pair.phi])
    out.jsons["eigen.json"] = {
        "lambda1": pair.lam,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "n": op.n,
    }
    return out


def run_steady(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    spec = cfg.reaction(pair.lam)
    spec0 = replace(spec, c=0.0, h=None)
    logistic = solve_logistic(op, spec0, tol=cfg.tol, eigenpair=pair)
    summary = {
        "lambda1": pair.lam,
        "a": spec.a,
        "c": spec.c,
        "logistic_branch": logistic.branch,
        "logistic_residual": logistic.residual,
        "logistic_sup": float(logistic.u.max()),
    }
    columns = {"logistic": logistic.u}
    out.solvers["logistic_steps"] = logistic.iterations
    out.solvers["logistic_cg_iterations"] = logistic.cg_iterations
    if logistic.branch != "none":
        summary["logistic_lambda_star"] = stability_index(
            op, spec0, logistic, tol=cfg.tol,
        ).lambda_star
    if spec.c > 0:
        maximal = maximal_harvest(op, spec, tol=cfg.tol, v_a=logistic, eigenpair=pair)
        out.solvers["descent_newton_steps"] = maximal.newton_steps
        out.solvers["descent_chord_steps"] = maximal.iterations - maximal.newton_steps
        summary["maximal_branch"] = maximal.branch
        summary["maximal_residual"] = maximal.residual
        summary["maximal_sup"] = float(maximal.u.max())
        columns["maximal"] = maximal.u
        if maximal.branch == "maximal":
            summary["maximal_lambda_star"] = stability_index(op, spec, maximal, tol=cfg.tol).lambda_star
    out.csvs["steady.csv"] = (
        ["node", "x", *columns], [np.arange(op.n), op.grid.nodes, *columns.values()])
    out.jsons["steady.json"] = summary
    return out


def run_bifurcate(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    spec = cfg.reaction(pair.lam)
    if spec.h is None:
        raise ConfigurationError("bifurcate needs a harvest term in the problem block")
    c_max = cfg.scan["c_max"]
    if c_max is None:
        raise ConfigurationError("bifurcate needs scan.c_max")
    scan = scan_cstar(
        op, spec, c_max,
        bisect_rel_tol=cfg.scan["rel_tol"],
        sample_ladder=cfg.scan["ladder"],
        tol=cfg.tol, eigenpair=pair,
    )
    columns = ([], [], [], [], [])  # c, exists, sup_u1, sup_u2, lambda_star
    # samples come in increasing c: the last small state is the predictor of
    # the next sample's small-branch solve
    u0 = None
    small_newton_steps = small_failures = 0
    for s in scan.samples:
        sup_u1 = float(s.state.u.max()) if s.exists else float("nan")
        lam_star = float("nan")
        sup_u2 = float("nan")
        if s.exists:
            spec_c = replace(spec, c=s.c)
            lam_star = stability_index(op, spec_c, s.state, tol=cfg.tol).lambda_star
            try:
                u2 = small_branch(op, spec_c, tol=cfg.tol, u0=u0)
                small_newton_steps += u2.iterations
            except NumericError:
                u2 = None
            if u2 is not None and u2.branch == "small":
                sup_u2 = float(u2.u.max())
                u0 = u2.u
            else:
                small_failures += 1
        for col, value in zip(columns, (s.c, s.exists, sup_u1, sup_u2, lam_star)):
            col.append(value)
    out.solvers.update({
        "scan_probes": len(scan.samples),
        "descent_newton_steps": sum(s.state.newton_steps for s in scan.samples),
        "descent_chord_steps": sum(
            s.state.iterations - s.state.newton_steps for s in scan.samples),
        "small_branch_newton_steps": small_newton_steps,
        "small_branch_failures": small_failures,
    })
    out.csvs["bifurcation.csv"] = (
        ["c", "exists", "sup_u1", "sup_u2", "lambda_star"], list(columns)
    )
    out.jsons["bifurcation.json"] = {
        "lambda1": pair.lam,
        "a": spec.a,
        "c_star": scan.c_star,
        "bracket_lo": scan.bracket[0],
        "bracket_hi": scan.bracket[1],
    }
    return out


def _initial_field(cfg: RunConfig, op, pair, spec):
    kind = cfg.parabolic["u0"]["kind"]
    scale = cfg.parabolic["u0"]["scale"]
    steady = None
    if kind == "steady":
        base = solve_logistic(op, replace(spec, c=0.0, h=None), tol=cfg.tol, eigenpair=pair)
        if base.branch == "none":
            raise ConfigurationError("steady initial field requires a above lambda1")
        steady = base.u
    return build_initial_field(kind, scale, op.grid, phi1=pair.phi, steady=steady)


def run_evolve(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    spec = cfg.reaction(pair.lam)
    dt = cfg.parabolic["dt"]
    horizon = cfg.parabolic["horizon"]
    snaps = cfg.parabolic["snapshot_times"]
    u0 = _initial_field(cfg, op, pair, spec)
    run = evolve(op, spec, u0, dt, horizon, snapshot_times=snaps)
    out.solvers["imex_steps"] = int(round(run.horizon / run.dt))
    n_snaps = run.times.size
    out.csvs["snapshots.csv"] = (["s", "node", "x", "value"], [
        np.repeat(run.times, op.n), np.tile(np.arange(op.n), n_snaps),
        np.tile(op.grid.nodes, n_snaps), run.snapshots.ravel(),
    ])
    out.jsons["evolve.json"] = {
        "dt": run.dt,
        "horizon": run.horizon,
        "snapshot_times": [float(s) for s in run.times],
        "sup_final": float(run.snapshots[-1].max()),
    }
    return out


def run_longtime(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    spec = cfg.reaction(pair.lam)
    dt = cfg.parabolic["dt"]
    s_max = cfg.parabolic["s_max"]
    verdict_tol = cfg.parabolic["verdict_tol"]
    u0 = _initial_field(cfg, op, pair, spec)
    res = longtime_classify(op, spec, u0, dt, s_max, verdict_tol, eigenpair=pair)
    out.solvers["imex_steps"] = res.times.size - 1
    if res.logistic_cg_iterations is not None:
        out.solvers["logistic_cg_iterations"] = res.logistic_cg_iterations
    stride = max(1, res.times.size // 2000)
    dist = res.steady_distances
    if dist is None:
        dist = np.full(res.times.size, float("nan"))
    out.csvs["distance_curve.csv"] = (
        ["s", "sup_norm", "dist_to_steady"],
        [res.times[::stride], res.sup_norms[::stride], dist[::stride]],
    )
    out.jsons["longtime.json"] = {
        "verdict": res.verdict,
        "s_reached": res.s_reached,
        "final_distance": res.final_distance,
        "lambda1": pair.lam,
        "a": spec.a,
    }
    return out


def _survival_window(lam1: float, n_t: int, dt_path: float) -> float:
    """``t_max`` when the config leaves it out: 1.5 times ``ln(10 C) / lambda_1``.

    ``C = 1.2`` is the survival's prefactor at the centre of the interval, so
    the survival ends near 0.03, below the 0.1 gate.  The window is rounded
    up to a multiple of ``n_t * dt_path`` so every grid time is a path step.
    """
    blocks = math.ceil(1.5 * math.log(12.0) / lam1 / (n_t * dt_path))
    return blocks * n_t * dt_path


def run_mc_check(cfg: RunConfig, args) -> RunOutput:
    if args.trace_paths and cfg.grid is None:
        raise ConfigurationError("--trace-paths needs a domain block")
    out = RunOutput()
    st = cfg.stochastic
    n_paths, dt_path, seed, x0 = st["n_paths"], st["dt_path"], st["seed"], st["x0"]
    summary = {"n_paths": n_paths, "dt_path": dt_path, "seed": seed, "x0": x0}
    if cfg.grid is not None:
        # x0 is checked before any path is drawn (load_config checks the step grids)
        if not cfg.grid.contains(x0):
            raise ConfigurationError(
                f"stochastic.x0 = {x0} must lie inside the domain {cfg.grid.interval}"
            )
        op, pair = _eigenpair(cfg, out)
        n_t = st["n_t"]
        t_max = st["t_max"]
        if t_max is None:
            t_max = summary["t_max_derived"] = _survival_window(pair.lam, n_t, dt_path)
        t_grid = survival_grid(t_max, n_t)
    sampler = SubordinatorSampler(cfg.symbol)

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = sampler.with_rng(rng).increments(1.0, n_paths)
    xs = (0.5, 1.0, 2.0)
    mc, std_error = [], []
    for x in xs:
        vals = np.exp(-x * draws)
        mc.append(float(vals.mean()))
        std_error.append(float(vals.std(ddof=1) / np.sqrt(n_paths)))
    exact = [float(np.exp(-cfg.symbol.psi(x))) for x in xs]
    out.csvs["laplace_check.csv"] = (["x", "mc", "std_error", "exact"], [xs, mc, std_error, exact])

    if cfg.grid is not None:
        det = green_solve(op, np.ones(op.n))
        node = int(np.argmin(np.abs(op.grid.nodes - x0)))
        est, fit = exit_pass(
            sampler, op.grid.interval, x0, t_grid, n_paths, dt_path, seed + 2,
            horizon=st["horizon"], n_workers=args.workers,
        )
        summary["green_mc"] = est.as_dict()
        summary["green_deterministic"] = float(det[node])
        summary["lambda1_hat"] = fit.lambda1_hat
        out.solvers["survivors"] = fit.survivors_at_end
        out.solvers["path_steps"] = fit.path_steps
        summary["lambda1_spectral"] = pair.lam
        out.csvs["survival.csv"] = (["t", "survival"], [fit.t_grid, fit.survival])
    if args.trace_paths:
        tracer = sampler.with_rng(
            np.random.default_rng(np.random.SeedSequence(seed + 3).spawn(1)[0])
        )
        columns = trace_rows(tracer, x0, dt_path, st["horizon"], cfg.grid.interval, n_paths)
        out.solvers["trace_paths"] = int(columns[0][-1]) + 1  # path-major rows
        out.solvers["trace_rows"] = columns[0].size
        out.csvs["path_traces.csv"] = (["path", "t", "x"], list(columns))
    out.jsons["mc_check.json"] = summary
    return out


def run_diagnose(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op, pair = _eigenpair(cfg, out)
    fields = {"phi1": pair.phi}
    summary = {"lambda1": pair.lam}
    if cfg.problem is not None:
        spec = cfg.reaction(pair.lam)
        base = solve_logistic(op, replace(spec, c=0.0, h=None), tol=cfg.tol, eigenpair=pair)
        out.solvers["logistic_cg_iterations"] = base.cg_iterations
        if base.branch != "none":
            fields["steady"] = base.u
    torsion = green_solve(op, np.ones(op.n))
    fields["torsion"] = torsion
    ratios = []
    for name, u in fields.items():
        rf = hopf_ratio(np.maximum(u, 0.0), op.grid, cfg.symbol)
        summary[f"{name}_ratio_min"] = rf.min
        summary[f"{name}_ratio_max"] = rf.max
        summary[f"{name}_band_min"] = rf.band_min
        ratios.append(rf.values)
    summary["torsion_v_modulus"] = v_modulus(torsion, op.grid, cfg.symbol)
    k = len(fields)
    out.csvs["ratio_fields.csv"] = (["field", "node", "x", "delta", "u", "ratio"], [
        [name for name in fields for _ in range(op.n)], np.tile(np.arange(op.n), k),
        np.tile(op.grid.nodes, k), np.tile(op.grid.delta, k),
        np.concatenate(list(fields.values())), np.concatenate(ratios),
    ])
    out.jsons["diagnose.json"] = summary
    return out


_HANDLERS = {
    "validate-kernel": run_validate_kernel,
    "eigen": run_eigen,
    "steady": run_steady,
    "bifurcate": run_bifurcate,
    "evolve": run_evolve,
    "longtime": run_longtime,
    "mc-check": run_mc_check,
    "diagnose": run_diagnose,
}
SUBCOMMANDS = tuple(_HANDLERS)


def _exit_code(exc: NonlocalLogisticError) -> int:
    if isinstance(exc, ConfigurationError):
        return 2
    if isinstance(exc, StatisticalPowerError):
        return 4
    return 3


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not declare is its own usage error.

    Plain argparse hands a subparser's unknown arguments up to the top-level
    parser, whose error names the top-level usage instead of the subcommand's.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-logistic",
        description="numerical laboratory for the nonlocal logistic equation with harvesting",
    )
    parser.set_defaults(**{flag[2:].replace("-", "_"): False for flag in FLAGS})
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_SubcommandParser)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file (TOML or JSON)")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker count for Monte Carlo chunks (mc-check); results are "
                            "worker-count invariant (default: available parallelism)")
        for flag, (subcommands, text) in FLAGS.items():
            if name in subcommands:
                p.add_argument(flag, action="store_true", help=text)
    return parser


def _resolve_outdir(args, config_dir: str | None) -> Path:
    if args.output:
        return Path(args.output)
    env = os.environ.get(ENV_OUTDIR)
    if env:
        return Path(env)
    return Path(config_dir or "out")


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc


def _declared_outdir(text: str | None) -> str | None:
    """``output.directory`` of config text that parses, if it is a string."""
    if text is None:
        return None
    try:
        output = parse_config_text(text).get("output")
    except ConfigurationError:
        return None
    directory = output.get("directory") if isinstance(output, dict) else None
    return directory if isinstance(directory, str) else None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = text = None
    try:
        text = _read_config(args.config)
        cfg = load_config(text)
        outdir = _resolve_outdir(args, cfg.output_dir)
        started = time.time()
        out = _HANDLERS[args.subcommand](cfg, args)
        if args.dump_matrix:
            _dump_matrix(out)
        if args.plot_script:
            out.texts.update(PLOT_SCRIPTS[args.subcommand])
        out.jsons["manifest.json"] = {
            "subcommand": args.subcommand,
            "config_sha256": cfg.digest,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "seed": cfg.raw.get("stochastic", {}).get("seed"),
            "workers": args.workers,
            # data bytes repeat exactly only at a fixed BLAS thread count
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "solvers": out.solvers,
            "elapsed_seconds": round(time.time() - started, 3),
            # the process high-water mark (ru_maxrss is in KiB), in MB of 10^6
            # bytes; a caller of main() sees the peak of every run so far
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 3),
            "created_unix": round(started, 3),
        }
        out.write(outdir)
        return 0
    except NonlocalLogisticError as exc:
        reason = f"error: {type(exc).__name__}: {exc}"
        print(reason, file=sys.stderr)
        # a config that parses but fails validation still names its directory
        outdir = _resolve_outdir(
            args, cfg.output_dir if cfg is not None else _declared_outdir(text))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "error.log").write_text(reason + "\n")
        except OSError:
            pass
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
