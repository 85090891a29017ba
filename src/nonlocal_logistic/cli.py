"""Configuration-driven command line front end.

Subcommands: validate-kernel, eigen, steady, bifurcate, evolve, longtime,
mc-check, diagnose.  Each run validates the whole config first, computes,
then writes CSV data files, a JSON summary, and a manifest.json recording
the config hash, package and library versions, and seeds.  Exit codes:
0 success, 2 configuration error, 3 numeric/convergence error,
4 statistical-power error.  Data files are byte-deterministic for a fixed
config and seed; only the manifest carries a timestamp.
"""

from __future__ import annotations

import argparse
import json
import os
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
from .stochastic import SubordinatorSampler, mc_green, survival_lambda1

ENV_OUTDIR = "NONLOCAL_LOGISTIC_OUTDIR"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SUBCOMMANDS = (
    "validate-kernel", "eigen", "steady", "bifurcate",
    "evolve", "longtime", "mc-check", "diagnose",
)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class RunOutput:
    """Accumulates artifacts; nothing touches disk until the run succeeded."""

    def __init__(self):
        self.jsons: dict[str, dict] = {}
        self.csvs: dict[str, tuple[list[str], list[tuple]]] = {}
        self.texts: dict[str, str] = {}
        self.solvers: dict[str, int] = {}  # solver work counts for the manifest

    def write(self, outdir: Path):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in self.csvs.items():
            lines = [",".join(header)]
            lines += [",".join(_fmt(v) for v in row) for row in rows]
            (outdir / name).write_text("\n".join(lines) + "\n")
        for name, payload in self.jsons.items():
            (outdir / name).write_text(
                json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
            )
        for name, text in self.texts.items():
            (outdir / name).write_text(text)


def _assemble_from(cfg: RunConfig):
    if cfg.grid is None:
        raise ConfigurationError("this subcommand needs a domain block")
    return assemble(cfg.grid, cfg.kernel, cfg.far_cutoff)


def _maybe_dump_matrix(out: RunOutput, op, flag: bool):
    if not flag:
        return
    rows = [
        (i, j, op.matrix[i, j])
        for i in range(op.n)
        for j in range(op.n)
        if op.matrix[i, j] != 0.0
    ]
    out.csvs["operator_matrix.csv"] = (["row", "col", "value"], rows)


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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def run_validate_kernel(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    r_grid = np.logspace(0, 6, 40)
    scaling = check_scaling(cfg.symbol, r_grid)
    b2 = cfg.kernel.shift_ratio_bound(np.linspace(1.0, 50.0, 99))
    h = float(cfg.solver["moment_h"])
    big_r = float(cfg.solver["moment_R"])
    mom = kernel_moments(cfg.kernel, h, big_r)
    rs = np.logspace(-3, 2, 100)
    out.csvs["kernel_density.csv"] = (
        ["r", "j"], [(r, cfg.kernel.density(r)) for r in rs]
    )
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
            "h": h,
            "R": big_r,
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
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
    out.csvs["eigen.csv"] = (
        ["node", "x", "phi"],
        [(i, op.grid.nodes[i], pair.phi[i]) for i in range(op.n)],
    )
    out.jsons["eigen.json"] = {
        "lambda1": pair.lam,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "n": op.n,
    }
    _maybe_dump_matrix(out, op, args.dump_matrix)
    if args.plot_script:
        out.texts["plot_eigen.py"] = _plot_script("eigen.csv", "x", "phi", "principal eigenfunction")
    return out


def run_steady(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
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
    if logistic.branch != "none":
        summary["logistic_lambda_star"] = stability_index(
            op, spec0, logistic, tol=cfg.tol,
        ).lambda_star
    if spec.c > 0:
        maximal = maximal_harvest(op, spec, tol=cfg.tol, v_a=logistic, eigenpair=pair)
        summary["maximal_branch"] = maximal.branch
        summary["maximal_residual"] = maximal.residual
        summary["maximal_sup"] = float(maximal.u.max())
        columns["maximal"] = maximal.u
        if maximal.branch == "maximal":
            summary["maximal_lambda_star"] = stability_index(op, spec, maximal, tol=cfg.tol).lambda_star
    header = ["node", "x"] + list(columns)
    rows = [
        tuple([i, op.grid.nodes[i]] + [columns[k][i] for k in columns])
        for i in range(op.n)
    ]
    out.csvs["steady.csv"] = (header, rows)
    out.jsons["steady.json"] = summary
    _maybe_dump_matrix(out, op, args.dump_matrix)
    if args.plot_script:
        out.texts["plot_steady.py"] = _plot_script("steady.csv", "x", "logistic", "steady states")
    return out


def run_bifurcate(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
    spec = cfg.reaction(pair.lam)
    if spec.h is None:
        raise ConfigurationError("bifurcate needs a harvest term in the problem block")
    c_max = cfg.scan["c_max"]
    if c_max is None:
        raise ConfigurationError("bifurcate needs scan.c_max")
    scan = scan_cstar(
        op, spec, float(c_max),
        bisect_rel_tol=float(cfg.scan["rel_tol"]),
        sample_ladder=int(cfg.scan["ladder"]),
        tol=cfg.tol, eigenpair=pair,
    )
    rows = []
    # samples come in increasing c: continue the small branch from the last
    # sample it was solved at
    start = None
    continuation_steps = 0
    for s in scan.samples:
        sup_u1 = float(s.state.u.max()) if s.exists else float("nan")
        lam_star = float("nan")
        sup_u2 = float("nan")
        if s.exists:
            spec_c = replace(spec, c=s.c)
            lam_star = stability_index(op, spec_c, s.state, tol=cfg.tol).lambda_star
            try:
                u2 = small_branch(op, spec_c, tol=cfg.tol, start=start)
                start = (s.c, u2.u)
                continuation_steps += u2.iterations
                if u2.branch == "small":
                    sup_u2 = float(u2.u.max())
            except NumericError:
                pass
        rows.append((s.c, s.exists, sup_u1, sup_u2, lam_star))
    out.solvers = {
        "scan_probes": len(scan.samples),
        "descent_newton_steps": sum(s.state.newton_steps for s in scan.samples),
        "descent_relaxation_steps": sum(
            s.state.iterations - s.state.newton_steps for s in scan.samples),
        "small_branch_steps": continuation_steps,
    }
    out.csvs["bifurcation.csv"] = (
        ["c", "exists", "sup_u1", "sup_u2", "lambda_star"], rows
    )
    out.jsons["bifurcation.json"] = {
        "lambda1": pair.lam,
        "a": spec.a,
        "c_star": scan.c_star,
        "bracket_lo": scan.bracket[0],
        "bracket_hi": scan.bracket[1],
    }
    if args.plot_script:
        out.texts["plot_bifurcation.py"] = _plot_script(
            "bifurcation.csv", "c", "sup_u1", "bifurcation diagram")
    return out


def _initial_field(cfg: RunConfig, op, pair, spec):
    kind = cfg.parabolic["u0"]["kind"]
    scale = float(cfg.parabolic["u0"]["scale"])
    steady = None
    if kind == "steady":
        base = solve_logistic(op, replace(spec, c=0.0, h=None), tol=cfg.tol, eigenpair=pair)
        if base.branch == "none":
            raise ConfigurationError("steady initial field requires a above lambda1")
        steady = base.u
    return build_initial_field(kind, scale, op.grid, phi1=pair.phi, steady=steady)


def run_evolve(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
    spec = cfg.reaction(pair.lam)
    dt = float(cfg.parabolic["dt"])
    horizon = float(cfg.parabolic["horizon"])
    snaps = cfg.parabolic["snapshot_times"]
    u0 = _initial_field(cfg, op, pair, spec)
    run = evolve(op, spec, u0, dt, horizon, snapshot_times=snaps)
    rows = [
        (s, i, op.grid.nodes[i], run.snapshots[k][i])
        for k, s in enumerate(run.times)
        for i in range(op.n)
    ]
    out.csvs["snapshots.csv"] = (["s", "node", "x", "value"], rows)
    out.jsons["evolve.json"] = {
        "dt": run.dt,
        "horizon": run.horizon,
        "snapshot_times": [float(s) for s in run.times],
        "sup_final": float(run.snapshots[-1].max()),
    }
    if args.plot_script:
        out.texts["plot_snapshots.py"] = (
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
            "plt.savefig('snapshots.png', dpi=150)\n"
        )
    return out


def run_longtime(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
    spec = cfg.reaction(pair.lam)
    dt = float(cfg.parabolic["dt"])
    s_max = float(cfg.parabolic["s_max"])
    verdict_tol = float(cfg.parabolic["verdict_tol"])
    u0 = _initial_field(cfg, op, pair, spec)
    res = longtime_classify(op, spec, u0, dt, s_max, verdict_tol, eigenpair=pair)
    stride = max(1, res.times.size // 2000)
    rows = []
    for k in range(0, res.times.size, stride):
        dist = res.steady_distances[k] if res.steady_distances is not None else float("nan")
        rows.append((res.times[k], res.sup_norms[k], dist))
    out.csvs["distance_curve.csv"] = (["s", "sup_norm", "dist_to_steady"], rows)
    out.jsons["longtime.json"] = {
        "verdict": res.verdict,
        "s_reached": res.s_reached,
        "final_distance": res.final_distance,
        "lambda1": pair.lam,
        "a": spec.a,
    }
    if args.plot_script:
        out.texts["plot_longtime.py"] = _plot_script(
            "distance_curve.csv", "s", "sup_norm", "long-time behavior")
    return out


def run_mc_check(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    st = cfg.stochastic
    n_paths = int(st["n_paths"])
    dt_path = float(st["dt_path"])
    seed = int(st["seed"])
    x0 = float(st["x0"])
    sampler = SubordinatorSampler(cfg.symbol)

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = sampler.with_rng(rng).increments(1.0, n_paths)
    laplace_rows = []
    for x in (0.5, 1.0, 2.0):
        vals = np.exp(-x * draws)
        laplace_rows.append(
            (x, float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_paths)),
             float(np.exp(-cfg.symbol.psi(x))))
        )
    out.csvs["laplace_check.csv"] = (["x", "mc", "std_error", "exact"], laplace_rows)

    summary = {"n_paths": n_paths, "dt_path": dt_path, "seed": seed, "x0": x0}
    if cfg.grid is not None:
        op = _assemble_from(cfg)
        det = green_solve(op, np.ones(op.n))
        node = int(np.argmin(np.abs(op.grid.nodes - x0)))
        est = mc_green(
            sampler, op.grid.interval, lambda x: np.ones_like(x), x0,
            n_paths, dt_path, seed + 1,
            horizon=float(st["horizon"]), n_workers=args.workers,
        )
        summary["green_mc"] = est.as_dict()
        summary["green_deterministic"] = float(det[node])
        t_max = float(st["t_max"])
        n_t = int(st["n_t"])
        t_grid = np.linspace(t_max / n_t, t_max, n_t)
        fit = survival_lambda1(
            sampler, op.grid.interval, x0, t_grid, n_paths, dt_path, seed + 2,
            n_workers=args.workers,
        )
        pair = principal_eigenpair(op, tol=cfg.tol)
        summary["lambda1_hat"] = fit.lambda1_hat
        summary["lambda1_spectral"] = pair.lam
        out.csvs["survival.csv"] = (
            ["t", "survival"],
            [(fit.t_grid[i], fit.survival[i]) for i in range(fit.t_grid.size)],
        )
    if args.trace_paths:
        from .stochastic import simulate_killed_path

        tracer = sampler.with_rng(
            np.random.default_rng(np.random.SeedSequence(seed + 3).spawn(1)[0])
        )
        rows = []
        for p in range(min(1000, n_paths)):
            path = simulate_killed_path(tracer, x0, dt_path,
                                        float(st["horizon"]),
                                        (cfg.grid.x_left, cfg.grid.x_right)
                                        if cfg.grid else (-1.0, 1.0))
            for k, pos in enumerate(path.positions):
                rows.append((p, k * dt_path, pos))
        out.csvs["path_traces.csv"] = (["path", "t", "x"], rows)
    out.jsons["mc_check.json"] = summary
    return out


def run_diagnose(cfg: RunConfig, args) -> RunOutput:
    out = RunOutput()
    op = _assemble_from(cfg)
    pair = principal_eigenpair(op, tol=cfg.tol)
    fields = {"phi1": pair.phi}
    summary = {"lambda1": pair.lam}
    if cfg.problem is not None:
        spec = cfg.reaction(pair.lam)
        base = solve_logistic(op, replace(spec, c=0.0, h=None), tol=cfg.tol, eigenpair=pair)
        if base.branch != "none":
            fields["steady"] = base.u
    torsion = green_solve(op, np.ones(op.n))
    fields["torsion"] = torsion
    rows = []
    for name, u in fields.items():
        rf = hopf_ratio(np.maximum(u, 0.0), op.grid, cfg.symbol)
        summary[f"{name}_ratio_min"] = rf.min
        summary[f"{name}_ratio_max"] = rf.max
        summary[f"{name}_band_min"] = rf.band_min
        for i in range(op.n):
            rows.append((name, i, op.grid.nodes[i], op.grid.delta[i], u[i], rf.values[i]))
    summary["torsion_v_modulus"] = v_modulus(torsion, op.grid, cfg.symbol)
    out.csvs["ratio_fields.csv"] = (["field", "node", "x", "delta", "u", "ratio"], rows)
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


def _exit_code(exc: NonlocalLogisticError) -> int:
    if isinstance(exc, ConfigurationError):
        return 2
    if isinstance(exc, StatisticalPowerError):
        return 4
    return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocal-logistic",
        description="numerical laboratory for the nonlocal logistic equation with harvesting",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file (key/table grammar or JSON)")
        p.add_argument("--output", default=None, help="output directory (overrides config)")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                       help="worker count for Monte Carlo chunks; results are "
                            "worker-count invariant (default: available parallelism)")
        p.add_argument("--dump-matrix", action="store_true", help="export the operator matrix as CSV")
        p.add_argument("--trace-paths", action="store_true",
                       help="mc-check only: dump simulated path traces (capped at 1000 paths)")
        p.add_argument("--plot-script", action="store_true",
                       help="emit a plain-text plot script referencing the CSVs")
    return parser


def _resolve_outdir(args, config_dir: str | None) -> Path:
    if args.output:
        return Path(args.output)
    env = os.environ.get(ENV_OUTDIR)
    if env:
        return Path(env)
    return Path(config_dir or "out")


def _declared_outdir(text: str) -> str | None:
    """``output.directory`` of config text that parses, if it is a string."""
    try:
        output = parse_config_text(text).get("output")
    except ConfigurationError:
        return None
    directory = output.get("directory") if isinstance(output, dict) else None
    return directory if isinstance(directory, str) else None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = None
    try:
        text = Path(args.config).read_text()
        cfg = load_config(text)
        outdir = _resolve_outdir(args, cfg.output_dir)
        started = time.time()
        out = _HANDLERS[args.subcommand](cfg, args)
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
            "created_unix": round(started, 3),
        }
        out.write(outdir)
        return 0
    except FileNotFoundError as exc:
        reason = f"error: ConfigurationError: config file not found: {exc.filename}"
        print(reason, file=sys.stderr)
        return 2
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
