"""Correctness checks on the files one CLI run wrote.

Every check compares against a value computed apart from the program (a
closed form, a published constant, a dense LAPACK eigenvalue) or against a
property the method must have.  None compares against a stored copy of
earlier output.  Where a more accurate method should still pass, the
check is one-sided: it bounds an error from above, never from below.

A check takes the run's output directory and the config blocks the run was
given, and raises :class:`CheckFailed` naming what is wrong.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

# Principal Dirichlet eigenvalue of (-Delta)^{1/2} on (-1, 1):
# M. Kwasnicki, J. Funct. Anal. 262 (2012).
KWASNICKI_LAMBDA1 = 1.1577738836977

# |lambda_1(n) - lambda_1| / lambda_1 <= EIGEN_CONST / (n + 1): the scheme is
# first order here, with constant 0.559 at n = 799, 1599 and 3199.
EIGEN_CONST = 0.6
# L2 relative error of the torsion against (1 - x^2)^{1/2} <= TORSION_CONST / (n + 1);
# measured 1.10, 1.17, 1.30, 1.36, 1.42 (times 1/(n+1)) at n = 99, 199, 799, 1599, 3199.
TORSION_CONST = 1.6
# Exit detection on the dt_path grid only lengthens paths, so E_0 tau comes out
# high: 1.0127 +- 0.0028 at dt_path = 0.01.  Allowed excess over the exact value.
GREEN_BIAS_TOL = 0.03
# Monte Carlo standard errors allowed on an unbiased estimate.
N_SE = 4.0
LAMBDA_MC_RTOL = 0.05
LONGTIME_RTOL = 0.05
# Relative slack for ordering checks: round-off, not method error.
ROUNDOFF = 1e-12

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An output of a CLI run is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """CSV columns by header name; numeric columns as float arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {}
    for j, name in enumerate(header):
        col = [r[j] for r in body]
        try:
            out[name] = np.array([float(v) for v in col])
        except ValueError:
            out[name] = np.array(col)
    return out


def _is_unit_fractional(config: dict) -> bool:
    """(-Delta)^{1/2} on (-1, 1): the case with closed-form references."""
    s, d = config["symbol"], config["domain"]
    return (s["kind"] == "fractional" and s["alpha"] == 1.0
            and d["left"] == -1.0 and d["right"] == 1.0)


def _b(config: dict) -> float:
    return float(config["problem"]["f"]["b"])


# ---------------------------------------------------------------------------
# eigen / steady / diagnose
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def dense_lambda1(config_json: str) -> float:
    """Smallest eigenvalue of the assembled matrix by LAPACK (numpy.linalg.eigvalsh).

    Runs in a child process so that its dense copies do not count in the
    benchmark process's peak memory.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")], input=config_json,
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise CheckFailed(f"reference eigenvalue failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def eigen(outdir: Path, config: dict) -> None:
    summary = read_json(outdir / "eigen.json")
    n, lam = summary["n"], summary["lambda1"]
    require(n == config["domain"]["n"], f"eigen.json n={n} is not the grid size")
    if _is_unit_fractional(config):
        err = abs(lam - KWASNICKI_LAMBDA1) / KWASNICKI_LAMBDA1
        require(err <= EIGEN_CONST / (n + 1),
                f"lambda1={lam!r} is {err:.3e} from Kwasnicki's value, "
                f"above {EIGEN_CONST}/(n+1)={EIGEN_CONST / (n + 1):.3e}")
    else:
        ref = dense_lambda1(json.dumps(config, sort_keys=True))
        require(abs(lam - ref) <= 1e-9 * abs(ref),
                f"lambda1={lam!r} differs from eigvalsh {ref!r}")
    phi = read_columns(outdir / "eigen.csv")["phi"]
    require(phi.size == n, f"eigen.csv has {phi.size} rows for n={n}")
    require(bool(np.all(phi > 0)), "principal eigenvector is not strictly positive")
    require(abs(phi.max() - 1.0) <= ROUNDOFF, f"phi is not sup-normalized (max {phi.max()!r})")


def logistic(outdir: Path, config: dict) -> None:
    """0 < u <= a/b and linear stability of the harvest-free steady state."""
    summary = read_json(outdir / "steady.json")
    require(summary["logistic_branch"] == "logistic",
            f"logistic branch is {summary['logistic_branch']!r}")
    a = summary["a"]
    u = read_columns(outdir / "steady.csv")["logistic"]
    require(bool(np.all(u > 0)), "logistic state is not strictly positive")
    require(u.max() <= a / _b(config) * (1 + ROUNDOFF),
            f"logistic state exceeds a/b: {u.max()!r} > {a / _b(config)!r}")
    require(summary["logistic_lambda_star"] > 0,
            f"logistic state is not stable (lambda_star={summary['logistic_lambda_star']!r})")


def torsion(outdir: Path, config: dict) -> None:
    """The torsion field against E_x tau = (1 - x^2)^{1/2} (Getoor, 1961)."""
    cols = read_columns(outdir / "ratio_fields.csv")
    field = cols["field"]
    phi = cols["u"][field == "phi1"]
    require(phi.size > 0 and bool(np.all(phi > 0)), "phi1 field missing or not positive")
    mask = field == "torsion"
    x, u = cols["x"][mask], cols["u"][mask]
    n = config["domain"]["n"]
    require(x.size == n, f"torsion field has {x.size} nodes for n={n}")
    if _is_unit_fractional(config):
        exact = np.sqrt(1.0 - x * x)
        err = float(np.linalg.norm(u - exact) / np.linalg.norm(exact))
        require(err <= TORSION_CONST / (n + 1),
                f"torsion L2 error {err:.3e} above {TORSION_CONST}/(n+1)")


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------


def harvest_floor(harvest: dict) -> float:
    """Smallest value of h(x, s) over s >= 0."""
    h0 = float(harvest.get("h0", 1.0))
    if harvest.get("kind", "constant_yield") == "saturating":
        return h0 * min(1.0, float(harvest.get("q", 0.5)))
    return h0


def bifurcation(outdir: Path, config: dict) -> None:
    """Existence bound, bracket and branch ordering of a harvest scan.

    Testing the equation against phi_1 and applying Cauchy-Schwarz gives
    c <= (a - lambda_1)^2 / (4 b h_min) for every c with a positive
    solution; the argument holds verbatim for the symmetric discrete system.
    """
    summary = read_json(outdir / "bifurcation.json")
    cols = read_columns(outdir / "bifurcation.csv")
    c, exists = cols["c"], cols["exists"] == "true"
    rel_tol = float(config["scan"]["rel_tol"])
    require(bool(np.all(np.diff(c) > 0)), "samples are not sorted by c")
    require(not np.any(exists[1:] & ~exists[:-1]), "exists flag is not monotone in c")
    require(exists.any() and not exists.all(), "scan has no existence/nonexistence pair")
    lo, hi = summary["bracket_lo"], summary["bracket_hi"]
    require(lo == c[exists].max() and hi == c[~exists].min(),
            "bracket is not the last existing / first missing sample")
    require(hi - lo <= rel_tol * lo * (1 + ROUNDOFF), f"bracket width {hi - lo!r} > rel_tol*lo")
    bound = (summary["a"] - summary["lambda1"]) ** 2 / (
        4.0 * _b(config) * harvest_floor(config["problem"]["h"]))
    require(bool(np.all(c[exists] <= bound)),
            f"a solution exists at c={c[exists].max()!r} above the bound {bound!r}")
    require(summary["c_star"] <= bound * (1 + rel_tol),
            f"c_star={summary['c_star']!r} above the bound {bound!r}")
    sup1, sup2, lam = cols["sup_u1"][exists], cols["sup_u2"][exists], cols["lambda_star"][exists]
    require(bool(np.all(np.isnan(cols["sup_u1"][~exists]))), "sup_u1 reported where no solution")
    require(bool(np.all(sup1 > 0)) and bool(np.all(np.diff(sup1) < 0)),
            "sup_u1 is not positive and decreasing in c")
    small = np.isfinite(sup2)
    require(bool(np.all(sup2[small] < sup1[small])), "small branch is not below the maximal one")
    require(bool(np.all(lam > 0)) and bool(np.all(np.diff(lam) < 0)),
            "lambda_star is not positive and decreasing toward the fold")


# ---------------------------------------------------------------------------
# mc-check
# ---------------------------------------------------------------------------


def monte_carlo(outdir: Path, config: dict, trace: bool = False) -> None:
    st = config["stochastic"]
    dt_path, x0 = float(st["dt_path"]), float(st.get("x0", 0.0))
    summary = read_json(outdir / "mc_check.json")
    lap = read_columns(outdir / "laplace_check.csv")
    dev = np.abs(lap["mc"] - lap["exact"]) / lap["std_error"]
    require(bool(np.all(dev <= N_SE)), f"Laplace check off by {dev.max():.2f} standard errors")

    green = summary["green_mc"]
    if _is_unit_fractional(config):
        exact_tau = math.sqrt(1.0 - x0 * x0)
        excess = green["value"] - exact_tau
        slack = N_SE * green["std_error"]
        require(-slack <= excess <= GREEN_BIAS_TOL + slack,
                f"green_mc={green['value']!r} vs E_x tau={exact_tau!r}")
        lam_ref = KWASNICKI_LAMBDA1
    else:
        lam_ref = summary["lambda1_spectral"]
    lam_hat = summary["lambda1_hat"]
    require(abs(lam_hat - lam_ref) <= LAMBDA_MC_RTOL * lam_ref,
            f"lambda1_hat={lam_hat!r} more than 5% from {lam_ref!r}")

    surv = read_columns(outdir / "survival.csv")["survival"]
    require(bool(np.all((surv >= 0) & (surv <= 1))), "survival outside [0, 1]")
    require(bool(np.all(np.diff(surv) <= 0)), "survival curve increases")
    if trace:
        _path_traces(outdir / "path_traces.csv", config)


def _path_traces(path: Path, config: dict) -> None:
    """Ids 0..N-1, each path starting at (0, x0) and stepping by dt_path until it exits."""
    st, dom = config["stochastic"], config["domain"]
    dt_path, x0 = float(st["dt_path"]), float(st.get("x0", 0.0))
    n_max = int(round(float(st.get("horizon", 64.0)) / dt_path))
    expected = min(1000, int(st["n_paths"]))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids, t, x = data[:, 0].astype(int), data[:, 1], data[:, 2]
    starts = np.flatnonzero(np.r_[True, np.diff(ids) != 0])
    require(np.array_equal(ids[starts], np.arange(expected)),
            f"path ids are not exactly 0..{expected - 1} in order")
    k = np.arange(ids.size) - np.repeat(starts, np.diff(np.r_[starts, ids.size]))
    require(bool(np.all(np.abs(t - k * dt_path) <= 1e-9 * np.maximum(1.0, t))),
            "trace times do not advance in steps of dt_path")
    require(bool(np.all(x[starts] == x0)), "a trace does not start at x0")
    last = np.r_[starts[1:] - 1, ids.size - 1]
    inside = (x > dom["left"]) & (x < dom["right"])
    interior = np.ones(ids.size, dtype=bool)
    interior[last] = False
    require(bool(np.all(inside[interior])), "a trace continues after leaving the interval")
    require(bool(np.all(~inside[last] | (k[last] == n_max))),
            "a trace stops inside the interval before the horizon")


# ---------------------------------------------------------------------------
# evolve / longtime
# ---------------------------------------------------------------------------


def _direction(config: dict) -> int:
    """+1 when u0 = eps phi_1 is a subsolution (a > lambda_1), -1 when a supersolution.

    0 when the initial datum is not an eigenfunction multiple: no ordering in time.
    """
    u0 = config["parabolic"]["u0"]
    if u0["kind"] != "eigenfunction":
        return 0
    return 1 if config["problem"]["a_rel"] > 1.0 else -1


def _monotone(values: np.ndarray, direction: int) -> bool:
    step = np.diff(values) * direction
    return bool(np.all(step >= -ROUNDOFF * np.abs(values[1:])))


def longtime(outdir: Path, config: dict) -> None:
    par = config["parabolic"]
    summary = read_json(outdir / "longtime.json")
    a, lam1 = summary["a"], summary["lambda1"]
    verdict = "to_positive_steady" if a > lam1 else "to_zero"
    require(summary["verdict"] == verdict, f"verdict {summary['verdict']!r}, expected {verdict!r}")
    tol = float(par["verdict_tol"])
    require(summary["final_distance"] <= tol, f"final distance {summary['final_distance']!r} > tol")
    if verdict == "to_zero" and par["u0"]["kind"] == "eigenfunction":
        # linear decay of the phi_1 mode: one step multiplies it by (1 + dt a)/(1 + dt lambda_1)
        dt, scale = float(par["dt"]), float(par["u0"]["scale"])
        predicted = dt * math.log(tol / scale) / math.log((1 + dt * a) / (1 + dt * lam1))
        s = summary["s_reached"]
        require(abs(s - predicted) <= LONGTIME_RTOL * predicted,
                f"s_reached={s!r} more than 5% from the linear prediction {predicted!r}")
    sup = read_columns(outdir / "distance_curve.csv")["sup_norm"]
    direction = _direction(config)
    if direction:
        require(_monotone(sup, direction), "sup norm is not monotone in time")


def evolve(outdir: Path, config: dict, partner: str) -> None:
    """Snapshots in [0, max(sup u0, a/b)], monotone in time from eps phi_1.

    ``partner`` is the longtime run on the same config, whose summary
    supplies a = a_rel * lambda_1.
    """
    a = read_json(outdir.parent / partner / "longtime.json")["a"]
    cols = read_columns(outdir / "snapshots.csv")
    s, value = cols["s"], cols["value"]
    times = np.unique(s)
    want = np.asarray(config["parabolic"]["snapshot_times"], dtype=float)
    require(times.size == want.size and bool(np.allclose(times, want)),
            f"snapshot times {times.tolist()} are not {want.tolist()}")
    require(bool(np.all(value >= 0)), "a snapshot has a negative value")
    sups = np.array([value[s == t].max() for t in times])
    cap = max(sups[0], a / _b(config))
    require(sups.max() <= cap * (1 + ROUNDOFF), f"snapshot sup {sups.max()!r} exceeds {cap!r}")
    direction = _direction(config)
    if direction:
        require(_monotone(sups, direction), "snapshot sup is not monotone in time")
