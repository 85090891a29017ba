"""Run configuration: TOML with a JSON fallback, validation, builders.

Configs are TOML, read by the standard library's ``tomllib`` (Python 3.11
or later).  Blocks are tables, written inline or under a header::

    symbol = { kind = "fractional", alpha = 1.0 }
    domain = { left = -1.0, right = 1.0, n = 199 }

    [stochastic]
    n_paths = 20000
    dt_path = 0.01

A repeated key or block is a syntax error.  Files whose first non-blank
character is ``{`` are parsed as JSON with the same block structure.
``SCHEMA`` declares every block and key with its type and default, and
``POSITIVE`` and ``AT_LEAST`` the keys with a lower bound;
``load_config`` rejects unknown blocks and keys, type-checks every value,
requires every number to be finite and within its bound (every snapshot
time within ``[0, parabolic.horizon]``) and every time a run steps to on
its step grid, and fills in the defaults before any computation starts, so
invalid configs never produce partial outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import tomllib
from dataclasses import dataclass

import numpy as np

from .bernstein import BernsteinSymbol, LevyKernel
from .errors import ConfigurationError
from .grid import Grid1D, horizon_steps, time_steps
from .steady import CrowdingTerm, HarvestTerm, ReactionSpec
from .stochastic import survival_grid, survival_steps


def parse_config_text(text: str) -> dict:
    """Parse TOML, or JSON when the text starts with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            out = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON config: {exc}") from exc
        if not isinstance(out, dict):
            raise ConfigurationError("JSON config must be an object")
        return out
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"config syntax error: {exc}") from exc


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Schema and block builders
# ---------------------------------------------------------------------------

# Every config key, declared once.  The config is a table of blocks; a table
# maps each key to (type, default), where the default may be REQUIRED or None
# (left out).  A nested table is a key whose type is a table and whose
# default is the table used when the key is absent, filled in like a written
# one.  A float accepts an integer, an int rejects 2.5, a number rejects a
# boolean, and a list is a list of numbers.
REQUIRED = object()
SCHEMA = {
    "symbol": ({"kind": (str, REQUIRED), "alpha": (float, REQUIRED),
                "beta": (float, None), "m": (float, None)}, REQUIRED),
    "domain": ({"left": (float, REQUIRED), "right": (float, REQUIRED),
                "n": (int, REQUIRED)}, None),
    # no far_cutoff: twice the interval width
    "discretization": ({"far_cutoff": (float, None)}, {}),
    "problem": ({"a": (float, None), "a_rel": (float, None), "c": (float, 0.0),
                 "f": ({"kind": (str, "quadratic"), "b": (float, 1.0), "p": (float, 2.0)}, {}),
                 "h": ({"kind": (str, "constant_yield"), "h0": (float, 1.0),
                        "q": (float, 0.5)}, None)}, None),
    "solver": ({"tol": (float, 1e-10)}, {}),
    "scan": ({"c_max": (float, None), "rel_tol": (float, 1e-3), "ladder": (int, 4)}, {}),
    "parabolic": ({"dt": (float, 0.01), "horizon": (float, 1.0), "snapshot_times": (list, None),
                   "s_max": (float, 100.0), "verdict_tol": (float, 1e-4),
                   # no u0: a small multiple of phi_1; a u0 table has unit scale
                   "u0": ({"kind": (str, "eigenfunction"), "scale": (float, 1.0)},
                          {"scale": 0.01})}, {}),
    # no t_max: mc-check derives it from lambda_1
    "stochastic": ({"n_paths": (int, 20000), "dt_path": (float, 0.01), "seed": (int, 0),
                    "x0": (float, 0.0), "horizon": (float, 64.0), "t_max": (float, None),
                    "n_t": (int, 12)}, {}),
    "output": ({"directory": (str, "out")}, {}),
}
# Range rules by full key name, checked with the types: a float must be finite
# everywhere, a key in POSITIVE above 0, and a key in AT_LEAST at least its
# floor (the fewest paths the estimators take, the fewest survival-fit times,
# a seed numpy accepts, no negative count of ladder samples).  The rules that
# span keys are in ``_check_time_grids``.
POSITIVE = {"solver.tol", "scan.c_max", "scan.rel_tol", "parabolic.dt", "parabolic.horizon",
            "parabolic.s_max", "parabolic.verdict_tol", "stochastic.dt_path",
            "stochastic.horizon", "stochastic.t_max"}
AT_LEAST = {"stochastic.n_paths": 100, "stochastic.n_t": 4, "stochastic.seed": 0,
            "scan.ladder": 0}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list of numbers"}


def _typed(value, kind, name: str):
    if kind is list:
        if value == []:
            raise ConfigurationError(f"{name} must not be empty")
        if isinstance(value, list):
            return [_typed(v, float, f"{name}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, bool):  # a bool is an int to Python, never to a config
        pass
    elif kind is float and isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        return _in_range(value, name)
    elif isinstance(value, kind):
        return _in_range(value, name)
    raise ConfigurationError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _in_range(value, name: str):
    if name in POSITIVE and not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    floor = AT_LEAST.get(name)
    if floor is not None and value < floor:
        raise ConfigurationError(f"{name} must be at least {floor}, got {value!r}")
    return value


def _fill(table: dict, raw, where: str) -> dict:
    """``raw`` checked against ``table``, with the defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where} must be a table")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ConfigurationError(
            f"unknown keys in {where}: {unknown}" if where else f"unknown config blocks: {unknown}")
    out = {}
    for key, (kind, default) in table.items():
        name = f"{where}.{key}" if where else key
        if key in raw or default not in (REQUIRED, None):
            value = raw.get(key, default)
            out[key] = _fill(kind, value, name) if isinstance(kind, dict) else _typed(value, kind, name)
        elif default is REQUIRED:
            raise ConfigurationError(f"missing required key {name}")
        else:
            out[key] = None
    return out


def build_reaction(block: dict, lam1: float) -> ReactionSpec:
    """The reaction of a filled problem block; ``a_rel`` is in units of ``lam1``."""
    a, a_rel = block["a"], block["a_rel"]
    if (a is None) == (a_rel is None):
        raise ConfigurationError("problem block needs exactly one of 'a' or 'a_rel'")
    if a is None:
        a = a_rel * lam1
    h = None if block["h"] is None else HarvestTerm(**block["h"])
    return ReactionSpec(a=a, c=block["c"], f=CrowdingTerm(**block["f"]), h=h)


@dataclass
class RunConfig:
    """Validated configuration for one CLI run: every block filled and typed."""

    raw: dict
    symbol: BernsteinSymbol
    grid: Grid1D | None
    far_cutoff: float | None
    kernel: LevyKernel
    problem: dict | None
    solver: dict
    scan: dict
    parabolic: dict
    stochastic: dict
    output_dir: str

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    @property
    def tol(self) -> float:
        return self.solver["tol"]

    def reaction(self, lam1: float) -> ReactionSpec:
        if self.problem is None:
            raise ConfigurationError("config has no problem block")
        return build_reaction(self.problem, lam1)


def load_config(text: str) -> RunConfig:
    raw = parse_config_text(text)
    blocks = _fill(SCHEMA, raw, "")
    symbol = BernsteinSymbol(**blocks["symbol"])
    grid = far = None
    if blocks["domain"] is not None:
        domain = blocks["domain"]
        grid = Grid1D(domain["left"], domain["right"], domain["n"])
        far = blocks["discretization"]["far_cutoff"]
        if far is None:
            far = 2.0 * grid.width
    if blocks["problem"] is not None:
        build_reaction(blocks["problem"], lam1=1.0)  # validate now; a_rel resolved later
    _check_time_grids(blocks["parabolic"], blocks["stochastic"])
    u0_kind = blocks["parabolic"]["u0"]["kind"]
    if u0_kind not in INITIAL_FIELDS:
        raise ConfigurationError(f"unknown initial field kind {u0_kind!r}")
    return RunConfig(
        raw=raw,
        symbol=symbol,
        grid=grid,
        far_cutoff=far,
        kernel=LevyKernel(symbol),
        problem=blocks["problem"],
        solver=blocks["solver"],
        scan=blocks["scan"],
        parabolic=blocks["parabolic"],
        stochastic=blocks["stochastic"],
        output_dir=blocks["output"]["directory"],
    )


def _check_time_grids(parabolic: dict, stochastic: dict) -> None:
    """Put every time a run steps to on the grid of ``parabolic.dt`` or ``dt_path``."""
    dt, horizon = parabolic["dt"], parabolic["horizon"]
    horizon_steps(horizon, dt, "parabolic.horizon")
    horizon_steps(parabolic["s_max"], dt, "parabolic.s_max")
    for i, s in enumerate(parabolic["snapshot_times"] or ()):
        name = f"parabolic.snapshot_times[{i}]"
        if not 0.0 <= s <= horizon:
            raise ConfigurationError(f"{name} = {s!r} must lie in "
                                     f"[0, parabolic.horizon] = [0, {horizon!r}]")
        time_steps(s, dt, name)
    dt_path, t_max = stochastic["dt_path"], stochastic["t_max"]
    horizon_steps(stochastic["horizon"], dt_path, "stochastic.horizon", step="dt_path")
    if t_max is not None:
        survival_steps(survival_grid(t_max, stochastic["n_t"]), dt_path)


# The initial data build_initial_field knows
INITIAL_FIELDS = ("zero", "eigenfunction", "steady", "bump")


def build_initial_field(kind: str, scale: float, grid: Grid1D, phi1=None, steady=None):
    """Initial parabolic datum from the config catalog."""
    if kind == "zero":
        return np.zeros(grid.n_interior)
    if kind == "eigenfunction":
        if phi1 is None:
            raise ConfigurationError("eigenfunction initial field needs the eigenpair")
        return scale * phi1
    if kind == "steady":
        if steady is None:
            raise ConfigurationError("steady initial field needs the logistic solution")
        return scale * steady
    if kind == "bump":
        w = 0.3 * grid.width
        xc = 0.5 * (grid.x_left + grid.x_right)
        z = (grid.nodes - xc) / w
        out = np.zeros(grid.n_interior)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
        return scale * out
    raise ConfigurationError(f"unknown initial field kind {kind!r}")
