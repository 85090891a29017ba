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
Every block is validated before any computation starts; invalid configs
never produce partial outputs.  ``stochastic.t_max``, when absent, is
derived by ``mc-check`` from the principal eigenvalue.
"""

from __future__ import annotations

import hashlib
import json
import tomllib
from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinSymbol, LevyKernel, _EXACT_KINDS
from .errors import ConfigurationError
from .grid import Grid1D, build_grid
from .steady import CrowdingTerm, HarvestTerm, ReactionSpec


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
# Block builders
# ---------------------------------------------------------------------------


def _get(block: dict, key: str, kind, default=None, required: bool = False):
    if key not in block:
        if required:
            raise ConfigurationError(f"missing required key {key!r}")
        return default
    val = block[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigurationError(f"key {key!r} has wrong type {type(val).__name__}")
    return val


def build_symbol(block: dict) -> BernsteinSymbol:
    if not isinstance(block, dict):
        raise ConfigurationError("symbol block must be a table")
    kind = _get(block, "kind", str, required=True)
    return BernsteinSymbol(
        kind=kind,
        alpha=_get(block, "alpha", float, required=True),
        beta=_get(block, "beta", float),
        m=_get(block, "m", float),
    )


def symbol_to_text(symbol: BernsteinSymbol) -> str:
    parts = [f'kind = "{symbol.kind}"', f"alpha = {symbol.alpha!r}"]
    if symbol.beta is not None:
        parts.append(f"beta = {symbol.beta!r}")
    if symbol.m is not None:
        parts.append(f"m = {symbol.m!r}")
    return "symbol = { " + ", ".join(parts) + " }"


def build_kernel(symbol: BernsteinSymbol, block: dict | None) -> LevyKernel:
    block = block or {}
    mode = _get(block, "mode", str, default="auto")
    norm = _get(block, "normalization", float, default=1.0)
    if mode == "auto":
        exact_ok = symbol.kind in _EXACT_KINDS and (
            symbol.kind != "fractional" or symbol.alpha < 2.0
        ) and (
            symbol.kind != "sum_fractional" or max(symbol.alpha, symbol.beta) < 2.0
        )
        mode = "exact" if exact_ok else "scaled_profile"
    return LevyKernel(symbol=symbol, mode=mode, normalization=norm)


def build_grid_block(domain: dict, discretization: dict | None) -> tuple[Grid1D, float]:
    if not isinstance(domain, dict):
        raise ConfigurationError("domain block must be a table")
    disc = discretization or {}
    left = _get(domain, "left", float, required=True)
    right = _get(domain, "right", float, required=True)
    n = _get(disc, "n", int, default=_get(domain, "n", int))
    if n is None:
        raise ConfigurationError("grid size n missing (domain.n or discretization.n)")
    grid = build_grid(left, right, n)
    far = _get(disc, "far_cutoff", float, default=2.0 * grid.width)
    return grid, far


def build_reaction(block: dict, lam1: float | None = None) -> ReactionSpec:
    if not isinstance(block, dict):
        raise ConfigurationError("problem block must be a table")
    a = _get(block, "a", float)
    a_rel = _get(block, "a_rel", float)
    if (a is None) == (a_rel is None):
        raise ConfigurationError("problem block needs exactly one of 'a' or 'a_rel'")
    if a is None:
        if lam1 is None:
            raise ConfigurationError("a_rel requires the principal eigenvalue")
        a = a_rel * lam1
    c = _get(block, "c", float, default=0.0)
    fb = _get(block, "f", dict, default={"kind": "quadratic"})
    f = CrowdingTerm(
        kind=_get(fb, "kind", str, default="quadratic"),
        b=_get(fb, "b", float, default=1.0),
        p=_get(fb, "p", float, default=2.0),
    )
    hb = _get(block, "h", dict)
    h = None
    if hb is not None:
        h = HarvestTerm(
            kind=_get(hb, "kind", str, default="constant_yield"),
            h0=_get(hb, "h0", float, default=1.0),
            q=_get(hb, "q", float, default=0.5),
        )
    return ReactionSpec(a=a, c=c, f=f, h=h)


# The keys of the blocks that only the subcommands read, with their defaults:
# load_config rejects any other key and fills in the defaults, so a key is
# declared here once and read as ``cfg.<block>[key]``.
BLOCK_DEFAULTS = {
    "solver": {"tol": 1e-10, "moment_h": 0.01, "moment_R": 10.0},
    "scan": {"c_max": None, "rel_tol": 1e-3, "ladder": 4},
    "parabolic": {"dt": 0.01, "horizon": 1.0, "snapshot_times": None, "s_max": 100.0,
                  "verdict_tol": 1e-4, "u0": {"kind": "eigenfunction", "scale": 0.01}},
    "stochastic": {"n_paths": 20000, "dt_path": 0.01, "seed": 0, "x0": 0.0,
                   "horizon": 64.0, "t_max": None, "n_t": 12},
}
# an explicit u0 table defaults to unit scale
U0_DEFAULTS = {"kind": "eigenfunction", "scale": 1.0}


@dataclass
class RunConfig:
    """Validated configuration for one CLI run."""

    raw: dict
    symbol: BernsteinSymbol
    grid: Grid1D | None = None
    far_cutoff: float | None = None
    kernel: LevyKernel | None = None
    problem: dict | None = None
    solver: dict = field(default_factory=lambda: dict(BLOCK_DEFAULTS["solver"]))
    parabolic: dict = field(default_factory=lambda: dict(BLOCK_DEFAULTS["parabolic"]))
    stochastic: dict = field(default_factory=lambda: dict(BLOCK_DEFAULTS["stochastic"]))
    scan: dict = field(default_factory=lambda: dict(BLOCK_DEFAULTS["scan"]))
    output_dir: str = "out"

    @property
    def digest(self) -> str:
        return config_digest(self.raw)

    @property
    def tol(self) -> float:
        return float(self.solver["tol"])

    def reaction(self, lam1: float | None = None) -> ReactionSpec:
        if self.problem is None:
            raise ConfigurationError("config has no problem block")
        return build_reaction(self.problem, lam1)


# The keys of the blocks read above by the build_* functions.
_BUILT_KEYS = {
    "symbol": {"kind", "alpha", "beta", "m"},
    "domain": {"left", "right", "n"},
    "discretization": {"n", "far_cutoff"},
    "kernel": {"mode", "normalization"},
    "problem": {"a", "a_rel", "c", "f", "h"},
    "output": {"directory"},
}
_NESTED_KEYS = {
    ("problem", "f"): {"kind", "b", "p"},
    ("problem", "h"): {"kind", "h0", "q"},
    ("parabolic", "u0"): set(U0_DEFAULTS),
}


def _reject_unknown_keys(block: dict, allowed, where: str):
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(text: str) -> RunConfig:
    raw = parse_config_text(text)
    known = {**_BUILT_KEYS, **BLOCK_DEFAULTS}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigurationError(f"unknown config blocks: {sorted(unknown)}")
    if "symbol" not in raw:
        raise ConfigurationError("config needs a symbol block")
    for name, block in raw.items():
        if not isinstance(block, dict):
            raise ConfigurationError(f"{name} block must be a table")
        _reject_unknown_keys(block, known[name], f"the {name} block")
    for (name, key), allowed in _NESTED_KEYS.items():
        inner = raw.get(name, {}).get(key)
        if isinstance(inner, dict):
            _reject_unknown_keys(inner, allowed, f"{name}.{key}")
    symbol = build_symbol(raw["symbol"])
    kernel = build_kernel(symbol, raw.get("kernel"))
    grid = None
    far = None
    if "domain" in raw:
        grid, far = build_grid_block(raw["domain"], raw.get("discretization"))
    problem = raw.get("problem")
    if problem is not None:
        build_reaction(problem, lam1=1.0)  # validate shape now; a_rel resolved later
    blocks = {name: {**defaults, **raw.get(name, {})}
              for name, defaults in BLOCK_DEFAULTS.items()}
    u0 = raw.get("parabolic", {}).get("u0")
    if u0 is not None:
        if not isinstance(u0, dict):
            raise ConfigurationError("parabolic.u0 must be a table")
        blocks["parabolic"]["u0"] = {**U0_DEFAULTS, **u0}
    return RunConfig(
        raw=raw,
        symbol=symbol,
        grid=grid,
        far_cutoff=far,
        kernel=kernel,
        problem=problem,
        output_dir=str(raw.get("output", {}).get("directory", "out")),
        **blocks,
    )


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
