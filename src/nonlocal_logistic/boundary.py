"""Boundary-behavior diagnostics shared by the elliptic and parabolic suites.

All ratios are taken against the boundary-decay gauge surrogate
``psi(delta^-2)^(-1/2)``; since the true gauge is only comparable to it,
every verdict here is a sign or boundedness statement, never an equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinSymbol, v_profile
from .errors import ConfigurationError
from .grid import Grid1D
from .parabolic import ParabolicRun


@dataclass
class RatioField:
    """u / gauge(delta) at the interior nodes with near-boundary statistics."""

    values: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    min: float
    max: float
    band_min: float
    band_max: float
    band_count: int


def _ratio_field(u: np.ndarray, grid: Grid1D, symbol: BernsteinSymbol) -> RatioField:
    gauge = v_profile(symbol, grid.delta)
    ratio = u / gauge
    band = grid.delta <= 10.0 * grid.h
    return RatioField(
        values=ratio,
        delta=grid.delta,
        min=float(ratio.min()),
        max=float(ratio.max()),
        band_min=float(ratio[band].min()),
        band_max=float(ratio[band].max()),
        band_count=int(band.sum()),
    )


def hopf_ratio(u: np.ndarray, grid: Grid1D, symbol: BernsteinSymbol) -> RatioField:
    """Gauge ratio of a nonnegative field; positive solutions stay bounded away from 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ConfigurationError("hopf_ratio expects a nonnegative field")
    return _ratio_field(u, grid, symbol)


def v_modulus(
    u: np.ndarray,
    grid: Grid1D,
    symbol: BernsteinSymbol,
) -> float:
    """Discrete gauge-Holder seminorm: max over pairs of |u_i - u_j| / gauge(|x_i - x_j|).

    Above 400 interior nodes the pair set is strided down to at most 400 nodes.
    """
    u = np.asarray(u, dtype=float)
    stride = max(1, int(np.ceil(grid.n_interior / 400)))
    x = grid.nodes[::stride]
    v = u[::stride]
    dx = np.abs(x[:, None] - x[None, :])
    du = np.abs(v[:, None] - v[None, :])
    iu = np.triu_indices(x.size, k=1)
    return float(np.max(du[iu] / v_profile(symbol, dx[iu])))


@dataclass
class BoundaryBounds:
    lower_ratio_min: float
    upper_ratio_max: float
    passed: bool


def parabolic_boundary_bounds(
    run: ParabolicRun,
    s: float,
    symbol: BernsteinSymbol,
) -> BoundaryBounds:
    """Two-sided gauge-ratio check on a parabolic snapshot after the burn-in s >= 0.1.

    Passes iff the ratio field at time s is finite with positive minimum,
    the discrete form of two-sided boundary decay control.
    """
    if not np.any(run.u0 > 0):
        raise ConfigurationError("parabolic boundary bounds need u0 >= 0, not identically 0")
    if s < 0.1:
        raise ConfigurationError(f"snapshot time {s} is before the burn-in 0.1")
    w = run.snapshot_at(s)
    rf = _ratio_field(w, run.grid, symbol)
    passed = np.isfinite(rf.min) and np.isfinite(rf.max) and rf.min > 0.0
    return BoundaryBounds(lower_ratio_min=rf.min, upper_ratio_max=rf.max, passed=bool(passed))
