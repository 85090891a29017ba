"""Boundary-behavior diagnostics of nonnegative fields on a grid.

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


@dataclass
class RatioField:
    """u / gauge(delta) at the interior nodes with near-boundary statistics."""

    values: np.ndarray = field(repr=False)
    min: float
    max: float
    band_min: float


def hopf_ratio(u: np.ndarray, grid: Grid1D, symbol: BernsteinSymbol) -> RatioField:
    """Gauge ratio of a nonnegative field; positive solutions stay bounded away from 0."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ConfigurationError("hopf_ratio expects a nonnegative field")
    gauge = v_profile(symbol, grid.delta)
    ratio = u / gauge
    band = grid.delta <= 10.0 * grid.h
    return RatioField(
        values=ratio,
        min=float(ratio.min()),
        max=float(ratio.max()),
        band_min=float(ratio[band].min()),
    )


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
