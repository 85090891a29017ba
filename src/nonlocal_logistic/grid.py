"""Uniform interior grids on a bounded interval, and the one rule for times on a step grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid1D:
    """Open interval (x_left, x_right) with n_interior uniform nodes.

    Spacing is h = width / (n_interior + 1); nodes exclude both endpoints.
    ``delta`` holds the distance of each node to the nearest endpoint.
    """

    x_left: float
    x_right: float
    n_interior: int
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    delta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise ConfigurationError("grid requires x_left < x_right")
        if self.n_interior < 3:
            raise ConfigurationError("grid requires n_interior >= 3")
        h = (self.x_right - self.x_left) / (self.n_interior + 1)
        nodes = self.x_left + h * np.arange(1, self.n_interior + 1)
        delta = np.minimum(nodes - self.x_left, self.x_right - nodes)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "delta", delta)

    @property
    def width(self) -> float:
        return self.x_right - self.x_left

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_left, self.x_right)

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x > self.x_left) & (x < self.x_right)


def time_steps(times, dt: float, what: str, step: str = "dt") -> np.ndarray:
    """The step ``k`` of each time ``k * dt``; an error unless within ``1e-9 * dt`` of one.

    ``what`` names the times and ``step`` the step in the error.
    """
    if not dt > 0:
        raise ConfigurationError(f"{step} must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    steps = np.round(times / dt).astype(int)
    off = np.abs(steps * dt - times) > 1e-9 * dt
    if np.any(off):
        raise ConfigurationError(f"{what} {times[off][0]:.6g} is not a multiple of {step} = "
                                 f"{dt:.6g}: it is off the step grid")
    return steps


def horizon_steps(horizon: float, dt: float, what: str = "horizon", step: str = "dt") -> int:
    """The steps, at least one, to a positive ``horizon`` on the step grid."""
    steps = int(time_steps(horizon, dt, what, step)[0]) if horizon > 0 else 0
    if steps < 1:
        raise ConfigurationError(f"{what} {horizon:.6g} must be at least one {step} step")
    return steps
