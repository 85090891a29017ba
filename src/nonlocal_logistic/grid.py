"""Uniform interior grids on a bounded interval with zero exterior data."""

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
