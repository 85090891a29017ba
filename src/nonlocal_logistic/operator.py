"""Dense Dirichlet-exterior discretization of psi(-Delta) on a Grid1D.

The assembled matrix A acts on interior node values with the zero
extension outside the interval.  Row i approximates

    (psi(-Delta) u)(x_i) =
        integral_0^inf (2 u(x_i) - u(x_i + r) - u(x_i - r)) j(r) dr

by a three-part split:

* ``r < h/2``: second-order Taylor collapse onto a central second
  difference weighted by the truncated second moment of j;
* mid cells ``[(k-1/2) h, (k+1/2) h]``: a node-coupled weight per cell.
  The weight is the cell's second moment of j divided by (k h)^2, which
  makes the stencil exact on locally quadratic data and keeps the scheme
  uniformly second order in h while preserving the M-matrix sign
  structure (plain cell masses lose accuracy as the integrability index
  approaches 2);
* beyond the far cutoff the zero exterior contributes only to the
  diagonal, as a lumped tail mass.

A is symmetric, has nonpositive off-diagonal entries, strictly dominant
positive diagonal, hence an entrywise-nonnegative inverse (discrete
maximum principle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .bernstein import BernsteinSymbol, LevyKernel
from .errors import (
    ConfigurationError,
    DimensionError,
    NumericError,
    OracleDomainError,
)
from .grid import Grid1D


@dataclass(eq=False)
class OperatorMatrix:
    """Assembled operator with its audit data; treat as immutable."""

    grid: Grid1D
    kernel: LevyKernel
    matrix: np.ndarray = field(repr=False)
    far_cutoff: float
    tail_radius: float
    sigma2_local: float
    tail_mass: float
    cell_weights: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n_interior

    @property
    def symbol(self) -> BernsteinSymbol:
        return self.kernel.symbol

    @cached_property
    def _factor(self):
        try:
            return cho_factor(self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
            raise NumericError(f"operator factorization failed: {exc}") from exc

    def row_sums(self) -> np.ndarray:
        return self.matrix @ np.ones(self.n)


def assemble(grid: Grid1D, kernel: LevyKernel, far_cutoff: float) -> OperatorMatrix:
    """Assemble the dense symmetric discretization of psi(-Delta).

    ``far_cutoff`` must be at least twice the interval width so that the
    lumped far field only ever multiplies exterior (zero) data.
    """
    if far_cutoff < 2.0 * grid.width:
        raise ConfigurationError(
            f"far_cutoff {far_cutoff} must be >= 2 * width = {2.0 * grid.width}"
        )
    n, h = grid.n_interior, grid.h
    n_cells = int(round(far_cutoff / h))
    k = np.arange(1, n_cells + 1)
    edges = (np.arange(n_cells + 1) + 0.5) * h
    weights = kernel.cell_second_moments(edges) / (k * h) ** 2
    sigma2 = kernel.sigma2_local(h / 2.0)
    tail_radius = edges[-1]
    tail = kernel.tail_mass(tail_radius)

    s = sigma2 / (2.0 * h * h)
    col = np.zeros(n)
    col[0] = 2.0 * s + 2.0 * weights.sum() + tail
    m = min(n_cells, n - 1)
    col[1 : m + 1] = -weights[:m]
    col[1] -= s
    matrix = toeplitz(col)
    return OperatorMatrix(
        grid=grid,
        kernel=kernel,
        matrix=matrix,
        far_cutoff=far_cutoff,
        tail_radius=tail_radius,
        sigma2_local=sigma2,
        tail_mass=tail,
        cell_weights=weights,
    )


def green_solve(op: OperatorMatrix, f: np.ndarray) -> np.ndarray:
    """Solve A u = f: the discrete Green operator.

    Inverse positivity of the M-matrix gives u >= 0 whenever f >= 0.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise DimensionError(f"expected vector of length {op.n}, got shape {f.shape}")
    u = cho_solve(op._factor, f)
    if not np.all(np.isfinite(u)):
        raise NumericError("green_solve produced non-finite values")
    return u


# ---------------------------------------------------------------------------
# Independent Fourier-multiplier oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicBox:
    """Periodic fine grid extending a Grid1D by ``pad`` widths on each side.

    The box keeps the interior spacing, so interior nodes coincide with
    box points; the box length is (2 pad + 1) * width.
    """

    grid: Grid1D
    pad: int = 6

    def __post_init__(self):
        if self.pad < 1:
            raise ConfigurationError("periodic box needs pad >= 1")

    @property
    def n_points(self) -> int:
        return (2 * self.pad + 1) * (self.grid.n_interior + 1)

    @property
    def length(self) -> float:
        return self.n_points * self.grid.h

    @property
    def xs(self) -> np.ndarray:
        start = self.grid.x_left - self.pad * self.grid.width
        return start + self.grid.h * np.arange(self.n_points)

    @property
    def interior_slice(self) -> slice:
        i0 = self.pad * (self.grid.n_interior + 1) + 1
        return slice(i0, i0 + self.grid.n_interior)


def multiplier_oracle(symbol: BernsteinSymbol, u: np.ndarray, box: PeriodicBox) -> np.ndarray:
    """Apply psi(-Delta) spectrally on a periodic box.

    Discrete Fourier transform, multiply mode xi by psi(xi^2), transform
    back.  The input must be compactly supported in the central third of
    the box; the result approximates the whole-space operator away from
    the periodic images.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (box.n_points,):
        raise DimensionError(f"expected {box.n_points} samples, got shape {u.shape}")
    n = box.n_points
    third = n // 3
    peak = np.abs(u).max()
    if peak > 0 and max(np.abs(u[:third]).max(), np.abs(u[-third:]).max()) > 1e-12 * peak:
        raise OracleDomainError("oracle input must vanish outside the central third of the box")
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=box.grid.h)
    mult = symbol.psi(xi ** 2)
    return np.fft.irfft(np.fft.rfft(u) * mult, n=n)


def oracle_on_grid(
    symbol: BernsteinSymbol,
    grid: Grid1D,
    func,
    pad: int = 6,
    kernel: LevyKernel | None = None,
    n_images: int = 64,
) -> np.ndarray:
    """Whole-space reference values of psi(-Delta) f at the interior nodes.

    Runs the periodic multiplier oracle and, when an exact kernel is
    supplied, compensates the periodic images analytically: each image of
    a compactly supported f contributes ``- mass(f) * j(distance)`` to
    leading order, so adding the image sum back recovers the whole-space
    operator.  Without a kernel the raw periodic values are returned and
    the caller owns the O(L^(-1-alpha)) periodization bias.
    """
    box = PeriodicBox(grid, pad)
    u = np.asarray(func(box.xs), dtype=float)
    out = multiplier_oracle(symbol, u, box)[box.interior_slice]
    if kernel is None:
        return out
    mass = grid.h * u.sum()
    x = grid.nodes
    L = box.length
    corr = np.zeros_like(x)
    for k in range(1, n_images + 1):
        corr += kernel.density(np.abs(x - k * L)) + kernel.density(np.abs(x + k * L))
    corr += kernel.tail_mass((n_images + 0.5) * L) / L
    return out + mass * corr
