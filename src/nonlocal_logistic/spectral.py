"""Principal eigenpairs of the discretized operator with a potential.

For a bounded potential field c the relevant quantity is the smallest
eigenvalue of the symmetric matrix A - diag(c) together with its positive
eigenfunction; the sign conventions are such that the potential-free
value is the principal Dirichlet eigenvalue of psi(-Delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs, lu_factor, lu_solve

from .bernstein import v_profile
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    SpectralProximityError,
)
from .operator import OperatorMatrix


@dataclass
class EigenPair:
    """Smallest eigenvalue with sup-normalized positive eigenvector."""

    lam: float
    phi: np.ndarray
    residual: float
    iterations: int


def _with_potential(op: OperatorMatrix, c) -> np.ndarray:
    m = op.matrix.copy()
    if c is None:
        return m
    c = np.asarray(c, dtype=float)
    if c.ndim == 0:
        m[np.diag_indices_from(m)] -= float(c)
    elif c.shape == (op.n,):
        m[np.diag_indices_from(m)] -= c
    else:
        raise DimensionError(f"potential must be scalar or length {op.n}")
    return m


def principal_eigenpair(
    op: OperatorMatrix,
    c=None,
    tol: float | None = None,
    maxiter: int = 10_000,
) -> EigenPair:
    """Smallest eigenpair of A - diag(c) by shifted inverse power iteration.

    The shift sits below the spectrum (Gershgorin bound), so the shifted
    matrix is positive definite and its inverse is entrywise positive;
    iteration from a positive vector converges to the positive principal
    eigenvector.  Stops once the residual is below ``tol`` (default
    1e-10 * ||M||_inf) and the eigenvalue increment is below 1e-12.
    """
    m = op.matrix if c is None else _with_potential(op, c)
    abs_rows = np.abs(m).sum(axis=1)
    if tol is None:
        tol = 1e-10 * abs_rows.max()
    diag = np.diag(m)
    radii = abs_rows - np.abs(diag)
    lo = float(np.min(diag - radii))
    hi = float(np.max(diag + radii))
    shift = lo - max(1e-8, 1e-3 * (hi - lo))
    # one Fortran-ordered copy, factored in place: LAPACK's layout, no
    # further n x n temporaries
    shifted = np.array(m, order="F")
    shifted[np.diag_indices_from(shifted)] -= shift
    factor = cho_factor(shifted, overwrite_a=True)

    v = np.ones(op.n)
    v /= np.linalg.norm(v)
    lam_prev = np.inf
    for it in range(1, maxiter + 1):
        w = cho_solve(factor, v)
        w /= np.linalg.norm(w)
        lam = float(w @ (m @ w))
        residual = float(np.abs(m @ w - lam * w).max() / np.abs(w).max())
        v = w
        if residual <= tol and abs(lam - lam_prev) <= 1e-12 * max(1.0, abs(lam)):
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"inverse iteration hit the cap {maxiter} (last residual {residual:.3e})"
        )
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if not np.all(v > 0):
        raise ConvergenceError("principal eigenvector failed strict positivity")
    phi = v / v.max()
    lam = float(phi @ (m @ phi) / (phi @ phi))
    residual = float(np.abs(m @ phi - lam * phi).max())
    return EigenPair(lam=lam, phi=phi, residual=residual, iterations=it)


@dataclass
class ResolventProfile:
    """Solution of the shifted problem with its boundary-gauge ratio field."""

    u: np.ndarray
    ratio: np.ndarray
    max_ratio: float
    min_ratio: float
    negative: bool


def antimaximum_profile(
    op: OperatorMatrix,
    c,
    f: np.ndarray,
    lam: float,
    gap_floor: float = 1e-8,
) -> ResolventProfile:
    """Solve the lambda-shifted problem with nonpositive forcing f.

    Solves (A - diag(c) - lam I) u = -f, i.e. the discretization of
    ``-psi(-Delta) u + (c + lam) u = f``, and reports the ratio field
    u / gauge(delta_D) and whether its maximum is negative.  Below the
    principal eigenvalue the solution is positive (maximum principle);
    just above it the ratio field turns negative (anti-maximum window,
    measured empirically).
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise DimensionError(f"forcing must have length {op.n}")
    if np.any(f > 0) or not np.any(f < 0):
        raise ConfigurationError("anti-maximum forcing must satisfy f <= 0, f != 0")
    m = _with_potential(op, c)
    m[np.diag_indices_from(m)] -= lam
    anorm = np.abs(m).sum(axis=0).max()
    lu, piv = lu_factor(m)
    gecon = get_lapack_funcs(("gecon",), (m,))[0]
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0 or rcond * anorm < gap_floor:
        raise SpectralProximityError(
            f"shift {lam} is within ~{rcond * anorm:.2e} of the spectrum"
        )
    u = lu_solve((lu, piv), -f)
    gauge = v_profile(op.symbol, op.grid.delta)
    ratio = u / gauge
    return ResolventProfile(
        u=u,
        ratio=ratio,
        max_ratio=float(ratio.max()),
        min_ratio=float(ratio.min()),
        negative=bool(ratio.max() < 0.0),
    )


def antimaximum_window(
    op: OperatorMatrix,
    c=None,
    f: np.ndarray | None = None,
    rel_offsets=(0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8),
    eigenpair: EigenPair | None = None,
) -> tuple[float, float]:
    """Empirically measured anti-maximum window above the principal eigenvalue.

    Scans lambda = lam1 * (1 + offset) and returns (lam1, lam_hi) where
    lam_hi is the largest scanned shift for which every smaller scanned
    shift also produced a negative ratio field.  Existence of some window
    is guaranteed; its size is a measured quantity, so callers must treat
    lam_hi as empirical.
    """
    pair = eigenpair if eigenpair is not None else principal_eigenpair(op, c)
    if f is None:
        f = -np.ones(op.n)
    lam_hi = pair.lam
    for off in rel_offsets:
        lam = pair.lam * (1.0 + off)
        try:
            prof = antimaximum_profile(op, c, f, lam)
        except SpectralProximityError:
            break
        if not prof.negative:
            break
        lam_hi = lam
    return pair.lam, lam_hi
