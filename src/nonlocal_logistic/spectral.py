"""Principal eigenpairs of the discretized operator with a potential.

For a bounded potential field c the relevant quantity is the smallest
eigenvalue of the symmetric matrix A - diag(c) together with its positive
eigenfunction; the sign conventions are such that the potential-free
value is the principal Dirichlet eigenvalue of psi(-Delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import v_profile
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    NumericError,
    SpectralProximityError,
)
from .operator import OperatorMatrix

STALL_ITERS = 100  # iterations without a new best residual before giving up


@dataclass
class EigenPair:
    """Smallest eigenvalue with sup-normalized positive eigenvector."""

    lam: float
    phi: np.ndarray
    residual: float
    iterations: int


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
    Bounds and products come from the operator's column: the Gershgorin
    radii are ``op.radii()`` and ``M w = op.matvec(w) - c w``.  Only the
    solve depends on the potential: without one the shifted system is
    Toeplitz (``op.solver``), with one it is the dense Cholesky factor of
    ``op.diag_solver``.
    """
    potential = c is not None
    c = np.asarray(c if potential else 0.0, dtype=float)
    diag = op.col[0] - c
    radii = op.radii()
    if tol is None:
        tol = 1e-10 * float(np.max(radii + np.abs(diag)))
    lo = float(np.min(diag - radii))
    hi = float(np.max(diag + radii))
    shift = lo - max(1e-8, 1e-3 * (hi - lo))
    solve = op.diag_solver(-(c + shift)) if potential else op.solver(-shift)

    v = np.ones(op.n)
    v /= np.linalg.norm(v)
    lam_prev = np.inf
    best, best_it = np.inf, 0
    for it in range(1, maxiter + 1):
        w = solve(v)
        w /= np.linalg.norm(w)
        mw = op.matvec(w) - c * w
        lam = float(w @ mw)
        residual = float(np.abs(mw - lam * w).max() / np.abs(w).max())
        v = w
        if residual <= tol and abs(lam - lam_prev) <= 1e-12 * max(1.0, abs(lam)):
            break
        lam_prev = lam
        if residual < best:
            best, best_it = residual, it
        elif it - best_it >= STALL_ITERS:
            raise ConvergenceError(
                f"inverse iteration stalled at its rounding floor: best residual "
                f"{best:.3e} against tol {tol:.3e}, no decrease in {STALL_ITERS} iterations"
            )
    else:
        raise ConvergenceError(
            f"inverse iteration hit the cap {maxiter} (last residual {residual:.3e})"
        )
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if not np.all(v > 0):
        raise ConvergenceError("principal eigenvector failed strict positivity")
    phi = v / v.max()
    mphi = op.matvec(phi) - c * phi
    lam = float(phi @ mphi / (phi @ phi))
    residual = float(np.abs(mphi - lam * phi).max())
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
    measured empirically).  A non-finite forcing or shift is a ConfigurationError.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise DimensionError(f"forcing must have length {op.n}")
    if not np.all(np.isfinite(f)) or np.any(f > 0) or not np.any(f < 0):
        raise ConfigurationError("anti-maximum forcing must be finite with f <= 0, f != 0")
    shift = lam if c is None else np.asarray(c, dtype=float) + lam
    if not np.all(np.isfinite(shift)):
        raise ConfigurationError(f"anti-maximum shift must be finite, got lam={lam}")
    try:
        solve = op.diag_solver(-shift, definite=False)
    except NumericError as exc:
        raise SpectralProximityError(f"shift {lam} is on the spectrum: {exc}") from exc
    gap = solve.gap()
    if not gap >= gap_floor:
        raise SpectralProximityError(f"shift {lam} is within ~{gap:.2e} of the spectrum")
    u = solve(-f)
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
