"""Deterministic time stepping for the reaction equation on the interval.

The terminal-value convention of the underlying evolution problem is
reversed internally: all user-facing time is forward time s, with s = 0
the initial datum.  One step solves

    (I + dt A) w_next = w + dt (a w - f(x, w))

i.e. implicit nonlocal diffusion and explicit reaction.  The resolvent
(I + dt A)^{-1} is entrywise nonnegative (M-matrix), and under the step
restriction dt <= 1 / (a + L_f) the explicit part is order preserving,
so the scheme preserves positivity and comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError
from .grid import Grid1D, horizon_steps, time_steps
from .operator import OperatorMatrix
from .spectral import EigenPair, principal_eigenpair
from .steady import ReactionSpec, solve_logistic

@dataclass
class ParabolicRun:
    """Snapshots of one forward evolution; reproducible given its config."""

    grid: Grid1D
    dt: float
    horizon: float
    u0: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    snapshots: np.ndarray = field(repr=False)  # shape (len(times), n)


def max_stable_dt(spec: ReactionSpec, u0_max: float) -> float:
    """Positivity-preserving step bound 1 / (a + L_f) on [0, max(|u0|, K)]."""
    s_max = max(u0_max, spec.apriori_bound())
    return 1.0 / (spec.a + spec.f.lipschitz_on(s_max))


def _imex_steps(op: OperatorMatrix, spec: ReactionSpec, u0, dt: float, span: float,
                span_name: str, caller: str):
    """Check the inputs, then return ``(n_steps, generator of the IMEX states)``.

    ``span`` must be a whole number ``n_steps`` of steps ``dt``; ``span_name``
    names it in the error.  The generator yields ``(k, w)`` for
    k = 0..n_steps, w the state at time k dt and a fresh array every step;
    ``caller`` names the solver in the c = 0 error.  The checks run here,
    before the caller's own work, and the Toeplitz solver of I + dt A is set
    up only once stepping starts.
    """
    if spec.c != 0:
        raise ConfigurationError(f"{caller} requires c = 0")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (op.n,):
        raise DimensionError(f"u0 must have length {op.n}")
    if np.any(u0 < 0):
        raise ConfigurationError("u0 must be nonnegative")
    dt_max = max_stable_dt(spec, float(u0.max()))
    if dt > dt_max:
        raise ConfigurationError(
            f"dt={dt} exceeds the positivity-preserving bound {dt_max:.6g}"
        )
    n_steps = horizon_steps(span, dt, span_name)

    def steps():
        solve = op.solver(1.0, scale=dt)
        scale = max(1.0, float(u0.max()), spec.apriori_bound())
        w = u0.copy()
        yield 0, w
        for k in range(1, n_steps + 1):
            w = solve(w + dt * spec.reaction(w))
            if w.min() < -1e-12 * scale:
                raise NumericError(
                    f"positivity lost at step {k} (min {w.min():.3e}); internal invariant"
                )
            np.maximum(w, 0.0, out=w)
            yield k, w

    return n_steps, steps()


def evolve(
    op: OperatorMatrix,
    spec: ReactionSpec,
    u0: np.ndarray,
    dt: float,
    horizon: float,
    snapshot_times=None,
) -> ParabolicRun:
    """March the reaction equation to the horizon, recording snapshots.

    The horizon and the snapshot times must be whole multiples of ``dt``
    (to within ``1e-9 * dt``), the snapshots inside the horizon.  The
    harvest term is not part of the parabolic suite, so the spec must carry
    c = 0.
    """
    n_steps, steps = _imex_steps(op, spec, u0, dt, horizon, "horizon", "parabolic evolution")
    if snapshot_times is None:
        snapshot_times = [0.0, horizon]
    ks = time_steps(snapshot_times, dt, "snapshot time")
    if np.any((ks < 0) | (ks > n_steps)):
        raise ConfigurationError(f"snapshot times must lie in [0, horizon] = [0, {horizon:.6g}]")
    wanted = {k: k * dt for k in ks.tolist()}

    times, snaps = [], []
    for k, w in steps:
        if k in wanted:
            times.append(wanted[k])
            snaps.append(w)
    return ParabolicRun(
        grid=op.grid,
        dt=dt,
        horizon=n_steps * dt,
        u0=np.asarray(u0, dtype=float),
        times=np.array(times),
        snapshots=np.array(snaps),
    )


@dataclass
class LongtimeResult:
    verdict: str
    s_reached: float
    final_distance: float
    times: np.ndarray = field(repr=False)
    sup_norms: np.ndarray = field(repr=False)
    steady_distances: np.ndarray | None = field(repr=False, default=None)


def longtime_classify(
    op: OperatorMatrix,
    spec: ReactionSpec,
    u0: np.ndarray,
    dt: float,
    s_max: float,
    tol: float,
    eigenpair: EigenPair | None = None,
) -> LongtimeResult:
    """Run until the state settles on the positive steady state or on zero.

    Above the principal eigenvalue the positive steady state attracts all
    positive data and the run stops once the sup-distance to it falls
    below ``tol``; at or below it the state decays to zero.  The recorded
    distance curves support decay-rate fits.  ``tol`` is the verdict
    tolerance; the internal steady solve is run at least a hundred times
    tighter to avoid chattering.
    """
    n_steps, steps = _imex_steps(op, spec, u0, dt, s_max, "s_max", "longtime classification")
    pair = eigenpair if eigenpair is not None else principal_eigenpair(op)
    supercritical = spec.a > pair.lam * (1.0 + 1e-12)
    steady = None
    if supercritical:
        # the reference's error enters every distance compared with the verdict
        # tolerance, so solve at least two orders tighter (a chord tail, if
        # the descent needs one, stops on step size and understates its error)
        steady = solve_logistic(op, spec, tol=min(1e-9, tol / 100.0), eigenpair=pair)

    times = np.empty(n_steps + 1)
    norms = np.empty(n_steps + 1)
    dists = np.empty(n_steps + 1) if supercritical else None
    verdict = "undecided"
    for k, w in steps:
        times[k] = k * dt
        norms[k] = np.abs(w).max()
        if supercritical:
            dists[k] = np.abs(w - steady.u).max()
        last = k
        if supercritical and dists[k] <= tol:
            verdict = "to_positive_steady"
            break
        if norms[k] <= tol:
            verdict = "to_zero"
            break
    sl = slice(0, last + 1)
    final = float(dists[last]) if verdict == "to_positive_steady" else float(norms[last])
    return LongtimeResult(
        verdict=verdict,
        s_reached=float(times[last]),
        final_distance=final,
        times=times[sl].copy(),
        sup_norms=norms[sl].copy(),
        steady_distances=dists[sl].copy() if supercritical else None,
    )
