"""Steady states of the logistic equation with harvesting.

Solves ``A u = a u - f(x, u) - c h(x, u)`` on the interior nodes (zero
exterior), where f is a crowding term from a catalog and h a harvesting
term.  The pure logistic solution and the maximal harvested branch are the
largest fixed point below a supersolution (the constant a-priori bound, or
the harvest-free state), both reached by one ordered descent of Newton and
then chord steps (Ortega & Rheinboldt 1970, sec. 13.3).  Also provides the
small branch by Newton from a predictor, the critical-harvest scan, and
linearized stability indices.  The descent's oracle, the monotone iteration
between a sub- and a supersolution, lives in ``tests/oracles.py`` and
shares none of this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bernstein import v_profile
from .errors import (
    ConfigurationError,
    ConstructionError,
    ContinuationError,
    ConvergenceError,
    MonotonicityError,
    NumericError,
    ScanError,
)
from .operator import OperatorMatrix, green_solve
from .spectral import EigenPair, principal_eigenpair

# Newton steps of the descent before chord steps on the last factor take
# over; away from the fold the descent converges in well under this many
NEWTON_DESCENT_CAP = 50
DESCENT_MAXITER = 200_000  # step cap of the descent


def _field(v) -> np.ndarray | float:
    arr = np.asarray(v, dtype=float)
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True)
class CrowdingTerm:
    """Crowding nonlinearity b(x) * s^p with p > 1 (``quadratic`` requires p = 2).

    Evaluation is extended evenly to s < 0 (b |s|^p), which keeps the term
    smooth where descent iterates may transiently dip below zero.
    """

    kind: str = "quadratic"
    b: float | np.ndarray = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("quadratic", "power"):
            raise ConfigurationError(f"unknown crowding kind {self.kind!r}")
        if self.kind == "quadratic" and self.p != 2.0:
            raise ConfigurationError(f"quadratic crowding has p = 2, not {self.p!r}; use kind 'power'")
        if self.p <= 1.0:
            raise ConfigurationError("crowding exponent requires p > 1")
        b = np.asarray(self.b, dtype=float)
        if np.any(b <= 0):
            raise ConfigurationError("crowding coefficient b must be positive")
        object.__setattr__(self, "b", _field(self.b))

    def value(self, s):
        s = np.asarray(s, dtype=float)
        return self.b * np.abs(s) ** self.p

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        return self.p * self.b * np.abs(s) ** (self.p - 1.0) * np.sign(s)

    def b_min(self) -> float:
        return float(np.min(self.b))

    def b_max(self) -> float:
        return float(np.max(self.b))

    def lipschitz_on(self, s_max: float) -> float:
        return self.p * self.b_max() * s_max ** (self.p - 1.0)

    def supersolution_level(self, a: float) -> float:
        """Smallest constant M with f(x, M)/M >= a at every x."""
        return (a / self.b_min()) ** (1.0 / (self.p - 1.0))

    def slope_scale(self, slope: float) -> float:
        """Largest k with max_x b * k^(p-1) <= slope (unit sup-norm shape)."""
        return (slope / self.b_max()) ** (1.0 / (self.p - 1.0))


@dataclass(frozen=True)
class HarvestTerm:
    """Harvest catalog: constant yield h0(x), or h0(x) * (q + s) / (1 + s).

    The saturating factor has value q > 0 at s = 0 and tends to 1; for
    s < 0 it continues linearly with its slope at zero, matching the C^1
    extension used by the small-branch Newton solve.
    """

    kind: str = "constant_yield"
    h0: float | np.ndarray = 1.0
    q: float = 0.5

    def __post_init__(self):
        if self.kind not in ("constant_yield", "saturating"):
            raise ConfigurationError(f"unknown harvest kind {self.kind!r}")
        h0 = np.asarray(self.h0, dtype=float)
        if np.any(h0 <= 0):
            raise ConfigurationError("harvest field h0 must be positive")
        if self.kind == "saturating" and self.q <= 0:
            raise ConfigurationError("saturating harvest requires q > 0")
        object.__setattr__(self, "h0", _field(self.h0))

    def value(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant_yield":
            return self.h0 * np.ones_like(s)
        sat = np.where(s >= 0, (self.q + s) / (1.0 + s), self.q + (1.0 - self.q) * s)
        return self.h0 * sat

    def deriv(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "constant_yield":
            return np.zeros_like(s)
        slope = np.where(s >= 0, (1.0 - self.q) / (1.0 + s) ** 2, 1.0 - self.q)
        return self.h0 * slope

    def sup_bound(self) -> float:
        top = 1.0 if self.kind == "constant_yield" else max(1.0, self.q)
        return float(np.max(self.h0)) * top

    def deriv_bound(self) -> float:
        if self.kind == "constant_yield":
            return 0.0
        return float(np.max(self.h0)) * abs(1.0 - self.q)


@dataclass(frozen=True)
class ReactionSpec:
    """Growth rate a, harvest intensity c, and the two catalog terms."""

    a: float
    c: float = 0.0
    f: CrowdingTerm = field(default_factory=CrowdingTerm)
    h: HarvestTerm | None = None

    def __post_init__(self):
        if self.c < 0:
            raise ConfigurationError("harvest intensity c must be nonnegative")
        if self.c > 0 and self.h is None:
            raise ConfigurationError("c > 0 requires a harvest term")

    def reaction(self, u) -> np.ndarray:
        out = self.a * u - self.f.value(u)
        if self.c > 0:
            out = out - self.c * self.h.value(u)
        return out

    def reaction_deriv(self, u) -> np.ndarray:
        out = self.a - self.f.deriv(u)
        if self.c > 0:
            out = out - self.c * self.h.deriv(u)
        return np.broadcast_to(out, np.shape(u)).astype(float)

    def apriori_bound(self) -> float:
        return self.f.supersolution_level(self.a)


@dataclass
class SteadyState:
    """A converged (or rejected) steady state.

    ``branch`` is one of ``logistic``, ``maximal``, ``small`` (strictly
    positive solutions) or ``none`` (no positive solution accepted; u is
    then the zero placeholder and the residual may be NaN).  ``iterations``
    counts all solver steps (for the small branch, the steps of its one Newton
    solve); ``newton_steps`` the descent's Newton steps among them.
    """

    u: np.ndarray
    residual: float
    branch: str
    iterations: int
    newton_steps: int = 0


def _none_state(n: int, iterations: int = 0, residual: float = float("nan"),
                newton_steps: int = 0) -> SteadyState:
    return SteadyState(u=np.zeros(n), residual=residual, branch="none", iterations=iterations,
                       newton_steps=newton_steps)


def _descend(
    op: OperatorMatrix,
    spec: ReactionSpec,
    top: np.ndarray,
    tol: float,
    branch: str,
) -> SteadyState:
    """Maximal fixed point below the supersolution ``top`` by one ordered descent.

    Each step is u <- u - J(u_p)^{-1} (A u - F(u)) with
    J(v) = A - diag(a - f_s(v) - c L_h), L_h the harvest slope bound: monotone
    Newton (u_p = u) for the first up to ``NEWTON_DESCENT_CAP`` steps, then,
    once a factor fails (only near or past the fold) or at the cap, chord
    steps with u_p the last iterate factored at (factored again after a
    failure: one n x n system is held at a time).  J(top) is SPD for both
    tops used (J(M) >= A + (p-1) a I; J(v_a) is the Z-matrix
    A - a + f(v_a)/v_a, null vector v_a > 0, plus (p-1) b v_a^(p-1)), so a
    failure there raises.  A Cholesky factor (``op.diag_solver``) proves
    J(u_p) an SPD Z-matrix with nonnegative inverse, and for u <= u_p,
    G(u) = (J(u_p) - A) u + F(u) has derivative
    f_s(u_p) - f_s(u) + c (L_h - h_s(u)) >= 0 (f_s is nondecreasing, also on
    the even extension below 0, and h_s <= L_h): each step
    u <- J(u_p)^{-1} G(u) decreases and stays above every solution.  Every
    step is checked to decrease and to stay below ``top``, for at most
    ``DESCENT_MAXITER`` steps.  A negative node certifies that no positive
    solution lies below ``top`` (branch ``none``); otherwise the limit is
    labeled ``branch``.  ``newton_steps`` counts the Newton steps among
    ``iterations``.
    """
    scale = max(1.0, float(np.abs(top).max()))
    # starting points are themselves converged only to ~tol and the noise
    # compounds geometrically, so sub-100*tol drift in the wrong direction is
    # solver noise, not lost ordering (true ordering failures are solution-sized)
    slack = max(1e-12 * scale, 100.0 * tol)
    harvest_bound = spec.c * spec.h.deriv_bound() if spec.c > 0 else 0.0

    def jacobian(v):
        return op.diag_solver(-(spec.a - spec.f.deriv(v) - harvest_bound))

    u = np.asarray(top, dtype=float).copy()
    u_p, jac = u, jacobian(u)
    newton, newton_cap = 0, NEWTON_DESCENT_CAP
    for it in range(1, DESCENT_MAXITER + 1):
        if newton < newton_cap and u_p is not u:
            jac = None  # free the last factor before the next dense system is built
            try:
                jac, u_p = jacobian(u), u
            except NumericError:  # near or past the fold: chord steps from here on
                newton_cap = newton
            if jac is None:  # outside the handler, whose traceback holds the failed system
                jac = jacobian(u_p)
        if u_p is u:
            newton += 1
        u_next = u - jac(op.matvec(u) - spec.reaction(u))
        drift = u_next - u
        if drift.max() > slack:
            raise MonotonicityError(
                f"decreasing iteration lost monotonicity at step {it} "
                f"(worst rise {drift.max():.3e})"
            )
        if (u_next - top).max() > slack:
            raise MonotonicityError(f"iterate exceeded the upper bracket at step {it}")
        if u_next.min() < -1e3 * slack:
            return _none_state(op.n, iterations=it, newton_steps=newton)
        step = float(np.abs(drift).max())
        u = u_next
        if step <= tol:
            if u.min() <= 0:
                return _none_state(op.n, iterations=it, newton_steps=newton)
            residual = float(np.abs(op.matvec(u) - spec.reaction(u)).max())
            return SteadyState(u=u, residual=residual, branch=branch, iterations=it,
                               newton_steps=newton)
    raise ConvergenceError(
        f"monotone iteration hit the cap {DESCENT_MAXITER} (last step {step:.3e})"
    )


def solve_logistic(
    op: OperatorMatrix,
    spec: ReactionSpec,
    tol: float = 1e-10,
    eigenpair: EigenPair | None = None,
) -> SteadyState:
    """Unique positive steady state of the harvest-free logistic equation.

    Below the principal eigenvalue there is no positive solution and the
    zero state is returned with branch ``none``.  Above it the descent (see
    :func:`_descend`) starts from the constant a-priori bound M: ``A`` has
    positive row sums and ``f(x, M) >= a M``, so M is a supersolution above
    every solution, and the maximal fixed point below it is the positive
    solution.
    """
    if spec.c != 0:
        raise ConfigurationError("solve_logistic requires c = 0")
    pair = eigenpair if eigenpair is not None else principal_eigenpair(op)
    if spec.a <= pair.lam * (1.0 + 1e-12):
        return _none_state(op.n, iterations=0, residual=0.0)
    top = np.full(op.n, spec.apriori_bound())
    return _descend(op, spec, top, tol, "logistic")


def maximal_harvest(
    op: OperatorMatrix,
    spec: ReactionSpec,
    tol: float = 1e-10,
    v_a: SteadyState | None = None,
    eigenpair: EigenPair | None = None,
) -> SteadyState:
    """Maximal harvested solution by monotone descent from the logistic state.

    The harvest-free solution dominates every harvested solution, so it is
    the supersolution the descent (see :func:`_descend`) starts from; a
    negative iterate returns branch ``none``.  Each solve takes at most ``DESCENT_MAXITER`` steps.
    """
    if v_a is None:
        v_a = solve_logistic(op, replace(spec, c=0.0, h=None), tol=tol, eigenpair=eigenpair)
    if v_a.branch == "none":
        return _none_state(op.n)
    return _descend(op, spec, v_a.u, tol, "maximal")


def _newton(op: OperatorMatrix, spec: ReactionSpec, u0: np.ndarray, tol: float, maxiter: int):
    """Newton iteration on the residual A u - F(u); returns (u, res, ok, steps).

    Each step is halved (at most 50 times) until the residual falls; the one
    that meets ``tol`` is followed by the simplified Newton correction on its
    factor, kept if it lowers the residual (Deuflhard 2004): near a fold a
    stopping residual leaves an error of residual / gap, which it removes.
    """
    def residual(v):
        r = op.matvec(v) - spec.reaction(v)
        return r, float(np.abs(r).max())

    u = np.asarray(u0, dtype=float).copy()
    r, rn = residual(u)
    for k in range(maxiter):
        if rn <= tol:
            return u, rn, True, k
        try:
            solve = op.diag_solver(-spec.reaction_deriv(u), definite=False)
        except NumericError:
            return u, rn, False, k
        d = solve(r)
        if not np.all(np.isfinite(d)):
            return u, rn, False, k
        for t in 0.5 ** np.arange(50):
            u_try = u - t * d
            r_try, rn_try = residual(u_try)
            if rn_try < rn:
                break
        else:
            return u, rn, False, k
        u, r, rn = u_try, r_try, rn_try
        if rn <= tol:
            u_try = u - solve(r)
            r_try, rn_try = residual(u_try)
            if rn_try < rn:
                u, r, rn = u_try, r_try, rn_try
        solve = None  # free this factor before the next one is built
    return u, rn, rn <= tol, maxiter


def small_branch(
    op: OperatorMatrix,
    spec: ReactionSpec,
    tol: float = 1e-10,
    u0: np.ndarray | None = None,
) -> SteadyState:
    """Small-amplitude branch at spec.c by one Newton solve from the predictor ``u0``.

    The predictor is zero (the default) or a solved state of the branch at a
    lower c, so a scan's samples in increasing c are a continuation: well
    below the fold the solve from zero reaches the branch, and near the fold
    the samples lie close together.  A failed solve (40 steps, stalled
    backtracking or a singular Jacobian, as past the branch fold) raises
    :class:`ContinuationError`.  The result is labeled ``small`` only when
    strictly positive; at c = 0 it is the zero state, labeled ``none``.
    """
    u, residual, ok, steps = _newton(op, spec, np.zeros(op.n) if u0 is None else u0, tol, 40)
    if not ok:
        raise ContinuationError(
            f"Newton failed at c={spec.c:.6g} after {steps} steps (residual {residual:.3g}); "
            f"the branch may fold before the requested intensity"
        )
    branch = "small" if u.min() > 0 else "none"
    return SteadyState(u=u, residual=residual, branch=branch, iterations=steps)


@dataclass
class HarvestSubsolution:
    """Constructive subsolution data for the harvested problem at small c.

    ``phi = m (phi1 - eps * torsion)`` dominates ``m * beta * phi1`` and is
    a subsolution for every intensity up to ``c_threshold``.  The choices
    beta = (1 + lam1/a)/2 and the largest margin-respecting m are recorded
    so downstream checks can assert the lower envelope.
    """

    phi: np.ndarray
    m: float
    beta: float
    eps: float
    c_threshold: float


def harvest_subsolution(
    op: OperatorMatrix,
    spec: ReactionSpec,
    eigenpair: EigenPair | None = None,
) -> HarvestSubsolution:
    """Build the small-c subsolution from the eigenfunction and the torsion field.

    With eta1 the max gauge ratio of the torsion function and eta2 the min
    gauge ratio of phi1, eps = (1 - beta) eta2 / eta1 keeps
    phi1 - eps * torsion above beta * phi1; the amplitude m is then maximized
    subject to the crowding slope staying below a - lam1 / beta, taken at
    0.999 of that bound, and shrunk further (halving) if the discrete
    subsolution inequality still fails at the threshold intensity.
    """
    if spec.h is None:
        raise ConfigurationError("harvest_subsolution needs a harvest term")
    pair = eigenpair if eigenpair is not None else principal_eigenpair(op)
    if spec.a <= pair.lam:
        raise ConfigurationError("harvest_subsolution requires a above the principal eigenvalue")
    torsion = green_solve(op, np.ones(op.n))
    gauge = v_profile(op.symbol, op.grid.delta)
    eta1 = float(np.max(torsion / gauge))
    eta2 = float(np.min(pair.phi / gauge))
    beta = 0.5 * (1.0 + pair.lam / spec.a)
    eps = (1.0 - beta) * eta2 / eta1
    base = pair.phi - eps * torsion
    margin = spec.a - pair.lam / beta
    m = 0.999 * spec.f.slope_scale(margin) / float(base.max())
    for _ in range(60):
        phi = m * base
        c_threshold = m * eps / spec.h.sup_bound()
        slack = (
            spec.a * phi - spec.f.value(phi) - c_threshold * spec.h.value(phi)
            - op.matvec(phi)
        )
        if slack.min() > 0:
            return HarvestSubsolution(
                phi=phi, m=m, beta=beta, eps=eps, c_threshold=c_threshold
            )
        m *= 0.5
    raise ConstructionError("harvest subsolution construction failed to close its margin")


@dataclass
class ScanSample:
    c: float
    exists: bool
    state: SteadyState


@dataclass
class HarvestScan:
    c_star: float
    bracket: tuple[float, float]
    samples: list[ScanSample]


def scan_cstar(
    op: OperatorMatrix,
    spec: ReactionSpec,
    c_max: float,
    bisect_rel_tol: float = 1e-3,
    sample_ladder: int = 0,
    tol: float = 1e-10,
    eigenpair: EigenPair | None = None,
) -> HarvestScan:
    """Bracket the critical harvest intensity by bisection on existence.

    The existence predicate is acceptance of the maximal branch (strictly
    positive fixed point).  ``c_max`` must lie in the nonexistence regime.
    ``sample_ladder`` additionally records maximal-branch samples at
    geometrically decreasing intensities below the bracket, giving the
    low-harvest tail of the bifurcation diagram.  The returned bracket
    has width at most ``bisect_rel_tol`` relative to its lower end.
    """
    if c_max <= 0:
        raise ConfigurationError("scan needs c_max > 0")
    pair = eigenpair if eigenpair is not None else principal_eigenpair(op)
    v_a = solve_logistic(op, replace(spec, c=0.0, h=None), tol=tol, eigenpair=pair)
    if v_a.branch == "none":
        raise ConfigurationError("scan requires a above the principal eigenvalue")
    samples: list[ScanSample] = []

    def probe(c: float) -> bool:
        state = maximal_harvest(op, replace(spec, c=c), tol=tol, v_a=v_a, eigenpair=pair)
        samples.append(ScanSample(c=c, exists=state.branch == "maximal", state=state))
        return state.branch == "maximal"

    if probe(c_max):
        raise ScanError(f"existence persists at c_max={c_max}; enlarge the scan range")
    hi = c_max
    lo = None
    c = c_max
    for _ in range(60):
        c /= 2.0
        if probe(c):
            lo = c
            break
        hi = c
    if lo is None:
        raise ScanError("no existence found down to c_max / 2^60")
    while hi - lo > bisect_rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    for j in range(1, sample_ladder + 1):
        probe(lo / 2.0 ** j)
    ordered = sorted(samples, key=lambda s: s.c)
    flags = [s.exists for s in ordered]
    for i in range(len(flags) - 1):
        if flags[i + 1] and not flags[i]:
            raise ScanError(
                f"non-monotone existence between c={ordered[i].c:.6g} and "
                f"c={ordered[i + 1].c:.6g}"
            )
    return HarvestScan(c_star=0.5 * (lo + hi), bracket=(lo, hi), samples=ordered)


@dataclass
class StabilityIndex:
    lambda_star: float
    stable: bool


def stability_index(
    op: OperatorMatrix,
    spec: ReactionSpec,
    state: SteadyState,
    tol: float | None = None,
) -> StabilityIndex:
    """Principal eigenvalue of the linearization at a steady state.

    The linearized operator carries the potential a - f_s(x, u) - c h_s(x, u);
    the state is linearly stable iff the smallest eigenvalue of
    A - diag(potential) is positive.
    """
    potential = spec.reaction_deriv(state.u)
    pair = principal_eigenpair(op, c=potential, tol=tol)
    return StabilityIndex(lambda_star=pair.lam, stable=pair.lam > 0.0)


def check_harvest_dominance(state: SteadyState, spec: ReactionSpec, lam1: float) -> bool:
    """Certificate that the eigenvalue-weighted state dominates the harvest.

    True iff ``lam1 * u >= c * h(x, u)`` at every node; under a bounded
    harvest-to-gauge ratio this certifies uniqueness of the solution at
    small intensities.
    """
    if spec.c == 0 or spec.h is None:
        return bool(np.all(state.u >= 0))
    return bool(np.all(lam1 * state.u - spec.c * spec.h.value(state.u) >= 0))


def newton_polish(
    op: OperatorMatrix,
    spec: ReactionSpec,
    state: SteadyState,
    tol: float = 1e-13,
) -> SteadyState:
    """Tighten a converged state with at most 50 damped Newton steps.

    The descent stops on step size, which can leave a solution error of
    residual / gap when the linearization is nearly singular; polishing
    brings the residual down to ``max(tol, floor)`` without changing the
    branch.  ``floor = eps * max_i (|A| |u| + |F(u)|)_i`` at the input state
    is the rounding floor of the residual ``A u - F(u)``; A is an M-matrix,
    so ``|A| = 2 A_00 I - A``.
    """
    au = np.abs(state.u)
    floor = np.finfo(float).eps * float(np.max(
        2.0 * op.col[0] * au - op.matvec(au) + np.abs(spec.reaction(state.u))))
    u, rn, ok, _ = _newton(op, spec, state.u, max(tol, floor), 50)
    if not ok:
        raise ConvergenceError(f"polish stalled at residual {rn:.3e} (rounding floor {floor:.3e})")
    branch = state.branch if u.min() > 0 else "none"
    return SteadyState(u=u, residual=rn, branch=branch, iterations=state.iterations)


def newton_multistart(
    op: OperatorMatrix,
    spec: ReactionSpec,
    n_starts: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[np.ndarray]:
    """Damped-Newton sweep from random admissible fields.

    Start amplitudes are log-uniform over the 3 decades below 1.2x the sup
    of the harvest-free solution, with componentwise jitter; this probes
    both large and small basins.  Each start gets at most 300 Newton steps.
    Returns every converged fixed point (unidentified and of any sign);
    deterministic for a fixed seed.
    """
    ref = solve_logistic(op, replace(spec, c=0.0, h=None), tol=tol)
    if ref.branch == "none":
        raise ConfigurationError("multistart needs a reference scale when a <= lam1")
    scale = float(ref.u.max())
    rng = np.random.default_rng(seed)
    found: list[np.ndarray] = []
    for _ in range(n_starts):
        amp = 10.0 ** rng.uniform(-3.0, math.log10(1.2)) * scale
        u0 = amp * rng.uniform(0.5, 1.5, op.n)
        u, rn, ok, _ = _newton(op, spec, u0, tol, 300)
        if ok:
            found.append(u)
    return found
