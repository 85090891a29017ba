"""Simulation of the jump process and its expectation functionals.

The process is Brownian motion run at twice the standard speed, time
changed by an independent subordinator with Laplace exponent psi: one
time step draws a subordinator increment dS and then a Gaussian move of
variance 2 dS.  Killing happens at the first grid time the position
leaves the interval; the jump that overshoots is kept, sub-step
excursions are missed, giving a documented O(dt) bias.

Every Monte Carlo consumer runs on one step-major engine,
:func:`_killed_steps`, that advances a batch of paths together and
compacts away the killed ones.  ``feynman_kac`` (and ``mc_green``, its
source-only case) and ``exit_pass`` reduce over chunks with independent
substreams spawned from the master seed, combined in fixed chunk order, so
results are byte-identical for any worker count and reproducible from
(seed, config).  ``exit_pass`` reads two functionals of one set of killed
paths: the occupation time up to a horizon (``mc_green`` with f = 1) and
the survival curve with its exit-rate fit; ``survival_lambda1`` is its
survival half.  ``trace_rows`` records one batch of at most 1000 paths
as path-major ``(path, t, x)`` columns; ``simulate_killed_path`` is its
one-path view.  Every horizon and survival time is a whole number of
``dt_path`` steps (``grid.time_steps``, which ``load_config`` also runs).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bernstein import BernsteinSymbol
from .errors import ConfigurationError, SamplerError, StatisticalPowerError
from .grid import horizon_steps, time_steps

CHUNK = 8192
REJECTION_CAP = 1_000_000
TRACE_PATHS = 1000  # paths recorded by trace_rows

_SAMPLER_KINDS = {"fractional", "sum_fractional", "relativistic"}


def _stable_oneside(rho: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draws with Laplace transform exp(-x^rho), rho in (0, 1].

    Kanter's representation: S = (sin(rho U) / sin(U)^(1/rho))
    * (sin((1-rho) U) / W)^((1-rho)/rho) with U uniform on (0, pi) and W
    unit exponential.  rho = 1 degenerates to the unit drift.
    """
    if rho >= 1.0:
        return np.ones(size)
    u = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    # elementwise the same operations as the formula, on fresh temporaries;
    # at rho = 1/2 both sines are sin(u / 2)
    sin_rho = np.sin(rho * u)
    sin_rest = sin_rho if rho == 0.5 else np.sin((1.0 - rho) * u)
    out = np.sin(u)
    out **= 1.0 / rho
    np.divide(sin_rho, out, out=out)
    np.divide(sin_rest, w, out=w)
    w **= (1.0 - rho) / rho
    out *= w
    return out


@dataclass
class SubordinatorSampler:
    """Increment sampler for the subordinator of a catalog symbol.

    Supports the stable, sum-of-stables, and relativistic (exponentially
    tilted stable with rejection) subordinators; the log-perturbed symbols
    have no sampler and must use the deterministic solvers.
    """

    symbol: BernsteinSymbol
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self):
        if self.symbol.kind not in _SAMPLER_KINDS:
            raise SamplerError(
                f"no increment sampler for symbol kind {self.symbol.kind!r}; "
                "use the deterministic solvers"
            )

    def with_rng(self, rng: np.random.Generator) -> "SubordinatorSampler":
        return SubordinatorSampler(self.symbol, rng)

    def increments(self, dt: float, size: int) -> np.ndarray:
        """Independent draws of S_dt (always nonnegative)."""
        if dt <= 0:
            raise ConfigurationError("increment step dt must be positive")
        s = self.symbol
        if s.kind == "fractional":
            return self._stable_part(s.alpha, dt, size)
        if s.kind == "sum_fractional":
            return self._stable_part(s.alpha, dt, size) + self._stable_part(
                s.beta, dt, size
            )
        return self._relativistic(dt, size)

    def _stable_part(self, alpha: float, dt: float, size: int) -> np.ndarray:
        rho = alpha / 2.0
        if rho >= 1.0:
            return np.full(size, dt)
        return dt ** (1.0 / rho) * _stable_oneside(rho, size, self.rng)

    def _relativistic(self, dt: float, size: int) -> np.ndarray:
        """Tilted stable: accept a stable draw S with probability e^(-theta S)."""
        alpha = self.symbol.alpha
        theta = self.symbol.m ** (2.0 / alpha)
        out = np.empty(size)
        pending = np.arange(size)
        rounds = 0
        while pending.size:
            rounds += 1
            if rounds > REJECTION_CAP:
                raise SamplerError("relativistic rejection sampler exceeded its cap")
            cand = self._stable_part(alpha, dt, pending.size)
            accept = self.rng.uniform(size=pending.size) < np.exp(-theta * cand)
            out[pending[accept]] = cand[accept]
            pending = pending[~accept]
        return out


@dataclass
class KilledPath:
    """One discretized trajectory stopped on leaving the interval.

    ``positions[k]`` is the state at time k * dt_path; when the path
    exits, the last recorded position is the first one outside and
    ``exit_time`` the corresponding grid time (inf if the horizon was
    reached alive).
    """

    x0: float
    dt_path: float
    positions: np.ndarray
    exit_time: float
    exited: bool


@dataclass
class McEstimate:
    """Monte Carlo value with its standard error and seed provenance."""

    value: float
    std_error: float
    n_paths: int
    seed: int
    dt_path: float = float("nan")

    def as_dict(self) -> dict:
        return asdict(self)


def _run_chunks(chunk_fn, n_paths: int, seed: int, n_workers: int) -> list:
    full, rem = divmod(n_paths, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [(np.random.default_rng(s), m) for s, m in zip(seeds, sizes)]
    if n_workers <= 1:
        return [chunk_fn(rng, m) for rng, m in jobs]
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run needs the pool

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(chunk_fn, rng, m) for rng, m in jobs]
        return [f.result() for f in futures]  # fixed chunk order


def _combine(moments: list[tuple[float, float, int]], n_paths, seed, dt_path) -> McEstimate:
    total = sum(m[2] for m in moments)
    s1 = 0.0
    s2 = 0.0
    for a, b, _ in moments:
        s1 += a
        s2 += b
    mean = s1 / total
    var = max(0.0, (s2 - total * mean * mean) / (total - 1))
    return McEstimate(
        value=float(mean),
        std_error=float(math.sqrt(var / total)),
        n_paths=n_paths,
        seed=seed,
        dt_path=dt_path,
    )


def _killed_steps(sampler, rng, m, x0, domain, dt, n_steps):
    """Advance m paths from x0 together, killing each on leaving the domain.

    Yields ``(k, idx, pos)`` for k = 0..n_steps while any path is alive:
    ``idx`` holds the paths alive at time k dt and ``pos`` each path's last
    position (for a killed path, its first position outside).  Each step
    draws the alive paths' subordinator increments, then their Gaussian
    moves, both from ``rng``.  Consumers read ``idx`` and ``pos`` only.
    """
    xl, xr = domain
    if not (xl < x0 < xr):
        return
    samp = sampler.with_rng(rng)
    pos = np.full(m, float(x0))
    idx = np.arange(m)
    yield 0, idx, pos
    for k in range(1, n_steps + 1):
        ds = samp.increments(dt, idx.size)
        x = pos[idx] + rng.standard_normal(idx.size) * np.sqrt(2.0 * ds)
        pos[idx] = x
        idx = idx[(x > xl) & (x < xr)]
        if idx.size == 0:
            return
        yield k, idx, pos


def trace_rows(sampler: SubordinatorSampler, x0: float, dt_path: float, horizon: float,
               domain: tuple[float, float], n_paths: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path-major ``(path, t, x)`` columns of ``min(1000, n_paths)`` paths in one engine batch.

    Path ``p`` runs from ``(p, 0.0, x0)`` in steps of ``dt_path`` to its first
    position outside the domain or to the horizon (a whole number of steps).
    Each step's moved paths are kept in time order, so a stable sort on the
    path id orders every path's rows by time; ``t`` is ``k * dt_path``.
    """
    n_steps = horizon_steps(horizon, dt_path, step="dt_path")
    m = min(TRACE_PATHS, n_paths)
    paths, steps, xs = [np.arange(m)], [np.zeros(m, dtype=np.int64)], [np.full(m, float(x0))]

    def record(moved, k, pos):
        paths.append(moved)
        steps.append(np.full(moved.size, k, dtype=np.int64))
        xs.append(pos[moved])

    moved = None  # the paths that moved into the current step
    for k, idx, pos in _killed_steps(sampler, sampler.rng, m, x0, domain, dt_path, n_steps):
        if k:
            record(moved, k, pos)
        moved = idx
    if moved is not None and k < n_steps:  # every path alive at k left at step k + 1
        record(moved, k + 1, pos)
    path = np.concatenate(paths)
    order = np.argsort(path, kind="stable")
    return path[order], np.concatenate(steps)[order] * dt_path, np.concatenate(xs)[order]


def simulate_killed_path(sampler: SubordinatorSampler, x0: float, dt_path: float,
                         horizon: float, domain: tuple[float, float]) -> KilledPath:
    """One path from x0 until it leaves the domain or reaches the horizon.

    The one-path view of :func:`trace_rows`: consecutive calls on one sampler
    lay the paths out one after the other in its stream.
    """
    _, t, positions = trace_rows(sampler, x0, dt_path, horizon, domain, 1)
    xl, xr = domain
    exited = not (xl < positions[-1] < xr)
    return KilledPath(x0, dt_path, positions, float(t[-1]) if exited else math.inf, exited)


def feynman_kac(
    sampler: SubordinatorSampler,
    domain: tuple[float, float],
    g,
    ell,
    vpot,
    t: float,
    T: float,
    x0: float,
    n_paths: int,
    dt_path: float,
    seed: int,
    n_workers: int = 1,
) -> McEstimate:
    """Path-expectation representation of the terminal/source/potential problem.

    Estimates, over paths started at x0 and killed on exit,

        E[ e^(int_0^(T-t ^ tau) V ds) g(X_(T-t ^ tau)) ]
        + E[ int_0^(T-t ^ tau) e^(int_0^s V) ell(X_s, t+s) ds ]

    with all path-time integrals by the left-endpoint rule on the dt_path
    grid and g evaluated as 0 on exited endpoints (zero exterior data).
    ``g`` maps positions to values; ``ell``/``vpot`` map (positions, time).
    Any of them may be None (treated as identically zero).  ``T - t`` must
    be a whole number of ``dt_path`` steps.
    """
    if n_paths < 100:
        raise ConfigurationError("feynman_kac requires n_paths >= 100")
    if not t < T:
        raise ConfigurationError("feynman_kac requires t < T")
    span = T - t
    n_steps = horizon_steps(span, dt_path, step="dt_path")
    dt = span / n_steps

    def chunk(rng: np.random.Generator, m: int):
        vals = np.zeros(m)
        exp_pot = np.ones(m)
        for k, idx, pos in _killed_steps(sampler, rng, m, x0, domain, dt, n_steps):
            x = pos[idx]
            if k == n_steps:  # alive at the horizon: terminal datum
                if g is not None:
                    vals[idx] += exp_pot[idx] * np.asarray(g(x), dtype=float)
                continue
            s_k = t + k * dt
            if ell is not None:
                vals[idx] += exp_pot[idx] * np.asarray(ell(x, s_k), dtype=float) * dt
            if vpot is not None:
                exp_pot[idx] *= np.exp(np.asarray(vpot(x, s_k), dtype=float) * dt)
        return float(vals.sum()), float((vals ** 2).sum()), vals.size

    moments = _run_chunks(chunk, n_paths, seed, n_workers)
    return _combine(moments, n_paths, seed, dt_path)


def mc_green(
    sampler: SubordinatorSampler,
    domain: tuple[float, float],
    f,
    x0: float,
    n_paths: int,
    dt_path: float,
    seed: int,
    horizon: float = 64.0,
    n_workers: int = 1,
) -> McEstimate:
    """Occupation-integral estimate of the Green operator applied to f.

    Averages int_0^tau f(X_s) ds by the left-endpoint rule (``feynman_kac``
    with source f); paths alive at the horizon, a whole number of steps, are
    truncated there (the surviving fraction decays exponentially).
    """
    if n_paths < 100:
        raise ConfigurationError("mc_green requires n_paths >= 100")
    return feynman_kac(sampler, domain, None, lambda x, s: f(x), None, 0.0, horizon,
                       x0, n_paths, dt_path, seed, n_workers)


@dataclass
class SurvivalFit:
    """Exit-rate fit from the empirical survival curve.

    ``path_steps`` counts the moves drawn by the pass that counted it.
    """

    lambda1_hat: float
    t_grid: np.ndarray
    survival: np.ndarray
    survivors_at_end: int
    path_steps: int


def survival_grid(t_max: float, n_t: int) -> np.ndarray:
    """The ``n_t`` evenly spaced survival times ending at ``t_max``."""
    return np.linspace(t_max / n_t, t_max, n_t)


def survival_steps(t_grid, dt_path: float) -> np.ndarray:
    """The path step of each survival grid time.

    Raises :class:`ConfigurationError` unless the grid is increasing and
    positive, has at least 4 points, and every time is a whole number of
    path steps (to within ``1e-9 * dt_path``).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 4 or np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
        raise ConfigurationError("t_grid must be increasing, positive, with >= 4 points")
    return time_steps(t_grid, dt_path, "survival time", step="dt_path")


def _survival_fit(counts, t_grid, n_paths: int, path_steps: int) -> SurvivalFit:
    """Least-squares slope of -log P(tau > t) over the upper half of t_grid.

    Raises :class:`StatisticalPowerError` when fewer than 50 paths survive to
    the last grid time or the curve never drops below 0.1 (the asymptotic
    regime was not reached).
    """
    survival = counts / n_paths
    if counts[-1] < 50:
        raise StatisticalPowerError(
            f"only {counts[-1]} paths survive at t={t_grid[-1]}; "
            "reduce the horizon or raise n_paths"
        )
    if survival[-1] > 0.1:
        raise StatisticalPowerError(
            f"survival {survival[-1]:.3f} at the last grid time has not dropped "
            "below 0.1; extend t_grid"
        )
    tail_start = t_grid.size // 2
    tt = t_grid[tail_start:]
    ss = survival[tail_start:]
    slope = float(np.polyfit(tt, -np.log(ss), 1)[0])
    return SurvivalFit(
        lambda1_hat=slope,
        t_grid=t_grid,
        survival=survival,
        survivors_at_end=int(counts[-1]),
        path_steps=path_steps,
    )


def exit_pass(
    sampler: SubordinatorSampler,
    domain: tuple[float, float],
    x0: float,
    t_grid,
    n_paths: int,
    dt_path: float,
    seed: int,
    horizon: float = 64.0,
    n_workers: int = 1,
) -> tuple[McEstimate, SurvivalFit]:
    """The Green occupation time and the survival fit from one set of killed paths.

    One pass of ``max(horizon, t_grid[-1])`` (both whole numbers of path
    steps) reduces each path's occupation time up to ``horizon``, adding
    ``dt_path`` for every step it starts alive as ``feynman_kac`` does for
    the source 1, and the alive counts at the ``t_grid`` steps.  The
    estimate is ``mc_green``'s with f = 1 (bit for bit when ``horizon /
    steps`` rounds to ``dt_path``).  The draws at step k do not depend on
    the pass length, so the fit is that of any pass reaching ``t_grid[-1]``
    at the same seed.
    """
    if n_paths < 100:
        raise ConfigurationError("exit_pass requires n_paths >= 100")
    t_grid = np.asarray(t_grid, dtype=float)
    check_steps = survival_steps(t_grid, dt_path)
    green_steps = horizon_steps(horizon, dt_path, step="dt_path")
    n_steps = max(int(check_steps[-1]), green_steps)

    def chunk(rng: np.random.Generator, m: int):
        counts = np.zeros(t_grid.size, dtype=np.int64)
        occupation = np.zeros(m)
        moves = 0
        for k, idx, _ in _killed_steps(sampler, rng, m, x0, domain, dt_path, n_steps):
            counts[check_steps == k] = idx.size
            if k < green_steps:
                occupation[idx] += dt_path
            if k < n_steps:
                moves += idx.size
        return counts, (float(occupation.sum()), float((occupation ** 2).sum()), m), moves

    counts, moments, moves = zip(*_run_chunks(chunk, n_paths, seed, n_workers))
    return (_combine(list(moments), n_paths, seed, dt_path),
            _survival_fit(sum(counts), t_grid, n_paths, sum(moves)))


def survival_lambda1(
    sampler: SubordinatorSampler,
    domain: tuple[float, float],
    x0: float,
    t_grid,
    n_paths: int,
    dt_path: float,
    seed: int,
    n_workers: int = 1,
) -> SurvivalFit:
    """Estimate the principal eigenvalue from the survival decay rate.

    The survival half of :func:`exit_pass`, on a pass to ``t_grid[-1]``:
    fits the least-squares slope of -log P(tau > t) over the upper half of
    t_grid.  Raises :class:`StatisticalPowerError` when fewer than 50 paths
    survive to the last grid time or the curve never drops below 0.1 (the
    asymptotic regime was not reached).
    """
    return exit_pass(sampler, domain, x0, t_grid, n_paths, dt_path, seed,
                     horizon=dt_path, n_workers=n_workers)[1]
