"""Simulation of the jump process and its expectation functionals.

The process is Brownian motion run at twice the standard speed, time
changed by an independent subordinator with Laplace exponent psi: one
time step draws a subordinator increment dS and then a Gaussian move of
variance 2 dS.  Killing happens at the first grid time the position
leaves the interval; the jump that overshoots is kept, sub-step
excursions are missed, giving a documented O(dt) bias.

All three estimators (``mc_green``, ``feynman_kac``, ``survival_lambda1``)
reduce over one step-major engine, :func:`_killed_steps`, that advances a
chunk of paths together and compacts away the killed ones.  Chunks use
independent substreams spawned from the master seed and are combined in
fixed chunk order, so results are byte-identical for any worker count and
fully reproducible from (seed, config).  ``simulate_killed_path`` traces a
single path on its own and stays outside the engine (see its docstring).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bernstein import BernsteinSymbol
from .errors import ConfigurationError, SamplerError, StatisticalPowerError

CHUNK = 8192
REJECTION_CAP = 1_000_000

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
    return (np.sin(rho * u) / np.sin(u) ** (1.0 / rho)) * (
        np.sin((1.0 - rho) * u) / w
    ) ** ((1.0 - rho) / rho)


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


def simulate_killed_path(
    sampler: SubordinatorSampler,
    x0: float,
    dt_path: float,
    horizon: float,
    domain: tuple[float, float],
) -> KilledPath:
    """Trace one path from x0 until it leaves the domain or reaches the horizon.

    The draws alternate increment, Gaussian move, increment, ... along the
    path, so consecutive calls on one sampler lay the paths out one after
    the other in its stream.  The step-major engine draws all increments of
    a step before all Gaussian moves and would reproduce these traces only
    at one path per call, which costs 7 to 11 us more per step (1,000
    alpha = 1 traces at dt_path = 0.01, 98,385 steps, on 2 cores: 2.4 to
    2.8 s instead of 1.7 to 1.9 s); the tracer therefore keeps its own
    scalar loop.
    """
    xl, xr = domain
    if dt_path <= 0:
        raise ConfigurationError("dt_path must be positive")
    pos = [x0]
    if not (xl < x0 < xr):
        return KilledPath(x0, dt_path, np.array(pos), 0.0, True)
    n_steps = int(round(horizon / dt_path))
    x = x0
    for k in range(1, n_steps + 1):
        ds = sampler.increments(dt_path, 1)[0]
        x = x + sampler.rng.standard_normal() * math.sqrt(2.0 * ds)
        pos.append(x)
        if not (xl < x < xr):
            return KilledPath(x0, dt_path, np.array(pos), k * dt_path, True)
    return KilledPath(x0, dt_path, np.array(pos), math.inf, False)


@dataclass
class McEstimate:
    """Monte Carlo value with its standard error and seed provenance."""

    value: float
    std_error: float
    n_paths: int
    seed: int
    dt_path: float = float("nan")

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "dt_path": self.dt_path,
        }


def _chunk_sizes(n_paths: int) -> list[int]:
    full, rem = divmod(n_paths, CHUNK)
    return [CHUNK] * full + ([rem] if rem else [])


def _run_chunks(chunk_fn, n_paths: int, seed: int, n_workers: int) -> list:
    sizes = _chunk_sizes(n_paths)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [(np.random.default_rng(s), m) for s, m in zip(seeds, sizes)]
    if n_workers <= 1:
        return [chunk_fn(rng, m) for rng, m in jobs]
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


def _moments(vals: np.ndarray) -> tuple[float, float, int]:
    return float(vals.sum()), float((vals ** 2).sum()), vals.size


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
    Any of them may be None (treated as identically zero).
    """
    if n_paths < 100:
        raise ConfigurationError("feynman_kac requires n_paths >= 100")
    if not t < T:
        raise ConfigurationError("feynman_kac requires t < T")
    span = T - t
    n_steps = max(1, int(round(span / dt_path)))
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
        return _moments(vals)

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

    Averages int_0^tau f(X_s) ds by the left-endpoint rule; paths still
    alive at the horizon are truncated there (the surviving fraction
    decays exponentially, so pick the horizon accordingly).
    """
    if n_paths < 100:
        raise ConfigurationError("mc_green requires n_paths >= 100")
    n_steps = int(round(horizon / dt_path))

    def chunk(rng: np.random.Generator, m: int):
        vals = np.zeros(m)
        for k, idx, pos in _killed_steps(sampler, rng, m, x0, domain, dt_path, n_steps):
            if k < n_steps:
                vals[idx] += np.asarray(f(pos[idx]), dtype=float) * dt_path
        return _moments(vals)

    moments = _run_chunks(chunk, n_paths, seed, n_workers)
    return _combine(moments, n_paths, seed, dt_path)


@dataclass
class SurvivalFit:
    """Exit-rate fit from the empirical survival curve."""

    lambda1_hat: float
    t_grid: np.ndarray
    survival: np.ndarray
    tail_start: int
    survivors_at_end: int
    n_paths: int
    seed: int


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

    Fits the least-squares slope of -log P(tau > t) over the upper half
    of t_grid.  Raises :class:`StatisticalPowerError` when fewer than 50
    paths survive to the last grid time or the curve never drops below
    0.1 (the asymptotic regime was not reached).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 4 or np.any(np.diff(t_grid) <= 0) or t_grid[0] <= 0:
        raise ConfigurationError("t_grid must be increasing, positive, with >= 4 points")
    check_steps = np.round(t_grid / dt_path).astype(int)
    if np.any(np.abs(check_steps * dt_path - t_grid) > dt_path / 2 + 1e-12):
        raise ConfigurationError("t_grid points must sit on the dt_path grid")
    n_steps = int(check_steps[-1])

    def chunk(rng: np.random.Generator, m: int):
        counts = np.zeros(t_grid.size, dtype=np.int64)
        for k, idx, _ in _killed_steps(sampler, rng, m, x0, domain, dt_path, n_steps):
            counts[check_steps == k] = idx.size
        return counts

    counts = sum(_run_chunks(chunk, n_paths, seed, n_workers))
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
        tail_start=tail_start,
        survivors_at_end=int(counts[-1]),
        n_paths=n_paths,
        seed=seed,
    )
