"""Simulation of the jump process and its expectation functionals.

The process is Brownian motion run at twice the standard speed, time
changed by an independent subordinator with Laplace exponent psi, so a
move over a time step dt has characteristic function exp(-dt psi(xi^2)).
For ``fractional`` with alpha < 2 that is exp(-dt |xi|^alpha), and a move
is one exact symmetric alpha-stable draw (Chambers, Mallows & Stuck, JASA
71, 1976).  Every other kind draws a subordinator increment dS and then a
Gaussian move of variance 2 dS.  ``relativistic`` and ``sum_fractional``
keep that draw stream although exact moves exist for some of their
parameters: the 5% survival-rate checks on their benchmark runs sit within
one seed's spread of the exit bias, so a fresh stream can fail them.  At
alpha = 1 and at alpha = 3/2 (``sum_fractional``'s beta = 1.5 part) the
increments use closed forms of Kanter's formula on the same draws
(:func:`_stable_oneside`), so the stream and the kill decisions are
unchanged; ``np.tan`` may take a SIMD path, so the last bits of a value
depend on the numpy build and the CPU.
Killing happens at the first grid time the position leaves the interval;
the jump that overshoots is kept, sub-step excursions are missed, giving
a documented O(dt) bias, the same for both kinds of move.

Every Monte Carlo consumer runs on one step-major engine,
:func:`_killed_steps`, that advances a group of chunks of paths together
and keeps only the alive ones, compact, for the next step.  ``feynman_kac``
(and ``mc_green``, its source-only case) and ``exit_pass`` cut their paths
into chunks with independent substreams spawned from the master seed and
step up to ``GROUP`` chunks (65,536 paths, so memory is bounded for any
path count) in lockstep: one draw call per step for the whole group, in
which each chunk's segment comes from its own substream
(:class:`_Streams`).  Each substream sees the draws, and each chunk the
kills, of the chunk stepped alone; the reductions run per chunk and are
combined in fixed chunk order, so results are byte-identical for any
grouping and worker count (``feynman_kac``'s data act elementwise) and
reproducible from (seed, config).  ``exit_pass`` reads two functionals of
one set of killed paths: the occupation time up to a horizon
(``mc_green`` with f = 1) and the survival curve with its exit-rate fit;
``survival_lambda1`` is its survival half.  ``trace_rows`` records one
group of one chunk, at most 1000 paths, as path-major ``(path, t, x)``
columns; ``simulate_killed_path`` is its one-path view.  Every horizon and
survival time is a whole number of ``dt_path`` steps (``grid.time_steps``,
which ``load_config`` also runs).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bernstein import BernsteinSymbol
from .errors import ConfigurationError, SamplerError, StatisticalPowerError
from .grid import horizon_steps, time_steps

CHUNK = 8192
GROUP = 8  # chunks stepped together: at most GROUP * CHUNK paths held at once
REJECTION_CAP = 1_000_000
TRACE_PATHS = 1000  # paths recorded by trace_rows

_SAMPLER_KINDS = {"fractional", "sum_fractional", "relativistic"}


class _Streams:
    """Generator-like draws whose segment j comes from generator j alone.

    An output of ``bounds[-1]`` values takes its slice
    ``bounds[j]:bounds[j + 1]`` from ``rngs[j]``, filled in place through
    ``out=``, so each generator makes the call, with the size and in the
    order, that it would make drawing its own segment alone.  An empty
    segment draws nothing.  Only the three draw methods the samplers use
    exist.
    """

    __slots__ = ("rngs", "bounds")

    def __init__(self, rngs, bounds):
        self.rngs = rngs
        self.bounds = bounds

    def _fill(self, method: str, size: int) -> np.ndarray:
        out = np.empty(size)
        b = self.bounds
        for j, rng in enumerate(self.rngs):
            if b[j] < b[j + 1]:
                getattr(rng, method)(out=out[b[j]:b[j + 1]])
        return out

    def random(self, size: int) -> np.ndarray:
        return self._fill("random", size)

    def standard_exponential(self, size: int) -> np.ndarray:
        return self._fill("standard_exponential", size)

    def standard_normal(self, size: int) -> np.ndarray:
        return self._fill("standard_normal", size)

    def restricted(self, positions: np.ndarray) -> "_Streams":
        """The streams drawing only for ``positions`` (increasing) of this layout."""
        return _Streams(self.rngs, np.searchsorted(positions, self.bounds).tolist())


def _stable_oneside(rho: float, size: int, rng) -> np.ndarray:
    """Draws with Laplace transform exp(-x^rho), rho in (0, 1].

    Kanter's representation: S = (sin(rho U) / sin(U)^(1/rho))
    * (sin((1-rho) U) / W)^((1-rho)/rho) with U uniform on (0, pi) and W
    unit exponential.  Two values of rho have exact closed forms in
    V = U/2, drawn from the same uniforms (the same bits as halving U) and
    the same exponentials.  At rho = 1/2 (every alpha = 1 symbol) S is the
    Levy law (1 + tan(V)^2) / (4 W).  At rho = 3/4 (alpha = 3/2), with
    r = sec(V) = sqrt(1 + tan(V)^2), S = r (r + 2) / (4 cbrt((r + 1)^2 W)).
    rho = 1 degenerates to the unit drift.  A uniform on (lo, hi) is drawn as
    ``lo + (hi - lo) * random``, the same bits as ``rng.uniform``.
    """
    if rho >= 1.0:
        return np.ones(size)
    if rho == 0.5 or rho == 0.75:
        v = rng.random(size)
        v *= 0.5 * np.pi
        w = rng.standard_exponential(size)
        np.tan(v, out=v)
        v *= v
        v += 1.0
        if rho == 0.5:
            w *= 4.0
            v /= w
            return v
        np.sqrt(v, out=v)  # r
        out = v + 2.0
        out *= v
        v += 1.0
        v *= v
        v *= w
        np.cbrt(v, out=v)
        v *= 4.0
        out /= v
        return out
    u = rng.random(size)
    u *= np.pi
    w = rng.standard_exponential(size)
    # elementwise the same operations as the formula, on fresh temporaries
    sin_rho = np.sin(rho * u)
    sin_rest = np.sin((1.0 - rho) * u)
    out = np.sin(u)
    out **= 1.0 / rho
    np.divide(sin_rho, out, out=out)
    np.divide(sin_rest, w, out=w)
    w **= (1.0 - rho) / rho
    out *= w
    return out


def _symmetric_stable(alpha: float, size: int, rng) -> np.ndarray:
    """Draws with characteristic function exp(-|xi|^alpha), alpha in (0, 2).

    Chambers, Mallows & Stuck: X = sin(alpha V) / cos(V)^(1/alpha)
    * (cos((1 - alpha) V) / W)^((1 - alpha)/alpha) with V uniform on
    (-pi/2, pi/2) and W unit exponential.  alpha = 1 is the Cauchy draw
    tan(V), one uniform per draw.
    """
    v = rng.random(size)
    v *= np.pi  # (pi/2) - (-pi/2)
    v += -0.5 * np.pi
    if alpha == 1.0:
        return np.tan(v, out=v)
    w = rng.standard_exponential(size)
    out = np.sin(alpha * v)
    cos_v = np.cos(v)
    cos_v **= 1.0 / alpha
    out /= cos_v
    np.cos((1.0 - alpha) * v, out=v)
    v /= w
    v **= (1.0 - alpha) / alpha
    out *= v
    return out


def _stable_part(alpha: float, dt: float, size: int, rng) -> np.ndarray:
    """Increments over dt of the subordinator with Laplace exponent x^(alpha/2)."""
    rho = alpha / 2.0
    if rho >= 1.0:
        return np.full(size, dt)
    out = _stable_oneside(rho, size, rng)
    out *= dt ** (1.0 / rho)
    return out


@dataclass
class SubordinatorSampler:
    """Increment and move sampler for the subordinator of a catalog symbol.

    Supports the stable, sum-of-stables, and relativistic (exponentially
    tilted stable with rejection) subordinators; the log-perturbed symbols
    have no sampler and must use the deterministic solvers.  ``rng`` is a
    numpy Generator or the path engine's :class:`_Streams`: every draw goes
    through ``random``, ``standard_exponential`` or ``standard_normal``.
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
            return _stable_part(s.alpha, dt, size, self.rng)
        if s.kind == "sum_fractional":
            out = _stable_part(s.alpha, dt, size, self.rng)
            out += _stable_part(s.beta, dt, size, self.rng)
            return out
        return self._relativistic(dt, size)

    def moves(self, dt: float, size: int) -> np.ndarray:
        """Independent draws of the move X_dt - X_0 = B(2 S_dt).

        ``fractional`` with alpha < 2 draws exact symmetric alpha-stable
        moves scaled by dt^(1/alpha).  Every other kind draws the increments
        S_dt, then as many standard normals, and scales each normal by
        sqrt(2 dS).
        """
        if dt <= 0:
            raise ConfigurationError("move step dt must be positive")
        s = self.symbol
        if s.kind == "fractional" and s.alpha < 2.0:
            out = _symmetric_stable(s.alpha, size, self.rng)
            out *= dt ** (1.0 / s.alpha)
            return out
        scale = self.increments(dt, size)
        out = self.rng.standard_normal(size)
        scale *= 2.0
        out *= np.sqrt(scale, out=scale)
        return out

    def _relativistic(self, dt: float, size: int) -> np.ndarray:
        """Tilted stable: accept a stable draw S with probability e^(-theta S).

        The first round's draws stay in place; each later round redraws
        only the rejected positions, on :class:`_Streams` restricted to them,
        so every generator runs the rounds it would run on its segment alone.
        A plain Generator is drawn as the one segment of a :class:`_Streams`.
        """
        alpha = self.symbol.alpha
        theta = self.symbol.m ** (2.0 / alpha)
        streams = self.rng
        if not isinstance(streams, _Streams):
            streams = _Streams([streams], [0, size])
        out = _stable_part(alpha, dt, size, streams)
        pending = (~(streams.random(size) < np.exp(-theta * out))).nonzero()[0]
        rounds = 1
        while pending.size:
            rounds += 1
            if rounds > REJECTION_CAP:
                raise SamplerError("relativistic rejection sampler exceeded its cap")
            rng = streams.restricted(pending)
            cand = _stable_part(alpha, dt, pending.size, rng)
            accept = rng.random(pending.size) < np.exp(-theta * cand)
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


def _run_chunks(group_fn, n_paths: int, seed: int, n_workers: int) -> list:
    """``group_fn(rngs, sizes)`` on contiguous groups of chunks, results in chunk order.

    The paths are cut into chunks of ``CHUNK``, each with its own substream
    spawned from ``seed``.  The chunks are split into the fewest contiguous
    groups of at most ``GROUP``, near equal in size, and the workers run
    whole groups: a run of at most ``GROUP`` chunks is one group on the
    calling thread for any worker count.  A group's paths are stepped
    together, but every chunk draws from its own substream only, so no
    result depends on the grouping.
    """
    full, rem = divmod(n_paths, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(sizes))]
    n_groups = -(-len(sizes) // GROUP)
    cuts = [len(sizes) * g // n_groups for g in range(n_groups + 1)]
    jobs = [(rngs[a:b], sizes[a:b]) for a, b in zip(cuts, cuts[1:])]
    if min(n_workers, n_groups) <= 1:
        return [group_fn(rngs, sizes) for rngs, sizes in jobs]
    from concurrent.futures import ThreadPoolExecutor  # only a threaded run needs the pool

    with ThreadPoolExecutor(max_workers=min(n_workers, n_groups)) as pool:
        futures = [pool.submit(group_fn, rngs, sizes) for rngs, sizes in jobs]
        return [f.result() for f in futures]  # fixed chunk order


def _chunk_moments(values: np.ndarray, sizes) -> list[tuple[float, float, int]]:
    """Sum, sum of squares and count of each chunk's slice of a group's values."""
    return [(float(v.sum()), float((v ** 2).sum()), v.size)
            for v in np.split(values, np.cumsum(sizes)[:-1])]


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


def _killed_steps(sampler, rngs, sizes, x0, domain, dt, n_steps):
    """Advance a group of chunks of paths from x0 together, killing each on leaving the domain.

    Chunk j holds ``sizes[j]`` paths with the consecutive ids after those of
    chunk j - 1, and draws its moves from ``rngs[j]`` alone.  Yields
    ``(k, idx, x, inside)`` for k = 0..n_steps while any path is alive:
    ``idx`` holds the ids of the paths alive at time (k - 1) dt (all of them
    at k = 0), increasing, ``x`` their positions at time k dt and ``inside``
    which of them are still in the domain.  The step kills the others, so
    each path shows up one last time at its first position outside.  The
    alive paths are kept compact, in id order, so each chunk's alive paths
    are one segment, and each step draws all their moves with one
    :meth:`SubordinatorSampler.moves` call on :class:`_Streams`: every
    generator sees the calls it would see stepping its chunk alone, and
    every chunk's positions and kills are those of its own stream.  Every
    yielded array is fresh, never reused or changed by a later step, so a
    consumer may keep them; consumers must not change ``idx`` or ``x``.
    """
    xl, xr = domain
    starts = np.concatenate(([0], np.cumsum(sizes)))
    streams = _Streams(rngs, starts.tolist())
    samp = sampler.with_rng(streams)
    idx = np.arange(starts[-1])
    x = np.full(idx.size, float(x0))
    inside = np.full(idx.size, xl < x0 < xr)
    yield 0, idx, x, inside
    for k in range(1, n_steps + 1):
        idx, x = idx[inside], x[inside]  # fresh arrays even when no path died
        if idx.size == 0:
            return
        streams.bounds = np.searchsorted(idx, starts).tolist()
        x += samp.moves(dt, idx.size)
        inside = (x > xl) & (x < xr)
        yield k, idx, x, inside


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
    paths, steps, xs = [], [], []
    for k, idx, x, _ in _killed_steps(sampler, [sampler.rng], [min(TRACE_PATHS, n_paths)], x0,
                                      domain, dt_path, n_steps):
        paths.append(idx)
        steps.append(np.full(idx.size, k, dtype=np.int64))
        xs.append(x)
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
    ``g`` maps positions to values; ``ell``/``vpot`` map (positions, time),
    elementwise: each call sees the positions of a whole group of chunks.
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

    def group(rngs, sizes):
        vals = np.zeros(sum(sizes))
        exp_pot = np.ones(sum(sizes))
        for k, idx, x, inside in _killed_steps(sampler, rngs, sizes, x0, domain, dt, n_steps):
            idx, x = idx[inside], x[inside]
            if k == n_steps:  # alive at the horizon: terminal datum
                if g is not None:
                    vals[idx] += exp_pot[idx] * np.asarray(g(x), dtype=float)
                continue
            s_k = t + k * dt
            if ell is not None:
                vals[idx] += exp_pot[idx] * np.asarray(ell(x, s_k), dtype=float) * dt
            if vpot is not None:
                exp_pot[idx] *= np.exp(np.asarray(vpot(x, s_k), dtype=float) * dt)
        return _chunk_moments(vals, sizes)

    moments = [m for ms in _run_chunks(group, n_paths, seed, n_workers) for m in ms]
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
    steps) records each path's exit step and the alive counts at the
    ``t_grid`` steps.  A path's occupation time up to ``horizon`` adds
    ``dt_path`` once for every step it starts alive, as ``feynman_kac``
    does for the source 1; it is read from a running sum of ``dt_path``,
    added in the same order.  The estimate is ``mc_green``'s with f = 1
    (bit for bit when ``horizon / steps`` rounds to ``dt_path``).  The draws
    at step k do not depend on the pass length, so the fit is that of any
    pass reaching ``t_grid[-1]`` at the same seed.
    """
    if n_paths < 100:
        raise ConfigurationError("exit_pass requires n_paths >= 100")
    t_grid = np.asarray(t_grid, dtype=float)
    check_steps = survival_steps(t_grid, dt_path)
    green_steps = horizon_steps(horizon, dt_path, step="dt_path")
    n_steps = max(int(check_steps[-1]), green_steps)
    check = {int(k): j for j, k in enumerate(check_steps)}
    # occupied[j]: the occupation time of a path alive at steps 0..j-1
    occupied = np.concatenate(([0.0], np.cumsum(np.full(green_steps, dt_path))))

    def group(rngs, sizes):
        counts = np.zeros(t_grid.size, dtype=np.int64)
        # a later exit occupies every step below the horizon
        exits = np.full(sum(sizes), green_steps)
        moves = 0
        for k, idx, _, inside in _killed_steps(sampler, rngs, sizes, x0, domain, dt_path,
                                               n_steps):
            if k:
                moves += idx.size
            if k in check:
                counts[check[k]] = np.count_nonzero(inside)
            if k < green_steps:
                exits[idx[~inside]] = k
        return counts, _chunk_moments(occupied[exits], sizes), moves

    counts, moments, moves = zip(*_run_chunks(group, n_paths, seed, n_workers))
    return (_combine([m for ms in moments for m in ms], n_paths, seed, dt_path),
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
