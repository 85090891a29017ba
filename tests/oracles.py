"""Independent oracles used by the tests.

Everything here deliberately avoids the package's assembly/solve paths:
symbols are recovered from kernels by adaptive quadrature of the
multiplier integral, cell integrals of a kernel by one adaptive ``quad``
call per cell, operator values by direct quadrature of the singular
integral on callables or by a Fourier multiplier on a periodic box, and
the maximal steady state by the monotone iteration between a sub- and a
supersolution, written as a plain loop over the dense matrix with one
scipy Cholesky factor; a solution near a given state is refined by full
Newton steps with numpy's dense solver.  Killed paths are stepped one at a time by a scalar
loop instead of the batched path engine, an exit pass one chunk at a time
on full-length arrays, and path traces are built as sorted row tuples.
Toeplitz solves apply the Gohberg-Semencul formula with six separate FFTs,
and CSV text is formatted row by row.  No function here
calls the package's descent, factorizations, Toeplitz solvers, FFT
products, eigensolver, path engine or CSV writer.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cho_factor, cho_solve, solve_toeplitz

from nonlocal_logistic import (
    ConfigurationError,
    ConvergenceError,
    DimensionError,
    Grid1D,
    MonotonicityError,
    SteadyState,
    hopf_ratio,
)
from nonlocal_logistic.stochastic import CHUNK, _combine, _survival_fit


def symbol_from_kernel(kernel, xi: float) -> float:
    """integral over R of (1 - cos(y xi)) j(|y|) dy by adaptive quadrature.

    Splits at A = 20/xi: the smooth singular part below, a closed-form
    plain tail minus an oscillatory cosine tail (QAWF) above.
    """
    a_split = 20.0 / xi
    near, _ = integrate.quad(
        lambda r: (1.0 - np.cos(xi * r)) * kernel.density(r),
        0.0,
        a_split,
        epsabs=1e-13,
        epsrel=1e-10,
        limit=400,
    )
    osc, _ = integrate.quad(
        lambda r: kernel.density(r),
        a_split,
        np.inf,
        weight="cos",
        wvar=xi,
        limit=400,
    )
    plain = kernel.tail_mass(a_split) / 2.0
    return 2.0 * (near + plain - osc)


def cell_integrals_by_quad(f, edges) -> np.ndarray:
    """integral of f over each cell [edges[k], edges[k+1]], one adaptive
    ``quad`` call per cell at the kernel's relative tolerance 1e-10."""
    return np.array([
        integrate.quad(f, lo, hi, epsrel=1e-10, epsabs=0.0, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ])


def operator_by_quadrature(kernel, u, x: float, far: float = 200.0) -> float:
    """psi(-Delta)u(x) = integral_0^inf (2u(x) - u(x+r) - u(x-r)) j(r) dr.

    ``u`` must be a smooth callable on scalars; the integrable singularity
    at r = 0 is left to the adaptive rule.
    """

    def integrand(r):
        return (2.0 * u(x) - u(x + r) - u(x - r)) * kernel.density(r)

    near, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=400)
    mid, _ = integrate.quad(integrand, 1.0, far, epsabs=0.0, epsrel=1e-11, limit=400)
    tail = 2.0 * u(x) * kernel.tail_mass(far) / 2.0
    return near + mid + tail


def mollifier(x, width: float = 0.6):
    """Smooth bump supported in |x| < width with unit peak."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < width
    z = x[inside] / width
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - z * z))
    return out


def scalar_killed_path(sampler, x0: float, dt_path: float, horizon: float, domain):
    """Positions of one path stepped alone until it leaves the domain or the horizon.

    Each step draws one move with ``sampler.moves``; the first position
    outside the domain is kept.
    """
    xl, xr = domain
    pos = [x0]
    if not (xl < x0 < xr):
        return np.array(pos)
    x = x0
    for _ in range(int(round(horizon / dt_path))):
        x = x + sampler.moves(dt_path, 1)[0]
        pos.append(x)
        if not (xl < x < xr):
            break
    return np.array(pos)


def trace_rows_reference(sampler, x0: float, dt_path: float, horizon: float, domain,
                         n_paths: int, cap: int = 1000) -> list[tuple[int, float, float]]:
    """Sorted ``(path, t, x)`` row tuples of ``min(cap, n_paths)`` paths stepped together.

    Each step draws the alive paths' moves, in path order, with
    ``sampler.moves``; every path moves and gets a row at ``t = k * dt_path``;
    a path's first position outside the domain is its last row.
    """
    xl, xr = domain
    m = min(cap, n_paths)
    rows = [(p, 0.0, float(x0)) for p in range(m)]
    x = [float(x0)] * m
    alive = list(range(m)) if xl < x0 < xr else []
    k = 0
    while alive and k < int(round(horizon / dt_path)):
        k += 1
        for p, d in zip(alive, sampler.moves(dt_path, len(alive)).tolist()):
            x[p] = x[p] + d
            rows.append((p, k * dt_path, x[p]))
        alive = [p for p in alive if xl < x[p] < xr]
    rows.sort()
    return rows


def kanter_reference(rho: float, size: int, rng) -> np.ndarray:
    """One-sided stable draws by Kanter's formula written out as one expression.

    Draws ``size`` uniforms on (0, pi), as ``pi * rng.random`` (the bits of
    ``rng.uniform(0, pi)``), then ``size`` unit exponentials, from ``rng``,
    as the package's sampler does for 0 < rho < 1; it needs only the draw
    methods of the path engine's per-chunk streams.
    """
    u = rng.random(size) * np.pi
    w = rng.standard_exponential(size)
    return (np.sin(rho * u) / np.sin(u) ** (1.0 / rho)) * (
        np.sin((1.0 - rho) * u) / w
    ) ** ((1.0 - rho) / rho)


def levy_reference(size: int, rng) -> np.ndarray:
    """One-sided 1/2-stable (Levy) draws (1 + tan(V)^2) / (4 W) as one expression.

    Draws ``size`` uniforms V on (0, pi/2), then ``size`` unit exponentials W,
    from ``rng``: Kanter's formula at rho = 1/2 with V = U/2.
    """
    return (1.0 + np.tan(rng.uniform(0.0, 0.5 * np.pi, size)) ** 2) / (
        4.0 * rng.exponential(1.0, size)
    )


def three_quarter_reference(size: int, rng) -> np.ndarray:
    """One-sided 3/4-stable draws r (r + 2) / (4 cbrt((r + 1)^2 W)), r = sec(V).

    Draws ``size`` uniforms V on (0, pi/2), then ``size`` unit exponentials W,
    from ``rng``: Kanter's formula at rho = 3/4 with V = U/2, where
    sec(V) = sqrt(1 + tan(V)^2).
    """
    r = np.sqrt(1.0 + np.tan(rng.uniform(0.0, 0.5 * np.pi, size)) ** 2)
    return r * (r + 2.0) / (4.0 * np.cbrt((r + 1.0) ** 2 * rng.exponential(1.0, size)))


def exit_pass_reference(sampler, domain, x0: float, t_grid, n_paths: int, dt_path: float,
                        seed: int, horizon: float):
    """``exit_pass`` with each chunk of ``CHUNK`` paths stepped alone, on its own substream.

    Chunk j draws from the j-th substream spawned from ``seed``; each step
    moves its alive paths, in path order, with one ``sampler.moves`` call and
    updates their positions in a full-length array.  A path's exit step
    (the horizon step if it exits at or after it) and the alive counts at
    the ``t_grid`` steps are tallied per chunk; the occupation moments and
    the fit are then reduced by the package's ``_combine`` and
    ``_survival_fit`` in chunk order.
    """
    xl, xr = domain
    check = {int(k): j for j, k in enumerate(np.rint(np.asarray(t_grid) / dt_path))}
    green_steps = int(round(horizon / dt_path))
    occupied = np.concatenate(([0.0], np.cumsum(np.full(green_steps, dt_path))))
    full, rem = divmod(n_paths, CHUNK)
    sizes = [CHUNK] * full + ([rem] if rem else [])
    counts = np.zeros(len(check), dtype=np.int64)
    moments, moves = [], 0
    for ss, m in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        samp = sampler.with_rng(np.random.default_rng(ss))
        x = np.full(m, float(x0))
        exits = np.full(m, green_steps if xl < x0 < xr else 0)
        alive = np.arange(m) if xl < x0 < xr else np.arange(0)
        for k in range(1, max(max(check), green_steps) + 1):
            if alive.size == 0:
                break
            x[alive] += samp.moves(dt_path, alive.size)
            moves += alive.size
            inside = (x[alive] > xl) & (x[alive] < xr)
            if k in check:
                counts[check[k]] += np.count_nonzero(inside)
            if k < green_steps:
                exits[alive[~inside]] = k
            alive = alive[inside]
        occupation = occupied[exits]
        moments.append((float(occupation.sum()), float((occupation ** 2).sum()), m))
    return (_combine(moments, n_paths, seed, dt_path),
            _survival_fit(counts, np.asarray(t_grid, dtype=float), n_paths, moves))


def csv_reference(header, rows) -> str:
    """CSV text of a header and row tuples, one line each ending in a newline.

    A field is ``true``/``false`` for a Python or numpy bool, ``repr`` of the
    Python float for any float, and ``str`` of anything else.
    """
    def field(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    return "".join(",".join(field(v) for v in row) + "\n" for row in [header, *rows])


def circulant_matvec_reference(col: np.ndarray):
    """A function computing T v, T symmetric Toeplitz with first column ``col``,
    by ``scipy.fft`` on the circulant of length ``next_fast_len(2n - 1)`` that
    embeds T.
    """
    n = col.size
    size = next_fast_len(2 * n - 1, real=True)
    first = np.zeros(size)
    first[:n] = col
    first[size - n + 1:] = col[:0:-1]
    spectrum = rfft(first).real
    return lambda v: irfft(rfft(v, size) * spectrum, size)[:n]


def gohberg_semencul_reference(col: np.ndarray, sigma: float, scale: float = 1.0):
    """A function solving ``(scale T + sigma I) x = b``, T symmetric Toeplitz with
    first column ``col``, by the Gohberg-Semencul formula with six FFTs per solve.

    scipy's Levinson solve gives the first column x of the inverse; with
    w = (0, x_{n-1}, ..., x_1), ``x_0 T^{-1} b = L(x) L(x)^T b - L(w) L(w)^T b``
    is applied transform by transform: b forward, each correlation back and
    forward, the combination back.
    """
    n = col.size
    t = scale * col
    t[0] += sigma
    e1 = np.zeros(n)
    e1[0] = 1.0
    x = solve_toeplitz(t, e1)
    w = np.zeros(n)
    w[1:] = x[:0:-1]
    size = next_fast_len(2 * n, real=True)
    root = np.sqrt(x[0])
    fx, fw = rfft(x, size) / root, rfft(w, size) / root

    def apply(b):
        fb = rfft(b, size)
        p = irfft(fx.conj() * fb, size)[:n]
        q = irfft(fw.conj() * fb, size)[:n]
        return irfft(fx * rfft(p, size) - fw * rfft(q, size), size)[:n]

    return apply


# ---------------------------------------------------------------------------
# Fourier-multiplier oracle for the assembled operator
# ---------------------------------------------------------------------------


class OracleDomainError(ConfigurationError):
    """Input violates the support contract of the spectral oracle."""


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


def multiplier_oracle(symbol, u: np.ndarray, box: PeriodicBox) -> np.ndarray:
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


def oracle_on_grid(symbol, grid, func, pad: int = 6, kernel=None) -> np.ndarray:
    """Whole-space reference values of psi(-Delta) f at the interior nodes.

    Runs the periodic multiplier oracle and, when an exact kernel is
    supplied, compensates the periodic images analytically: each image of
    a compactly supported f contributes ``- mass(f) * j(distance)`` to
    leading order, so adding the image sum back recovers the whole-space
    operator; 64 images on each side are summed, the rest lumped as tail
    mass.  Without a kernel the raw periodic values are returned and the
    caller owns the O(L^(-1-alpha)) periodization bias.
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
    for k in range(1, 65):
        corr += kernel.density(np.abs(x - k * L)) + kernel.density(np.abs(x + k * L))
    corr += kernel.tail_mass(64.5 * L) / L
    return out + mass * corr


# ---------------------------------------------------------------------------
# Monotone iteration between a sub- and a supersolution
# ---------------------------------------------------------------------------

RELAX_MAXITER = 200_000


def lipschitz_shift(spec, s_max: float) -> float:
    """Shift theta that makes ``F(u) + theta u`` nondecreasing on [-s_max, s_max].

    The reaction's slope is at least ``-(a + L_f + c L_h)`` there, with
    ``L_f`` the crowding slope at ``s_max``; theta is that bound with a 1.1
    safety factor.
    """
    slope = spec.a + spec.f.lipschitz_on(s_max)
    if spec.c > 0:
        slope += spec.c * spec.h.deriv_bound()
    return 1.1 * slope


def relax(op, spec, u0, theta: float, tol: float, direction: int,
          lower=None, upper=None, stop_on_negative: bool = False):
    """Shifted relaxation u <- (A + theta I)^{-1} (F(u) + theta u) from ``u0``.

    Every product is with the dense ``op.matrix`` and every solve is against
    one scipy Cholesky factor of ``A + theta I``.  Each step must move in
    ``direction`` (+1 increasing, -1 decreasing) and stay inside the given
    brackets, up to a slack of ``max(1e-12 * scale, 100 tol)``; otherwise
    :class:`MonotonicityError`.  With ``stop_on_negative`` a node below
    ``-1e3 * slack`` ends the loop.  Stops once a step is at most ``tol``.
    Returns (u, residual, iterations, went_negative); the residual is NaN
    when the loop went negative.
    """
    a = op.matrix
    factor = cho_factor(a + theta * np.eye(op.n))
    u = np.asarray(u0, dtype=float).copy()
    slack = max(1e-12 * max(1.0, float(np.abs(u).max())), 100.0 * tol)
    for it in range(1, RELAX_MAXITER + 1):
        u_next = cho_solve(factor, spec.reaction(u) + theta * u)
        drift = u_next - u
        if (direction * drift).min() < -slack:
            raise MonotonicityError(f"relaxation lost monotonicity at step {it}")
        if lower is not None and (u_next - lower).min() < -slack:
            raise MonotonicityError(f"iterate fell below the lower bracket at step {it}")
        if upper is not None and (u_next - upper).max() > slack:
            raise MonotonicityError(f"iterate exceeded the upper bracket at step {it}")
        if stop_on_negative and u_next.min() < -1e3 * slack:
            return u_next, float("nan"), it, True
        u = u_next
        if np.abs(drift).max() <= tol:
            return u, float(np.abs(a @ u - spec.reaction(u)).max()), it, False
    raise ConvergenceError(f"relaxation hit the cap {RELAX_MAXITER}")


def monotone_iterate(op, spec, u_lo, u_hi, theta=None, tol: float = 1e-10,
                     start: str = "hi") -> SteadyState:
    """Monotone iteration between a verified sub/supersolution pair.

    From ``start="lo"`` the iterates increase toward the minimal fixed
    point in the bracket, from ``start="hi"`` they decrease toward the
    maximal one; either way they stay inside [u_lo, u_hi].  A bracket that
    is unordered, of the wrong size, or not a discrete sub/supersolution
    pair raises :class:`ConfigurationError`.  A strictly positive result is
    labeled ``logistic``.
    """
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.asarray(u_hi, dtype=float)
    if u_lo.shape != (op.n,) or u_hi.shape != (op.n,):
        raise ConfigurationError("bracket vectors must match the grid size")
    if (u_hi - u_lo).min() < 0:
        raise ConfigurationError("monotone_iterate requires u_lo <= u_hi")
    a = op.matrix
    res_lo = a @ u_lo - spec.reaction(u_lo)
    res_hi = a @ u_hi - spec.reaction(u_hi)
    slack = 1e-8 * max(1.0, float(np.abs(res_lo).max()), float(np.abs(res_hi).max()))
    if res_lo.max() > slack:
        raise ConfigurationError(
            f"u_lo is not a discrete subsolution (worst excess {res_lo.max():.3e})"
        )
    if res_hi.min() < -slack:
        raise ConfigurationError(
            f"u_hi is not a discrete supersolution (worst deficit {res_hi.min():.3e})"
        )
    if start not in ("lo", "hi"):
        raise ConfigurationError("start must be 'lo' or 'hi'")
    if theta is None:
        theta = lipschitz_shift(spec, float(np.abs(u_hi).max()))
    u0, direction = (u_lo, 1) if start == "lo" else (u_hi, -1)
    u, residual, it, _ = relax(op, spec, u0, theta, tol, direction, lower=u_lo, upper=u_hi)
    branch = "logistic" if u.min() > 0 else "none"
    return SteadyState(u=u, residual=residual, branch=branch, iterations=it)


def newton_reference(op, spec, u0, max_steps: int = 20) -> np.ndarray:
    """A solution near ``u0`` by full Newton steps on the dense system.

    Each step solves ``(A - diag F'(u)) d = A u - F(u)`` with numpy's dense
    solver: no backtracking, no residual stop and no reuse of a factor.  It
    stops before the first step that is not smaller than the one before, so
    the error is set by the rounding of the steps, not by a residual over
    the gap of a nearly singular Jacobian.
    """
    a = op.matrix
    u = np.asarray(u0, dtype=float).copy()
    last = math.inf
    for _ in range(max_steps):
        d = np.linalg.solve(a - np.diag(spec.reaction_deriv(u)), a @ u - spec.reaction(u))
        size = float(np.abs(d).max())
        if size >= last:
            return u
        u -= d
        last = size
    raise ConvergenceError(f"reference Newton still moving after {max_steps} steps ({last:.3e})")


# ---------------------------------------------------------------------------
# Boundary control of parabolic snapshots
# ---------------------------------------------------------------------------


@dataclass
class BoundaryBounds:
    lower_ratio_min: float
    upper_ratio_max: float
    passed: bool


def snapshot_at(run, s: float) -> np.ndarray:
    """The snapshot of a parabolic run recorded at time s, to within half a step."""
    idx = np.nonzero(np.isclose(run.times, s, rtol=0.0, atol=run.dt / 2))[0]
    if idx.size == 0:
        raise LookupError(f"no snapshot recorded at s={s} (have {run.times})")
    return run.snapshots[idx[0]]


def parabolic_boundary_bounds(run, s: float, symbol) -> BoundaryBounds:
    """Two-sided gauge-ratio check on a parabolic snapshot after the burn-in s >= 0.1.

    Passes iff the ratio field of :func:`hopf_ratio` at time s is finite
    with positive minimum, the discrete form of two-sided boundary decay
    control.
    """
    if not np.any(run.u0 > 0):
        raise ConfigurationError("parabolic boundary bounds need u0 >= 0, not identically 0")
    if s < 0.1:
        raise ConfigurationError(f"snapshot time {s} is before the burn-in 0.1")
    rf = hopf_ratio(snapshot_at(run, s), run.grid, symbol)
    passed = np.isfinite(rf.min) and np.isfinite(rf.max) and rf.min > 0.0
    return BoundaryBounds(lower_ratio_min=rf.min, upper_ratio_max=rf.max, passed=bool(passed))
