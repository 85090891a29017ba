"""Bernstein symbols of the Laplacian and their jump kernels.

A symbol ``psi`` from the catalog below defines the nonlocal operator
``psi(-Delta)`` through the Fourier relation ``psi(|xi|^2)``.  Each symbol
is the Laplace exponent of a subordinator, and the associated jump process
has a radial Levy density ``j(r)``.  The catalog (all complete Bernstein
functions, dimension fixed to 1 throughout):

===============  =======================================  ==================
kind             psi(x)                                   scaling exponents
===============  =======================================  ==================
fractional       x^(alpha/2)                              kappa1 = kappa2 = alpha/2
relativistic     (x + m^(2/alpha))^(alpha/2) - m          kappa1 = kappa2 = alpha/2
sum_fractional   x^(alpha/2) + x^(beta/2)                 min/max of the halves
log_damped       x^(alpha/2) * log(1+x)^(-beta/2)         (alpha-beta)/2, alpha/2
log_boosted      x^(alpha/2) * log(1+x)^(beta/2)          alpha/2, (alpha+beta)/2
===============  =======================================  ==================

The symbol alone fixes the density, so a :class:`LevyKernel` takes
nothing else.  ``fractional`` and ``sum_fractional`` have closed-form
power laws (orders below 2), ``relativistic`` a tempered Bessel-K form;
the log-perturbed symbols have only the comparable scaled profile
``j(r) ~ psi(r^-2) / r``.  An order 2 is the local Laplacian: it gets
unit-constant power parts, whose second moment near 0 diverges, so no
operator is assembled from it.

Integrals of a density over the cells of a grid (masses and second
moments) are closed forms for power laws and their sums.  For the Bessel
form and the scaled profiles every cell is integrated in one vectorized
pass by the 20-point Gauss-Legendre rule, checked against the 10-point
rule on the same cell; only a cell where the two disagree goes to adaptive
``quad``, as do the near-field second moment and the tail mass.

The Bessel ``kv``/``kve`` and adaptive ``quad`` are scipy's binaries,
called without the ``scipy.special`` and ``scipy.integrate`` packages: the
ufuncs of ``scipy.special._special_ufuncs`` and the QUADPACK routines of
``scipy.integrate._quadpack``, each loaded by :func:`compiled.load` on first
use, so a run on a power-law symbol loads neither.  Every Bessel value and
quadrature is bit for bit scipy's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import compiled
from .errors import ConfigurationError, NumericError


class _Quadpack:
    """``scipy.integrate.quad`` on ``[lo, hi]`` or ``[lo, inf)`` (``lo < hi``), by QUADPACK.

    Its one instance is the module attribute ``integrate``, which
    ``perfbench/tracing.py`` swaps for a wrapper that counts the calls.
    """

    @staticmethod
    def quad(f, lo, hi, epsrel, epsabs, limit):
        """QUADPACK's ``(value, error, ier)``, by ``_qagse`` for finite ``hi`` and
        ``_qagie`` for ``hi = inf``, with the arguments ``scipy.integrate.quad`` passes."""
        quadpack = compiled.load("integrate", "_quadpack")
        if hi == math.inf:
            return quadpack._qagie(f, lo, 1, (), 0, epsabs, epsrel, limit)
        return quadpack._qagse(f, lo, hi, (), 0, epsabs, epsrel, limit)


class _Bessel:
    """``kv`` and ``kve``: the ufuncs ``scipy.special`` hands out, loaded on first use."""

    @property
    def kv(self):
        return compiled.load("special", "_special_ufuncs").kv

    @property
    def kve(self):
        return compiled.load("special", "_special_ufuncs").kve


integrate = _Quadpack()
special = _Bessel()

VARIANTS = ("fractional", "relativistic", "sum_fractional", "log_damped", "log_boosted")

# Relative tolerance and subdivision cap of the adaptive quadrature here.
# QUAD_RTOL is also the tolerance of the per-cell check |G20 - G10| between
# the Gauss-Legendre pair, above which a cell goes to adaptive quadrature.
QUAD_RTOL = 1e-10
QUAD_LIMIT = 200

# Cells per vectorized Gauss-Legendre evaluation: bounds the temporaries
# to CELL_BLOCK x 30 values.
CELL_BLOCK = 512


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's iteration on the three-term recurrence of P_n and P_n', from
    the asymptotic guesses cos(pi (k + 3/4) / (n + 1/2)); computed on first
    use, with no eigen solve.  The weights are scaled to sum to exactly 2,
    which removes their common rounding bias.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p_prev, p, dp = np.ones(n), x, np.ones(n)
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = k * p_prev + x * dp
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w * (2.0 / w.sum())


def fractional_density_constant(alpha: float) -> float:
    """Multiplier-matching constant for j(r) = C * r^(-1-alpha) in d=1.

    Chosen so that the symbol identity
    ``integral (1 - cos(y xi)) j(|y|) dy = |xi|^alpha`` holds exactly.
    """
    return (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.gamma((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0))
    )


@dataclass(frozen=True)
class BernsteinSymbol:
    """A catalog symbol psi with parameters and declared scaling data.

    Parameters are validated on construction against the catalog ranges;
    violations raise :class:`ConfigurationError` naming the offending
    range.
    """

    kind: str
    alpha: float
    beta: float | None = None
    m: float | None = None

    def __post_init__(self):
        k = self.kind
        if k not in VARIANTS:
            raise ConfigurationError(
                f"unknown symbol kind {k!r}; expected one of {VARIANTS}"
            )
        a, b, m = self.alpha, self.beta, self.m
        if k == "fractional":
            _require(0.0 < a <= 2.0, "fractional requires alpha in (0, 2]")
        elif k == "relativistic":
            _require(0.0 < a < 2.0, "relativistic requires alpha in (0, 2)")
            _require(m is not None and m > 0.0, "relativistic requires m > 0")
            _require(abs((2.0 / a) * math.log(m)) < math.log(np.finfo(float).max),
                     "relativistic requires m^(2/alpha) within the float range")
        elif k == "sum_fractional":
            _require(0.0 < a <= 2.0, "sum_fractional requires alpha in (0, 2]")
            _require(b is not None and 0.0 < b <= 2.0, "sum_fractional requires beta in (0, 2]")
        elif k == "log_damped":
            _require(0.0 < a <= 2.0, "log_damped requires alpha in (0, 2]")
            _require(b is not None and 0.0 <= b < a, "log_damped requires beta in [0, alpha)")
        elif k == "log_boosted":
            _require(0.0 < a < 2.0, "log_boosted requires alpha in (0, 2)")
            _require(
                b is not None and 0.0 < b < 2.0 - a,
                "log_boosted requires beta in (0, 2 - alpha)",
            )

    # -- declared scaling data -------------------------------------------

    @property
    def kappa1(self) -> float:
        if self.kind == "sum_fractional":
            return min(self.alpha, self.beta) / 2.0
        if self.kind == "log_damped":
            return (self.alpha - self.beta) / 2.0
        return self.alpha / 2.0

    @property
    def kappa2(self) -> float:
        if self.kind == "sum_fractional":
            return max(self.alpha, self.beta) / 2.0
        if self.kind == "log_boosted":
            return (self.alpha + self.beta) / 2.0
        return self.alpha / 2.0

    @property
    def b1(self) -> float:
        """Declared two-sided scaling slack on ratios over [1, inf).

        Pure power laws and their sums need no slack.  The relativistic
        symbol deviates from its power law by at most 1/psi(1) on [1, inf);
        the logarithmic corrections by at most (2/(e ln 2))^(beta/2).
        """
        if self.kind in ("fractional", "sum_fractional"):
            return 1.0
        if self.kind == "relativistic":
            return max(1.0, 1.0 / float(self.psi(1.0)))
        return max(1.0, (2.0 / (math.e * math.log(2.0))) ** (self.beta / 2.0))

    # -- evaluation ------------------------------------------------------

    def psi(self, x):
        """Evaluate psi(x) for x >= 0 (scalar or array)."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ConfigurationError("psi requires x >= 0")
        a = self.alpha
        if self.kind == "fractional":
            out = x ** (a / 2.0)
        elif self.kind == "relativistic":
            # (x + theta)^(alpha/2) - m cancels for x << theta: there it is
            # m expm1((alpha/2) log1p(x / theta)), with no subtraction; the
            # branch np.where drops may overflow
            theta = self.m ** (2.0 / a)
            with np.errstate(all="ignore"):
                out = np.where(x > theta, (x + theta) ** (a / 2.0) - self.m,
                               self.m * np.expm1((a / 2.0) * np.log1p(x / theta)))
        elif self.kind == "sum_fractional":
            out = x ** (a / 2.0) + x ** (self.beta / 2.0)
        elif self.kind == "log_damped":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(x > 0, x ** (a / 2.0) * np.log1p(x) ** (-self.beta / 2.0), 0.0)
        else:  # log_boosted
            out = x ** (a / 2.0) * np.log1p(x) ** (self.beta / 2.0)
        return out if out.ndim else float(out)

    def as_config(self) -> dict:
        out = {"kind": self.kind, "alpha": self.alpha}
        if self.beta is not None:
            out["beta"] = self.beta
        if self.m is not None:
            out["m"] = self.m
        return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ScalingReport:
    kappa1_emp: float
    kappa2_emp: float
    b1_emp: float
    passed: bool


def check_scaling(symbol: BernsteinSymbol, r_grid) -> ScalingReport:
    """Empirical weak-scaling check of psi over all pairs of a grid in [1, 1e6].

    The empirical exponents are the pairwise log-ratios
    ``log(psi(R)/psi(r)) / log(R/r)``; the report passes iff the declared
    (kappa1, kappa2) bracket every pair up to the declared b1 slack.
    """
    r = np.asarray(r_grid, dtype=float)
    if r.size < 10:
        raise ConfigurationError("check_scaling needs at least 10 grid points")
    if np.any(np.diff(r) <= 0) or r[0] < 1.0 or r[-1] > 1e6:
        raise ConfigurationError("r_grid must be increasing and within [1, 1e6]")
    p = symbol.psi(r)
    i, j = np.triu_indices(r.size, k=1)
    t = np.log(r[j] / r[i])
    rates = np.log(p[j] / p[i]) / t
    # smallest b >= 1 making the two-sided ratio bound hold on all pairs
    b_lo = np.exp(np.max((symbol.kappa1 - rates) * t))
    b_hi = np.exp(np.max((rates - symbol.kappa2) * t))
    b1_emp = float(max(1.0, b_lo, b_hi))
    passed = bool(b1_emp <= symbol.b1 * (1.0 + 1e-9))
    return ScalingReport(float(rates.min()), float(rates.max()), b1_emp, passed)


def v_profile(symbol: BernsteinSymbol, r):
    """Boundary-decay gauge surrogate: psi(r^-2)^(-1/2) for r > 0, 0 at r = 0.

    Strictly increasing in r.  The true renewal gauge is only comparable to
    this profile, so downstream diagnostics assert two-sided bounds and
    signs, never equalities.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ConfigurationError("v_profile requires r >= 0")
    with np.errstate(divide="ignore"):
        out = np.where(r > 0, symbol.psi(np.where(r > 0, r, 1.0) ** -2.0) ** -0.5, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Levy kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyKernel:
    """Radial jump density j(r) of the process generated by -psi(-Delta).

    The symbol fixes the form of j: power-law parts ``C(alpha) r^(-1-alpha)``
    for ``fractional`` and ``sum_fractional`` with every order below 2, the
    tempered Bessel form for ``relativistic``, and the scaled profile
    ``psi(r^-2) / r`` for every other symbol.  An order 2 has unit-constant
    parts, the profile's, which the second moments reject.
    """

    symbol: BernsteinSymbol

    @property
    def mode(self) -> str:
        """``exact`` for a closed-form density, ``scaled_profile`` otherwise."""
        parts = self._parts()
        if parts is None:
            return "exact" if self.symbol.kind == "relativistic" else "scaled_profile"
        return "exact" if all(a < 2.0 for _, a in parts) else "scaled_profile"

    def _parts(self) -> list[tuple[float, float]] | None:
        """(constant, alpha) pairs of a power-law density; None for the
        Bessel form and the scaled profile."""
        s = self.symbol
        if s.kind == "fractional":
            orders = (s.alpha,)
        elif s.kind == "sum_fractional":
            orders = (s.alpha, s.beta)
        else:
            return None
        if max(orders) < 2.0:
            return [(fractional_density_constant(a), a) for a in orders]
        return [(1.0, a) for a in orders]

    def density(self, r):
        """j(r) for r > 0 (scalar or array); positive and nonincreasing."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ConfigurationError("levy density requires r > 0")
        s = self.symbol
        parts = self._parts()
        if parts is not None:
            out = np.zeros_like(r)
            for c, alpha in parts:
                out = out + c * r ** (-1.0 - alpha)
        elif s.kind == "relativistic":
            # tempered form: the stable density damped by the subordinator tilt
            a = s.alpha
            theta = s.m ** (2.0 / a)
            nu = (1.0 + a) / 2.0
            const = a / (2.0 * math.sqrt(math.pi) * math.gamma(1.0 - a / 2.0))
            z = math.sqrt(theta) * r
            out = const * (2.0 * math.sqrt(theta) / r) ** nu * special.kv(nu, z)
        else:
            out = s.psi(r ** -2.0) / r
        return out if out.ndim else float(out)

    # -- integrals against j ------------------------------------------------

    def _second_moment_parts(self) -> list[tuple[float, float]] | None:
        """``_parts``, rejecting an order 2, whose second moment near 0 diverges."""
        parts = self._parts()
        if parts is not None and any(a >= 2.0 for _, a in parts):
            raise ConfigurationError(
                f"the order-2 part of {self.symbol.kind} is the local Laplacian: its jump "
                "profile has no finite second moment near 0, so there is no operator"
            )
        return parts

    def sigma2_local(self, h: float) -> float:
        """Two-sided truncated second moment: integral_{|y|<h} y^2 j(|y|) dy."""
        parts = self._second_moment_parts()
        if parts is not None:
            return sum(2.0 * c * h ** (2.0 - a) / (2.0 - a) for c, a in parts)
        return 2.0 * self._quad(lambda r: r * r * self.density(r), 0.0, h)

    def tail_mass(self, R: float) -> float:
        """Two-sided tail mass: integral_{|y|>R} j(|y|) dy."""
        parts = self._parts()
        if parts is not None:
            return sum(2.0 * (c / a) * R ** (-a) for c, a in parts)
        return 2.0 * self._quad(lambda r: self.density(r), R, np.inf)

    def cell_masses(self, edges) -> np.ndarray:
        """One-sided masses integral_{e_k}^{e_{k+1}} j(r) dr per cell."""
        edges = np.asarray(edges, dtype=float)
        parts = self._parts()
        if parts is not None:
            out = np.zeros(edges.size - 1)
            for c, a in parts:
                out += (c / a) * (edges[:-1] ** -a - edges[1:] ** -a)
            return out
        return self._cells(self.density, edges)

    def cell_second_moments(self, edges) -> np.ndarray:
        """One-sided second moments integral r^2 j(r) dr per cell."""
        edges = np.asarray(edges, dtype=float)
        parts = self._second_moment_parts()
        if parts is not None:
            out = np.zeros(edges.size - 1)
            for c, a in parts:
                out += c * (edges[1:] ** (2.0 - a) - edges[:-1] ** (2.0 - a)) / (2.0 - a)
            return out
        return self._cells(lambda r: r * r * self.density(r), edges)

    def shift_ratio_bound(self, r_samples) -> float:
        """Empirical shift-comparability constant: max of j(r)/j(r+1), r >= 1.

        The Bessel form is compared in log space through the scaled
        ``kve``, since j underflows long before the ratio overflows; a
        ratio beyond the float range raises :class:`NumericError`.
        """
        r = np.asarray(r_samples, dtype=float)
        if np.any(r < 1.0):
            raise ConfigurationError("shift bound sampled at r >= 1 only")
        s = self.symbol
        if s.kind != "relativistic":
            return float(np.max(self.density(r) / self.density(r + 1.0)))
        # log j(r) - log j(r+1) with K_nu(z) = kve(nu, z) e^-z, z = sqrt(theta) r
        nu = (1.0 + s.alpha) / 2.0
        sq = s.m ** (1.0 / s.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_bessel = np.log(special.kve(nu, sq * r)) - np.log(special.kve(nu, sq * (r + 1.0)))
        bad = int(np.count_nonzero(~np.isfinite(log_bessel)))
        if bad:
            raise NumericError(
                f"shift ratio bound of {s.kind} m={s.m}: the Bessel ratio "
                "K_nu(m^(1/alpha) r) / K_nu(m^(1/alpha) (r + 1)) could not be evaluated "
                f"at {bad} of {r.size} samples"
            )
        log_ratio = float(np.max(nu * np.log1p(1.0 / r) + log_bessel + sq))
        if not log_ratio < math.log(np.finfo(float).max):
            raise NumericError(
                f"shift ratio bound exp({log_ratio:.6g}) of {s.kind} m={s.m} "
                "exceeds the float range"
            )
        return math.exp(log_ratio)

    def _cells(self, f, edges: np.ndarray) -> np.ndarray:
        """Integral of f over every cell [edges[k], edges[k+1]].

        Each block of CELL_BLOCK cells takes one call of f at the nodes of
        the 10- and the 20-point Gauss-Legendre rules of all its cells.  A
        cell keeps its 20-point value G20 when ``|G20 - G10| <= QUAD_RTOL
        |G20|``; any other cell (a NaN included) goes to :meth:`_quad`.
        """
        x10, w10 = _gauss_legendre(10)
        x20, w20 = _gauss_legendre(20)
        nodes = np.concatenate((x10, x20))
        out = np.empty(edges.size - 1)
        for start in range(0, out.size, CELL_BLOCK):
            stop = min(start + CELL_BLOCK, out.size)
            lo, hi = edges[start:stop], edges[start + 1 : stop + 1]
            mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
            vals = f(mid[:, None] + half[:, None] * nodes)
            g10 = half * (vals[:, :10] @ w10)
            g20 = half * (vals[:, 10:] @ w20)
            for i in np.flatnonzero(~(np.abs(g20 - g10) <= QUAD_RTOL * np.abs(g20))):
                g20[i] = self._quad(f, lo[i], hi[i])
            out[start:stop] = g20
        return out

    def _quad(self, f, lo, hi) -> float:
        """Adaptive quadrature of f on [lo, hi]; QUADPACK's ``ier != 0``, a
        non-finite value and an error above 1e-6 relative raise :class:`NumericError`."""
        val, err, ier = integrate.quad(f, lo, hi, epsrel=QUAD_RTOL, epsabs=0.0, limit=QUAD_LIMIT)
        if ier != 0 or not math.isfinite(val) or (val != 0.0 and err > 1e-6 * abs(val)):
            raise NumericError(
                f"kernel quadrature did not converge on [{lo}, {hi}] "
                f"(value={val}, err={err}, ier={ier})"
            )
        return val


@dataclass(frozen=True)
class KernelMoments:
    sigma2_local: float
    cell_edges: np.ndarray
    mass_mid: np.ndarray
    tail_mass: float


def kernel_moments(kernel: LevyKernel, h: float, R: float) -> KernelMoments:
    """Split the integrability profile of j at scales h and R.

    Returns the local second moment below h, per-cell masses on [h, R]
    (cells of width h, last cell truncated at R), and the tail mass
    beyond R.  All three are nonnegative.
    """
    if not (0.0 < h < R):
        raise ConfigurationError("kernel_moments requires 0 < h < R")
    n_cells = int(math.ceil((R - h) / h - 1e-12))
    edges = np.minimum(h + h * np.arange(n_cells + 1), R)
    return KernelMoments(
        sigma2_local=kernel.sigma2_local(h),
        cell_edges=edges,
        mass_mid=kernel.cell_masses(edges),
        tail_mass=kernel.tail_mass(R),
    )
