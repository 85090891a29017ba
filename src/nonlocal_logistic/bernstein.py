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

Exact closed-form densities exist for ``fractional`` (and sums of them)
and for ``relativistic`` (a tempered Bessel-K form).  Every other symbol
falls back to the comparable scaled profile ``j(r) ~ psi(r^-2) / r``.

Integrals of a density over the cells of a grid (masses and second
moments) are closed forms for power laws and their sums.  For the Bessel
form and the scaled profiles every cell is integrated in one vectorized
pass by the 20-point Gauss-Legendre rule, checked against the 10-point
rule on the same cell; only a cell where the two disagree goes to adaptive
``quad``, as do the near-field second moment and the tail mass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as _gamma, kv as _bessel_k, kve as _bessel_ke

from .errors import ConfigurationError, NumericError, UnsupportedKernelError

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
        * _gamma((1.0 + alpha) / 2.0)
        / (math.sqrt(math.pi) * _gamma(1.0 - alpha / 2.0))
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
            theta = self.m ** (2.0 / a)
            out = (x + theta) ** (a / 2.0) - self.m
        elif self.kind == "sum_fractional":
            out = x ** (a / 2.0) + x ** (self.beta / 2.0)
        elif self.kind == "log_damped":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(x > 0, x ** (a / 2.0) * np.log1p(x) ** (-self.beta / 2.0), 0.0)
        else:  # log_boosted
            out = x ** (a / 2.0) * np.log1p(x) ** (self.beta / 2.0)
        return out if out.ndim else float(out)

    def psi_deriv(self, x):
        """First derivative of psi (positive and decreasing: psi is concave)."""
        x = np.asarray(x, dtype=float)
        a = self.alpha
        if self.kind == "fractional":
            out = (a / 2.0) * x ** (a / 2.0 - 1.0)
        elif self.kind == "relativistic":
            theta = self.m ** (2.0 / a)
            out = (a / 2.0) * (x + theta) ** (a / 2.0 - 1.0)
        elif self.kind == "sum_fractional":
            b = self.beta
            out = (a / 2.0) * x ** (a / 2.0 - 1.0) + (b / 2.0) * x ** (b / 2.0 - 1.0)
        else:
            sgn = -1.0 if self.kind == "log_damped" else 1.0
            b = sgn * self.beta
            lg = np.log1p(x)
            out = x ** (a / 2.0 - 1.0) * lg ** (b / 2.0 - 1.0) * (
                (a / 2.0) * lg + (b / 2.0) * x / (1.0 + x)
            )
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

    ``mode="exact"`` uses the closed form (available for fractional,
    sum_fractional with both orders < 2, and relativistic); ``mode=
    "scaled_profile"`` uses ``normalization * psi(r^-2) / r``, which is
    comparable to the true density with symbol-dependent constants.
    """

    symbol: BernsteinSymbol
    mode: str = "exact"
    normalization: float = 1.0

    def __post_init__(self):
        if self.mode not in ("exact", "scaled_profile"):
            raise ConfigurationError(f"unknown kernel mode {self.mode!r}")
        if self.normalization <= 0:
            raise ConfigurationError("kernel normalization must be positive")
        if self.mode == "exact":
            self._exact_parts()  # validates availability

    def _exact_parts(self) -> list[tuple[float, float]]:
        """(constant, alpha) pairs for pure power-law exact densities."""
        s = self.symbol
        if s.kind == "fractional":
            if s.alpha >= 2.0:
                raise UnsupportedKernelError(
                    "fractional alpha=2 is the local Laplacian and has no jump "
                    "density; use mode='scaled_profile'"
                )
            return [(fractional_density_constant(s.alpha), s.alpha)]
        if s.kind == "sum_fractional":
            if max(s.alpha, s.beta) >= 2.0:
                raise UnsupportedKernelError(
                    "sum_fractional exact density needs both orders < 2; "
                    "use mode='scaled_profile'"
                )
            return [
                (fractional_density_constant(s.alpha), s.alpha),
                (fractional_density_constant(s.beta), s.beta),
            ]
        if s.kind == "relativistic":
            return []  # Bessel form, handled separately
        raise UnsupportedKernelError(
            f"no exact density for {s.kind!r}; use mode='scaled_profile'"
        )

    def density(self, r):
        """j(r) for r > 0 (scalar or array); positive and nonincreasing."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ConfigurationError("levy density requires r > 0")
        if self.mode == "scaled_profile":
            out = self.normalization * self.symbol.psi(r ** -2.0) / r
            return out if out.ndim else float(out)
        s = self.symbol
        if s.kind == "relativistic":
            # tempered form: the stable density damped by the subordinator tilt
            a = s.alpha
            theta = s.m ** (2.0 / a)
            nu = (1.0 + a) / 2.0
            const = a / (2.0 * math.sqrt(math.pi) * _gamma(1.0 - a / 2.0))
            z = math.sqrt(theta) * r
            out = const * (2.0 * math.sqrt(theta) / r) ** nu * _bessel_k(nu, z)
            return out if out.ndim else float(out)
        out = np.zeros_like(r)
        for c, alpha in self._exact_parts():
            out = out + c * r ** (-1.0 - alpha)
        return out if out.ndim else float(out)

    # -- integrals against j ------------------------------------------------

    def _power_parts(self) -> list[tuple[float, float]] | None:
        """Power-law representation c * r^(-1-alpha) when one exists."""
        if self.mode == "exact":
            if self.symbol.kind == "relativistic":
                return None
            return self._exact_parts()
        if self.symbol.kind == "fractional":
            return [(self.normalization, self.symbol.alpha)]
        if self.symbol.kind == "sum_fractional":
            return [(self.normalization, self.symbol.alpha),
                    (self.normalization, self.symbol.beta)]
        return None

    def _second_moment_parts(self) -> list[tuple[float, float]] | None:
        """``_power_parts``, rejecting an order 2, whose second moment near 0 diverges."""
        parts = self._power_parts()
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
        parts = self._power_parts()
        if parts is not None:
            return sum(2.0 * (c / a) * R ** (-a) for c, a in parts)
        return 2.0 * self._quad(lambda r: self.density(r), R, np.inf)

    def cell_masses(self, edges) -> np.ndarray:
        """One-sided masses integral_{e_k}^{e_{k+1}} j(r) dr per cell."""
        edges = np.asarray(edges, dtype=float)
        parts = self._power_parts()
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
        if self.mode == "scaled_profile" or s.kind != "relativistic":
            return float(np.max(self.density(r) / self.density(r + 1.0)))
        # log j(r) - log j(r+1) with K_nu(z) = kve(nu, z) e^-z, z = sqrt(theta) r
        nu = (1.0 + s.alpha) / 2.0
        sq = s.m ** (1.0 / s.alpha)
        log_ratio = float(np.max(
            nu * np.log1p(1.0 / r)
            + np.log(_bessel_ke(nu, sq * r)) - np.log(_bessel_ke(nu, sq * (r + 1.0)))
            + sq
        ))
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
        val, err = integrate.quad(f, lo, hi, epsrel=QUAD_RTOL, epsabs=0.0, limit=QUAD_LIMIT)
        if not math.isfinite(val) or (val != 0.0 and err > 1e-6 * abs(val)):
            raise NumericError(
                f"kernel quadrature did not converge on [{lo}, {hi}] "
                f"(value={val}, err={err})"
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
