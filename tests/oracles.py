"""Independent oracles used by the tests.

Everything here deliberately avoids the package's assembly/solve paths:
symbols are recovered from kernels by adaptive quadrature of the
multiplier integral, and operator values by direct quadrature of the
singular integral on callables.  Killed paths are stepped one at a time
by a scalar loop instead of the batched path engine.
"""

import math

import numpy as np
from scipy import integrate


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

    Each step draws one subordinator increment, then one standard normal,
    from the sampler's generator and moves by ``sqrt(2 dS)`` times it; the
    first position outside the domain is kept.
    """
    xl, xr = domain
    pos = [x0]
    if not (xl < x0 < xr):
        return np.array(pos)
    x = x0
    for _ in range(int(round(horizon / dt_path))):
        ds = sampler.increments(dt_path, 1)[0]
        x = x + sampler.rng.standard_normal() * math.sqrt(2.0 * ds)
        pos.append(x)
        if not (xl < x < xr):
            break
    return np.array(pos)


def kanter_reference(rho: float, size: int, rng) -> np.ndarray:
    """One-sided stable draws by Kanter's formula written out as one expression.

    Draws ``size`` uniforms on (0, pi), then ``size`` unit exponentials, from
    ``rng``, as the package's sampler does for 0 < rho < 1.
    """
    u = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    return (np.sin(rho * u) / np.sin(u) ** (1.0 / rho)) * (
        np.sin((1.0 - rho) * u) / w
    ) ** ((1.0 - rho) / rho)
