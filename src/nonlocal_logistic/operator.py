"""Dense Dirichlet-exterior discretization of psi(-Delta) on a Grid1D.

The assembled matrix A acts on interior node values with the zero
extension outside the interval.  Row i approximates

    (psi(-Delta) u)(x_i) =
        integral_0^inf (2 u(x_i) - u(x_i + r) - u(x_i - r)) j(r) dr

by a three-part split:

* ``r < h/2``: second-order Taylor collapse onto a central second
  difference weighted by the truncated second moment of j;
* mid cells ``[(k-1/2) h, (k+1/2) h]``: a node-coupled weight per cell.
  The weight is the cell's second moment of j divided by (k h)^2, which
  makes the stencil exact on locally quadratic data and keeps the scheme
  uniformly second order in h while preserving the M-matrix sign
  structure (plain cell masses lose accuracy as the integrability index
  approaches 2);
* beyond the far cutoff the zero exterior contributes only to the
  diagonal, as a lumped tail mass.

The cell second moments are closed forms for power-law densities; for the
Bessel form and the scaled profiles ``LevyKernel.cell_second_moments``
integrates all cells in one vectorized Gauss-Legendre pass, checked per
cell, with adaptive quadrature only for a cell that fails the check and for
the near-field moment and the tail mass.

A is symmetric, has nonpositive off-diagonal entries, strictly dominant
positive diagonal, hence an entrywise-nonnegative inverse (discrete
maximum principle).

The stencil depends only on the node offset, so A is symmetric Toeplitz
and is stored as its first column.  Products with A go through a circulant
embedding and the FFT.  Systems ``scale A + sigma I`` with a constant shift
are solved by Levinson recursion for the first column of the inverse,
then applied by the Gohberg-Semencul formula with FFTs (Gohberg & Semencul
1972; Chan & Ng, SIAM Review 38, 1996).  No dense A is kept: the only
dense matrix is the transient ``A + diag(d)`` that ``diag_solver`` factors
in place, always for a variable diagonal (Jacobians, eigen potentials, the
anti-maximum shift).  One
Gohberg-Semencul solve is four ``numpy.fft`` calls, bit for bit what
``scipy.fft`` gives, so no run imports ``scipy.fft``.  On one pinned CPU of
a 2-core host with one BLAS thread (medians of 10 blocks), a solve with
scipy's transforms took 33, 37, 67, 121 and 198 us at n = 63, 199, 799,
1599 and 3199, against 26 us for a dense Cholesky solve at n = 199.
Timed against scipy's in alternating blocks of one process, numpy's is
about 10-20% faster at n = 63, level at n = 199 and up to about 12% slower
from n = 799 to 3199.
Both of its factors, Cholesky (``potrf``/``potrs``) and LU
(``getrf``/``getrs``), are called in LAPACK directly.

LAPACK and the Levinson recursion (Levinson 1947) are scipy's compiled
modules ``scipy.linalg._flapack`` and ``scipy.linalg._solve_toeplitz``,
loaded from their files by :func:`_compiled` without running
``scipy/linalg/__init__.py``.  That package ``__init__`` does no linear
algebra, but its array-API shim imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and more: about half of a cold CLI start.  The objects are the
binaries ``scipy.linalg`` hands out, so every factor and solve is bit for
bit scipy's, and a later ``import scipy.linalg`` reuses the modules
registered in ``sys.modules``.  ``toeplitz`` is scipy's strided
construction in numpy.  The independent Fourier-multiplier oracle that
checks this assembly lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import as_strided

from .bernstein import BernsteinSymbol, LevyKernel
from .errors import ConfigurationError, DimensionError, NumericError
from .grid import Grid1D


def _compiled(name: str):
    """The compiled module ``scipy.linalg.<name>``, without the package ``__init__``.

    A module already in ``sys.modules`` is reused; otherwise the extension
    file in scipy's ``linalg/`` directory is loaded and registered there, so
    a later ``import scipy.linalg`` reuses it.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    linalg = Path(find_spec("scipy").origin).parent / "linalg"
    for path in (linalg / (name + suffix) for suffix in EXTENSION_SUFFIXES):
        if path.is_file():
            loader = ExtensionFileLoader(fullname, str(path))
            module = module_from_spec(spec_from_file_location(fullname, path, loader=loader))
            loader.exec_module(module)
            sys.modules[fullname] = module
            return module
    suffixes = ", ".join(EXTENSION_SUFFIXES)
    raise ImportError(f"no compiled {fullname} at {linalg / name} + one of {suffixes}",
                      name=fullname, path=str(linalg / name))


_flapack = _compiled("_flapack")
levinson = _compiled("_solve_toeplitz").levinson


def get_lapack_funcs(names, arrays):
    """The double-precision LAPACK routines ``names``; ``arrays`` only mirrors scipy's call.

    Every system here is float64, so each name maps to ``_flapack.d<name>``:
    the objects ``scipy.linalg.get_lapack_funcs`` returns for float64 arrays.
    """
    return tuple(getattr(_flapack, "d" + name) for name in names)


def toeplitz(col: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column ``col``, as ``scipy.linalg.toeplitz``."""
    n = len(col)
    vals = np.concatenate((col[::-1], col[1:]))
    stride = vals.strides[0]
    return as_strided(vals[n - 1:], shape=(n, n), strides=(-stride, stride)).copy()


def _fast_len(target: int) -> int:
    """The smallest 5-smooth length ``2^a 3^b 5^c >= target``: a fast real FFT size.

    The same rule as ``scipy.fft.next_fast_len(target, real=True)``, without
    importing ``scipy.fft``.
    """
    best = 1 << (target - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            size = p35
            while size < target:
                size *= 2
            best = min(best, size)
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_row_sums(col: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric Toeplitz matrix with first column ``col``."""
    partial = np.concatenate(([0.0], np.cumsum(col[1:])))
    return col[0] + partial + partial[::-1]


@dataclass(eq=False)
class OperatorMatrix:
    """Assembled operator on its grid, stored as the first column of A;
    treat as immutable."""

    grid: Grid1D
    kernel: LevyKernel
    col: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n_interior

    @property
    def symbol(self) -> BernsteinSymbol:
        return self.kernel.symbol

    @property
    def matrix(self) -> np.ndarray:
        """A fresh dense A on every read (dumps, references); products use :meth:`matvec`."""
        return toeplitz(self.col)

    @cached_property
    def _circulant(self) -> tuple[int, np.ndarray]:
        """FFT length and eigenvalues of a circulant that embeds A."""
        n = self.n
        size = _fast_len(2 * n - 1)
        first = np.zeros(size)
        first[:n] = self.col
        first[size - n + 1:] = self.col[:0:-1]
        return size, rfft(first).real

    @cached_property
    def _green_solver(self):
        return self.solver(0.0)

    def radii(self) -> np.ndarray:
        """Off-diagonal absolute row sums: the Gershgorin radii of any ``A + diag(d)``."""
        return toeplitz_row_sums(np.abs(self.col)) - abs(self.col[0])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v by the circulant embedding, O(n log n)."""
        size, spectrum = self._circulant
        return irfft(rfft(v, size) * spectrum, size)[: self.n]

    def solver(self, sigma: float, scale: float = 1.0):
        """A function solving ``(scale A + sigma I) x = b``; the system must be SPD.

        Levinson recursion gives the first column x of the inverse once, in
        O(n^2).  With w = (0, x_{n-1}, ..., x_1) and L(v) the lower triangular
        Toeplitz matrix with first column v, the Gohberg-Semencul formula
        ``x_0 T^{-1} = L(x) L(x)^T - L(w) L(w)^T`` then applies the inverse
        with four ``numpy.fft`` calls of length >= 2n per solve: ``b``
        forward, both correlations ``L(x)^T b`` and ``L(w)^T b`` back and
        forth as one batch of two rows, and the combination back.  numpy
        transforms each row of a batch bit for bit as it would transform it
        alone, and as ``scipy.fft`` would.
        """
        n = self.n
        t = scale * self.col
        t[0] += sigma
        e1 = np.zeros(n)
        e1[0] = 1.0
        try:
            x = levinson(np.concatenate((t[:0:-1], t)), e1)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Toeplitz solve failed: {exc}") from exc
        if not (np.all(np.isfinite(x)) and x[0] > 0):
            raise NumericError(f"scale A + sigma I is not positive definite (sigma={sigma})")
        w = np.zeros(n)
        w[1:] = x[:0:-1]
        size = _fast_len(2 * n)
        root = np.sqrt(x[0])
        fx, fw = rfft(x, size) / root, rfft(w, size) / root
        conj = np.stack((fx.conj(), fw.conj()))

        def solve(b: np.ndarray) -> np.ndarray:
            # L(v)^T b is a correlation: the conjugate spectrum, first n lags
            lags = irfft(conj * rfft(b, size), size)
            lags[:, n:] = 0.0
            fp, fq = rfft(lags)
            return irfft(fx * fp - fw * fq, size)[:n]

        return solve

    def shifted(self, d) -> np.ndarray:
        """The one dense system: a fresh C-ordered ``A + diag(d)``, d scalar or length n.

        The diagonal is added once, so ``A_ii - v`` rounds as ``A_ii + (-v)``.
        """
        d = np.asarray(d, dtype=float)
        if d.ndim and d.shape != (self.n,):
            raise DimensionError(f"diagonal must be scalar or length {self.n}, got shape {d.shape}")
        out = self.matrix
        out[np.diag_indices(self.n)] += d
        return out

    def diag_solver(self, d, definite: bool = True):
        """A function solving ``(A + diag(d)) x = b`` by a dense factor.

        The system comes from :meth:`shifted`; it is symmetric, so its
        transpose is the Fortran-ordered array LAPACK factors in place, with
        no further n x n copy.  A non-finite diagonal raises
        :class:`NumericError` before any factor; the rest is the assembled
        column, so no factor rescans the system.  With ``definite`` it is a
        Cholesky factor; a failed factor (not positive definite) and a
        non-finite right-hand side raise :class:`NumericError`.  Otherwise it
        is an LU factor: exact singularity raises :class:`NumericError`, and
        the returned function has a method ``gap()``, LAPACK's ``gecon``
        estimate of the 1-norm distance to the nearest singular matrix,
        computed only on request.
        """
        m = self.shifted(d).T
        if not np.all(np.isfinite(np.diagonal(m))):
            raise NumericError("A + diag(d) has a non-finite diagonal")
        if definite:
            potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (m,))
            factor, info = potrf(m, lower=False, overwrite_a=True, clean=False)
            if info > 0:
                raise NumericError(
                    f"A + diag(d) is not positive definite (leading minor {info})"
                )

            def cholesky_solve(b: np.ndarray) -> np.ndarray:
                if not np.all(np.isfinite(b)):
                    raise NumericError("right-hand side of A + diag(d) is non-finite")
                return potrs(factor, b, lower=False)[0]

            return cholesky_solve
        getrf, getrs, gecon = get_lapack_funcs(("getrf", "getrs", "gecon"), (m,))
        lu, piv, info = getrf(m, overwrite_a=True)
        if info > 0:
            raise NumericError(f"A + diag(d) is exactly singular (pivot {info} is zero)")

        def solve(b: np.ndarray) -> np.ndarray:
            return getrs(lu, piv, b)[0]

        def gap() -> float:
            # 1-norm of the system from the column (it is symmetric); its
            # diagonal as shifted() forms it
            anorm = float(np.max(self.radii() + np.abs(self.col[0] + np.asarray(d, dtype=float))))
            return float(gecon(lu, anorm, norm="1")[0] * anorm)

        solve.gap = gap
        return solve


def assemble(grid: Grid1D, kernel: LevyKernel, far_cutoff: float) -> OperatorMatrix:
    """Assemble the symmetric Toeplitz discretization of psi(-Delta).

    ``far_cutoff`` must be at least twice the interval width so that the
    lumped far field only ever multiplies exterior (zero) data.
    """
    if far_cutoff < 2.0 * grid.width:
        raise ConfigurationError(
            f"far_cutoff {far_cutoff} must be >= 2 * width = {2.0 * grid.width}"
        )
    n, h = grid.n_interior, grid.h
    n_cells = int(round(far_cutoff / h))
    k = np.arange(1, n_cells + 1)
    edges = (np.arange(n_cells + 1) + 0.5) * h
    weights = kernel.cell_second_moments(edges) / (k * h) ** 2
    sigma2 = kernel.sigma2_local(h / 2.0)
    tail = kernel.tail_mass(edges[-1])

    s = sigma2 / (2.0 * h * h)
    col = np.zeros(n)
    col[0] = 2.0 * s + 2.0 * weights.sum() + tail
    m = min(n_cells, n - 1)
    col[1 : m + 1] = -weights[:m]
    col[1] -= s
    return OperatorMatrix(grid=grid, kernel=kernel, col=col)


def green_solve(op: OperatorMatrix, f: np.ndarray) -> np.ndarray:
    """Solve A u = f: the discrete Green operator.

    Inverse positivity of the M-matrix gives u >= 0 whenever f >= 0.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise DimensionError(f"expected vector of length {op.n}, got shape {f.shape}")
    u = op._green_solver(f)
    if not np.all(np.isfinite(u)):
        raise NumericError("green_solve produced non-finite values")
    return u
