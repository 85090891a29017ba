import math

import numpy as np
import pytest

from scipy.linalg import eigvalsh, toeplitz

from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    Grid1D,
    LevyKernel,
    NumericError,
    assemble,
    check_scaling,
    kernel_moments,
    v_profile,
)
from nonlocal_logistic.bernstein import fractional_density_constant

from oracles import cell_integrals_by_quad, symbol_from_kernel

CATALOG = [
    BernsteinSymbol("fractional", 1.0),
    BernsteinSymbol("fractional", 0.5),
    BernsteinSymbol("fractional", 2.0),
    BernsteinSymbol("relativistic", 1.0, m=1.0),
    BernsteinSymbol("sum_fractional", 1.0, beta=1.5),
    BernsteinSymbol("log_damped", 1.0, beta=0.5),
    BernsteinSymbol("log_boosted", 1.0, beta=0.5),
]


class TestPsiEval:
    def test_fractional_sqrt(self):
        assert BernsteinSymbol("fractional", 1.0).psi(4.0) == pytest.approx(2.0)

    def test_relativistic(self):
        sym = BernsteinSymbol("relativistic", 1.0, m=1.0)
        assert sym.psi(3.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [1e-8, 1.0, 1e3, 1e8, 1e12])
    def test_relativistic_without_cancellation(self, m):
        # at alpha = 1, psi(1) = sqrt(1 + m^2) - m = 1 / (sqrt(1 + m^2) + m)
        exact = 1.0 / (math.sqrt(1.0 + m * m) + m)
        value = BernsteinSymbol("relativistic", 1.0, m=m).psi(1.0)
        assert abs(value - exact) <= 4.0 * np.spacing(exact)

    def test_sum_fractional(self):
        sym = BernsteinSymbol("sum_fractional", 1.0, beta=1.5)
        assert sym.psi(16.0) == pytest.approx(12.0)

    @pytest.mark.parametrize("sym", CATALOG, ids=lambda s: s.kind + str(s.alpha))
    def test_zero_at_origin(self, sym):
        assert sym.psi(0.0) == 0.0

    @pytest.mark.parametrize("sym", CATALOG, ids=lambda s: s.kind + str(s.alpha))
    def test_increasing_and_concave(self, sym):
        x = np.logspace(-3, 3, 400)
        p = sym.psi(x)
        assert np.all(np.diff(p) > 0)
        # concavity in x: second difference of psi on a uniform-in-x triple
        xs = np.logspace(-3, 3, 60)
        hs = 1e-3 * xs
        second = sym.psi(xs + hs) + sym.psi(xs - hs) - 2.0 * sym.psi(xs)
        assert np.all(second <= 1e-8 * np.abs(sym.psi(xs)))

    def test_negative_x_rejected(self):
        with pytest.raises(ConfigurationError):
            BernsteinSymbol("fractional", 1.0).psi(-1.0)


class TestParameterRanges:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(kind="fractional", alpha=2.5), "alpha in (0, 2]"),
            (dict(kind="fractional", alpha=0.0), "alpha in (0, 2]"),
            (dict(kind="relativistic", alpha=2.0, m=1.0), "alpha in (0, 2)"),
            (dict(kind="relativistic", alpha=1.0, m=0.0), "m > 0"),
            (dict(kind="relativistic", alpha=1.0, m=1e200), "m^(2/alpha) within the float range"),
            (dict(kind="relativistic", alpha=0.5, m=1e-100), "m^(2/alpha) within the float range"),
            (dict(kind="sum_fractional", alpha=1.0, beta=2.5), "beta in (0, 2]"),
            (dict(kind="log_damped", alpha=1.0, beta=1.0), "beta in [0, alpha)"),
            (dict(kind="log_boosted", alpha=1.0, beta=1.5), "beta in (0, 2 - alpha)"),
            (dict(kind="gamma", alpha=1.0), "unknown symbol kind"),
        ],
    )
    def test_violations_name_the_range(self, kwargs, fragment):
        with pytest.raises(ConfigurationError, match=__import__("re").escape(fragment)):
            BernsteinSymbol(**kwargs)


class TestScaling:
    def test_pure_power_law_exact(self):
        rep = check_scaling(BernsteinSymbol("fractional", 1.0), np.logspace(0, 6, 25))
        assert rep.kappa1_emp == pytest.approx(0.5, abs=1e-12)
        assert rep.kappa2_emp == pytest.approx(0.5, abs=1e-12)
        assert rep.passed

    def test_sum_fractional_brackets(self):
        rep = check_scaling(
            BernsteinSymbol("sum_fractional", 1.0, beta=1.5), np.logspace(0, 6, 25)
        )
        assert 0.5 - 1e-12 <= rep.kappa1_emp <= rep.kappa2_emp <= 0.75 + 1e-12
        assert rep.passed

    def test_log_damped_brackets(self):
        rep = check_scaling(
            BernsteinSymbol("log_damped", 1.0, beta=0.5), np.logspace(0, 6, 25)
        )
        assert 0.25 - 1e-12 <= rep.kappa1_emp <= rep.kappa2_emp <= 0.5 + 1e-12
        assert rep.passed

    @pytest.mark.parametrize("sym", CATALOG, ids=lambda s: s.kind + str(s.alpha))
    def test_whole_catalog_passes(self, sym):
        assert check_scaling(sym, np.logspace(0, 6, 25)).passed

    def test_needs_ten_points(self):
        with pytest.raises(ConfigurationError):
            check_scaling(BernsteinSymbol("fractional", 1.0), np.logspace(0, 2, 5))


class TestLevyDensity:
    @staticmethod
    def _constant_by_scipy_gamma(alpha):
        from scipy.special import gamma

        return (alpha * 2.0 ** (alpha - 1.0) * gamma((1.0 + alpha) / 2.0)
                / (math.sqrt(math.pi) * gamma(1.0 - alpha / 2.0)))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_density_constant_exact_at_common_orders(self, alpha):
        assert fractional_density_constant(alpha) == self._constant_by_scipy_gamma(alpha)

    def test_density_constant_matches_scipy_gamma(self):
        alphas = np.linspace(0.0, 2.0, 401)[1:-1]
        ref = np.array([self._constant_by_scipy_gamma(a) for a in alphas])
        got = np.array([fractional_density_constant(a) for a in alphas])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_cauchy_value(self):
        kern = LevyKernel(BernsteinSymbol("fractional", 1.0))
        assert kern.density(2.0) == pytest.approx(1.0 / (math.pi * 4.0), rel=1e-12)

    def test_scaled_profile_value(self):
        # the log symbols' profile psi(r^-2) / r, here at r = 2
        kern = LevyKernel(BernsteinSymbol("log_damped", 1.0, beta=0.5))
        assert kern.density(2.0) == pytest.approx(0.5 * math.log(1.25) ** -0.25 / 2.0, rel=1e-14)

    def test_sum_is_sum_of_constants(self):
        kern = LevyKernel(BernsteinSymbol("sum_fractional", 1.0, beta=1.5))
        expect = fractional_density_constant(1.0) + fractional_density_constant(1.5)
        assert kern.density(1.0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 4.0])
    def test_fractional_multiplier_identity(self, frac1_kernel, frac1, xi):
        # the density reproduces its symbol through the cosine integral
        val = symbol_from_kernel(frac1_kernel, xi)
        assert val == pytest.approx(frac1.psi(xi * xi), rel=1e-4)

    @pytest.mark.parametrize("xi", [1.0, 2.0, 5.0])
    def test_cauchy_density_multiplier(self, frac1_kernel, xi):
        assert symbol_from_kernel(frac1_kernel, xi) == pytest.approx(xi, rel=1e-6)

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_sum_multiplier_identity(self, xi):
        sym = BernsteinSymbol("sum_fractional", 1.0, beta=1.5)
        kern = LevyKernel(sym)
        val = symbol_from_kernel(kern, xi)
        assert val == pytest.approx(sym.psi(xi * xi), rel=1e-4)

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
    def test_relativistic_multiplier_identity(self, xi):
        sym = BernsteinSymbol("relativistic", 1.0, m=2.0)
        kern = LevyKernel(sym)
        val = symbol_from_kernel(kern, xi)
        assert val == pytest.approx(sym.psi(xi * xi), rel=1e-5)

    def test_relativistic_small_mass_limit(self):
        rel = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1e-8))
        frac = LevyKernel(BernsteinSymbol("fractional", 1.0))
        r = np.array([0.1, 1.0, 3.0])
        assert np.allclose(rel.density(r), frac.density(r), rtol=1e-3)

    @pytest.mark.parametrize(
        "kern",
        [
            LevyKernel(BernsteinSymbol("fractional", 1.0)),
            LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1.0)),
            LevyKernel(BernsteinSymbol("log_boosted", 1.0, beta=0.5)),
        ],
        ids=["frac", "rel", "logboost"],
    )
    def test_positive_and_nonincreasing(self, kern):
        r = np.logspace(-3, 1.5, 200)
        j = kern.density(r)
        assert np.all(j > 0)
        assert np.all(np.diff(j) <= 0)

    def test_shift_bound_finite(self):
        r = np.linspace(1.0, 50.0, 99)
        exact = LevyKernel(BernsteinSymbol("fractional", 1.0))
        assert exact.shift_ratio_bound(r) <= 2.0 ** 2 + 1e-9

    @pytest.mark.parametrize("m, expect", [(5.0, 433.7672346620154), (10.0, 63398.23115912536)])
    def test_relativistic_shift_bound_values(self, m, expect):
        # the values of the direct ratio j(r) / j(r + 1), where it does not underflow
        kern = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=m))
        assert kern.shift_ratio_bound(np.linspace(1.0, 50.0, 99)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("m", [20.0, 50.0, 100.0])
    def test_relativistic_shift_bound_past_underflow(self, m):
        # j(51) underflows from m ~ 14 on; the ratio is still at least e^sqrt(theta)
        kern = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=m))
        b2 = kern.shift_ratio_bound(np.linspace(1.0, 50.0, 99))
        assert math.isfinite(b2) and b2 >= math.exp(m)

    def test_relativistic_shift_bound_overflow_raises(self):
        kern = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1000.0))
        with pytest.raises(NumericError, match="float range"):
            kern.shift_ratio_bound(np.linspace(1.0, 50.0, 99))

    def test_relativistic_shift_bound_unevaluable_bessel_raises(self):
        # kve gives NaN far out at m = 1e8: the message names the Bessel ratio
        kern = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1e8))
        with pytest.raises(NumericError, match=r"Bessel ratio .* could not be evaluated at \d+ of 99"):
            kern.shift_ratio_bound(np.linspace(1.0, 50.0, 99))


class TestKernelMoments:
    def test_local_second_moment_cauchy(self, frac1_kernel):
        mom = kernel_moments(frac1_kernel, h=0.1, R=10.0)
        assert mom.sigma2_local == pytest.approx(2.0 * 0.1 / math.pi, rel=1e-12)

    def test_tail_mass_cauchy(self, frac1_kernel):
        mom = kernel_moments(frac1_kernel, h=0.1, R=10.0)
        assert mom.tail_mass == pytest.approx(2.0 / (10.0 * math.pi), rel=1e-12)

    def test_split_consistent_with_global_quadrature(self):
        from scipy import integrate

        kern = LevyKernel(BernsteinSymbol("fractional", 0.5))
        h, R = 0.01, 100.0
        mom = kernel_moments(kern, h, R)
        assert mom.sigma2_local > 0 and mom.tail_mass > 0
        assert np.all(mom.mass_mid > 0)
        # reassemble integral of min(y^2, 1) j(|y|) dy from the same split
        edges = mom.cell_edges
        below = edges[1:] <= 1.0 + 1e-12
        mid = (
            kern.cell_second_moments(edges)[below].sum()
            + mom.mass_mid[~below].sum()
        )
        total = mom.sigma2_local + 2.0 * mid + mom.tail_mass
        direct = 2.0 * sum(
            integrate.quad(
                lambda r: min(r * r, 1.0) * kern.density(r), lo, hi,
                epsabs=0.0, epsrel=1e-12, limit=400,
            )[0]
            for lo, hi in [(0.0, 1.0), (1.0, np.inf)]
        )
        assert total == pytest.approx(direct, rel=1e-6)

    def test_integrability_of_profile_kernels(self):
        # min(y^2,1)-integrability holds numerically for scaled profiles
        kern = LevyKernel(BernsteinSymbol("log_boosted", 1.0, beta=0.5))
        mom = kernel_moments(kern, h=0.05, R=20.0)
        assert math.isfinite(mom.sigma2_local + mom.mass_mid.sum() + mom.tail_mass)

    def test_requires_ordered_scales(self, frac1_kernel):
        with pytest.raises(ConfigurationError):
            kernel_moments(frac1_kernel, h=1.0, R=0.5)


def _cell_edges(h: float, far: float = 4.0) -> tuple[np.ndarray, np.ndarray]:
    """Second-moment cells ((k - 1/2) h, (k + 1/2) h] of the assembly up to
    ``far``, and mass cells (k h, (k + 1) h] from h to ``far``."""
    n_cells = int(round(far / h))
    return (np.arange(n_cells + 1) + 0.5) * h, h + h * np.arange(n_cells)


QUAD_KERNELS = [
    LevyKernel(BernsteinSymbol("relativistic", a, m=m))
    for a in (0.5, 1.0, 1.5) for m in (0.1, 1.0, 10.0)
] + [
    LevyKernel(BernsteinSymbol("log_damped", 1.0, beta=0.5)),
    LevyKernel(BernsteinSymbol("log_boosted", 1.0, beta=0.5)),
]


class TestCellIntegrals:
    """The vectorized Gauss-Legendre pass against one adaptive quad per cell."""

    @pytest.mark.parametrize("kern", QUAD_KERNELS,
                             ids=lambda k: f"{k.symbol.kind}-{k.symbol.alpha}-{k.symbol.m}")
    # the fine grid only near the singularity, to bound the reference's quad calls
    @pytest.mark.parametrize("h, far", [(2.0 / 200, 4.0), (2.0 / 1600, 0.5)])
    def test_matches_adaptive_reference_per_cell(self, kern, h, far):
        moment_edges, mass_edges = _cell_edges(h, far)
        got = kern.cell_second_moments(moment_edges)
        ref = cell_integrals_by_quad(lambda r: r * r * kern.density(r), moment_edges)
        assert np.all(ref > 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12
        got = kern.cell_masses(mass_edges)
        ref = cell_integrals_by_quad(kern.density, mass_edges)
        assert np.all(ref > 0)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("alpha, m, n, unresolved", [(1.5, 1e4, 63, 48), (1.0, 1000.0, 199, 1)])
    def test_fallback_runs_on_unresolved_cells_only(self, monkeypatch, alpha, m, n, unresolved):
        kern = LevyKernel(BernsteinSymbol("relativistic", alpha, m=m))
        edges, _ = _cell_edges(2.0 / (n + 1))
        calls = []
        quad = LevyKernel._quad

        def counted(self, f, lo, hi):
            calls.append(lo)
            return quad(self, f, lo, hi)

        monkeypatch.setattr(LevyKernel, "_quad", counted)
        got = kern.cell_second_moments(edges)
        assert len(calls) == unresolved
        ref = cell_integrals_by_quad(lambda r: r * r * kern.density(r), edges)
        positive = ref > 0
        assert np.all(positive[np.isin(edges[:-1], calls)])
        assert np.max(np.abs(got - ref)[positive] / ref[positive]) <= 1e-12
        # cells past the underflow of the density are exactly 0 on both routes
        assert np.all(got[~positive] == 0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_non_finite_cell_raises(self):
        class Planted(LevyKernel):
            def density(self, r):
                r = np.asarray(r, dtype=float)
                return np.where((r > 0.3) & (r < 0.31), np.nan, super().density(r))

        kern = Planted(BernsteinSymbol("relativistic", 1.0, m=1.0))
        edges, mass_edges = _cell_edges(0.01)
        with pytest.raises(NumericError, match="did not converge"):
            kern.cell_second_moments(edges)
        with pytest.raises(NumericError, match="did not converge"):
            kern.cell_masses(mass_edges)

    def test_relativistic_column_and_lambda1_match_reference(self):
        kern = LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1.0))
        grid = Grid1D(-1.0, 1.0, 199)
        op = assemble(grid, kern, far_cutoff=4.0)
        # the assembly's column from per-cell adaptive quadrature
        h = grid.h
        edges, _ = _cell_edges(h)
        k = np.arange(1, edges.size)
        weights = cell_integrals_by_quad(lambda r: r * r * kern.density(r), edges) / (k * h) ** 2
        s = kern.sigma2_local(h / 2.0) / (2.0 * h * h)
        ref = np.zeros(grid.n_interior)
        ref[0] = 2.0 * s + 2.0 * weights.sum() + kern.tail_mass(edges[-1])
        ref[1:] = -weights[: grid.n_interior - 1]
        ref[1] -= s
        assert np.max(np.abs(op.col - ref) / np.abs(ref)) <= 1e-13
        lam = eigvalsh(toeplitz(op.col), subset_by_index=[0, 0])[0]
        lam_ref = eigvalsh(toeplitz(ref), subset_by_index=[0, 0])[0]
        assert lam == pytest.approx(lam_ref, rel=1e-12)


class TestVProfile:
    def test_fractional_values(self):
        assert v_profile(BernsteinSymbol("fractional", 1.0), 0.25) == pytest.approx(0.5)
        assert v_profile(BernsteinSymbol("fractional", 2.0), 0.1) == pytest.approx(0.1)

    @pytest.mark.parametrize("sym", CATALOG, ids=lambda s: s.kind + str(s.alpha))
    def test_zero_at_origin_and_increasing(self, sym):
        assert v_profile(sym, 0.0) == 0.0
        r = np.linspace(1e-4, 2.0, 300)
        assert np.all(np.diff(v_profile(sym, r)) > 0)

    @pytest.mark.parametrize("sym", CATALOG, ids=lambda s: s.kind + str(s.alpha))
    def test_scaling_induced_two_sided_bound(self, sym):
        # ratios over 0 < r <= R <= 1 obey the declared power bounds with
        # constant sqrt(b1)
        r = np.logspace(-3, 0, 30)
        v = v_profile(sym, r)
        i, j = np.triu_indices(r.size, k=1)
        ratio = v[j] / v[i]
        t = r[j] / r[i]
        c = math.sqrt(sym.b1) * (1.0 + 1e-9)
        assert np.all(ratio <= c * t ** sym.kappa2)
        assert np.all(ratio >= t ** sym.kappa1 / c)
