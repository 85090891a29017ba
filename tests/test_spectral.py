import numpy as np
import pytest
from scipy.linalg import eigh

from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    ConvergenceError,
    Grid1D,
    LevyKernel,
    SpectralProximityError,
    antimaximum_profile,
    antimaximum_window,
    assemble,
    principal_eigenpair,
)


class TestPrincipalEigenpair:
    def test_positive_pair(self, op199, eig199):
        assert eig199.lam > 0
        assert np.all(eig199.phi > 0)
        assert eig199.phi.max() == pytest.approx(1.0)
        assert eig199.residual <= 1e-12 * np.abs(op199.matrix).sum(axis=1).max()

    def test_matches_dense_solver(self, op199, eig199):
        w = eigh(op199.matrix, eigvals_only=True, subset_by_index=[0, 0])
        assert eig199.lam == pytest.approx(w[0], rel=1e-12)

    def test_refinement_stability_three_digits(self, op799, eig799):
        grid = Grid1D(-1.0, 1.0, 1599)
        kern = LevyKernel(BernsteinSymbol("fractional", 1.0))
        op_fine = assemble(grid, kern, far_cutoff=2.0 * grid.width)
        lam_fine = eigh(op_fine.matrix, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert abs(eig799.lam - lam_fine) / lam_fine < 5e-4

    def test_constant_potential_shifts_eigenvalue_only(self, op199, eig199):
        gamma = 0.7
        pair = principal_eigenpair(op199, c=gamma, tol=1e-12)
        assert pair.lam == pytest.approx(eig199.lam - gamma, abs=1e-10)
        assert np.abs(pair.phi - eig199.phi).max() < 1e-8

    def test_potential_monotonicity(self, op199):
        rng = np.random.default_rng(0)
        c1 = rng.uniform(0.0, 1.0, op199.n)
        c2 = c1 + rng.uniform(0.0, 1.0, op199.n)
        lam1 = principal_eigenpair(op199, c=c1).lam
        lam2 = principal_eigenpair(op199, c=c2).lam
        assert lam1 >= lam2

    def test_rayleigh_quotient_lower_bound(self, op199, eig199):
        rng = np.random.default_rng(1)
        for _ in range(20):
            psi = rng.standard_normal(op199.n)
            quotient = psi @ (op199.matrix @ psi) / (psi @ psi)
            assert quotient >= eig199.lam - 1e-10

    def test_eigenvalue_characterization(self, op199, eig199):
        # below lam1 the eigenfunction itself certifies the inequality
        mu = 0.9 * eig199.lam
        assert np.all(op199.matrix @ eig199.phi - mu * eig199.phi >= -1e-10)
        # above lam1 no positive trial function satisfies it
        mu = 1.1 * eig199.lam
        rng = np.random.default_rng(2)
        trials = rng.uniform(0.05, 1.0, size=(1000, op199.n))
        gaps = (op199.matrix @ trials.T).T - mu * trials
        assert not np.any(np.all(gaps >= 0, axis=1))

    def test_simplicity_gap_refinement_stable(self, op199, op399):
        gaps = []
        for op in (op199, op399):
            w = eigh(op.matrix, eigvals_only=True, subset_by_index=[0, 1])
            gaps.append(w[1] - w[0])
        assert min(gaps) > 0.5
        assert abs(gaps[1] - gaps[0]) < 0.05 * gaps[0]

    def test_even_symmetry(self, eig199):
        assert np.abs(eig199.phi - eig199.phi[::-1]).max() < 1e-8

    def test_tolerance_below_rounding_floor_fails_fast(self, op399):
        # the FFT residual bottoms out near 1e-13 at n = 399: a stalled run
        # must raise well before the iteration cap, naming the floor it reached
        with pytest.raises(ConvergenceError, match=r"rounding floor: best residual \d"):
            principal_eigenpair(op399, tol=1e-14, maxiter=500)

    def test_tolerance_below_dense_rounding_floor_fails_fast(self, op399):
        # a potential takes the dense path, whose residual bottoms out near 3e-13
        with pytest.raises(ConvergenceError, match=r"rounding floor: best residual \d"):
            principal_eigenpair(op399, c=np.zeros(op399.n), tol=1e-13, maxiter=500)


class TestAntimaximum:
    def test_below_spectrum_positive(self, op199, eig199):
        prof = antimaximum_profile(op199, None, -np.ones(op199.n), 0.5 * eig199.lam)
        assert np.all(prof.u > 0)
        assert not prof.negative

    def test_just_above_negative_ratio(self, op199, eig199):
        prof = antimaximum_profile(op199, None, -np.ones(op199.n), 1.01 * eig199.lam)
        assert prof.negative
        assert prof.max_ratio < 0

    def test_blowup_aligns_with_eigenfunction(self, op199, eig199):
        lam = (1.0 + 1e-6) * eig199.lam
        prof = antimaximum_profile(op199, None, -np.ones(op199.n), lam, gap_floor=1e-9)
        direction = prof.u / np.abs(prof.u).max()
        assert np.abs(direction + eig199.phi).max() < 1e-3

    def test_proximity_guard(self, op199, eig199):
        with pytest.raises(SpectralProximityError):
            antimaximum_profile(op199, None, -np.ones(op199.n), eig199.lam + 1e-12)

    def test_non_finite_shift_rejected(self, op199):
        c = np.zeros(op199.n)
        c[3] = np.inf
        for lam, pot in ((np.nan, None), (0.1, c)):
            with pytest.raises(ConfigurationError, match="finite"):
                antimaximum_profile(op199, pot, -np.ones(op199.n), lam)

    def test_forcing_sign_validated(self, op199):
        with pytest.raises(ConfigurationError):
            antimaximum_profile(op199, None, np.ones(op199.n), 0.1)
        with pytest.raises(ConfigurationError):
            antimaximum_profile(op199, None, np.zeros(op199.n), 0.1)

    def test_non_finite_forcing_rejected(self, op199, eig199):
        # a NaN entry passes the sign checks; unchecked, every node of u is NaN
        for bad in (np.nan, -np.inf):
            f = -np.ones(op199.n)
            f[5] = bad
            with pytest.raises(ConfigurationError, match="finite"):
                antimaximum_profile(op199, None, f, 0.5 * eig199.lam)

    def test_window_nonempty(self, op199, eig199):
        lam1, lam_hi = antimaximum_window(op199, eigenpair=eig199)
        assert lam_hi > lam1 * 1.01
