import numpy as np
import pytest

from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    LevyKernel,
    OracleDomainError,
    PeriodicBox,
    assemble,
    build_grid,
    green_solve,
    multiplier_oracle,
    oracle_on_grid,
    v_profile,
)

from oracles import mollifier, operator_by_quadrature


def _frac_op(n, alpha=1.0, interval=(-1.0, 1.0)):
    sym = BernsteinSymbol("fractional", alpha)
    grid = build_grid(*interval, n)
    return assemble(grid, LevyKernel(sym, "exact"), far_cutoff=2.0 * grid.width)


class TestAssembly:
    def test_far_cutoff_precondition(self):
        grid = build_grid(-1.0, 1.0, 9)
        kern = LevyKernel(BernsteinSymbol("fractional", 1.0), "exact")
        with pytest.raises(ConfigurationError, match="far_cutoff"):
            assemble(grid, kern, far_cutoff=3.9)

    def test_matrix_structure(self, op199):
        a = op199.matrix
        assert np.array_equal(a, a.T)
        off = a - np.diag(np.diag(a))
        assert np.all(off <= 0)
        assert np.all(np.diag(a) > 0)

    def test_row_sums_dominated_by_exterior_mass(self, op199):
        sums = op199.row_sums()
        assert sums.min() >= op199.tail_mass > 0
        # every node sees at least the mass beyond one interval width
        lower = 2.0 * op199.kernel.tail_mass(op199.grid.width + op199.grid.h) / 2.0
        assert sums.min() >= lower

    def test_strict_diagonal_dominance(self, op199):
        a = op199.matrix
        margins = 2.0 * np.diag(a) - np.abs(a).sum(axis=1)
        assert margins.min() > 0

    def test_scaled_profile_assembly_also_m_matrix(self):
        sym = BernsteinSymbol("log_boosted", 1.0, beta=0.5)
        grid = build_grid(-1.0, 1.0, 49)
        op = assemble(grid, LevyKernel(sym, "scaled_profile"), far_cutoff=4.0)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.all(off <= 0)
        assert op.row_sums().min() > 0


class TestApply:
    def test_zero_maps_to_zero(self, op199):
        assert np.all(op199.matrix @ np.zeros(op199.n) == 0.0)

    def test_linearity(self, op199):
        rng = np.random.default_rng(3)
        u, v = rng.standard_normal((2, op199.n))
        lhs = op199.matrix @ (u + v)
        rhs = op199.matrix @ u + op199.matrix @ v
        assert np.allclose(lhs, rhs, atol=1e-12 * np.abs(lhs).max())

    def test_eigen_residual(self, op199, eig199):
        res = op199.matrix @ eig199.phi - eig199.lam * eig199.phi
        assert np.abs(res).max() <= 1e-10 * np.abs(op199.matrix).sum(axis=1).max()

    def test_symmetry_of_form(self, op199):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal((2, op199.n))
        assert (op199.matrix @ u) @ v == pytest.approx(u @ (op199.matrix @ v), rel=1e-12)


class TestGreenSolve:
    def test_zero(self, op199):
        assert np.all(green_solve(op199, np.zeros(op199.n)) == 0.0)

    def test_residual_contract(self, op199):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(op199.n)
        u = green_solve(op199, f)
        res = np.abs(op199.matrix @ u - f).max()
        assert res <= 1e-10 * np.abs(f).max()

    def test_torsion_positive_with_bounded_gauge_ratio(self, op199, op399):
        for op in (op199, op399):
            u = green_solve(op, np.ones(op.n))
            assert np.all(u > 0)
        # gauge ratio stays bounded under refinement (comparability, not equality)
        r199 = green_solve(op199, np.ones(op199.n)) / v_profile(
            op199.symbol, op199.grid.delta
        )
        r399 = green_solve(op399, np.ones(op399.n)) / v_profile(
            op399.symbol, op399.grid.delta
        )
        assert r399.max() <= 1.25 * r199.max()

    def test_inverse_positivity(self):
        op = _frac_op(49)
        inv = np.linalg.inv(op.matrix)
        assert inv.min() >= -1e-14

    def test_discrete_comparison(self, op199):
        # ordered data produce ordered solutions
        rng = np.random.default_rng(5)
        f_lo = rng.uniform(0.0, 1.0, op199.n)
        f_hi = f_lo + rng.uniform(0.0, 1.0, op199.n)
        u_lo = green_solve(op199, f_lo)
        u_hi = green_solve(op199, f_hi)
        assert np.all(u_lo <= u_hi + 1e-14)


class TestMultiplierOracle:
    def test_zero(self, op199):
        box = PeriodicBox(op199.grid, pad=2)
        out = multiplier_oracle(op199.symbol, np.zeros(box.n_points), box)
        assert np.all(out == 0.0)

    def test_support_contract(self, op199):
        box = PeriodicBox(op199.grid, pad=1)
        bad = np.ones(box.n_points)
        with pytest.raises(OracleDomainError):
            multiplier_oracle(op199.symbol, bad, box)

    def test_laplacian_case_matches_second_difference(self):
        # psi(x) = x is the negative Laplacian; the spectral values agree
        # with central second differences at second order in h
        sym = BernsteinSymbol("fractional", 2.0)
        errs = []
        for n in (199, 399, 799):
            grid = build_grid(-1.0, 1.0, n)
            vals = oracle_on_grid(sym, grid, mollifier, pad=2)
            upad = mollifier(np.concatenate(([grid.x_left], grid.nodes, [grid.x_right])))
            lap = -(upad[2:] + upad[:-2] - 2.0 * upad[1:-1]) / grid.h ** 2
            errs.append(np.abs(vals - lap).max() / np.abs(lap).max())
        assert errs[0] <= 0.05
        assert errs[1] <= errs[0] / 3.0 and errs[2] <= errs[1] / 3.0

    def test_matches_direct_quadrature(self, op799):
        vals = oracle_on_grid(
            op799.symbol, op799.grid,
            lambda x: np.exp(-x ** 2 / (2 * 0.2 ** 2)),
            pad=12, kernel=op799.kernel,
        )
        gauss = lambda z: float(np.exp(-z ** 2 / (2 * 0.2 ** 2)))
        for x in (-0.4, -0.1, 0.0, 0.2, 0.5):
            i = int(round((x - op799.grid.x_left) / op799.grid.h)) - 1
            ref = operator_by_quadrature(op799.kernel, gauss, op799.grid.nodes[i])
            assert vals[i] == pytest.approx(ref, rel=1e-4)

    def test_consistency_order(self):
        errs = []
        for n in (99, 199, 399, 799):
            op = _frac_op(n)
            ref = oracle_on_grid(op.symbol, op.grid, mollifier, pad=6, kernel=op.kernel)
            val = op.matrix @ mollifier(op.grid.nodes)
            errs.append(np.linalg.norm(val - ref) / np.linalg.norm(ref))
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
