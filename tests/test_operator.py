import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.linalg import cho_factor, cho_solve, eigh, get_lapack_funcs, toeplitz

import nonlocal_logistic
from nonlocal_logistic import compiled
from nonlocal_logistic import operator as operator_module
from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    DimensionError,
    EigenPair,
    CrowdingTerm,
    Grid1D,
    HarvestTerm,
    LevyKernel,
    NumericError,
    OperatorMatrix,
    ReactionSpec,
    SpectralProximityError,
    antimaximum_profile,
    antimaximum_window,
    assemble,
    evolve,
    green_solve,
    maximal_harvest,
    principal_eigenpair,
    solve_logistic,
    stability_index,
    v_profile,
)
from nonlocal_logistic.operator import _fast_len, toeplitz_row_sums
from nonlocal_logistic.steady import NEWTON_DESCENT_CAP

from oracles import (
    OracleDomainError,
    PeriodicBox,
    circulant_matvec_reference,
    gohberg_semencul_reference,
    mollifier,
    multiplier_oracle,
    operator_by_quadrature,
    oracle_on_grid,
)


def _frac_op(n, alpha=1.0, interval=(-1.0, 1.0)):
    sym = BernsteinSymbol("fractional", alpha)
    grid = Grid1D(*interval, n)
    return assemble(grid, LevyKernel(sym), far_cutoff=2.0 * grid.width)


class TestAssembly:
    def test_far_cutoff_precondition(self):
        grid = Grid1D(-1.0, 1.0, 9)
        kern = LevyKernel(BernsteinSymbol("fractional", 1.0))
        with pytest.raises(ConfigurationError, match="far_cutoff"):
            assemble(grid, kern, far_cutoff=3.9)

    def test_matrix_structure(self, op199):
        a = op199.matrix
        assert np.array_equal(a, a.T)
        off = a - np.diag(np.diag(a))
        assert np.all(off <= 0)
        assert np.all(np.diag(a) > 0)

    def test_row_sums_dominated_by_exterior_mass(self, op199):
        sums = toeplitz_row_sums(op199.col)
        # the lumped mass beyond the far cutoff (2 * width) and its half cell
        grid = op199.grid
        tail = op199.kernel.tail_mass(2.0 * grid.width + grid.h / 2.0)
        assert sums.min() >= tail > 0
        # every node sees at least the mass beyond one interval width
        lower = 2.0 * op199.kernel.tail_mass(op199.grid.width + op199.grid.h) / 2.0
        assert sums.min() >= lower

    def test_strict_diagonal_dominance(self, op199):
        a = op199.matrix
        margins = 2.0 * np.diag(a) - np.abs(a).sum(axis=1)
        assert margins.min() > 0

    def test_scaled_profile_assembly_also_m_matrix(self):
        sym = BernsteinSymbol("log_boosted", 1.0, beta=0.5)
        grid = Grid1D(-1.0, 1.0, 49)
        op = assemble(grid, LevyKernel(sym), far_cutoff=4.0)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.all(off <= 0)
        assert toeplitz_row_sums(op.col).min() > 0


class TestShifted:
    def test_bit_identical_to_dense_constructions(self, op199):
        a, n = op199.matrix, op199.n
        before = a.copy()
        d = np.random.default_rng(5).uniform(-3.0, 3.0, n)
        theta = 7.3
        assert np.array_equal(op199.shifted(d), a + np.diag(d))
        assert np.array_equal(op199.shifted(-d), a - np.diag(d))
        assert np.array_equal(op199.shifted(theta), a + theta * np.eye(n))
        assert op199.shifted(d).flags.c_contiguous
        assert np.array_equal(op199.matrix, before)

    def test_diagonal_length_checked(self, op199):
        with pytest.raises(DimensionError):
            op199.shifted(np.ones(op199.n + 1))


class TestDiagSolver:
    @pytest.mark.parametrize("definite", [True, False])
    def test_spd_field_matches_dense_solve(self, op199, definite):
        x = op199.grid.nodes
        d = 1.0 + x ** 2
        b = np.random.default_rng(11).standard_normal(op199.n)
        ref = np.linalg.solve(op199.shifted(d), b)
        sol = op199.diag_solver(d, definite=definite)(b)
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_indefinite_field_matches_dense_solve(self, op199, eig199):
        # between the first and second eigenvalues of A - diag(d)
        d = -(1.5 * eig199.lam + 0.1 * op199.grid.nodes)
        b = np.random.default_rng(12).standard_normal(op199.n)
        ref = np.linalg.solve(op199.shifted(d), b)
        solve = op199.diag_solver(d, definite=False)
        assert np.abs(solve(b) - ref).max() <= 1e-10 * np.abs(ref).max()
        assert 0.0 < solve.gap() < np.abs(op199.shifted(d)).sum(axis=0).max()

    def test_not_positive_definite_raises(self, op199, eig199):
        with pytest.raises(NumericError, match="not positive definite"):
            op199.diag_solver(-1.5 * eig199.lam)

    def test_non_finite_right_hand_side_raises(self, op199):
        solve = op199.diag_solver(1.0)
        b = np.ones(op199.n)
        b[7] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            solve(b)

    @pytest.mark.parametrize("definite", [True, False])
    def test_non_finite_diagonal_raises(self, op199, definite):
        d = np.ones(op199.n)
        d[7] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            op199.diag_solver(d, definite=definite)

    @pytest.mark.parametrize("sigma, scale", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_constant_shift_raises(self, op199, sigma, scale):
        # the Levinson post-check rejects them: NumericError, exit 3 in the CLI
        with pytest.raises(NumericError):
            op199.solver(sigma, scale=scale)

    @pytest.mark.parametrize("d", ["field", "constant"])
    def test_cg_matches_dense_solve(self, op799, eig799, d):
        # an SPD A + diag(d) whose diagonal changes sign across the interval
        d = -0.5 * eig799.lam + 2.0 * op799.grid.nodes ** 2 if d == "field" else 1.0
        b = np.random.default_rng(13).standard_normal(op799.n)
        ref = np.linalg.solve(op799.shifted(d), b)
        solve = op799.cg_solver(d)
        assert np.abs(solve(b) - ref).max() <= 1e-10 * np.abs(ref).max()
        assert 0 < solve.iterations <= 20
        assert not solve(np.zeros(op799.n)).any() and solve.iterations == 0

    @pytest.mark.parametrize("planted", ["one node", "below lambda_1"])
    def test_cg_indefinite_diagonal_raises(self, op799, eig799, planted):
        n = op799.n
        d = (np.where(np.arange(n) == n // 2, -10.0 * op799.col[0], 0.0) if planted == "one node"
             else np.full(n, -1.5 * eig799.lam))
        with pytest.raises(NumericError, match="not positive definite"):
            op799.cg_solver(d)(np.ones(n))

    def test_cg_cap_raises(self, op799):
        # SPD, but a diagonal over 12 decades defeats the circulant preconditioner
        d = 10.0 ** np.random.default_rng(0).uniform(0.0, 12.0, op799.n)
        with pytest.raises(NumericError, match=f"in {operator_module.CG_MAXITER} iterations"):
            op799.cg_solver(d)(np.ones(op799.n))

    def test_cg_non_finite_input_raises(self, op199):
        d = np.ones(op199.n)
        b = np.ones(op199.n)
        b[7] = np.nan
        with pytest.raises(NumericError, match="right-hand side .* non-finite"):
            op199.cg_solver(d)(b)
        d[7] = np.inf
        with pytest.raises(NumericError, match="non-finite diagonal"):
            op199.cg_solver(d)
        with pytest.raises(DimensionError):
            op199.cg_solver(np.ones(op199.n + 1))

    def test_exactly_singular_raises(self, frac1_kernel):
        # the second difference on three nodes has the eigenvalue 2 exactly:
        # A - 2 I has two equal rows
        op = OperatorMatrix(Grid1D(-1.0, 1.0, 3), frac1_kernel, np.array([2.0, -1.0, 0.0]))
        with pytest.raises(NumericError, match="exactly singular"):
            op.diag_solver(-2.0, definite=False)
        with pytest.raises(SpectralProximityError):
            antimaximum_profile(op, None, -np.ones(3), 2.0)
        pair = EigenPair(lam=1.0, phi=np.ones(3), residual=0.0, iterations=0)
        assert antimaximum_window(op, eigenpair=pair, rel_offsets=(1.0,)) == (1.0, 1.0)


# dense factorizations and dense solves that belong to OperatorMatrix.diag_solver
DENSE_FACTOR_NAMES = {"cho_factor", "cho_solve", "lu_factor", "lu_solve", "get_lapack_funcs"}
# the only modules that may read the dense A: the operator, and the CLI's --dump-matrix
MATRIX_READERS = {"operator.py", "cli.py"}


def _is_matrix(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "matrix"


def _dense_uses(path: Path) -> set[str]:
    """Dense factorizations and solves outside ``operator.py``, reads of
    ``.matrix`` outside ``MATRIX_READERS``, and products with ``.matrix``."""
    factors_allowed = path.name == "operator.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and (
                _is_matrix(node.left) or _is_matrix(node.right)):
            names.add(f"{node.lineno} matrix @")
        if _is_matrix(node) and path.name not in MATRIX_READERS:
            names.add(f"{node.lineno} .matrix")
        if factors_allowed:
            continue
        if isinstance(node, ast.ImportFrom):
            found = {alias.name for alias in node.names} & DENSE_FACTOR_NAMES
        elif isinstance(node, ast.Attribute):
            found = {node.attr} & DENSE_FACTOR_NAMES
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "np.linalg.solve", "numpy.linalg.solve"):
            found = {"np.linalg.solve"}
        else:
            found = set()
        names |= {f"{node.lineno} {name}" for name in found}
    return names


def test_dense_factorizations_only_in_operator_module():
    offenders = [f"{path.name}:{use}"
                 for path in sorted(Path(nonlocal_logistic.__file__).parent.glob("*.py"))
                 for use in sorted(_dense_uses(path))]
    assert not offenders


def test_dense_use_check_catches_offenders(tmp_path):
    src = tmp_path / "steady.py"
    src.write_text("from scipy.linalg import cho_factor\nr = op.matrix @ u\nm = op.matrix\n")
    assert _dense_uses(src) == {"1 cho_factor", "2 matrix @", "2 .matrix", "3 .matrix"}
    src = tmp_path / "cli.py"
    src.write_text("a = op.matrix\nr = u @ op.matrix\n")
    assert _dense_uses(src) == {"2 matrix @"}


class TestNoDenseOperatorKept:
    """Past assembly the only n x n array is the one transient system that
    ``diag_solver`` factors: A is never kept dense."""

    N = 799
    ONE_SYSTEM = 1.5 * 8 * N ** 2  # bytes

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stability_index_holds_one_system(self, op799, eig799):
        spec = ReactionSpec(a=2.0 * eig799.lam)
        state = solve_logistic(op799, spec, eigenpair=eig799)
        op = _frac_op(self.N)
        assert self._peak_bytes(lambda: stability_index(op, spec, state)) < self.ONE_SYSTEM

    def test_solve_logistic_holds_one_system(self, eig799):
        spec = ReactionSpec(a=2.0 * eig799.lam)
        op = _frac_op(self.N)
        assert self._peak_bytes(lambda: solve_logistic(op, spec)) < self.ONE_SYSTEM

    def test_descent_past_the_fold_holds_one_system(self, op799, eig799):
        # c* lies in [0.3145, 0.3164] here: a Jacobian factor fails, and the chord
        # steps factor the last good one again while the failed system is freed
        spec = ReactionSpec(a=2.0 * eig799.lam, c=0.32, f=CrowdingTerm(), h=HarvestTerm())
        va = solve_logistic(op799, replace(spec, c=0.0, h=None), eigenpair=eig799)
        states = []
        peak = self._peak_bytes(
            lambda: states.append(maximal_harvest(op799, spec, v_a=va, eigenpair=eig799)))
        assert states[0].newton_steps < states[0].iterations
        assert states[0].newton_steps < NEWTON_DESCENT_CAP
        assert peak < self.ONE_SYSTEM


class TestToeplitzColumn:
    SYMBOLS = (
        BernsteinSymbol("fractional", 1.0),
        BernsteinSymbol("relativistic", 1.0, m=1.0),
        BernsteinSymbol("sum_fractional", 1.0, beta=1.5),
    )

    @staticmethod
    def _op(symbol, n):
        grid = Grid1D(-1.0, 1.0, n)
        return assemble(grid, LevyKernel(symbol), far_cutoff=2.0 * grid.width)

    @pytest.mark.parametrize("n", [63, 199, 799])
    @pytest.mark.parametrize("symbol", SYMBOLS, ids=lambda s: s.kind)
    def test_solver_matches_cholesky(self, symbol, n):
        op = self._op(symbol, n)
        b = np.random.default_rng(n).standard_normal(n)
        a = op.matrix
        lam_min = eigh(a, eigvals_only=True, subset_by_index=[0, 0])[0]
        for sigma, scale in ((0.0, 1.0), (1.0, 0.01), (-0.5 * lam_min, 1.0)):
            ref = cho_solve(cho_factor(scale * a + sigma * np.eye(n)), b)
            x = op.solver(sigma, scale=scale)(b)
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [63, 799])
    def test_toeplitz_is_scipys(self, n):
        col = self._op(self.SYMBOLS[0], n).col
        ours, ref = operator_module.toeplitz(col), toeplitz(col)
        assert ours.shape == ref.shape and ours.flags.c_contiguous
        assert ours.tobytes() == ref.tobytes()

    def test_lapack_routines_are_scipys(self, op199):
        # the compiled module the operator loads is the one scipy.linalg hands out
        m = op199.shifted(1.0).T
        names = ("potrf", "potrs", "getrf", "getrs", "gecon")
        ours = operator_module.get_lapack_funcs(names, (m,))
        assert len(ours) == len(names)
        assert all(a is b for a, b in zip(ours, get_lapack_funcs(names, (m,))))

    def test_missing_compiled_module_names_its_path(self):
        with pytest.raises(ImportError, match=r"scipy\.linalg\._absent at .*linalg._absent \+ one of"):
            compiled.load("linalg", "_absent")

    def test_fast_len_is_scipys_real_fft_length(self):
        targets = range(1, 20_001)
        assert [_fast_len(t) for t in targets] == [next_fast_len(t, real=True) for t in targets]

    @pytest.mark.parametrize("n", [63, 199, 799, 1599, 3199])
    def test_solver_matches_six_fft_reference_bit_for_bit(self, n):
        op = self._op(self.SYMBOLS[0], n)
        # principal_eigenpair's shift below the Gershgorin lower bound
        lo, hi = np.min(op.col[0] - op.radii()), np.max(op.col[0] + op.radii())
        eigen_shift = lo - max(1e-8, 1e-3 * (hi - lo))
        rng = np.random.default_rng(n)
        for sigma, scale in ((-eigen_shift, 1.0), (1.0, 0.01), (0.0, 1.0)):
            solve = op.solver(sigma, scale=scale)
            ref = gohberg_semencul_reference(op.col, sigma, scale)
            for _ in range(3):
                b = rng.standard_normal(n)
                assert solve(b).tobytes() == ref(b).tobytes()

    @pytest.mark.parametrize("n", [63, 199, 799, 1599])
    def test_matvec_matches_scipy_fft_reference_bit_for_bit(self, n):
        op = self._op(self.SYMBOLS[0], n)
        ref = circulant_matvec_reference(op.col)
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = rng.standard_normal(n)
            assert op.matvec(v).tobytes() == ref(v).tobytes()

    @pytest.mark.parametrize("symbol", SYMBOLS, ids=lambda s: s.kind)
    def test_matvec_matches_dense_product(self, symbol):
        op = self._op(symbol, 199)
        v = np.random.default_rng(2).standard_normal(op.n)
        ref = op.matrix @ v
        assert np.abs(op.matvec(v) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_constant_shift_paths_never_build_the_matrix(self, monkeypatch):
        built = []

        def counting_toeplitz(*args):
            built.append(len(args[0]))
            return toeplitz(*args)

        monkeypatch.setattr(operator_module, "toeplitz", counting_toeplitz)
        op = _frac_op(99)
        pair = principal_eigenpair(op)
        green_solve(op, np.ones(op.n))
        spec = ReactionSpec(a=2.0 * pair.lam)
        evolve(op, spec, 0.01 * pair.phi, dt=0.01, horizon=0.1)
        assert built == []
        # one dense system per variable-diagonal factor, the eigen potential's included
        op.diag_solver(1.0)
        assert built == [op.n]
        op.diag_solver(-1.5 * pair.lam, definite=False)
        assert built == [op.n] * 2
        principal_eigenpair(op, c=np.full(op.n, 0.5))
        assert built == [op.n] * 3

    def test_row_sums_match_dense(self, op199):
        # the sums cancel a large diagonal: compare on the scale of the entries
        dense = op199.matrix.sum(axis=1)
        scale = np.abs(op199.matrix).sum(axis=1).max()
        assert np.abs(toeplitz_row_sums(op199.col) - dense).max() <= 1e-13 * scale


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
            grid = Grid1D(-1.0, 1.0, n)
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
