import numpy as np
import pytest
from dataclasses import replace
from scipy.linalg import get_lapack_funcs

from nonlocal_logistic import operator as operator_module
from nonlocal_logistic import steady as steady_module
from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    ContinuationError,
    CrowdingTerm,
    Grid1D,
    HarvestTerm,
    LevyKernel,
    MonotonicityError,
    ReactionSpec,
    antimaximum_profile,
    assemble,
    principal_eigenpair,
    check_harvest_dominance,
    harvest_subsolution,
    maximal_harvest,
    newton_multistart,
    newton_polish,
    scan_cstar,
    small_branch,
    solve_logistic,
    stability_index,
)
from nonlocal_logistic.steady import NEWTON_DESCENT_CAP, SteadyState

from oracles import lipschitz_shift, monotone_iterate, newton_reference, relax


class TestCatalog:
    def test_crowding_derivative_matches_fd(self):
        for term in (CrowdingTerm("quadratic", b=1.3), CrowdingTerm("power", b=0.8, p=2.5)):
            s = np.linspace(0.05, 3.0, 20)
            fd = (term.value(s + 1e-7) - term.value(s - 1e-7)) / 2e-7
            assert np.allclose(term.deriv(s), fd, rtol=1e-5)

    def test_harvest_derivative_matches_fd(self):
        term = HarvestTerm("saturating", h0=2.0, q=0.4)
        s = np.linspace(0.05, 3.0, 20)
        fd = (term.value(s + 1e-7) - term.value(s - 1e-7)) / 2e-7
        assert np.allclose(term.deriv(s), fd, rtol=1e-5)

    def test_harvest_extension_is_c1_at_zero(self):
        term = HarvestTerm("saturating", h0=1.0, q=0.5)
        eps = 1e-9
        assert term.value(-eps) == pytest.approx(term.value(eps), abs=1e-8)
        assert term.deriv(-eps) == pytest.approx(term.deriv(eps), abs=1e-6)

    def test_invalid_catalog_entries(self):
        with pytest.raises(ConfigurationError):
            CrowdingTerm("power", p=1.0)
        with pytest.raises(ConfigurationError):
            CrowdingTerm(b=-1.0)
        with pytest.raises(ConfigurationError, match="quadratic crowding has p = 2"):
            CrowdingTerm("quadratic", p=3.0)
        assert CrowdingTerm("quadratic").p == 2.0
        with pytest.raises(ConfigurationError):
            HarvestTerm(h0=0.0)
        with pytest.raises(ConfigurationError):
            ReactionSpec(a=1.0, c=0.5, f=CrowdingTerm(), h=None)


class TestMonotoneIterate:
    def test_trivial_zero_bracket(self, op199):
        spec = ReactionSpec(a=0.0)
        z = np.zeros(op199.n)
        state = monotone_iterate(op199, spec, z, z, tol=1e-12)
        assert state.iterations == 1
        assert np.all(state.u == 0)

    def test_descent_from_constant_supersolution(self, op199, eig199):
        a = 2.0 * eig199.lam
        spec = ReactionSpec(a=a)
        state = monotone_iterate(
            op199, spec,
            u_lo=1e-3 * eig199.phi,
            u_hi=a * np.ones(op199.n),
            tol=1e-11, start="hi",
        )
        assert state.branch == "logistic"
        assert state.residual <= 1e-9

    def test_same_limit_from_both_ends(self, op199, eig199):
        a = 2.0 * eig199.lam
        spec = ReactionSpec(a=a)
        lo = 1e-3 * eig199.phi
        hi = a * np.ones(op199.n)
        up = monotone_iterate(op199, spec, lo, hi, tol=1e-12, start="lo")
        down = monotone_iterate(op199, spec, lo, hi, tol=1e-12, start="hi")
        assert np.abs(up.u - down.u).max() < 1e-9
        # the Newton-first descent of solve_logistic meets the relaxation from below
        logistic = solve_logistic(op199, spec, tol=1e-12, eigenpair=eig199)
        assert logistic.residual <= 1e-12
        assert np.abs(logistic.u - up.u).max() < 1e-9

    def test_bracket_ordering_required(self, op199):
        spec = ReactionSpec(a=1.0)
        with pytest.raises(ConfigurationError):
            monotone_iterate(op199, spec, np.ones(op199.n), np.zeros(op199.n))

    def test_small_theta_detected(self, op199, eig199):
        a = 2.0 * eig199.lam
        spec = ReactionSpec(a=a)
        with pytest.raises(MonotonicityError):
            monotone_iterate(op199, spec, 1e-3 * eig199.phi,
                             a * np.ones(op199.n), theta=0.0, start="hi")

    def test_subsolution_verified(self, op199, eig199):
        # a large multiple of phi1 is not a subsolution for the logistic map
        spec = ReactionSpec(a=2.0 * eig199.lam)
        bad_lo = 10.0 * eig199.phi
        with pytest.raises(ConfigurationError, match="subsolution"):
            monotone_iterate(op199, spec, bad_lo, 20.0 * np.ones(op199.n))


class TestSolveLogistic:
    def test_subcritical_none(self, op199, eig199, steady_cache):
        state = steady_cache(0.5)
        assert state.branch == "none"
        assert np.all(state.u == 0)
        assert state.iterations == 0

    def test_critical_none(self, op199, eig199):
        spec = ReactionSpec(a=eig199.lam)
        assert solve_logistic(op199, spec, eigenpair=eig199).branch == "none"

    def test_supercritical_positive_and_bounded(self, steady_cache, eig199):
        state = steady_cache(2.0)
        a = 2.0 * eig199.lam
        assert state.branch == "logistic"
        assert state.residual <= 1e-9
        assert np.all(state.u > 0)
        assert state.u.max() <= a  # supersolution level for quadratic crowding

    def test_monotone_in_growth_rate(self, steady_cache):
        lo = steady_cache(1.5)
        hi = steady_cache(2.0)
        assert np.all(lo.u <= hi.u + 1e-12)

    def test_requires_zero_harvest(self, op199):
        spec = ReactionSpec(a=3.0, c=0.1, f=CrowdingTerm(), h=HarvestTerm())
        with pytest.raises(ConfigurationError):
            solve_logistic(op199, spec)

    def test_near_refuge_heterogeneous_crowding(self, op199, eig199):
        # b = 1e-3 on D0 = {|x| < 0.3}: a relaxation shifted for the a-priori
        # level a / b_min contracts by 1 - O(b_min) per step, the descent from
        # that level converges by Newton steps alone
        refuge = np.abs(op199.grid.nodes) < 0.3
        b = np.where(refuge, 1e-3, 1.0)
        lam_refuge = np.linalg.eigvalsh(op199.matrix[np.ix_(refuge, refuge)])[0]
        a = eig199.lam + 0.9 * (lam_refuge - eig199.lam)
        spec = ReactionSpec(a=a, f=CrowdingTerm(b=b))
        state = solve_logistic(op199, spec, eigenpair=eig199)
        assert state.branch == "logistic"
        assert state.iterations == state.newton_steps < 20
        assert state.residual <= 1e-10
        assert np.all(state.u > 0)
        assert state.u.max() <= a / b.min()


LARGE_N_SYMBOLS = (
    BernsteinSymbol("fractional", 0.5),
    BernsteinSymbol("fractional", 1.0),
    BernsteinSymbol("fractional", 1.5),
    BernsteinSymbol("relativistic", 1.0, m=1.0),
)


def _large_op(symbol, n):
    grid = Grid1D(-1.0, 1.0, n)
    return assemble(grid, LevyKernel(symbol), far_cutoff=2.0 * grid.width)


def _cg_counts(monkeypatch) -> list[int]:
    """Record the iterations of every CG solve from here on."""
    counts = []
    build = operator_module.OperatorMatrix.cg_solver

    def counted(self, d):
        solve = build(self, d)

        def wrapped(b):
            x = solve(b)
            wrapped.iterations = solve.iterations
            counts.append(solve.iterations)
            return x
        return wrapped

    monkeypatch.setattr(operator_module.OperatorMatrix, "cg_solver", counted)
    return counts


class TestLogisticByCG:
    """At n >= CG_MIN_N the harvest-free descent solves its Jacobians by CG."""

    @pytest.mark.parametrize("symbol", LARGE_N_SYMBOLS, ids=lambda s: f"{s.kind}-{s.alpha}")
    def test_matches_the_dense_path(self, monkeypatch, symbol):
        op = _large_op(symbol, 799)
        assert op.n >= steady_module.CG_MIN_N
        pair = principal_eigenpair(op)
        spec = ReactionSpec(a=2.0 * pair.lam)
        cg = solve_logistic(op, spec, eigenpair=pair)
        monkeypatch.setattr(steady_module, "CG_MIN_N", op.n + 1)
        dense = solve_logistic(op, spec, eigenpair=pair)
        assert cg.branch == dense.branch == "logistic"
        assert cg.iterations == cg.newton_steps == dense.newton_steps == dense.iterations
        assert cg.cg_iterations > 0 and dense.cg_iterations == 0
        assert np.abs(cg.u - dense.u).max() <= 1e-13 * np.abs(dense.u).max()

    @pytest.mark.parametrize("symbol", LARGE_N_SYMBOLS[:3], ids=lambda s: f"alpha-{s.alpha}")
    def test_iterations_flat_in_n(self, monkeypatch, symbol):
        counts = _cg_counts(monkeypatch)
        totals = []
        for n in (799, 1599):
            op = _large_op(symbol, n)
            pair = principal_eigenpair(op)
            start = len(counts)
            state = solve_logistic(op, ReactionSpec(a=2.0 * pair.lam), eigenpair=pair)
            per_solve = counts[start:]
            assert len(per_solve) == state.newton_steps
            assert max(per_solve) <= 20
            assert sum(per_solve) == state.cg_iterations
            totals.append(state.cg_iterations)
        # flat in n: the totals grew by 1%, 4% and 11% for alpha = 0.5, 1, 1.5
        # when measured, while unpreconditioned CG grows like the square root of
        # the condition number, 2^(alpha/2) per doubling of n
        assert totals[1] <= 1.2 * totals[0]

    def test_small_n_and_harvest_stay_dense(self, monkeypatch, op199, eig199, op799, eig799):
        spec = ReactionSpec(a=2.0 * eig799.lam, c=0.1, f=CrowdingTerm(), h=HarvestTerm())
        va = solve_logistic(op799, replace(spec, c=0.0, h=None), eigenpair=eig799)

        def refuse(self, d):
            raise AssertionError("cg_solver called")

        monkeypatch.setattr(operator_module.OperatorMatrix, "cg_solver", refuse)
        assert op199.n < steady_module.CG_MIN_N
        state = solve_logistic(op199, ReactionSpec(a=2.0 * eig199.lam), eigenpair=eig199)
        assert state.branch == "logistic" and state.cg_iterations == 0
        # with c > 0 a failed Cholesky factor is the fold signal: dense at any n
        state = maximal_harvest(op799, spec, v_a=va, eigenpair=eig799)
        assert state.branch == "maximal" and state.cg_iterations == 0


class TestMaximalHarvest:
    def test_zero_intensity_returns_logistic_state(self, op199, eig199, steady_cache):
        va = steady_cache(2.0)
        spec = ReactionSpec(a=2.0 * eig199.lam, c=0.0, f=CrowdingTerm(), h=HarvestTerm())
        state = maximal_harvest(op199, spec, v_a=va, eigenpair=eig199)
        assert state.branch == "maximal"
        assert np.abs(state.u - va.u).max() < 1e-8

    def test_small_intensity_sandwich(self, op199, eig199, steady_cache):
        va = steady_cache(2.0)
        spec = ReactionSpec(a=2.0 * eig199.lam, c=0.01, f=CrowdingTerm(), h=HarvestTerm())
        state = maximal_harvest(op199, spec, v_a=va, eigenpair=eig199)
        assert state.branch == "maximal"
        assert np.all(state.u > 0)
        assert np.all(state.u <= va.u + 1e-12)

    def test_subsolution_envelope(self, op199, eig199, steady_cache):
        a = 2.0 * eig199.lam
        va = steady_cache(2.0)
        spec = ReactionSpec(a=a, c=0.0, f=CrowdingTerm(), h=HarvestTerm())
        sub = harvest_subsolution(op199, spec, eigenpair=eig199)
        assert 0 < sub.c_threshold
        assert eig199.lam / a < sub.beta < 1.0
        for c in (0.5 * sub.c_threshold, sub.c_threshold):
            state = maximal_harvest(op199, replace(spec, c=c), v_a=va, eigenpair=eig199)
            assert state.branch == "maximal"
            assert np.all(state.u >= sub.m * sub.beta * eig199.phi - 1e-10)

    def test_large_intensity_none(self, op199, eig199, steady_cache):
        va = steady_cache(2.0)
        spec = ReactionSpec(a=2.0 * eig199.lam, c=5.0, f=CrowdingTerm(), h=HarvestTerm())
        state = maximal_harvest(op199, spec, v_a=va, eigenpair=eig199)
        assert state.branch == "none"

    def test_branch_approaches_logistic_state(self, op199, eig199, steady_cache):
        va = steady_cache(2.0)
        spec0 = ReactionSpec(a=2.0 * eig199.lam, c=0.0, f=CrowdingTerm(), h=HarvestTerm())
        sub = harvest_subsolution(op199, spec0, eigenpair=eig199)
        gaps = []
        for frac in (0.1, 0.05, 0.01):
            state = maximal_harvest(
                op199, replace(spec0, c=frac * sub.c_threshold), v_a=va, eigenpair=eig199
            )
            assert state.branch == "maximal"
            gaps.append(np.abs(state.u - va.u).max())
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.2 * gaps[0]


class TestComparison:
    def test_ordered_harvest_intensities(self, op199, eig199, steady_cache):
        va = steady_cache(2.0)
        spec = ReactionSpec(a=2.0 * eig199.lam, c=0.0, f=CrowdingTerm(), h=HarvestTerm())
        u_light = maximal_harvest(op199, replace(spec, c=0.005), v_a=va, eigenpair=eig199)
        u_heavy = maximal_harvest(op199, replace(spec, c=0.02), v_a=va, eigenpair=eig199)
        assert u_light.branch == u_heavy.branch == "maximal"
        assert np.all(u_heavy.u <= u_light.u + 1e-12)

    def test_apriori_bound(self, op199, eig199, steady_cache):
        spec = ReactionSpec(a=2.0 * eig199.lam)
        assert steady_cache(2.0).u.max() <= spec.apriori_bound() + 1e-12


@pytest.fixture(scope="module")
def window_spec(eig199):
    return ReactionSpec(a=1.05 * eig199.lam, c=0.0, f=CrowdingTerm(), h=HarvestTerm())


@pytest.fixture(scope="module")
def scan(op199, eig199):
    spec = ReactionSpec(a=1.05 * eig199.lam, c=1.0, f=CrowdingTerm(), h=HarvestTerm())
    return scan_cstar(op199, spec, c_max=0.2, bisect_rel_tol=1e-3,
                      sample_ladder=3, eigenpair=eig199)


class TestSmallBranch:

    def test_zero_intensity_zero_solution(self, op199, window_spec):
        state = small_branch(op199, window_spec)
        assert np.all(state.u == 0)

    def test_small_branch_below_maximal(self, op199, eig199, window_spec):
        c = 1e-4
        u2 = small_branch(op199, replace(window_spec, c=c), tol=1e-11)
        assert u2.branch == "small"
        u1 = maximal_harvest(op199, replace(window_spec, c=c), eigenpair=eig199, tol=1e-11)
        assert u1.branch == "maximal"
        assert np.all(u2.u <= u1.u + 1e-12)
        assert u2.u.max() < 0.5 * u1.u.max()

    def test_norm_vanishes_with_intensity(self, op199, window_spec):
        norms = [
            small_branch(op199, replace(window_spec, c=c), tol=1e-11).u.max()
            for c in (2e-4, 1e-4, 5e-5)
        ]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.4 * norms[0]

    def test_fold_raises_continuation_error(self, op199, window_spec, monkeypatch):
        # past the fold the one Newton solve fails, with no further tries:
        # at most one LU factor per step of its 40
        calls, lu = [], []
        newton = steady_module._newton

        def recording_newton(*args):
            calls.append(args)
            return newton(*args)

        def recording_lapack(names, arrays):
            lu.extend(name for name in names if name == "getrf")
            return get_lapack_funcs(names, arrays)

        monkeypatch.setattr(steady_module, "_newton", recording_newton)
        monkeypatch.setattr(operator_module, "get_lapack_funcs", recording_lapack)
        with pytest.raises(ContinuationError):
            small_branch(op199, replace(window_spec, c=0.1))
        assert len(calls) == 1
        assert len(lu) <= 40

    def test_from_zero_below_the_fold_is_one_newton_solve(self, op199, window_spec, scan,
                                                          monkeypatch):
        # far below the fold one Newton solve from zero bridges the whole gap,
        # and each of its steps factors one LU system
        lu = []

        def recording_lapack(names, arrays):
            lu.extend(name for name in names if name == "getrf")
            return get_lapack_funcs(names, arrays)

        monkeypatch.setattr(operator_module, "get_lapack_funcs", recording_lapack)
        state = small_branch(op199, replace(window_spec, c=scan.bracket[0] / 8))
        assert state.branch == "small"
        assert 0 < state.iterations == len(lu) <= 5


class TestScan:
    def test_bracket_contract(self, scan):
        lo, hi = scan.bracket
        assert hi - lo <= 1e-3 * lo
        assert lo < scan.c_star < hi

    def test_existence_flags_monotone(self, scan):
        flags = [s.exists for s in scan.samples]
        assert all(not flags[i + 1] or flags[i] for i in range(len(flags) - 1))

    def test_double_critical_fails(self, op199, eig199, scan):
        spec = ReactionSpec(a=1.05 * eig199.lam, c=2.0 * scan.c_star,
                            f=CrowdingTerm(), h=HarvestTerm())
        state = maximal_harvest(op199, spec, eigenpair=eig199)
        assert state.branch == "none"

    def test_ladder_provides_small_samples(self, scan):
        existing = [s.c for s in scan.samples if s.exists]
        assert min(existing) <= scan.bracket[0] / 8.0


class TestStability:
    def test_logistic_state_stable(self, op199, eig199, steady_cache):
        spec = ReactionSpec(a=2.0 * eig199.lam)
        idx = stability_index(op199, spec, steady_cache(2.0))
        assert idx.stable and idx.lambda_star > 0

    def test_constant_slope_shift_exact(self, op199, eig199, steady_cache):
        # crowding with constant slope gamma makes lambda* = lam1 - a + gamma
        state = steady_cache(2.0)
        a = 2.0 * eig199.lam
        gamma = 0.3

        class _ConstSlopeSpec:
            def reaction_deriv(self, u):
                return (a - gamma) * np.ones_like(np.asarray(u, dtype=float))

        idx = stability_index(op199, _ConstSlopeSpec(), state)
        assert idx.lambda_star == pytest.approx(eig199.lam - a + gamma, abs=1e-8)

    def test_zero_solution_unstable_above_lam1(self, op199, eig199):
        from nonlocal_logistic import SteadyState

        a = 2.0 * eig199.lam
        zero = SteadyState(u=np.zeros(op199.n), residual=0.0, branch="none", iterations=0)
        idx = stability_index(op199, ReactionSpec(a=a), zero)
        assert idx.lambda_star == pytest.approx(eig199.lam - a, abs=1e-8)
        assert not idx.stable


class TestDominanceCertificate:
    def test_zero_intensity_trivially_true(self, steady_cache, eig199):
        spec = ReactionSpec(a=2.0 * eig199.lam)
        assert check_harvest_dominance(steady_cache(2.0), spec, eig199.lam)

    def test_direct_violation(self, op199, eig199):
        from nonlocal_logistic import SteadyState

        spec = ReactionSpec(a=2.0 * eig199.lam, c=1.0, f=CrowdingTerm(), h=HarvestTerm())
        small = SteadyState(u=1e-6 * np.ones(op199.n), residual=0.0, branch="maximal", iterations=1)
        assert not check_harvest_dominance(small, spec, eig199.lam)

    def test_maximal_branch_tiny_intensity(self, op199, eig199, steady_cache):
        va = steady_cache(3.0)
        spec = ReactionSpec(a=3.0 * eig199.lam, c=1e-3, f=CrowdingTerm(), h=HarvestTerm())
        state = maximal_harvest(op199, spec, v_a=va, eigenpair=eig199)
        assert state.branch == "maximal"
        assert check_harvest_dominance(state, spec, eig199.lam)


class TestMultistart:
    def test_finds_both_branches_only(self, op99):
        from nonlocal_logistic import principal_eigenpair

        pair = principal_eigenpair(op99, tol=1e-12)
        spec = ReactionSpec(a=1.05 * pair.lam, c=5e-5, f=CrowdingTerm(), h=HarvestTerm())
        u1 = maximal_harvest(op99, spec, eigenpair=pair, tol=1e-11)
        u2 = small_branch(op99, spec, tol=1e-11)
        assert u1.branch == "maximal" and u2.branch == "small"
        found = newton_multistart(op99, spec, n_starts=16, seed=4, tol=1e-11)
        assert found
        positive = [u for u in found if np.all(u > 0)]
        assert positive
        for u in positive:
            near_u1 = np.abs(u - u1.u).max() <= 1e-8
            near_u2 = np.abs(u - u2.u).max() <= 1e-8
            assert near_u1 or near_u2


def _relaxation_only(op, spec, va, tol=1e-10):
    """The maximal descent by Lipschitz-shifted relaxation alone, from the logistic state."""
    theta = lipschitz_shift(spec, float(va.u.max()))
    u, residual, it, went_negative = relax(op, spec, va.u, theta, tol, -1, upper=va.u,
                                           stop_on_negative=True)
    assert not went_negative
    return SteadyState(u=u, residual=residual, branch="maximal", iterations=it)


@pytest.fixture(scope="module")
def saturating_scan(op199, eig199):
    # at a = 2 lambda_1 the fold sits at c ~ 0.47, where c L_h makes the chord step
    # differ visibly from exact Newton
    spec = ReactionSpec(a=2.0 * eig199.lam, c=1.0, f=CrowdingTerm(),
                        h=HarvestTerm("saturating", h0=1.0, q=0.5))
    scan = scan_cstar(op199, spec, c_max=5.0, bisect_rel_tol=1e-3, sample_ladder=0,
                      eigenpair=eig199)
    return spec, scan


class TestNewtonDescent:
    def _compare(self, op, pair, spec):
        va = solve_logistic(op, replace(spec, c=0.0, h=None), eigenpair=pair)
        relaxed = _relaxation_only(op, spec, va)
        reference = newton_polish(op, spec, relaxed)
        state = maximal_harvest(op, spec, v_a=va, eigenpair=pair)
        assert state.branch == "maximal"
        assert np.abs(state.u - reference.u).max() <= 1e-7
        return state, relaxed

    def test_near_fold_constant_yield(self, op199, eig199, window_spec, scan):
        spec = replace(window_spec, c=0.999 * scan.bracket[0])
        state, relaxed = self._compare(op199, eig199, spec)
        assert relaxed.iterations > 5_000
        # exact Newton: quadratic convergence, no relaxation needed
        assert state.iterations == state.newton_steps < 20

    def test_saturating_chord(self, op199, eig199, saturating_scan):
        spec, scan = saturating_scan
        state, relaxed = self._compare(op199, eig199, replace(spec, c=0.98 * scan.bracket[0]))
        assert state.iterations == state.newton_steps
        assert state.iterations < relaxed.iterations / 10

    def test_chord_takes_over_at_the_cap(self, op199, eig199, saturating_scan):
        spec, scan = saturating_scan
        state, relaxed = self._compare(op199, eig199, replace(spec, c=0.999 * scan.bracket[0]))
        assert state.newton_steps == NEWTON_DESCENT_CAP
        assert state.newton_steps < state.iterations < relaxed.iterations

    def test_dense_factors_are_fortran_ordered(self, op199, eig199, window_spec,
                                                saturating_scan, monkeypatch):
        # the symmetric systems reach LAPACK as their Fortran-ordered transpose,
        # so each factor overwrites its input instead of copying it
        factors = {"potrf": [], "getrf": []}
        cholesky, lu = factors["potrf"], factors["getrf"]

        def recording_lapack(names, arrays):
            for name in factors.keys() & set(names):
                factors[name].append(arrays[0].flags.f_contiguous)
            return get_lapack_funcs(names, arrays)

        monkeypatch.setattr(operator_module, "get_lapack_funcs", recording_lapack)
        spec, scan = saturating_scan
        spec = replace(spec, c=0.999 * scan.bracket[0])
        state = maximal_harvest(op199, spec, eigenpair=eig199)
        assert state.newton_steps == NEWTON_DESCENT_CAP < state.iterations
        # the descent's Newton Jacobians (its chord steps reuse the last) and the
        # logistic solve's Jacobians
        assert len(cholesky) > NEWTON_DESCENT_CAP + 1
        n_descent = len(cholesky)
        stability_index(op199, spec, state)  # the eigen potential
        assert len(cholesky) == n_descent + 1
        small = small_branch(op199, replace(window_spec, c=1e-4))
        assert len(lu) >= small.iterations > 0
        n_newton = len(lu)
        antimaximum_profile(op199, None, -np.ones(op199.n), 0.9 * eig199.lam)
        assert len(lu) == n_newton + 1
        assert all(cholesky) and all(lu)

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.99])
    def test_rise_raises_monotonicity_error(self, op199, eig199, steady_cache,
                                            saturating_scan, fraction, monkeypatch):
        # without the harvest slope bound in J the step is no longer order-preserving
        # for saturating harvest: the descent's rise check stops it at the first rise
        monkeypatch.setattr(HarvestTerm, "deriv_bound", lambda self: 0.0)
        spec, scan = saturating_scan
        spec = replace(spec, c=fraction * scan.c_star)
        with pytest.raises(MonotonicityError, match="lost monotonicity"):
            maximal_harvest(op199, spec, v_a=steady_cache(2.0), eigenpair=eig199)

    def test_double_critical_none_without_monotonicity_error(self, op199, eig199, window_spec,
                                                              scan, saturating_scan):
        # a negative iterate, of Newton or of the chord steps after it, certifies nonexistence
        sat_spec, sat_scan = saturating_scan
        for spec, c_star in ((window_spec, scan.c_star), (sat_spec, sat_scan.c_star)):
            state = maximal_harvest(op199, replace(spec, c=2.0 * c_star), eigenpair=eig199)
            assert state.branch == "none"
            assert np.all(state.u == 0)
            assert 0 < state.newton_steps <= state.iterations


@pytest.fixture(scope="module")
def relativistic_fold():
    # relativistic(1, 1), n = 99, a = 1.2 lambda_1, constant yield: the probe at
    # bracket_hi lies just past the fold, where a Lipschitz-shifted relaxation
    # after Newton takes 64,748 steps to go negative
    grid = Grid1D(-1.0, 1.0, 99)
    op = assemble(grid, LevyKernel(BernsteinSymbol("relativistic", 1.0, m=1.0)),
                  far_cutoff=2.0 * grid.width)
    pair = principal_eigenpair(op)
    spec = ReactionSpec(a=1.2 * pair.lam, c=1.0, f=CrowdingTerm(), h=HarvestTerm())
    return op, pair, spec, scan_cstar(op, spec, c_max=1.0, eigenpair=pair)


class TestChordDescentAtTheFold:
    def test_probe_past_the_fold_is_cheap(self, relativistic_fold):
        _, _, _, scan = relativistic_fold
        hi = next(s for s in scan.samples if s.c == scan.bracket[1])
        assert hi.state.branch == "none"
        assert hi.state.iterations - hi.state.newton_steps < 100

    def test_same_bracket_as_the_relaxation(self, relativistic_fold):
        # the bracket that Newton plus Lipschitz-shifted relaxation finds;
        # bisection from c_max = 1 gives dyadic intensities
        _, _, _, scan = relativistic_fold
        assert scan.bracket == (1009 / 2 ** 18, 1010 / 2 ** 18)
        assert [s.exists for s in scan.samples] == [s.c <= scan.bracket[0]
                                                    for s in scan.samples]

    def test_chord_on_the_top_jacobian_only(self, relativistic_fold, monkeypatch):
        # with no refactor, chord steps on J(v_a) reach the same state; the first
        # step, on J(v_a) at v_a, is the one Newton step
        op, pair, spec, scan = relativistic_fold
        spec = replace(spec, c=scan.bracket[0])
        va = solve_logistic(op, replace(spec, c=0.0, h=None), eigenpair=pair)
        state = maximal_harvest(op, spec, v_a=va, eigenpair=pair)
        reference = newton_polish(op, spec, state)
        monkeypatch.setattr(steady_module, "NEWTON_DESCENT_CAP", 0)
        chord = maximal_harvest(op, spec, v_a=va, eigenpair=pair)
        assert chord.branch == state.branch == "maximal"
        assert chord.newton_steps == 1 < chord.iterations
        assert np.abs(chord.u - reference.u).max() <= 1e-7
        assert np.abs(state.u - reference.u).max() <= 1e-7


@pytest.fixture(scope="module")
def sum_fractional_op():
    grid = Grid1D(-1.0, 1.0, 199)
    symbol = BernsteinSymbol("sum_fractional", 1.0, beta=1.5)
    op = assemble(grid, LevyKernel(symbol), far_cutoff=2.0 * grid.width)
    return op, principal_eigenpair(op)


class TestNewtonPolish:
    @pytest.mark.parametrize("c", [0.05, 0.1, 0.2, 0.3])
    def test_stops_at_the_rounding_floor(self, sum_fractional_op, c):
        # sum_fractional(1, 1.5) saturating states: Newton stalls at 8e-13 to 1.1e-12,
        # at the rounding floor of the residual, above the absolute default tol = 1e-13
        op, pair = sum_fractional_op
        spec = ReactionSpec(a=1.5 * pair.lam, c=c, f=CrowdingTerm(),
                            h=HarvestTerm("saturating", h0=1.0, q=0.5))
        state = maximal_harvest(op, spec, eigenpair=pair)
        polished = newton_polish(op, spec, state)
        assert polished.branch == "maximal"
        assert polished.residual <= 2e-12
        assert np.abs(polished.u - state.u).max() <= 1e-9

    def test_default_tolerance_kept_below_its_floor(self, op199, eig199, steady_cache):
        # fractional alpha = 1 floors are ~5e-14 to 8e-14: the default 1e-13 still governs
        spec = ReactionSpec(a=2.0 * eig199.lam)
        state = steady_cache(2.0)
        perturbed = replace(state, u=(1.0 + 1e-6) * state.u)
        polished = newton_polish(op199, spec, perturbed)
        assert polished.residual <= 1e-13
        assert np.abs(polished.u - state.u).max() <= 1e-9


class TestContinuedSmallBranch:
    # Near the fold the Jacobian is nearly singular and a solve's error is its
    # residual over the smallest singular value: at 1e-13 the two paths agree
    # within 1e-9, at the shipped solver.tol = 1e-10 only within about 1e-5;
    # _newton's final simplified correction brings them to 1.1e-12 and 1.2e-9.
    @pytest.mark.parametrize("tol, bound", [(1e-13, 1e-9), (1e-10, 1e-5)])
    def test_matches_from_scratch(self, op199, window_spec, scan, tol, bound):
        samples = [s for s in scan.samples if s.c <= 1.05 * scan.bracket[1]]
        u0, outcomes = None, []
        for sample in samples:
            spec = replace(window_spec, c=sample.c)
            try:
                scratch = small_branch(op199, spec, tol=tol)
            except ContinuationError:
                scratch = None
            try:
                continued = small_branch(op199, spec, tol=tol, u0=u0)
                u0 = continued.u
            except ContinuationError:
                continued = None
            ok = [s is not None and s.branch == "small" for s in (scratch, continued)]
            assert ok[0] == ok[1], f"c = {sample.c}"
            outcomes.append(ok[0])
            if ok[0]:
                err = np.abs(continued.u - scratch.u).max() / np.abs(scratch.u).max()
                assert err <= bound, f"c = {sample.c}"
                # both are one Newton solve: down the ladder the one from zero is
                # as short as the one from the sample below, at bracket_lo it is not
                assert continued.iterations <= scratch.iterations, f"c = {sample.c}"
                if sample.c == scan.bracket[0]:
                    assert continued.iterations < scratch.iterations
        assert any(outcomes) and not all(outcomes)

    def test_near_the_fold_accurate_beyond_the_stopping_residual(self, op199, window_spec, scan):
        # at the shipped tol a residual-only stop leaves an error of residual / gap:
        # 7.1e-7 relative next to bracket_lo, 3.8e-9 after the simplified correction;
        # the dense reference, run from either path, agrees with itself within 4e-12
        u0 = None
        for sample in (s for s in scan.samples if s.exists):
            spec = replace(window_spec, c=sample.c)
            state = small_branch(op199, spec, tol=1e-10, u0=u0)
            u0 = state.u
            reference = newton_reference(op199, spec, state.u)
            err = np.abs(state.u - reference).max() / np.abs(reference).max()
            assert err <= 1e-8, f"c = {sample.c}"
