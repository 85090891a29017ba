import numpy as np
import pytest

from nonlocal_logistic import (
    ConfigurationError,
    ReactionSpec,
    evolve,
    green_solve,
    hopf_ratio,
    v_modulus,
)

from oracles import parabolic_boundary_bounds


class TestHopfRatio:
    def test_eigenfunction_positive_and_refinement_stable(self, op399, op799, eig399, eig799):
        r399 = hopf_ratio(eig399.phi, op399.grid, op399.symbol)
        r799 = hopf_ratio(eig799.phi, op799.grid, op799.symbol)
        assert r399.min > 0 and r799.min > 0
        assert abs(r799.min - r399.min) <= 0.2 * r399.min
        assert r399.band_min > 0 and r799.band_min > 0

    def test_logistic_state_positive_ratio(self, op199, steady_cache):
        va = steady_cache(2.0)
        rf = hopf_ratio(va.u, op199.grid, op199.symbol)
        assert rf.min > 0

    def test_zero_field(self, op199):
        rf = hopf_ratio(np.zeros(op199.n), op199.grid, op199.symbol)
        assert rf.min == rf.max == 0.0

    def test_rejects_negative_input(self, op199):
        with pytest.raises(ConfigurationError):
            hopf_ratio(-np.ones(op199.n), op199.grid, op199.symbol)


class TestVModulus:
    def test_constant_field_zero(self, op199):
        assert v_modulus(np.ones(op199.n), op199.grid, op199.symbol) == 0.0

    def test_torsion_seminorm_refinement_stable(self, op199, op399):
        vals = []
        for op in (op199, op399):
            u = green_solve(op, np.ones(op.n))
            vals.append(v_modulus(u, op.grid, op.symbol))
        assert all(np.isfinite(v) for v in vals)
        assert vals[1] <= 1.1 * vals[0]

    def test_parabolic_snapshots_uniformly_bounded(self, op199, eig199):
        spec = ReactionSpec(a=2.0 * eig199.lam)
        times = [1.0, 1.25, 1.5, 1.75, 2.0]
        run = evolve(op199, spec, 0.5 * eig199.phi, dt=0.01, horizon=2.0,
                     snapshot_times=times)
        semis = [v_modulus(w, op199.grid, op199.symbol) for w in run.snapshots]
        assert all(np.isfinite(s) for s in semis)
        assert max(semis) <= 2.0 * min(semis)


@pytest.fixture(scope="module")
def run199(op199, eig199):
    spec = ReactionSpec(a=2.0 * eig199.lam)
    return evolve(op199, spec, eig199.phi, dt=0.01, horizon=1.0,
                  snapshot_times=[0.5, 1.0])


class TestParabolicBoundaryBounds:
    def test_two_sided_band(self, run199, op199):
        bb = parabolic_boundary_bounds(run199, 0.5, op199.symbol)
        assert bb.passed
        assert 0 < bb.lower_ratio_min <= bb.upper_ratio_max < np.inf
        assert bb.upper_ratio_max <= 10.0 * bb.lower_ratio_min

    def test_refinement_stability(self, op399, op799, eig399, eig799):
        mins = []
        for op, eig in ((op399, eig399), (op799, eig799)):
            spec = ReactionSpec(a=2.0 * eig.lam)
            run = evolve(op, spec, eig.phi, dt=0.01, horizon=0.5, snapshot_times=[0.5])
            mins.append(parabolic_boundary_bounds(run, 0.5, op.symbol).lower_ratio_min)
        assert abs(mins[1] - mins[0]) <= 0.25 * mins[0]

    def test_degenerate_initial_field_rejected(self, op199, eig199):
        spec = ReactionSpec(a=2.0 * eig199.lam)
        run = evolve(op199, spec, np.zeros(op199.n), dt=0.01, horizon=0.5,
                     snapshot_times=[0.5])
        with pytest.raises(ConfigurationError):
            parabolic_boundary_bounds(run, 0.5, op199.symbol)

    def test_burn_in_required(self, run199, op199):
        with pytest.raises(ConfigurationError, match="burn-in"):
            parabolic_boundary_bounds(run199, 0.05, op199.symbol)

    def test_missing_snapshot(self, run199, op199):
        with pytest.raises(LookupError):
            parabolic_boundary_bounds(run199, 0.75, op199.symbol)
