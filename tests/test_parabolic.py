import numpy as np
import pytest

import nonlocal_logistic.parabolic as parabolic
from nonlocal_logistic import (
    ConfigurationError,
    CrowdingTerm,
    DimensionError,
    HarvestTerm,
    ReactionSpec,
    evolve,
    longtime_classify,
    max_stable_dt,
)


@pytest.fixture(scope="module")
def spec2(eig199):
    return ReactionSpec(a=2.0 * eig199.lam)


class TestEvolve:
    def test_zero_stays_zero(self, op199, spec2):
        run = evolve(op199, spec2, np.zeros(op199.n), dt=0.01, horizon=0.2)
        assert np.all(run.snapshots == 0.0)

    def test_steady_state_is_stationary(self, op199, spec2, steady_cache):
        va = steady_cache(2.0)
        run = evolve(
            op199, spec2, va.u, dt=0.01, horizon=1.0,
            snapshot_times=np.arange(0.0, 1.01, 0.25),
        )
        for snap in run.snapshots:
            assert np.abs(snap - va.u).max() <= 1e-9

    def test_comparison_of_ordered_data(self, op199, spec2, eig199):
        lo = 0.01 * eig199.phi
        hi = 0.03 * eig199.phi
        times = [0.0, 0.2, 0.5, 1.0]
        run_lo = evolve(op199, spec2, lo, dt=0.01, horizon=1.0, snapshot_times=times)
        run_hi = evolve(op199, spec2, hi, dt=0.01, horizon=1.0, snapshot_times=times)
        for a, b in zip(run_lo.snapshots, run_hi.snapshots):
            assert np.all(a <= b + 1e-14)

    def test_semigroup_monotone_in_time(self, op199, spec2, eig199):
        # from a small subsolution-like start the flow increases; the time
        # shift then preserves that order between shifted snapshots
        times = [0.0, 0.25, 0.5, 0.75]
        run = evolve(op199, spec2, 0.01 * eig199.phi, dt=0.01, horizon=0.75,
                     snapshot_times=times)
        w0, w1, w2, w3 = run.snapshots
        assert np.all(w0 <= w1 + 1e-14)
        assert np.all(w1 <= w2 + 1e-14)  # shift of (w0 <= w1) by 0.25
        assert np.all(w2 <= w3 + 1e-14)

    def test_apriori_bound(self, op199, spec2, eig199):
        bound = max(10.0, spec2.apriori_bound())
        run = evolve(op199, spec2, 10.0 * eig199.phi, dt=0.005, horizon=0.5,
                     snapshot_times=[0.0, 0.25, 0.5])
        assert run.snapshots.max() <= bound + 1e-10

    def test_dt_refinement_first_order(self, op199, spec2, eig199):
        u0 = 0.5 * eig199.phi
        finals = {}
        for dt in (0.02, 0.01, 0.005):
            run = evolve(op199, spec2, u0, dt=dt, horizon=1.0, snapshot_times=[1.0])
            finals[dt] = run.snapshots[-1]
        d1 = np.abs(finals[0.02] - finals[0.01]).max()
        d2 = np.abs(finals[0.01] - finals[0.005]).max()
        assert 1.5 <= d1 / d2 <= 3.0

    def test_snapshot_lookup(self, op199, spec2):
        run = evolve(op199, spec2, np.zeros(op199.n), dt=0.01, horizon=0.1,
                     snapshot_times=[0.0, 0.1])
        assert run.snapshot_at(0.1) is not None
        with pytest.raises(LookupError):
            run.snapshot_at(0.05)

    def test_snapshots_reproducible(self, op199, spec2, eig199):
        u0 = 0.2 * eig199.phi
        r1 = evolve(op199, spec2, u0, dt=0.01, horizon=0.5, snapshot_times=[0.5])
        r2 = evolve(op199, spec2, u0, dt=0.01, horizon=0.5, snapshot_times=[0.5])
        assert np.array_equal(r1.snapshots, r2.snapshots)


def _evolve(op, spec, u0, dt):
    return evolve(op, spec, u0, dt=dt, horizon=1.0)


def _longtime(op, spec, u0, dt):
    return longtime_classify(op, spec, u0, dt=dt, s_max=1.0, tol=1e-8)


@pytest.mark.parametrize("run", [_evolve, _longtime], ids=["evolve", "longtime"])
class TestInputGuards:
    @pytest.fixture(autouse=True)
    def no_solves(self, monkeypatch):
        # every input check must fire before the eigen or steady solve
        def refuse(*args, **kwargs):
            raise AssertionError("solver called before the input checks")

        monkeypatch.setattr(parabolic, "principal_eigenpair", refuse)
        monkeypatch.setattr(parabolic, "solve_logistic", refuse)

    def test_dt_guard(self, run, op199, spec2):
        dt_max = max_stable_dt(spec2, 1.0)
        with pytest.raises(ConfigurationError, match="positivity"):
            run(op199, spec2, np.ones(op199.n), 2.0 * dt_max)

    def test_rejects_harvest_term(self, run, op199, eig199):
        spec = ReactionSpec(a=2.0 * eig199.lam, c=0.1, f=CrowdingTerm(), h=HarvestTerm())
        with pytest.raises(ConfigurationError, match="requires c = 0"):
            run(op199, spec, np.zeros(op199.n), 0.01)

    def test_negative_u0_rejected(self, run, op199, spec2):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            run(op199, spec2, -np.ones(op199.n), 0.01)

    def test_wrong_shape_rejected(self, run, op199, spec2):
        with pytest.raises(DimensionError):
            run(op199, spec2, np.zeros(op199.n - 1), 0.01)


class TestLongtime:
    def test_supercritical_reaches_steady(self, op99, eig99):
        spec = ReactionSpec(a=2.0 * eig99.lam)
        res = longtime_classify(op99, spec, 0.01 * eig99.phi, dt=0.02,
                                s_max=100.0, tol=1e-5, eigenpair=eig99)
        assert res.verdict == "to_positive_steady"
        assert res.final_distance <= 1e-5

    def test_from_above_monotone_decrease(self, op99, eig99):
        from nonlocal_logistic import solve_logistic

        spec = ReactionSpec(a=2.0 * eig99.lam)
        va = solve_logistic(op99, spec, eigenpair=eig99)
        res = longtime_classify(op99, spec, 10.0 * va.u, dt=0.005,
                                s_max=100.0, tol=1e-5, eigenpair=eig99)
        assert res.verdict == "to_positive_steady"
        d = res.steady_distances
        assert np.all(np.diff(d) <= 1e-12)

    def test_subcritical_decays_at_spectral_rate(self, op99, eig99):
        spec = ReactionSpec(a=0.5 * eig99.lam)
        res = longtime_classify(op99, spec, 0.01 * eig99.phi, dt=0.01,
                                s_max=50.0, tol=1e-6, eigenpair=eig99)
        assert res.verdict == "to_zero"
        t = res.times
        keep = t >= 0.5 * res.s_reached
        slope = np.polyfit(t[keep], -np.log(res.sup_norms[keep]), 1)[0]
        assert slope == pytest.approx(eig99.lam - spec.a, rel=0.1)

    def test_undecided_when_horizon_short(self, op99, eig99):
        spec = ReactionSpec(a=0.99 * eig99.lam)
        res = longtime_classify(op99, spec, 0.5 * eig99.phi, dt=0.01,
                                s_max=1.0, tol=1e-8, eigenpair=eig99)
        assert res.verdict == "undecided"

    def test_follows_the_evolve_states(self, op99, eig99):
        # both entry points step the same IMEX scheme from the same datum
        spec = ReactionSpec(a=0.99 * eig99.lam)
        u0 = 0.5 * eig99.phi
        res = longtime_classify(op99, spec, u0, dt=0.01, s_max=1.0, tol=1e-8,
                                eigenpair=eig99)
        run = evolve(op99, spec, u0, dt=0.01, horizon=1.0, snapshot_times=[0.0, 0.5, 1.0])
        assert np.array_equal(res.sup_norms[[0, 50, 100]], run.snapshots.max(axis=1))
