import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from nonlocal_logistic import (
    BernsteinSymbol,
    ConfigurationError,
    CrowdingTerm,
    ReactionSpec,
    SamplerError,
    StatisticalPowerError,
    SubordinatorSampler,
    evolve,
    feynman_kac,
    green_solve,
    mc_green,
    simulate_killed_path,
    survival_lambda1,
)

DOMAIN = (-1.0, 1.0)


def sampler_for(kind, **kw):
    return SubordinatorSampler(BernsteinSymbol(kind, **kw), np.random.default_rng(42))


class TestIncrements:
    def test_nonnegative_and_scalar_api(self):
        s = sampler_for("fractional", alpha=1.0)
        draws = s.increments(0.5, 1000)
        assert np.all(draws >= 0)
        one = s.increments(0.5, 1)
        assert one.shape == (1,) and one[0] >= 0

    def test_stable_scaling_law(self):
        # S_{2 dt} has the law of 2^(2/alpha) S_dt
        alpha = 1.0
        s = sampler_for("fractional", alpha=alpha)
        a = s.increments(2.0 * 0.3, 100_000)
        b = 2.0 ** (2.0 / alpha) * s.increments(0.3, 100_000)
        assert ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_laplace_transform_fractional(self, x):
        s = sampler_for("fractional", alpha=1.0)
        draws = s.increments(1.0, 100_000)
        vals = np.exp(-x * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-math.sqrt(x))) <= 3.0 * se

    def test_laplace_transform_sum(self):
        sym = BernsteinSymbol("sum_fractional", 1.0, beta=1.5)
        s = SubordinatorSampler(sym, np.random.default_rng(7))
        draws = s.increments(1.0, 100_000)
        for x in (0.5, 1.0, 2.0):
            vals = np.exp(-x * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-sym.psi(x))) <= 3.5 * se

    def test_laplace_transform_relativistic(self):
        sym = BernsteinSymbol("relativistic", 1.0, m=1.0)
        s = SubordinatorSampler(sym, np.random.default_rng(8))
        draws = s.increments(1.0, 100_000)
        for x in (0.5, 1.0, 2.0):
            vals = np.exp(-x * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-sym.psi(x))) <= 3.5 * se

    def test_brownian_case_is_drift(self):
        s = sampler_for("fractional", alpha=2.0)
        assert np.all(s.increments(0.25, 100) == 0.25)

    def test_sum_with_laplacian_part_keeps_drift(self):
        s = sampler_for("sum_fractional", alpha=1.0, beta=2.0)
        draws = s.increments(0.25, 1000)
        assert np.all(draws >= 0.25)

    def test_unsupported_symbol(self):
        with pytest.raises(SamplerError, match="deterministic"):
            sampler_for("log_damped", alpha=1.0, beta=0.5)


class TestKilledPath:
    def test_outside_start_exits_immediately(self):
        s = sampler_for("fractional", alpha=1.0)
        path = simulate_killed_path(s, 2.0, 0.01, 1.0, DOMAIN)
        assert path.exited and path.exit_time == 0.0

    def test_positions_inside_until_exit(self):
        s = sampler_for("fractional", alpha=1.0)
        path = simulate_killed_path(s, 0.0, 0.01, 50.0, DOMAIN)
        assert path.exited
        inside = np.abs(path.positions[:-1]) < 1.0
        assert np.all(inside)
        assert abs(path.positions[-1]) >= 1.0
        assert path.exit_time == pytest.approx(0.01 * (path.positions.size - 1))

    def test_deterministic_given_seed(self):
        a = simulate_killed_path(sampler_for("fractional", alpha=1.0), 0.0, 0.01, 5.0, DOMAIN)
        b = simulate_killed_path(sampler_for("fractional", alpha=1.0), 0.0, 0.01, 5.0, DOMAIN)
        assert np.array_equal(a.positions, b.positions)


@pytest.fixture(scope="module")
def frac_sampler():
    return SubordinatorSampler(BernsteinSymbol("fractional", 1.0))


class TestMcGreen:
    def test_zero_field(self, frac_sampler):
        est = mc_green(frac_sampler, DOMAIN, lambda x: np.zeros_like(x), 0.0,
                       1000, 0.02, seed=1)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_pathwise_linearity(self, frac_sampler):
        one = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0,
                       2000, 0.02, seed=2)
        two = mc_green(frac_sampler, DOMAIN, lambda x: 2.0 * np.ones_like(x), 0.0,
                       2000, 0.02, seed=2)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-14)

    def test_matches_deterministic_green(self, frac_sampler, op199):
        det = green_solve(op199, np.ones(op199.n))
        center = det[(op199.n - 1) // 2]
        est = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0,
                       40_000, 0.01, seed=3)
        allowance = 3.0 * est.std_error + 3.0 * 0.01
        assert abs(est.value - center) <= allowance

    def test_seed_determinism_and_worker_invariance(self, frac_sampler):
        kw = dict(n_paths=20_000, dt_path=0.02, seed=5)
        a = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0, **kw)
        b = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0, **kw)
        c = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0,
                     n_workers=4, **kw)
        assert a.value == b.value == c.value
        assert a.std_error == b.std_error == c.std_error

    def test_replication_spread_matches_std_error(self, frac_sampler, op199):
        det = green_solve(op199, np.ones(op199.n))[(op199.n - 1) // 2]
        deviations = []
        for seed in range(10):
            est = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0,
                           8000, 0.01, seed=seed)
            deviations.append((est.value - det) / est.std_error)
        # O(dt) bias plus noise: all replicates inside a 3-sigma + bias band
        assert np.all(np.abs(deviations) <= 3.0 + 3.0 * 0.01 / est.std_error)

    def test_requires_paths(self, frac_sampler):
        with pytest.raises(ConfigurationError):
            mc_green(frac_sampler, DOMAIN, lambda x: x, 0.0, 10, 0.01, seed=0)


class TestFeynmanKac:
    def test_zero_data_zero_estimate(self, frac_sampler):
        est = feynman_kac(frac_sampler, DOMAIN, None, None, lambda x, t: x * 0 + 1.0,
                          0.0, 1.0, 0.0, 500, 0.05, seed=0)
        assert est.value == 0.0

    def test_central_limit_scaling(self, frac_sampler):
        ses = []
        for n in (1000, 4000, 16000):
            est = feynman_kac(frac_sampler, DOMAIN, lambda x: np.cos(x), None, None,
                              0.0, 1.0, 0.0, n, 0.02, seed=9)
            ses.append(est.std_error)
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.2)
        assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.2)

    def test_linear_potential_matches_spectral_mode(self, op199, eig199, frac_sampler):
        # terminal datum = principal mode, constant potential a: the exact
        # solution scales the mode by exp((a - lam1) * span)
        a_pot = 1.0
        span = 1.0
        grid = op199.grid
        g = lambda x: np.interp(x, grid.nodes, eig199.phi, left=0.0, right=0.0)
        est = feynman_kac(frac_sampler, DOMAIN, g, None,
                          lambda x, t: np.full_like(x, a_pot),
                          0.0, span, 0.0, 60_000, 0.01, seed=11)
        phi_center = eig199.phi[(op199.n - 1) // 2]
        exact = math.exp((a_pot - eig199.lam) * span) * phi_center
        assert abs(est.value - exact) <= 3.0 * est.std_error + 0.05 * exact

    def test_long_horizon_source_recovers_green(self, op199, eig199, frac_sampler):
        det = green_solve(op199, np.ones(op199.n))[(op199.n - 1) // 2]
        span = 5.0 / eig199.lam
        est = feynman_kac(frac_sampler, DOMAIN, None,
                          lambda x, t: np.ones_like(x), None,
                          0.0, span, 0.0, 40_000, 0.01, seed=12)
        assert abs(est.value - det) <= 3.0 * est.std_error + 3.0 * 0.01 + math.exp(-5.0)

    def test_path_count_guard(self, frac_sampler):
        with pytest.raises(ConfigurationError):
            feynman_kac(frac_sampler, DOMAIN, None, None, None, 0.0, 1.0, 0.0,
                        50, 0.01, seed=0)


class TestCrossRepresentation:
    def test_path_expectation_matches_parabolic_stepper(self, op199, eig199, frac_sampler):
        # linear problem (negligible crowding): the path functional with
        # constant potential a and terminal datum g equals the deterministic
        # evolution of g, up to statistical noise and both time biases
        a_pot, span, dt = 1.0, 1.0, 0.01
        grid = op199.grid
        g_vals = np.cos(0.5 * np.pi * grid.nodes) ** 2
        spec = ReactionSpec(a=a_pot, f=CrowdingTerm(b=1e-12))
        run = evolve(op199, spec, g_vals, dt=dt, horizon=span, snapshot_times=[span])
        w = run.snapshots[-1]
        g = lambda x: np.interp(x, grid.nodes, g_vals, left=0.0, right=0.0)
        for k, x0 in enumerate((-0.6, -0.3, 0.0, 0.3, 0.6)):
            node = int(round((x0 - grid.x_left) / grid.h)) - 1
            est = feynman_kac(frac_sampler, DOMAIN, g, None,
                              lambda x, t: np.full_like(x, a_pot),
                              0.0, span, x0, 20_000, 0.01, seed=40 + k)
            allowance = 3.0 * est.std_error + 3.0 * (0.01 + dt)
            assert abs(est.value - w[node]) <= allowance


class TestEngineIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_green_occupation_is_summed_survival(self, frac_sampler, workers):
        # same seed and step: mc_green with f = 1 adds dt for every grid time
        # k dt < 2.5 a path is alive, survival_lambda1 counts the paths alive
        # at k dt for k >= 1; both reduce the same killed paths
        n, dt, seed = 20_000, 0.02, 31
        est = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0,
                       n, dt, seed, horizon=2.5, n_workers=workers)
        fit = survival_lambda1(frac_sampler, DOMAIN, 0.0, dt * np.arange(1, 125),
                               n, dt, seed, n_workers=workers)
        counts = np.rint(fit.survival * n)
        assert est.value * n == pytest.approx(dt * (n + counts.sum()), rel=1e-12)


class TestSurvival:
    def test_monotone_curve_and_rate(self, op199, eig199, frac_sampler):
        t_grid = np.arange(0.25, 3.01, 0.25)
        fit = survival_lambda1(frac_sampler, DOMAIN, 0.0, t_grid, 30_000, 0.01, seed=21)
        assert np.all(np.diff(fit.survival) <= 0)
        assert abs(fit.lambda1_hat - eig199.lam) <= 0.1 * eig199.lam

    def test_domain_monotonicity(self, frac_sampler):
        t_big = np.arange(0.25, 3.01, 0.25)
        t_small = np.arange(0.1, 1.21, 0.1)
        big = survival_lambda1(frac_sampler, DOMAIN, 0.0, t_big, 20_000, 0.01, seed=22)
        small = survival_lambda1(frac_sampler, (-0.5, 0.5), 0.0, t_small, 20_000,
                                 0.005, seed=22)
        assert small.lambda1_hat > big.lambda1_hat

    def test_power_guard_short_grid(self, frac_sampler):
        with pytest.raises(StatisticalPowerError, match="0.1"):
            survival_lambda1(frac_sampler, DOMAIN, 0.0, [0.05, 0.1, 0.15, 0.2],
                             2000, 0.01, seed=23)

    def test_power_guard_few_survivors(self, frac_sampler):
        with pytest.raises(StatisticalPowerError, match="survive"):
            survival_lambda1(frac_sampler, DOMAIN, 0.0,
                             np.arange(0.5, 8.01, 0.5), 200, 0.01, seed=24)
