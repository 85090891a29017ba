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
    exit_pass,
    feynman_kac,
    green_solve,
    mc_green,
    simulate_killed_path,
    stochastic,
    survival_lambda1,
    trace_rows,
)
from nonlocal_logistic.stochastic import _stable_oneside
from oracles import (
    exit_pass_reference,
    kanter_reference,
    levy_reference,
    scalar_killed_path,
    three_quarter_reference,
    trace_rows_reference,
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

    @pytest.mark.parametrize("rho", [0.5, 0.75, 0.3])
    def test_kanter_draws_match_the_formula_bytes(self, rho):
        # rho = 1/2 (every alpha = 1 symbol) and rho = 3/4 are Kanter's formula
        # in closed form
        draws = _stable_oneside(rho, 4096, np.random.default_rng(17))
        if rho == 0.5:
            ref = levy_reference(4096, np.random.default_rng(17))
        elif rho == 0.75:
            ref = three_quarter_reference(4096, np.random.default_rng(17))
        else:
            ref = kanter_reference(rho, 4096, np.random.default_rng(17))
        assert draws.tobytes() == ref.tobytes()

    def test_three_quarter_form_is_kanter_to_rounding(self):
        # the same uniforms and exponentials; at most 1.5e-15 relative was measured
        # on 10 x 2e6 draws, all near U = pi, where the sines lose the digits
        draws = _stable_oneside(0.75, 200_000, np.random.default_rng(37))
        ref = kanter_reference(0.75, 200_000, np.random.default_rng(37))
        assert np.max(np.abs(draws - ref) / ref) <= 2e-15

    def test_levy_form_is_kanter_to_rounding(self):
        # the same uniforms and exponentials; 8.1e-16 relative was measured on 1e6 draws
        draws = _stable_oneside(0.5, 100_000, np.random.default_rng(23))
        ref = kanter_reference(0.5, 100_000, np.random.default_rng(23))
        assert np.max(np.abs(draws - ref) / ref) <= 2e-15

    def test_levy_form_is_finite_at_a_zero_uniform(self):
        # U = 0 has probability 2^-53 per draw: Kanter's sines give 0/0 there,
        # the closed form its limit 1 / (4 W)
        class ZeroUniform:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def random(self, size):
                return np.zeros(size)

            def standard_exponential(self, size):
                return self.rng.standard_exponential(size)

        w = np.random.default_rng(5).exponential(1.0, 64)
        draws = _stable_oneside(0.5, 64, ZeroUniform(5))
        assert draws.tobytes() == (1.0 / (4.0 * w)).tobytes()
        with np.errstate(invalid="ignore"):
            assert np.all(np.isnan(kanter_reference(0.5, 64, ZeroUniform(5))))

    @pytest.mark.parametrize("kind, kw, t_max", [
        ("relativistic", {"alpha": 1.0, "m": 1.0}, 5.0),
        ("sum_fractional", {"alpha": 1.0, "beta": 1.5}, 1.2),
    ])
    def test_levy_form_keeps_the_kill_decisions(self, monkeypatch, kind, kw, t_max):
        # every path dies at the same step as with Kanter's sines: the counts,
        # occupation moments and moves drawn are equal, not merely close
        t_grid = np.linspace(t_max / 10, t_max, 10)  # whole steps of 0.02

        def run():
            return exit_pass(sampler_for(kind, **kw), DOMAIN, 0.0, t_grid, 3000, 0.02,
                             seed=13, horizon=t_max)

        est, fit = run()
        monkeypatch.setattr(stochastic, "_stable_oneside", kanter_reference)
        ref_est, ref_fit = run()
        assert est == ref_est
        assert fit.survival.tobytes() == ref_fit.survival.tobytes()
        assert fit.lambda1_hat == ref_fit.lambda1_hat
        assert fit.survivors_at_end == ref_fit.survivors_at_end
        assert fit.path_steps == ref_fit.path_steps

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


DRAWS = ("random", "standard_exponential", "standard_normal")


class TestStreams:
    SEEDS = (3, 4, 5)

    @pytest.mark.parametrize("method", DRAWS)
    def test_segments_are_their_generators_sized_draws(self, method):
        # segment 1 is empty; the restricted view draws 2, 0 and 3 values
        rngs = [np.random.default_rng(s) for s in self.SEEDS]
        twins = [np.random.default_rng(s) for s in self.SEEDS]
        streams = stochastic._Streams(rngs, [0, 5, 5, 12])
        subset = streams.restricted(np.array([1, 3, 6, 7, 11]))
        for view, sizes in ((streams, (5, 0, 7)), (subset, (2, 0, 3))):
            got = getattr(view, method)(sum(sizes))
            want = [getattr(twin, method)(m) for twin, m in zip(twins, sizes) if m]
            assert got.tobytes() == np.concatenate(want).tobytes()
        for rng, twin in zip(rngs, twins):
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("low, high", [
        (0.0, 0.5 * np.pi), (0.0, np.pi), (-0.5 * np.pi, 0.5 * np.pi), (0.0, 1.0),
    ])
    def test_scaled_random_is_the_uniform_bits(self, low, high):
        # every uniform range the samplers draw
        got = np.random.default_rng(29).random(200_000)
        got *= high - low
        got += low
        assert got.tobytes() == np.random.default_rng(29).uniform(low, high, 200_000).tobytes()

    def test_standard_exponential_is_the_unit_exponential_bits(self):
        got = np.random.default_rng(31).standard_exponential(200_000)
        assert got.tobytes() == np.random.default_rng(31).exponential(1.0, 200_000).tobytes()


class TestMoves:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_characteristic_function_fractional(self, alpha):
        # X_dt - X_0 is symmetric alpha-stable: E cos(xi X) = exp(-dt |xi|^alpha)
        dt = 0.3
        draws = sampler_for("fractional", alpha=alpha).moves(dt, 100_000)
        for xi in (0.5, 1.0, 2.0):
            vals = np.cos(xi * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - math.exp(-dt * xi ** alpha)) <= 4.0 * se

    @pytest.mark.parametrize("kind, kw", [
        ("relativistic", {"alpha": 1.0, "m": 1.0}),
        ("sum_fractional", {"alpha": 1.0, "beta": 1.5}),
        ("fractional", {"alpha": 2.0}),
    ])
    def test_gaussian_move_of_the_increments_bytes(self, kind, kw):
        engine, twin = sampler_for(kind, **kw), sampler_for(kind, **kw)
        for size in (1, 4096):
            ds = twin.increments(0.01, size)
            ref = twin.rng.standard_normal(size) * np.sqrt(2.0 * ds)
            assert engine.moves(0.01, size).tobytes() == ref.tobytes()
        assert engine.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_step_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            sampler_for("fractional", alpha=1.0).moves(0.0, 10)


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


SAMPLERS = [
    ("fractional", {"alpha": 1.0}),
    ("relativistic", {"alpha": 1.0, "m": 1.0}),
    ("sum_fractional", {"alpha": 1.0, "beta": 1.5}),
]


class TestOneEngineTraces:
    @pytest.mark.parametrize("kind, kw", SAMPLERS)
    def test_single_path_matches_scalar_loop_bit_for_bit(self, kind, kw):
        engine, scalar = sampler_for(kind, **kw), sampler_for(kind, **kw)
        exited = []
        for _ in range(60):
            path = simulate_killed_path(engine, 0.3, 0.01, 1.0, DOMAIN)
            ref = scalar_killed_path(scalar, 0.3, 0.01, 1.0, DOMAIN)
            assert path.positions.tobytes() == ref.tobytes()
            steps = ref.size - 1
            assert path.exited == (abs(ref[-1]) >= 1.0)
            assert path.exit_time == (steps * 0.01 if path.exited else math.inf)
            exited.append(path.exited)
        assert any(exited) and not all(exited)  # exits and horizon stops both occur
        # both streams consumed the same draws
        assert engine.rng.random() == scalar.rng.random()

    @staticmethod
    def _rows(columns):
        """The ``(path, t, x)`` row tuples of trace columns."""
        return list(zip(*(col.tolist() for col in columns)))

    @staticmethod
    def _traces(rows):
        traces: dict[int, list[tuple[float, float]]] = {}
        for p, t, x in rows:
            traces.setdefault(p, []).append((t, x))
        return traces

    def test_rows_are_path_major_killed_paths(self):
        dt, horizon, x0 = 0.02, 1.0, 0.25
        rows = self._rows(
            trace_rows(sampler_for("fractional", alpha=1.0), x0, dt, horizon, DOMAIN, 300))
        ids = [p for p, _, _ in rows]
        assert ids == sorted(ids)
        traces = self._traces(rows)
        assert list(traces) == list(range(300))
        at_horizon = 0
        for trace in traces.values():
            ts = [t for t, _ in trace]
            xs = np.array([x for _, x in trace])
            assert trace[0] == (0.0, x0)
            assert ts == [k * dt for k in range(len(ts))]
            assert np.all(np.abs(xs[:-1]) < 1.0)
            if abs(xs[-1]) < 1.0:
                assert len(ts) - 1 == round(horizon / dt)
                at_horizon += 1
        assert 0 < at_horizon < 300

    def test_capped_at_1000_paths(self):
        rows = self._rows(
            trace_rows(sampler_for("fractional", alpha=1.0), 0.0, 0.05, 0.5, DOMAIN, 1500))
        assert list(self._traces(rows)) == list(range(1000))

    def test_start_outside_is_the_only_row(self):
        rows = self._rows(
            trace_rows(sampler_for("fractional", alpha=1.0), 1.5, 0.01, 1.0, DOMAIN, 40))
        assert rows == [(p, 0.0, 1.5) for p in range(40)]

    @pytest.mark.parametrize("n_paths", [1, 7, 1000, 5000])
    @pytest.mark.parametrize("kind, kw", SAMPLERS[:2])
    def test_columns_match_sorted_row_tuples_bit_for_bit(self, kind, kw, n_paths):
        columns = trace_rows(sampler_for(kind, **kw), 0.2, 0.01, 2.0, DOMAIN, n_paths)
        ref = trace_rows_reference(sampler_for(kind, **kw), 0.2, 0.01, 2.0, DOMAIN, n_paths)
        path, t, x = (np.array(col) for col in zip(*ref))
        assert [col.dtype for col in columns] == [np.int64, np.float64, np.float64]
        for got, want in zip(columns, (path, t, x)):
            assert got.tobytes() == want.tobytes()

    def test_off_grid_horizon_rejected(self):
        # 1.0 would otherwise stop alive paths at step 3 (t = 0.9)
        with pytest.raises(ConfigurationError,
                           match="horizon 1 is not a multiple of dt_path = 0.3"):
            trace_rows(sampler_for("fractional", alpha=1.0), 0.0, 0.3, 1.0, DOMAIN, 10)


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

    def test_off_grid_horizon_rejected(self, frac_sampler):
        # 0.505 would otherwise be read at step 50 (t = 0.5)
        with pytest.raises(ConfigurationError, match="horizon 0.505 is not a multiple of dt_path"):
            mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0, 1000, 0.01,
                     seed=1, horizon=0.505)


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
        span = 0.01 * math.ceil(5.0 / eig199.lam / 0.01)  # on the step grid, lam1 span >= 5
        est = feynman_kac(frac_sampler, DOMAIN, None,
                          lambda x, t: np.ones_like(x), None,
                          0.0, span, 0.0, 40_000, 0.01, seed=12)
        assert abs(est.value - det) <= 3.0 * est.std_error + 3.0 * 0.01 + math.exp(-5.0)

    def test_path_count_guard(self, frac_sampler):
        with pytest.raises(ConfigurationError):
            feynman_kac(frac_sampler, DOMAIN, None, None, None, 0.0, 1.0, 0.0,
                        50, 0.01, seed=0)

    @pytest.mark.parametrize("span, dt_path, message", [
        # 1.0 would otherwise be stepped by 1/3 while 0.3 is reported
        (1.0, 0.3, "horizon 1 is not a multiple of dt_path = 0.3"),
        (1e-12, 0.01, "horizon 1e-12 must be at least one dt_path step"),
    ])
    def test_off_grid_span_rejected(self, frac_sampler, span, dt_path, message):
        def g(x):
            raise AssertionError("g called before the span was checked")

        with pytest.raises(ConfigurationError, match=message):
            feynman_kac(frac_sampler, DOMAIN, g, None, None, 0.0, span, 0.0,
                        1000, dt_path, seed=0)


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


class TestLockstepGroups:
    # (kind, parameters, t_max): survival below 0.1 at t_max with enough survivors
    KINDS = [
        ("fractional", {"alpha": 1.0}, 3.2),
        ("relativistic", {"alpha": 1.0, "m": 1.0}, 5.2),
        ("sum_fractional", {"alpha": 1.0, "beta": 1.5}, 1.2),
    ]

    @pytest.mark.parametrize("n_chunks, n_paths, horizon_share", [
        (1, 6000, 0.5), (2, stochastic.CHUNK + 4000, 2.0),
        (9, 8 * stochastic.CHUNK + 1000, 1.0),  # two groups
    ])
    @pytest.mark.parametrize("kind, kw, t_max", KINDS)
    def test_exit_pass_is_each_chunk_stepped_alone(self, kind, kw, t_max, n_chunks, n_paths,
                                                   horizon_share):
        assert -(-n_paths // stochastic.CHUNK) == n_chunks
        dt = 0.04
        t_grid = np.linspace(t_max / 10, t_max, 10)  # whole steps of dt
        args = (sampler_for(kind, **kw), DOMAIN, 0.1, t_grid, n_paths, dt, 17)
        est, fit = exit_pass(*args, horizon=horizon_share * t_max)
        ref_est, ref_fit = exit_pass_reference(*args, horizon=horizon_share * t_max)
        assert est == ref_est
        assert fit.survival.tobytes() == ref_fit.survival.tobytes()
        assert fit.lambda1_hat == ref_fit.lambda1_hat
        assert fit.survivors_at_end == ref_fit.survivors_at_end
        assert fit.path_steps == ref_fit.path_steps

    def test_worker_counts_run_whole_groups_without_changing_results(self):
        # 9 chunks: groups of 4 + 5 for every worker count, on one or two threads
        n, dt, seed = 8 * stochastic.CHUNK + 500, 0.02, 19
        sampler = sampler_for("relativistic", alpha=1.0, m=1.0)
        t_grid = np.linspace(0.6, 6.0, 10)
        results = []
        for workers in (1, 2, 3):
            est, fit = exit_pass(sampler, DOMAIN, 0.0, t_grid, n, dt, seed, horizon=2.0,
                                 n_workers=workers)
            fk = feynman_kac(sampler, DOMAIN, np.cos, lambda x, s: x * x + s,
                             lambda x, s: np.sin(x), 0.0, 1.0, 0.2, n, dt, seed,
                             n_workers=workers)
            results.append((est, fit.survival.tobytes(), fit.lambda1_hat, fit.path_steps, fk))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n_chunks, groups", [(5, [5]), (8, [8]), (9, [4, 5]),
                                                  (17, [5, 6, 6])])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_groups_are_the_fewest_for_any_worker_count(self, n_chunks, groups, workers):
        got = stochastic._run_chunks(lambda rngs, sizes: len(sizes),
                                     n_chunks * stochastic.CHUNK, 5, workers)
        assert got == groups

    def test_every_step_yields_fresh_arrays(self):
        # no path leaves the wide domain, so no step's compaction drops a path
        steps = list(stochastic._killed_steps(
            sampler_for("fractional", alpha=1.0), [np.random.default_rng(3)], [50], 0.0,
            (-1e9, 1e9), 0.01, 20))
        assert len(steps) == 21 and all(inside.all() for *_, inside in steps)
        arrays = [a for _, idx, x, _ in steps for a in (idx, x)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


class TestExitPass:
    T_GRID = np.linspace(0.3, 3.0, 10)  # whole steps of 0.02

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("horizon", [1.0, 8.0])  # before and after t_max = 3
    def test_is_mc_green_and_survival_lambda1_at_one_seed(self, frac_sampler, workers,
                                                          horizon):
        n, dt, seed = 10_000, 0.02, 33
        est, fit = exit_pass(frac_sampler, DOMAIN, 0.0, self.T_GRID, n, dt, seed,
                             horizon=horizon, n_workers=workers)
        green = mc_green(frac_sampler, DOMAIN, lambda x: np.ones_like(x), 0.0, n, dt, seed,
                         horizon=horizon, n_workers=workers)
        ref = survival_lambda1(frac_sampler, DOMAIN, 0.0, self.T_GRID, n, dt, seed,
                               n_workers=workers)
        assert est == green
        assert fit.survival.tobytes() == ref.survival.tobytes()
        assert fit.lambda1_hat == ref.lambda1_hat
        assert fit.survivors_at_end == ref.survivors_at_end
        # the moves of the longer pass include those of survival_lambda1's
        assert (fit.path_steps == ref.path_steps) == (horizon <= self.T_GRID[-1])
        assert fit.path_steps >= ref.path_steps

    def test_off_grid_horizon_rejected(self, frac_sampler):
        with pytest.raises(ConfigurationError, match="horizon 0.505 is not a multiple"):
            exit_pass(frac_sampler, DOMAIN, 0.0, self.T_GRID, 1000, 0.01, seed=1,
                      horizon=0.505)


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

    def test_off_grid_times_rejected(self, frac_sampler):
        # 0.37 would otherwise be read at step 4 (t = 0.4)
        with pytest.raises(ConfigurationError, match="0.37 is not a multiple of dt_path"):
            survival_lambda1(frac_sampler, DOMAIN, 0.0, [0.37, 0.73, 1.11, 1.49, 2.53, 2.97],
                             2000, 0.1, seed=25)

    def test_power_guard_short_grid(self, frac_sampler):
        with pytest.raises(StatisticalPowerError, match="0.1"):
            survival_lambda1(frac_sampler, DOMAIN, 0.0, [0.05, 0.1, 0.15, 0.2],
                             2000, 0.01, seed=23)

    def test_power_guard_few_survivors(self, frac_sampler):
        with pytest.raises(StatisticalPowerError, match="survive"):
            survival_lambda1(frac_sampler, DOMAIN, 0.0,
                             np.arange(0.5, 8.01, 0.5), 200, 0.01, seed=24)
