"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nonlocal_logistic import (
    BernsteinSymbol,
    ContinuationError,
    CrowdingTerm,
    Grid1D,
    HarvestTerm,
    LevyKernel,
    ReactionSpec,
    SubordinatorSampler,
    antimaximum_profile,
    antimaximum_window,
    assemble,
    evolve,
    feynman_kac,
    green_solve,
    harvest_subsolution,
    hopf_ratio,
    longtime_classify,
    maximal_harvest,
    mc_green,
    newton_multistart,
    newton_polish,
    scan_cstar,
    small_branch,
    solve_logistic,
    stability_index,
    survival_lambda1,
    v_modulus,
)
from nonlocal_logistic.cli import main as cli_main

from oracles import mollifier, oracle_on_grid, parabolic_boundary_bounds, snapshot_at

DOMAIN = (-1.0, 1.0)


# -- criterion 1 -------------------------------------------------------------

ORACLE_SYMBOLS = [
    BernsteinSymbol("fractional", 0.5),
    BernsteinSymbol("fractional", 1.0),
    BernsteinSymbol("fractional", 1.5),
    BernsteinSymbol("sum_fractional", 1.0, beta=1.5),
]


@pytest.mark.parametrize("symbol", ORACLE_SYMBOLS, ids=lambda s: f"{s.kind}-{s.alpha}")
def test_criterion_1_operator_matches_multiplier_oracle(symbol):
    kernel = LevyKernel(symbol)
    errors = []
    for n in (199, 399, 799):
        grid = Grid1D(*DOMAIN, n)
        op = assemble(grid, kernel, far_cutoff=2.0 * grid.width)
        ref = oracle_on_grid(symbol, grid, mollifier, pad=6, kernel=kernel)
        val = op.matrix @ mollifier(grid.nodes)
        errors.append(np.linalg.norm(val - ref) / np.linalg.norm(ref))
    assert errors[0] <= 0.02
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_logistic_existence_uniqueness_stability(op199, eig199, steady_cache):
    for a_rel in (0.5, 1.0):
        spec = ReactionSpec(a=a_rel * eig199.lam)
        state = solve_logistic(op199, spec, tol=1e-10, eigenpair=eig199)
        assert state.branch == "none"
        assert np.all(state.u == 0)
    previous = None
    for a_rel in (1.5, 2.0, 3.0):
        state = steady_cache(a_rel)
        assert state.branch == "logistic"
        assert np.all(state.u > 0)
        assert state.residual <= 1e-8
        if previous is not None:
            assert np.all(previous.u <= state.u + 1e-12)
        previous = state
        idx = stability_index(op199, ReactionSpec(a=a_rel * eig199.lam), state)
        assert idx.lambda_star > 0


# -- criterion 3 -------------------------------------------------------------

@pytest.fixture(scope="module")
def harvest_suite(op199, eig199, steady_cache):
    """Shared data for the bifurcation criteria at a = 1.05 * lambda1."""
    a = 1.05 * eig199.lam
    spec = ReactionSpec(a=a, c=0.0, f=CrowdingTerm(), h=HarvestTerm(h0=1.0))
    va = solve_logistic(op199, replace(spec, h=None), tol=1e-10, eigenpair=eig199)
    scan = scan_cstar(op199, replace(spec, c=1.0), c_max=0.2,
                      bisect_rel_tol=1e-3, sample_ladder=4, tol=1e-10,
                      eigenpair=eig199)
    # empirical fold of the small branch: bisection on continuation success
    lo, hi = 0.0, scan.bracket[0]
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        try:
            state = small_branch(op199, replace(spec, c=mid), tol=1e-10)
            ok = state.branch == "small"
        except ContinuationError:  # past the fold; any other error fails the test
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    c_tilde = lo
    return {"a": a, "spec": spec, "va": va, "scan": scan, "c_tilde": c_tilde,
            "c_hat": c_tilde / 4.0}


def test_criterion_3_harvest_bifurcation(op199, eig199, harvest_suite):
    a = harvest_suite["a"]
    spec = harvest_suite["spec"]
    va = harvest_suite["va"]
    scan = harvest_suite["scan"]

    # the growth rate sits inside the measured anti-maximum window
    lam1, lam_hi = antimaximum_window(op199, eigenpair=eig199)
    assert lam1 < a < lam_hi

    # maximal branch for small c with the constructive lower envelope
    sub = harvest_subsolution(op199, spec, eigenpair=eig199)
    assert sub.c_threshold > 0
    for c in (0.5 * sub.c_threshold, sub.c_threshold):
        u1 = maximal_harvest(op199, replace(spec, c=c), tol=1e-10,
                             v_a=va, eigenpair=eig199)
        assert u1.branch == "maximal"
        assert np.all(u1.u >= sub.m * sub.beta * eig199.phi - 1e-10)
        assert np.all(u1.u <= va.u + 1e-8)

    # small branch below the maximal one, vanishing as c drops
    c_hat = harvest_suite["c_hat"]
    u1 = maximal_harvest(op199, replace(spec, c=c_hat / 2), tol=1e-10,
                         v_a=va, eigenpair=eig199)
    u2 = small_branch(op199, replace(spec, c=c_hat / 2), tol=1e-10)
    assert u2.branch == "small"
    assert np.all(u2.u <= u1.u + 1e-10)
    assert np.any(u2.u < u1.u - 1e-6)
    norms = [
        small_branch(op199, replace(spec, c=c_hat / 2 * 0.5 ** k), tol=1e-10).u.max()
        for k in range(4)
    ]
    assert all(norms[k + 1] < norms[k] for k in range(3))
    assert norms[-1] < 0.3 * norms[0]

    # critical-harvest bracket: existence below, nonexistence above
    lo, hi = scan.bracket
    assert hi - lo <= 1e-3 * scan.c_star
    by_c = {s.c: s.exists for s in scan.samples}
    assert by_c[lo] and not by_c[hi]

    # multistart finds the two branches and nothing else; references are
    # polished so branch error does not eat into the 10*tol identification
    spec_half = replace(spec, c=c_hat / 2)
    u1_ref = newton_polish(op199, spec_half, u1)
    u2_ref = newton_polish(op199, spec_half, u2)
    found = newton_multistart(op199, spec_half, n_starts=50, seed=0, tol=1e-12)
    positive = [u for u in found if np.all(u > 0)]
    assert positive
    hits_u1 = [u for u in positive if np.abs(u - u1_ref.u).max() <= 1e-9]
    hits_u2 = [u for u in positive if np.abs(u - u2_ref.u).max() <= 1e-9]
    assert hits_u1 and hits_u2
    assert len(hits_u1) + len(hits_u2) == len(positive)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_uniqueness_certificate(op199, eig199, steady_cache):
    from nonlocal_logistic import check_harvest_dominance

    a = 3.0 * eig199.lam
    spec = ReactionSpec(a=a, c=1.0, f=CrowdingTerm(), h=HarvestTerm(h0=1.0))
    scan = scan_cstar(op199, spec, c_max=8.0, bisect_rel_tol=1e-2,
                      sample_ladder=6, tol=1e-10, eigenpair=eig199)
    existing = [s for s in scan.samples if s.exists]
    smallest = min(existing, key=lambda s: s.c)
    assert check_harvest_dominance(smallest.state, replace(spec, c=smallest.c), eig199.lam)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_antimaximum_window(op199, eig199):
    lam1, lam_hi = antimaximum_window(op199, eigenpair=eig199)
    assert lam_hi > lam1
    below = antimaximum_profile(op199, None, -np.ones(op199.n), 0.9 * lam1)
    assert np.all(below.u > 0)
    inside = antimaximum_profile(op199, None, -np.ones(op199.n),
                                 0.5 * (lam1 + lam_hi))
    assert inside.max_ratio < 0


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_longtime_dichotomy(op199, eig199, steady_cache):
    tol = 1e-4
    for a_rel in (1.5, 2.0):
        spec = ReactionSpec(a=a_rel * eig199.lam)
        va = steady_cache(a_rel)
        for u0 in (0.01 * eig199.phi, 10.0 * va.u):
            res = longtime_classify(op199, spec, u0, dt=0.02, s_max=400.0,
                                    tol=tol, eigenpair=eig199)
            assert res.verdict == "to_positive_steady"
            assert res.final_distance <= tol
    for a_rel in (0.5, 0.99):
        spec = ReactionSpec(a=a_rel * eig199.lam)
        res = longtime_classify(op199, spec, 0.01 * eig199.phi, dt=0.02,
                                s_max=800.0, tol=tol, eigenpair=eig199)
        assert res.verdict == "to_zero"
        keep = res.times >= 0.5 * res.s_reached
        slope = np.polyfit(res.times[keep], -np.log(res.sup_norms[keep]), 1)[0]
        expected = eig199.lam - spec.a
        assert abs(slope - expected) <= 0.1 * expected
    # parabolic comparison on an ordered pair of initial data
    spec = ReactionSpec(a=2.0 * eig199.lam)
    times = [0.0, 0.5, 1.0, 2.0, 4.0]
    lo = evolve(op199, spec, 0.01 * eig199.phi, dt=0.02, horizon=4.0,
                snapshot_times=times)
    hi = evolve(op199, spec, 0.05 * eig199.phi, dt=0.02, horizon=4.0,
                snapshot_times=times)
    for w_lo, w_hi in zip(lo.snapshots, hi.snapshots):
        assert np.all(w_lo <= w_hi + 1e-12)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7a_subordinator_laplace():
    sampler = SubordinatorSampler(BernsteinSymbol("fractional", 1.0),
                                  np.random.default_rng(100))
    draws = sampler.increments(1.0, 100_000)
    for x in (0.5, 1.0, 2.0):
        vals = np.exp(-x * draws)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.exp(-math.sqrt(x))) <= 3.0 * se


def test_criterion_7b_green_cross_validation(op399):
    sampler = SubordinatorSampler(BernsteinSymbol("fractional", 1.0))
    det = green_solve(op399, np.ones(op399.n))
    ones = lambda x: np.ones_like(x)
    for k, x0 in enumerate((-0.5, -0.25, 0.0, 0.25, 0.5)):
        node = int(round((x0 - op399.grid.x_left) / op399.grid.h)) - 1
        est = mc_green(sampler, DOMAIN, ones, x0, 100_000, 0.01, seed=200 + k)
        assert abs(est.value - det[node]) <= 3.0 * est.std_error + 3.0 * 0.01
    # the killing bias shrinks when the path step is quartered
    center = det[(op399.n - 1) // 2]
    coarse = mc_green(sampler, DOMAIN, ones, 0.0, 200_000, 0.04, seed=300)
    fine = mc_green(sampler, DOMAIN, ones, 0.0, 200_000, 0.01, seed=301)
    err_coarse = abs(coarse.value - center)
    err_fine = abs(fine.value - center)
    noise = 3.0 * math.hypot(coarse.std_error, fine.std_error)
    assert err_fine < err_coarse
    assert err_coarse - err_fine > noise


def test_criterion_7c_feynman_kac_spectral(op199, eig199):
    sampler = SubordinatorSampler(BernsteinSymbol("fractional", 1.0))
    a_pot, span = 1.0, 1.0
    g = lambda x: np.interp(x, op199.grid.nodes, eig199.phi, left=0.0, right=0.0)
    est = feynman_kac(sampler, DOMAIN, g, None,
                      lambda x, t: np.full_like(x, a_pot),
                      0.0, span, 0.0, 100_000, 0.01, seed=400)
    exact = math.exp((a_pot - eig199.lam) * span) * eig199.phi[(op199.n - 1) // 2]
    assert abs(est.value - exact) <= 3.0 * est.std_error + 0.05 * exact


def test_criterion_7d_survival_rate(op199, eig199):
    sampler = SubordinatorSampler(BernsteinSymbol("fractional", 1.0))
    fit = survival_lambda1(sampler, DOMAIN, 0.0, np.arange(0.25, 3.01, 0.25),
                           100_000, 0.01, seed=500)
    assert abs(fit.lambda1_hat - eig199.lam) <= 0.10 * eig199.lam


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_boundary_diagnostics(op199, op399, op799, eig199, eig399,
                                          eig799, steady_cache, harvest_suite):
    symbol = op199.symbol
    va = steady_cache(2.0)
    u1 = maximal_harvest(
        op199, replace(harvest_suite["spec"], c=harvest_suite["c_hat"]),
        tol=1e-10, v_a=harvest_suite["va"], eigenpair=eig199,
    )
    spec = ReactionSpec(a=2.0 * eig199.lam)
    run = evolve(op199, spec, eig199.phi, dt=0.01, horizon=1.0,
                 snapshot_times=[0.5, 1.0])
    for field in (eig199.phi, va.u, u1.u, snapshot_at(run, 1.0)):
        assert hopf_ratio(field, op199.grid, symbol).min > 0
    for s in (0.5, 1.0):
        bb = parabolic_boundary_bounds(run, s, symbol)
        assert bb.passed
    # gauge-seminorm finite and refinement-stable on the torsion field
    semis = []
    for op in (op399, op799):
        semis.append(v_modulus(green_solve(op, np.ones(op.n)), op.grid, symbol))
    assert all(np.isfinite(s) for s in semis)
    assert semis[1] <= 1.1 * semis[0]
    # hopf minimum refinement-stable within 20 percent
    m399 = hopf_ratio(eig399.phi, op399.grid, symbol).min
    m799 = hopf_ratio(eig799.phi, op799.grid, symbol).min
    assert abs(m799 - m399) <= 0.2 * m399


# -- criterion 9 -------------------------------------------------------------

BASE_CFG = """
symbol = {{ kind = "fractional", alpha = 1.0 }}
domain = {{ left = -1.0, right = 1.0, n = 63 }}
{extra}
output = {{ directory = "{outdir}" }}
"""


def _run(tmp_path, sub, extra, name, *args):
    outdir = tmp_path / name
    cfg = tmp_path / (name + ".cfg")
    cfg.write_text(BASE_CFG.format(extra=extra, outdir=outdir.as_posix()))
    assert cli_main([sub, "--config", str(cfg), *args]) == 0
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name != "manifest.json"
    }


def test_criterion_9_reproducibility(tmp_path):
    assert _run(tmp_path, "eigen", "", "e1") == _run(tmp_path, "eigen", "", "e2")
    mc = 'stochastic = { n_paths = 4000, dt_path = 0.02, seed = 11, t_max = 3.0, n_t = 10 }'
    first = _run(tmp_path, "mc-check", mc, "m1")
    second = _run(tmp_path, "mc-check", mc, "m2")
    multi = _run(tmp_path, "mc-check", mc, "m3", "--workers", "3")
    assert first == second == multi
    par = ('problem = { a_rel = 2.0 }\n'
           'parabolic = { dt = 0.02, horizon = 0.2, snapshot_times = [0.0, 0.2], '
           'u0 = { kind = "eigenfunction", scale = 0.01 } }')
    assert _run(tmp_path, "evolve", par, "v1") == _run(tmp_path, "evolve", par, "v2")
