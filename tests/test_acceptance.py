"""Acceptance gate: one test per published criterion, desk scale.

Each test prints a single pass/fail line (visible under capture) before
asserting, so a red run still reports every criterion's verdict.
"""

import math
import time

import numpy as np
import pytest

from crossdiff import (EnsembleSpec, Field, LambdaSpec, ModelSpec,
                       PolynomialMap, Region, SolverConfig, bmo_profile,
                       build_grid, classic_skt, compute_lambda_l,
                       decay_bound_check, energy_inequality_check,
                       ensemble_absorbing_ball, eval_lambda, initial_field,
                       morrey_profile, run, verify_structure)

from conftest import eigenmode_field, smooth_field


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return _announce


def fixed_dt(scheme, dt, t_end, **kw):
    return SolverConfig(scheme=scheme, dt0=dt, dt_min=dt, dt_max=dt,
                        t_end=t_end, **kw)


def test_heat_equation_validation(heat1, announce):
    # Dirichlet eigenmode vs e^{-2 pi^2 t}; implicit 1e-4 steps to 0.05;
    # the common time-discretization floor cancels in the Richardson
    # difference quotient, exposing the spatial order
    t_end = 0.05
    expect_factor = math.exp(-2.0 * math.pi ** 2 * t_end)
    start = time.monotonic()
    errs = {}
    for N in (16, 32, 64):
        g = build_grid(1.0, 1.0, N, N, "dirichlet")
        traj = run(heat1, eigenmode_field(g),
                   fixed_dt("newton", 1e-4, t_end, record_every=500))
        assert traj.reached_end
        expected = expect_factor * traj.records[0].L2
        errs[N] = abs(traj.records[-1].L2 - expected) / expected
    elapsed = time.monotonic() - start
    order = math.log2((errs[16] - errs[32]) / (errs[32] - errs[64]))
    ok = errs[64] < 0.02 and 1.8 <= order <= 2.2 and elapsed < 60.0
    announce(1, ok, f"final-norm error {errs[64]:.2e} (tol 2e-2), "
                    f"spatial order {order:.3f} (2.0 +/- 0.2), "
                    f"{elapsed:.1f}s")
    assert errs[64] < 0.02
    assert 1.8 <= order <= 2.2
    assert elapsed < 60.0


def test_mass_conservation_without_reaction(skt, announce):
    g = build_grid(1.0, 1.0, 32, 32, "neumann")
    f0 = smooth_field(g, m=2, amp=0.5)
    traj = run(skt, f0, fixed_dt("imex", 1e-4, 0.1, record_every=100))
    assert traj.reached_end
    assert len(traj.dt_history) == 1000
    m0 = np.array(traj.records[0].mass)
    drift = max(float(np.max(np.abs(np.array(r.mass) - m0) / np.abs(m0)))
                for r in traj.records[1:])
    ok = drift <= 1e-10
    announce(2, ok, f"mass drift {drift:.2e} over 1000 implicit steps "
                    "(tol 1e-10)")
    assert drift <= 1e-10


def test_structural_certification_is_seed_stable(skt, announce):
    region = Region.positive(100.0, 2)
    reps = {s: verify_structure(skt, region, n=10000, seed=s)
            for s in (0, 1)}
    ratios = {}
    for s in (0, 1):
        pts = region.sample(10000, seed=s)
        r = eval_lambda(skt, pts.T) / (1.0 + pts.sum(axis=1))
        ratios[s] = (float(r.min()), float(r.max()))

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b))

    elliptic = all(reps[s].ellipticity_pass for s in (0, 1))
    in_band = all(0.2 <= lo and hi <= 5.0 for lo, hi in ratios.values())
    band_stable = (rel(ratios[0][0], ratios[1][0]) <= 0.05
                   and rel(ratios[0][1], ratios[1][1]) <= 0.05)
    cs = [reps[s].C_star_hat for s in (0, 1)]
    cs_ok = all(math.isfinite(c) for c in cs) and rel(cs[0], cs[1]) <= 0.05
    ok = elliptic and in_band and band_stable and cs_ok
    announce(3, ok, f"ellipticity {'pass' if elliptic else 'FAIL'}, "
                    f"envelope/(1+u+v) in [{ratios[0][0]:.3f}, "
                    f"{ratios[0][1]:.3f}] (band [0.2, 5]), "
                    f"C* {cs[0]:.4f} vs {cs[1]:.4f}")
    assert elliptic and in_band and band_stable and cs_ok


def test_spectral_constant_brute_force_limits(heat2, announce):
    cubic = ModelSpec(P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (3,))]]),
                      lam=LambdaSpec(1.0, 3.0, 2.0))
    devs = []
    for l in (0.0, 1.0, 2.0):
        v2 = compute_lambda_l(heat2, l, n=100000, seed=0)
        v1 = compute_lambda_l(cubic, l, n=100000, seed=0)
        devs.append(abs(v2 - 1.0))
        devs.append(abs(v1 - (l + 1.0)))
    worst = max(devs)
    ok = worst <= 1e-6
    announce(4, ok, f"isotropic and scalar infima within {worst:.2e} "
                    "of the exact constants (tol 1e-6)")
    assert worst <= 1e-6


def test_energy_inequality_margins_and_stability(skt_lv, announce):
    def fitted_c(N, dt):
        g = build_grid(1.0, 1.0, N, N, "neumann")
        f0 = initial_field("positive_fourier", g, 2, 0.2, seed=5)
        traj = run(skt_lv, f0, fixed_dt("imex", dt, 0.4, store_states=True))
        assert traj.reached_end
        rep = energy_inequality_check(traj, skt_lv)
        return rep

    base = fitted_c(16, 2e-3)
    half_dt = fitted_c(16, 1e-3)
    half_h = fitted_c(32, 2e-3)
    C0 = base.constants["C"]
    dev_dt = abs(half_dt.constants["C"] - C0) / C0
    dev_h = abs(half_h.constants["C"] - C0) / C0
    margins_ok = bool(np.all(base.margins >= 0)) and base.passed
    ok = margins_ok and dev_dt < 0.2 and dev_h < 0.2
    announce(5, ok, f"margins >= 0: {margins_ok}, C={C0:.4f} moves "
                    f"{dev_dt:.2%} under dt/2 and {dev_h:.2%} under h/2 "
                    "(tol 20%)")
    assert margins_ok
    assert dev_dt < 0.2
    assert dev_h < 0.2


def test_decay_bound_on_exact_riccati_flow(announce):
    # y' = 1 - y^2 from y(0) = 3 is y = coth(t + artanh(1/3))
    t = np.arange(0.0, 1.2 + 1e-9, 1e-3)
    y = 1.0 / np.tanh(t + math.atanh(1.0 / 3.0))
    rep = decay_bound_check(t, y, p=2.0, M1_targets=(2.0,))
    c2, c3 = rep.constants["c2"], rep.constants["c3"]
    consts_ok = abs(c2 - 1.0) <= 0.02 and abs(c3 - 1.0) <= 0.02
    pos = t > 0
    bound_ok = rep.passed and bool(np.all(y[pos] <= 1.0 + 1.0 / t[pos]))
    T = rep.extra["T_star"][2.0]
    entry = rep.extra["entry_times"][2.0]
    T_ok = abs(T - 1.0) <= 0.05 and entry is not None and entry <= T
    ok = consts_ok and bound_ok and T_ok
    announce(6, ok, f"(c2, c3)=({c2:.4f}, {c3:.4f}) (1 +/- 2%), "
                    f"bound holds, T*(2)={T:.4f} vs entry {entry:.3f}")
    assert consts_ok
    assert bound_ok
    assert T_ok


def test_absorbing_ball_across_amplitudes(skt_lv, announce):
    g = build_grid(1.0, 1.0, 32, 32, "neumann")
    cfg = SolverConfig(scheme="imex", dt0=1e-3, dt_min=1e-6, dt_max=1e-2,
                       t_end=8.0)
    es = EnsembleSpec(model=skt_lv, grid=g, config=cfg,
                      family="positive_fourier", count=10,
                      amp_range=(0.1, 100.0), seed=11, M1_targets=(2.0,),
                      verify_region=Region.positive(300.0, 2))
    start = time.monotonic()
    rep = ensemble_absorbing_ball(es)
    elapsed = time.monotonic() - start
    reached = rep.all_reached
    dominated = all(rep.dominance.get(i) for i in range(es.count))
    tails_ok = rep.commonality_ratio <= 1.1
    ok = reached and dominated and tails_ok and elapsed < 600.0
    announce(7, ok, f"all {es.count} runs reached t_end: {reached}, "
                    f"dominance: {dominated}, tail sup ratio "
                    f"{rep.commonality_ratio:.4f} (tol 1.1), {elapsed:.0f}s")
    assert reached
    assert dominated
    assert tails_ok
    assert elapsed < 600.0


def test_mean_oscillation_three_field_contract(announce):
    g = build_grid(1.0, 1.0, 64, 64, "neumann")
    h = 1.0 / 64

    const = bmo_profile(Field.constant(g, [2.5]), radii=(4 * h, 8 * h))
    const_ok = all(v == 0.0 for v in const.oscillation.values())

    i = np.arange(64)
    board = ((i[:, None] + i[None, :]) % 2 * 2.0 - 1.0)
    cb = bmo_profile(Field(g, board[None]),
                     radii=(2 * h, 4 * h, 8 * h, 16 * h))
    cb_ok = all(v >= 0.5 for v in cb.oscillation.values())

    lin = bmo_profile(Field.from_function(g, 1, lambda c, X, Y: X),
                      radii=(4 * h, 8 * h, 16 * h))
    slopes = [lin.oscillation[R] / R for R in (4 * h, 8 * h, 16 * h)]
    lin_ok = max(slopes) / min(slopes) <= 1.2

    ok = const_ok and cb_ok and lin_ok
    announce(8, ok, f"constant 0 exactly: {const_ok}, checkerboard "
                    f">= 0.5 at all radii: {cb_ok}, linear slope spread "
                    f"{max(slopes) / min(slopes) - 1.0:.2%} (tol 20%)")
    assert const_ok
    assert cb_ok
    assert lin_ok


def test_gradient_concentration_vanishes_with_radius(heat1, announce):
    g = build_grid(1.0, 1.0, 64, 64, "dirichlet")
    traj = run(heat1, eigenmode_field(g),
               fixed_dt("imex", 5e-4, 0.26, store_states=True))
    assert traj.reached_end
    h = 1.0 / 64
    rep = morrey_profile(traj, (4 * h, 8 * h, 16 * h, 32 * h))
    slope = rep.constants["slope"]
    fitted_p = rep.constants["fitted_p"]
    ok = slope > 0 and fitted_p > 2.0
    announce(9, ok, f"log-log slope {slope:.3f} > 0, fitted integrability "
                    f"exponent {fitted_p:.3f} > 2")
    assert slope > 0
    assert fitted_p > 2.0
