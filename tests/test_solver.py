import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, strategies as st

import crossdiff.solver as solver_mod
from crossdiff import (Field, GeneralReaction, InputError, LambdaSpec,
                       ModelSpec, NewtonConvergenceError, NumericalStateError,
                       PolynomialMap, RunStats, SolverConfig, build_grid,
                       eval_A, initial_field, run, step)
from crossdiff.grid import (component_laplacian, face_coefficients,
                            flux_operator, stable_dt)

from conftest import eigenmode_field, smooth_field
from test_grid import assert_same_csr, dirichlet_mode_eigenvalue


def fixed_dt_config(scheme, dt, t_end, **kw):
    return SolverConfig(scheme=scheme, dt0=dt, dt_min=dt, dt_max=dt,
                        t_end=t_end, **kw)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(dt0=1e-3, t_end=1.0)
        assert cfg.dt_min == 1e-3 / 1024.0
        assert cfg.dt_max == 1e-3
        assert cfg.scheme == "imex"

    @pytest.mark.parametrize("kw", [
        dict(scheme="rk4"),
        dict(dt0=-1e-3),
        dict(t_end=0.0),
        dict(dt_min=1e-2),                     # dt_min > dt0
        dict(dt_max=1e-4),                     # dt_max < dt0
        dict(cfl_safety=0.0),
        dict(cfl_safety=1.5),
        dict(record_every=0),
        dict(max_newton=0),
    ])
    def test_invalid(self, kw):
        base = dict(dt0=1e-3, t_end=1.0)
        base.update(kw)
        with pytest.raises(InputError):
            SolverConfig(**base)

    @pytest.mark.parametrize("kw", [
        # a NaN linear_tol turned the residual gate off; a negative one
        # rejected every step
        dict(linear_tol=math.nan), dict(linear_tol=-1.0),
        dict(linear_tol=0.0), dict(linear_tol=math.inf),
        dict(newton_abs_tol=math.nan), dict(newton_abs_tol=-1e-12),
        dict(newton_abs_tol=math.inf),
        dict(newton_rel_tol=math.nan), dict(newton_rel_tol=-1e-12),
        dict(newton_rel_tol=math.inf),
        # a NaN threshold turned blowup detection off
        dict(blowup_threshold=math.nan), dict(blowup_threshold=0.0),
        dict(blowup_threshold=-1.0),
        dict(max_steps=0), dict(max_steps=2.5), dict(max_steps=math.nan),
        dict(max_steps=True),
        # a fractional record_every recorded at another cadence, and a
        # fractional max_newton raised TypeError inside the Newton loop
        dict(record_every=2.5), dict(record_every=True),
        dict(max_newton=2.5), dict(max_newton=math.inf),
        dict(t_end=math.inf), dict(t_end=math.nan),
        dict(dt0=math.inf, dt_max=math.inf), dict(dt0=math.nan),
        # a NaN snapshot time was dropped without a snapshot
        dict(snapshot_times=(0.5, math.nan)),
        dict(snapshot_times=(math.inf,)),
        # an infinite dt_max made every implicit rung the whole gap to
        # the next target, retried without end when that step failed
        dict(dt_max=math.inf),
        # a time beyond t_end got no snapshot; a negative one stored the
        # initial state under its own time
        dict(snapshot_times=(0.5, 1.5)),
        dict(snapshot_times=(-1.0,)),
    ])
    def test_malformed_numbers_raise(self, kw):
        with pytest.raises(InputError, match=next(iter(kw))):
            SolverConfig(**dict(dict(dt0=1e-3, t_end=1.0), **kw))

    def test_edge_numbers_are_accepted(self):
        cfg = SolverConfig(dt0=1e-3, t_end=1.0, newton_abs_tol=0.0,
                           newton_rel_tol=0.0, blowup_threshold=math.inf,
                           max_steps=5.0, record_every=2.0, max_newton=3.0)
        for name, value in (("max_steps", 5), ("record_every", 2),
                            ("max_newton", 3)):
            assert getattr(cfg, name) == value
            assert type(getattr(cfg, name)) is int

    def test_snapshot_times_sorted_unique(self):
        cfg = SolverConfig(dt0=1e-3, t_end=1.0,
                           snapshot_times=(0.5, 0.1, 0.5, 0.3))
        assert cfg.snapshot_times == (0.1, 0.3, 0.5)


class TestStep:
    @pytest.mark.parametrize("scheme", ["explicit", "imex", "newton"])
    def test_constant_state_fixed_point(self, skt, grid16n, scheme):
        f = Field.constant(grid16n, [1.5, 0.5])
        out, _ = step(skt, f, 1e-3, scheme=scheme)
        assert np.allclose(out.values, f.values, rtol=1e-13, atol=1e-13)

    def test_newton_linear_problem_one_iteration(self, heat1, grid16d):
        rng = np.random.default_rng(2)
        f = Field(grid16d, rng.normal(size=(1, 16, 16)))
        out, solves = step(heat1, f, 1e-3, scheme="newton")
        assert solves == 1
        assert np.all(np.isfinite(out.values))

    def test_backward_euler_eigenmode_factor(self, heat1, grid32d):
        # exact discrete factor 1/(1 + dt*mu_h); within dt*|mu_h - 2 pi^2|
        # of the continuum factor 1/(1 + 2 pi^2 dt)
        dt = 1e-3
        f = eigenmode_field(grid32d)
        mu = dirichlet_mode_eigenvalue(grid32d)
        out, _ = step(heat1, f, dt, scheme="imex")
        ratio = out.values / f.values
        assert np.allclose(ratio, 1.0 / (1.0 + dt * mu), rtol=1e-11)
        continuum = 1.0 / (1.0 + 2.0 * math.pi ** 2 * dt)
        assert abs(ratio.mean() - continuum) <= dt * abs(mu - 2.0 * math.pi ** 2)

    def test_newton_matches_imex_for_linear_p(self, heat1, grid32d):
        f = eigenmode_field(grid32d)
        a, _ = step(heat1, f, 1e-3, scheme="imex")
        b, _ = step(heat1, f, 1e-3, scheme="newton")
        assert np.allclose(a.values, b.values, atol=1e-12)

    def test_invalid_step_inputs(self, heat1, grid16n):
        f = Field.constant(grid16n, [1.0])
        with pytest.raises(InputError):
            step(heat1, f, 0.0)
        with pytest.raises(InputError):
            step(heat1, f, 1e-3, scheme="leapfrog")

    @pytest.mark.parametrize("scheme", ["explicit", "imex", "newton"])
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    @pytest.mark.parametrize("given", [False, True])
    def test_non_finite_dt_raises_before_any_work(self, heat1, grid16n,
                                                  monkeypatch, scheme, dt,
                                                  given):
        # NaN and inf gave an all-NaN field (explicit, imex) or a
        # NewtonConvergenceError; with no config the error named dt0
        def no_work(*args):
            raise AssertionError("step() did work for a non-finite dt")

        monkeypatch.setattr(solver_mod, "_reaction_term", no_work)
        cfg = SolverConfig(scheme=scheme, dt0=1e-3, t_end=1.0) if given else None
        with pytest.raises(InputError,
                           match=rf"^dt must be finite and positive, got {dt!r}$"):
            step(heat1, Field.constant(grid16n, [1.0]), dt, scheme, config=cfg)


class TestRunConservation:
    @pytest.mark.parametrize("scheme,tol", [
        ("imex", 1e-12), ("newton", 1e-12), ("explicit", 1e-11),
    ])
    def test_neumann_zero_reaction_mass_constant(self, skt, grid16n, scheme, tol):
        f0 = smooth_field(grid16n, m=2, amp=0.3)
        if scheme == "explicit":
            # adaptive dt; the stability cap sets the actual step size
            cfg = SolverConfig(scheme=scheme, dt0=2e-4, t_end=0.02,
                               record_every=10)
        else:
            cfg = fixed_dt_config(scheme, 1e-3, 0.02, record_every=10)
        traj = run(skt, f0, cfg)
        assert traj.reached_end
        m0 = np.array(traj.records[0].mass)
        for rec in traj.records[1:]:
            drift = np.abs(np.array(rec.mass) - m0) / np.abs(m0)
            assert drift.max() <= tol


class TestRunAccuracy:
    def test_dirichlet_eigenmode_l2_decay(self, heat1, grid32d):
        f0 = eigenmode_field(grid32d)
        traj = run(heat1, f0, fixed_dt_config("imex", 1e-3, 0.05,
                                              record_every=50))
        assert traj.reached_end
        expect = traj.records[0].L2 * math.exp(-2.0 * math.pi ** 2 * 0.05)
        got = traj.records[-1].L2
        assert abs(got - expect) / expect <= 0.02

    def test_scheme_agreement_first_order_in_dt(self, skt_lv):
        g = build_grid(1.0, 1.0, 8, 8, "neumann")
        f0 = smooth_field(g, m=2, amp=0.02)

        def finals(dt):
            outs = []
            for scheme in ("explicit", "imex", "newton"):
                tr = run(skt_lv, f0, fixed_dt_config(scheme, dt, 0.02,
                                                     record_every=1000))
                assert tr.reached_end
                outs.append(tr.final.values)
            return outs

        def spread(outs):
            dists = []
            for i in range(3):
                for j in range(i + 1, 3):
                    dists.append(np.sqrt(((outs[i] - outs[j]) ** 2).sum()
                                         * g.cell_area))
            return max(dists)

        s1 = spread(finals(1e-3))
        s2 = spread(finals(5e-4))
        assert 1.5 <= s1 / s2 <= 2.8

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("scheme", ["imex", "newton"])
    def test_self_convergence_is_first_order_in_dt(self, skt_lv, scheme, bc):
        # backward Euler on the nonlinear SKT operator with explicit
        # Lotka-Volterra reaction: the differences of the final states at
        # dt = 4e-3 / 2^k, k = 0..3, halve with dt, so the finest ratio
        # log2(|u_k - u_k+1| / |u_k+1 - u_k+2|) is the temporal order 1.
        # The lagged linear solves enter with their own error, so this
        # bounds how loose their target may be
        g = build_grid(1.0, 1.0, 16, 16, bc)
        f0 = initial_field("positive_fourier", g, 2, 1.0, seed=1)
        finals = []
        for k in range(4):
            dt = 4e-3 / 2 ** k
            traj = run(skt_lv, f0, fixed_dt_config(scheme, dt, 0.04,
                                                   record_every=1000))
            assert traj.reached_end and len(traj.dt_history) == 10 * 2 ** k
            finals.append(traj.final.values)
        d = [np.linalg.norm(a - b) for a, b in zip(finals, finals[1:])]
        assert abs(math.log2(d[1] / d[2]) - 1.0) <= 0.1


class TestRunControl:
    def test_determinism(self, skt_lv, grid16n):
        f0 = smooth_field(grid16n, m=2, amp=0.5)
        cfg = SolverConfig(scheme="imex", dt0=1e-3, t_end=0.05, record_every=7)
        a = run(skt_lv, f0, cfg)
        b = run(skt_lv, f0, cfg)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.final.values, b.final.values)
        assert [r.L2 for r in a.records] == [r.L2 for r in b.records]

    def test_record_and_state_cadence(self, heat1, grid16n):
        f0 = smooth_field(grid16n, amp=0.1)
        cfg = SolverConfig(scheme="imex", dt0=1e-3, t_end=0.02,
                           record_every=5, store_states=True)
        traj = run(heat1, f0, cfg)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.02, rel=1e-12)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.records) == len(traj.times) == len(traj.states)

    def test_snapshots_land_exactly(self, heat1, grid16n):
        f0 = smooth_field(grid16n, amp=0.1)
        cfg = SolverConfig(scheme="imex", dt0=1e-3, t_end=0.05,
                           snapshot_times=(0.017, 0.031))
        traj = run(heat1, f0, cfg)
        assert set(traj.snapshots) == {0.017, 0.031}
        for snap in traj.snapshots.values():
            assert np.all(np.isfinite(snap.values))
        assert np.all(traj.dt_history <= cfg.dt_max * (1 + 1e-12))

    def test_growth_clipped_by_dt_max(self, heat1, grid16n):
        f0 = smooth_field(grid16n, amp=0.1)
        cfg = SolverConfig(scheme="imex", dt0=1e-4, dt_max=1e-3, t_end=0.05)
        traj = run(heat1, f0, cfg)
        assert traj.reached_end
        # growth by 1.2 per accepted step reaches and then respects dt_max
        assert traj.dt_history.max() <= 1e-3 * (1 + 1e-12)
        assert traj.dt_history.max() >= 0.99e-3

    def test_first_negative_monitor(self, heat1, grid16d, grid16n):
        pos = eigenmode_field(grid16d)
        traj = run(heat1, pos, fixed_dt_config("imex", 1e-3, 0.01))
        assert traj.first_negative_t is None
        neg = Field.constant(grid16n, [-1.0])
        traj2 = run(heat1, neg, fixed_dt_config("imex", 1e-3, 0.01))
        assert traj2.first_negative_t == 0.0

    def test_blowup_detected(self, grid16n):
        grow = ModelSpec(
            P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
            reaction=GeneralReaction(1, f0=PolynomialMap(1, [[(1.0, (1,))]])))
        f0 = Field.constant(grid16n, [1.0])
        cfg = SolverConfig(scheme="imex", dt0=1e-2, t_end=10.0,
                           blowup_threshold=5.0)
        traj = run(grow, f0, cfg)
        assert traj.terminated_reason == "blowup"
        assert not traj.reached_end
        assert traj.times[-1] < 10.0
        assert np.abs(traj.final.values).max() > 5.0

    def test_stability_cap_below_floor_is_stiff(self, heat1, grid16n):
        f0 = smooth_field(grid16n, amp=1.0)
        cfg = fixed_dt_config("explicit", 0.1, 1.0)
        traj = run(heat1, f0, cfg)
        assert traj.terminated_reason == "stiff"
        assert traj.times[-1] == 0.0

    def test_max_steps_cap(self, heat1, grid16n):
        f0 = smooth_field(grid16n, amp=0.1)
        cfg = SolverConfig(scheme="imex", dt0=1e-4, t_end=1.0, max_steps=3)
        traj = run(heat1, f0, cfg)
        assert traj.terminated_reason == "maxsteps"
        assert len(traj.dt_history) == 3

    @staticmethod
    def on_the_ladder(dt, dt_max):
        return any(math.ldexp(dt_max, -k) == dt for k in range(64))

    @pytest.mark.parametrize("scheme", ["imex", "newton"])
    @pytest.mark.parametrize("dt0,dt_min,amp", [(1e-3, 1e-6, 300.0),
                                                (3e-3, 3e-3, 30.0)])
    def test_implicit_steps_move_on_the_ladder(self, skt_lv, grid16n,
                                               scheme, dt0, dt_min, amp):
        # every step is a rung dt_max 2^-k, the floor dt_min (3e-3 lies
        # between the rungs 2.5e-3 and 5e-3) or the gap to a target; at
        # amplitude 300 the reaction cap starts below dt0
        f0 = initial_field("positive_fourier", grid16n, 2, amp, 3)
        cfg = SolverConfig(scheme=scheme, dt0=dt0, dt_min=dt_min,
                           dt_max=1e-2, t_end=0.0537,
                           snapshot_times=(0.0173, 0.031))
        traj = run(skt_lv, f0, cfg)
        assert traj.reached_end and traj.stats.rejected_steps == 0
        targets = {0.0173, 0.031, 0.0537}
        assert set(traj.snapshots) == {0.0173, 0.031}
        assert targets <= set(traj.times) and traj.times[-1] == 0.0537
        for dt, t0, t1 in zip(traj.dt_history, traj.times, traj.times[1:]):
            landing = t1 in targets and dt == t1 - t0
            assert landing or dt == dt_min or (
                dt > dt_min and self.on_the_ladder(dt, 1e-2)), (dt, t0, t1)
        rungs = {dt for dt in traj.dt_history if self.on_the_ladder(dt, 1e-2)}
        assert len(rungs) >= 2
        assert (dt_min in traj.dt_history) == (dt0 == dt_min)

    def test_ladder_follows_the_controller(self, heat1, grid16n):
        # the controller's own dt grows by 1.2 per accepted step, and each
        # step takes the rung at or below it: 1.2 x a rung would fall back
        # to that rung and never climb
        traj = run(heat1, smooth_field(grid16n, amp=0.1),
                   SolverConfig(scheme="imex", dt0=1e-3, dt_max=1e-2,
                                t_end=0.2))
        want, c = [], 1e-3
        for _ in range(20):
            k = 0
            while math.ldexp(1e-2, -k) > c:
                k += 1
            want.append(math.ldexp(1e-2, -k))
            c = min(c * 1.2, 1e-2)
        assert traj.reached_end
        assert traj.dt_history[:20].tolist() == want
        assert want[0] == 6.25e-4 and want[-1] == 1e-2

    def test_explicit_keeps_its_cfl_steps(self, skt_lv, grid16n):
        # the explicit step is the stability cap, with nothing to factor
        f0 = initial_field("positive_fourier", grid16n, 2, 1.0, 1)
        cfg = SolverConfig(scheme="explicit", dt0=1e-3, dt_min=1e-7,
                           dt_max=1e-3, t_end=2e-3)
        traj = run(skt_lv, f0, cfg)
        assert traj.reached_end and traj.times[-1] == 2e-3
        first = stable_dt(skt_lv, f0, cfg.cfl_safety)
        assert traj.dt_history[0] == first < 1e-3
        off = [dt for dt in traj.dt_history[:-1]
               if not self.on_the_ladder(dt, 1e-3)]
        assert len(off) == len(traj.dt_history) - 1 > 2

    @pytest.mark.parametrize("scheme,dt_min,amp,t_end", [
        ("explicit", 1e-7, 1.0, 4e-3), ("imex", 1e-6, 300.0, 1e-2),
        ("newton", 1e-6, 300.0, 1e-2)])
    def test_every_accepted_step_names_one_limit(self, skt_lv, grid16n,
                                                 scheme, dt_min, amp, t_end):
        # at amplitude 300 the reaction cap sets the first implicit step
        f0 = initial_field("positive_fourier", grid16n, 2, amp, 3)
        cfg = SolverConfig(scheme=scheme, dt0=1e-3, dt_min=dt_min,
                           dt_max=1e-2, t_end=t_end, snapshot_times=(0.0023,))
        traj = run(skt_lv, f0, cfg)
        limits = traj.stats.dt_limits
        assert traj.reached_end
        assert sum(limits.values()) == len(traj.dt_history) > 2
        assert limits["landing"] == 2
        assert set(limits) - {"landing"} == (
            {"cfl"} if scheme == "explicit" else {"reaction", "controller"})

    def test_newton_stall_at_floor_reports_nonfinite(self, skt, grid16n):
        f0 = smooth_field(grid16n, m=2, amp=100.0)
        cfg = SolverConfig(scheme="newton", dt0=1e-2, dt_min=1e-3, dt_max=1e-2,
                           t_end=1.0, max_newton=1, newton_abs_tol=1e-15,
                           newton_rel_tol=0.0)
        traj = run(skt, f0, cfg)
        assert traj.terminated_reason == "nonfinite"
        assert not traj.reached_end


INF = math.inf
RUNG3 = math.ldexp(1e-2, -3)  # 1.25e-3, the rung below 1.44e-3


class TestStepSize:
    """_step_size alone, one row per limit: the scheme, dt_min and dt_max
    of the config (dt0 = dt_min), the controller's dt, the cfl and
    reaction caps, the gap to the next target, and the step and limit
    it gives."""

    @pytest.mark.parametrize(
        "scheme,dt_min,dt_max,dt,cfl,reaction,gap,want,limit", [
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, INF, 1.0,
                         1e-2, "dt_max", id="dt_max"),
            pytest.param("imex", 1e-6, 1e-2, 1.44e-3, INF, INF, 1.0,
                         RUNG3, "controller", id="controller-between-rungs"),
            pytest.param("newton", 1e-6, 1e-2, 1.44e-3, INF, INF, 1.0,
                         RUNG3, "controller", id="newton-between-rungs"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, 2e-2, 1.0,
                         1e-2, "dt_max", id="reaction-above"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, 3e-3, 1.0,
                         2.5e-3, "reaction", id="reaction-below-on-a-rung"),
            pytest.param("explicit", 1e-7, 1e-3, 1e-3, 2e-3, INF, 1.0,
                         1e-3, "dt_max", id="cfl-above"),
            pytest.param("explicit", 1e-7, 1e-3, 1e-3, 4e-4, INF, 1.0,
                         4e-4, "cfl", id="cfl-below"),
            pytest.param("explicit", 1e-7, 1e-3, 1e-3, 5e-4, 3e-4, 1.0,
                         3e-4, "reaction", id="reaction-below-cfl"),
            pytest.param("explicit", 1e-7, 1e-3, 1e-3, 5e-4, 5e-4, 1.0,
                         5e-4, "cfl", id="tie-keeps-the-first-cap"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, 5e-7, 1.0,
                         None, "stiff", id="stiff"),
            pytest.param("explicit", 1e-6, 1e-2, 1e-2, 5e-7, INF, 1.0,
                         None, "stiff", id="explicit-stiff"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, 1e-6 * (1 - 1e-13),
                         1.0, 1e-6 * (1 - 1e-13), "reaction",
                         id="cap-within-the-floor-tolerance"),
            pytest.param("imex", 3e-3, 1e-2, 4e-3, INF, INF, 1.0,
                         3e-3, "dt_min", id="dt_min-between-rungs"),
            pytest.param("imex", 3e-3, 1e-2, 3e-3, INF, INF, 1.0,
                         3e-3, "dt_min", id="controller-at-dt_min"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, INF, 4e-3,
                         4e-3, "landing", id="gap-below"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, INF,
                         1e-2 * (1 + 5e-13), 1e-2, "landing",
                         id="gap-within-1e-12"),
            pytest.param("imex", 1e-6, 1e-2, 1e-2, INF, INF,
                         1e-2 * (1 + 2e-12), 1e-2, "dt_max",
                         id="gap-beyond-1e-12"),
            pytest.param("imex", 1e-6, 1e-2, 1.44e-3, INF, INF, 1.3e-3,
                         RUNG3, "controller", id="gap-above-the-rung"),
            pytest.param("explicit", 1e-7, 1e-2, 1.44e-3, INF, INF, 1.0,
                         1.44e-3, "controller", id="explicit-off-the-ladder"),
        ])
    def test_rule(self, scheme, dt_min, dt_max, dt, cfl, reaction, gap,
                  want, limit):
        cfg = SolverConfig(scheme=scheme, dt0=dt_min, dt_min=dt_min,
                           dt_max=dt_max, t_end=1.0)
        got = solver_mod._step_size(cfg, dt, cfl, reaction, gap)
        assert got == (want, limit)
        assert got[0] is None or math.isfinite(got[0])

    @pytest.mark.parametrize("k", range(8))
    def test_every_rung_is_a_fixed_point(self, k):
        cfg = SolverConfig(scheme="imex", dt0=1e-6, dt_min=1e-6,
                           dt_max=1e-2, t_end=1.0)
        rung = math.ldexp(1e-2, -k)
        assert solver_mod._step_size(cfg, rung, INF, INF, 1.0)[0] == rung
        below = np.nextafter(rung, 0.0)
        assert solver_mod._step_size(cfg, below, INF, INF, 1.0)[0] == (
            rung / 2)


def bits(x):
    return x.view(np.uint64)


def cellwise(A):
    """(m, m, Nx, Ny) cell matrices A as one sparse matrix acting
    cellwise on component-major vectors: with N = Nx * Ny cells, row
    c*N + n holds A[c, :, n] at columns d*N + n, so its data run in
    (c, n, d) order."""
    m = A.shape[0]
    A = A.reshape(m, m, -1)
    N = A.shape[2]
    cols = np.broadcast_to(np.arange(m) * N + np.arange(N)[:, None], (m, N, m))
    return sp.csr_matrix((A.transpose(0, 2, 1).ravel(), cols.ravel(),
                          np.arange(0, m * m * N + 1, m)), shape=(m * N, m * N))


def scipy_newton_operator(L, A, dt):
    """The Newton Jacobian I - dt L A of the cellwise A by scipy's sparse
    product and subtraction, an independent oracle: the product adds its
    one term per entry to 0.0, and both operations drop exact zeros."""
    return sp.identity(L.shape[0], format="csr") - dt * (L @ cellwise(A))


def implicit_matrix(kind, spec, f, dt=1e-3):
    """The IMEX matrix I - dt L(A(u)) or the Newton Jacobian
    I - dt (I_m (x) L_1) A(u) at the state f, by scipy's sparse
    arithmetic."""
    if kind == "imex":
        L = flux_operator(f.grid, *face_coefficients(spec, f))
        return sp.identity(L.shape[0], format="csr") - dt * L
    return scipy_newton_operator(component_laplacian(f.grid, f.m),
                                 eval_A(spec, f.values), dt)


def newton_operator(factors, A, dt=1e-3, built=None):
    """The Newton Jacobian I - dt (I_m (x) L_1) A on the 16x16 Neumann
    grid through the factor policy, keyed on the cellwise A; each build
    is appended to built."""
    g = build_grid(1.0, 1.0, 16, 16, "neumann")

    def build():
        if built is not None:
            built.append(A)
        return solver_mod._newton_operator(g, A, dt)

    return factors.operator(dt, (A,), build)


def cell_A(spec, f):
    return eval_A(spec, f.values)


def fresh_policy():
    """A new factor policy at the default linear_tol."""
    return solver_mod._LaggedFactor(SolverConfig.linear_tol, RunStats())


class TestNewtonOperator:
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_scipy_product(self, m, bc, seed):
        # one product per entry on the flux plan has the pattern and bits
        # of scipy's product and subtraction, exact zeros dropped: with
        # zero blocks (as a12 = 0 gives), scattered 0.0 and -0.0 entries,
        # and a dt at which products underflow
        rng = np.random.default_rng(seed)
        Nx, Ny = rng.integers(2, 10, size=2)
        g = build_grid(1.3, 0.7, Nx, Ny, bc)
        A = rng.uniform(-1.0, 2.0, size=(m, m, Nx, Ny))
        if seed % 2:
            A[0, 1:] = 0.0
        A[rng.random(A.shape) < 0.2] = -0.0
        A[rng.random(A.shape) < 0.1] = 0.0
        L = component_laplacian(g, m)
        for dt in (1e-3, 0.37, 5e-320):
            want = scipy_newton_operator(L, A, dt)
            want.sort_indices()
            assert_same_csr(solver_mod._newton_operator(g, A, dt), want)

    def test_only_newton_builds_the_product_plan(self, skt):
        # the product plan is built by the first Jacobian of (grid, m),
        # shared after that, and read-only
        g = build_grid(1.0, 1.0, 7, 5, "dirichlet")
        f = smooth_field(g, m=2, amp=0.3)
        solver_mod._product_plan.cache_clear()
        run(skt, f, fixed_dt_config("imex", 1e-3, 3e-3))
        assert solver_mod._product_plan.cache_info().currsize == 0
        run(skt, f, fixed_dt_config("newton", 1e-3, 3e-3))
        assert solver_mod._product_plan.cache_info().misses == 1
        _, l1, at = solver_mod._product_plan(g, 2)
        assert solver_mod._product_plan(build_grid(1.0, 1.0, 7, 5,
                                                   "dirichlet"), 2)[1] is l1
        assert not (l1.flags.writeable or at.flags.writeable)

    def test_threads_share_the_product_plan(self, skt):
        # more threads than cores build Jacobians while one of them keeps
        # emptying the cache: every build has the bits of a serial one
        g = build_grid(1.0, 1.0, 12, 10, "dirichlet")
        A = eval_A(skt, smooth_field(g, m=2, amp=0.7).values)
        want = solver_mod._newton_operator(g, A, 1e-3)

        def work(k):
            for _ in range(20):
                if k == 0:
                    solver_mod._product_plan.cache_clear()
                J = solver_mod._newton_operator(g, A, 1e-3)
                if not (np.array_equal(J.indices, want.indices)
                        and np.array_equal(bits(J.data), bits(want.data))):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(work, k) for k in range(6)]
                assert all(f.result(timeout=120) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_skt_lv_run_keeps_the_scipy_product_bits(self, skt_lv,
                                                     monkeypatch):
        # a nonlinear run with Jacobians from the plan and from scipy's
        # product: the same states, steps and counts
        g = build_grid(1.0, 1.0, 32, 32, "neumann")
        f0 = initial_field("positive_fourier", g, 2, 1.0, 1)
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_max=1e-2, t_end=0.1)
        got = run(skt_lv, f0, cfg)
        monkeypatch.setattr(
            solver_mod, "_newton_operator",
            lambda g, A, dt: scipy_newton_operator(
                component_laplacian(g, A.shape[0]), A, dt))
        want = run(skt_lv, f0, cfg)
        assert got.reached_end and len(got.dt_history) == 20
        assert got.stats.factorizations == 6
        assert np.array_equal(bits(got.final.values), bits(want.final.values))
        assert np.array_equal(bits(got.dt_history), bits(want.dt_history))
        assert np.array_equal(got.newton_history, want.newton_history)
        for count in ("assemblies", "factorizations", "linear_solves",
                      "rejected_steps"):
            assert (getattr(got.stats, count)
                    == getattr(want.stats, count)), count


class TestSpsolve:
    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("kind", ["imex", "newton"])
    def test_matches_scipy_bitwise(self, skt, bc, kind):
        f = smooth_field(build_grid(1.0, 1.0, 12, 10, bc), m=2, amp=3.0)
        M = implicit_matrix(kind, skt, f)
        rhs = np.random.default_rng(1).normal(size=M.shape[0])
        want = spla.spsolve(M.copy(), rhs, permc_spec="MMD_AT_PLUS_A")
        got = solver_mod.spsolve(M, rhs, fresh_policy())
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["imex", "newton"])
    def test_every_lu_gives_the_mmd_bits_in_any_order(self, m, bc, kind):
        # two operators of one pattern: each LU and each fresh policy's
        # solve give scipy's MMD_AT_PLUS_A bits, whichever was factored
        # first, so no solve depends on what was factored before it
        spec = cross_model(m)
        g = build_grid(1.0, 1.0, 12, 10, bc)
        ops = [implicit_matrix(kind, spec, smooth_field(g, m=m, amp=3.0)),
               implicit_matrix(kind, spec, smooth_field(g, m=m, amp=2.0,
                                                        shift=2.5))]
        for M in ops:
            M.sum_duplicates()
        assert np.array_equal(ops[0].indptr, ops[1].indptr)
        assert np.array_equal(ops[0].indices, ops[1].indices)
        rhs = np.random.default_rng(3).normal(size=ops[0].shape[0])
        want = [bits(spla.spsolve(M, rhs, permc_spec="MMD_AT_PLUS_A"))
                for M in ops]
        for order in ((0, 1), (1, 0)):
            for k in order:
                lu = solver_mod._factor(ops[k])
                assert np.array_equal(bits(lu.solve(rhs, trans="T")), want[k])
            for k in order:
                x = solver_mod.spsolve(ops[k], rhs, fresh_policy())
                assert np.array_equal(bits(x), want[k])

    def test_reused_factor_gives_fresh_bits(self, skt, grid16n):
        # the same face coefficients give back the held operator, and the
        # LU factored from it solves a new right-hand side exactly
        f = smooth_field(grid16n, m=2, amp=3.0)
        coefs = face_coefficients(skt, f)
        built = []
        cache = fresh_policy()

        def operator(coefs):
            return cache.operator(1e-3, coefs, lambda: built.append(1)
                                  or implicit_matrix("imex", skt, f))

        M = operator(coefs)
        rng = np.random.default_rng(2)
        solver_mod.spsolve(M, rng.normal(size=M.shape[0]), cache)
        rhs = rng.normal(size=M.shape[0])
        assert operator(tuple(a.copy() for a in coefs)) is M
        again = solver_mod.spsolve(M, rhs, cache)
        assert (len(built), cache.stats.factorizations,
                cache.stats.linear_solves) == (1, 1, 2)
        fresh = solver_mod.spsolve(M.copy(), rhs, fresh_policy())
        assert np.array_equal(bits(again), bits(fresh))

    @pytest.mark.parametrize("entry", [0, 700, -1])
    def test_one_ulp_change_refactors(self, skt, grid16n, entry):
        # one coefficient entry one ulp up rebuilds the operator; at the
        # same dt the held LU of the old one solves it on the lagged
        # target, with no factorization
        f = smooth_field(grid16n, m=2, amp=3.0)
        cache = fresh_policy()
        built = []
        A = cell_A(skt, f)
        M = newton_operator(cache, A, built=built)
        rhs = np.ones(M.shape[0])
        solver_mod.spsolve(M, rhs, cache)
        A2 = A.copy()
        A2.flat[entry] = np.nextafter(A2.flat[entry], np.inf)
        M2 = newton_operator(cache, A2, built=built)
        assert M2 is not M
        x = solver_mod.spsolve(M2, rhs, cache)
        assert len(built) == 2 and cache.stats.factorizations == 1
        assert cache.factored is M
        target = max(cache.rtol, cache.floor) * np.linalg.norm(rhs)
        assert np.linalg.norm(rhs - M2 @ x) <= target
        M3 = newton_operator(cache, A2.copy(), built=built)
        assert M3 is M2
        solver_mod.spsolve(M3, rhs, cache)
        assert len(built) == 2 and cache.stats.factorizations == 1

    def test_one_ulp_dt_change_rebuilds(self, skt, grid16n):
        f = smooth_field(grid16n, m=2, amp=3.0)
        cache = fresh_policy()
        built = []
        A = cell_A(skt, f)
        M = newton_operator(cache, A, built=built)
        M2 = newton_operator(cache, A, dt=np.nextafter(1e-3, 1.0), built=built)
        assert M2 is not M and len(built) == 2

    def test_singular_gives_nan_and_is_not_cached(self):
        M = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        cache = fresh_policy()
        for n in (1, 2):
            x = solver_mod.spsolve(M, np.ones(2), cache)
            assert x.shape == (2,) and np.all(np.isnan(x))
            assert cache.lu is None and cache.factored is None
            assert cache.stats.factorizations == n

    def test_singular_newton_system_raises(self, heat1, grid16n, monkeypatch):
        # dt * L = I with A = I makes the Jacobian I - dt L A exactly zero;
        # the residual takes L from component_laplacian, the Jacobian is
        # built by _newton_operator
        dt = 0.5
        monkeypatch.setattr(
            solver_mod, "component_laplacian",
            lambda g, m: sp.identity(m * g.Nx * g.Ny, format="csr") / dt)
        monkeypatch.setattr(
            solver_mod, "_newton_operator",
            lambda g, A, dt: scipy_newton_operator(
                solver_mod.component_laplacian(g, A.shape[0]), A, dt))
        f = smooth_field(grid16n, amp=0.5)
        with pytest.raises(NewtonConvergenceError, match="singular"):
            step(heat1, f, dt, scheme="newton")


def cross_model(m):
    """P_i = u_i + 0.5 u_i^2 + 0.2 u_i u_(i+1): a state-dependent A for
    any m, coupling each component to the next."""
    terms = []
    for i in range(m):
        comp = [(1.0, tuple(int(k == i) for k in range(m))),
                (0.5, tuple(2 * int(k == i) for k in range(m)))]
        if m > 1:
            comp.append((0.2, tuple(int(k in (i, (i + 1) % m))
                                    for k in range(m))))
        terms.append(comp)
    return ModelSpec(P=PolynomialMap(m, terms), lam=LambdaSpec(1.0),
                     name=f"cross{m}")


def mmd_lu(M):
    """scipy's own MMD_AT_PLUS_A SuperLU of the CSR matrix M read as
    the CSC of its transpose."""
    return spla.splu(sp.csc_array((M.data, M.indices, M.indptr),
                                  shape=M.shape), permc_spec="MMD_AT_PLUS_A")


class TestGmresCycle:
    """_gmres_cycle against scipy's gmres on the same lagged LU.

    scipy's cycle stops at the first iteration whose preconditioned
    residual estimate meets ptol.  The estimates never grow, so every
    later iteration meets ptol too, and _gmres_cycle stops at the first
    of them whose iterate meets the true-residual target, or at ten
    iterations, or at a breakdown.  Its x after j iterations is scipy's
    cycle of restart j with atol 0, which runs exactly j iterations."""

    @staticmethod
    def lagged_pair(spec, bc, scale, dt=2e-3, n=16):
        g = build_grid(1.0, 1.0, n, n, bc)
        f = smooth_field(g, m=2, amp=3.0)
        M1, M2 = (solver_mod._imex_operator(
            g, face_coefficients(spec, Field(g, s * f.values)), dt)
            for s in (1.0, scale))
        return M1, M2

    @staticmethod
    def scipy_cycle(M, psolve, rhs, x0, atol, restart):
        """scipy's one-cycle gmres: (x, iterations)."""
        residuals = []
        x, _ = spla.gmres(
            M, rhs, x0=x0, rtol=0.0, atol=atol, restart=restart, maxiter=1,
            M=spla.LinearOperator(M.shape, matvec=psolve, dtype=M.dtype),
            callback=residuals.append, callback_type="pr_norm")
        return x, len(residuals)

    def compare(self, M, lu, rhs, x0, target):
        """Runs _gmres_cycle and checks it against the oracle; returns
        (iterations, true residual, iterations at scipy's stop)."""
        def psolve(v):
            return lu.solve(v, trans="T")

        want, j = self.scipy_cycle(M, psolve, rhs, x0, target, 10)
        estimate_stop = j
        while not np.linalg.norm(rhs - M @ want) <= target and j < 10:
            want, done = self.scipy_cycle(M, psolve, rhs, x0, 0.0, j + 1)
            if done == j:  # breakdown
                break
            j = done
        x = x0.copy()
        got, iterations, rnorm = solver_mod._gmres_cycle(
            M, psolve, rhs, x, rhs - M @ x, np.linalg.norm(psolve(rhs)),
            target)
        assert np.array_equal(bits(x), bits(x0))
        assert np.array_equal(bits(got), bits(want))
        assert iterations == j
        assert rnorm == np.linalg.norm(rhs - M @ want)
        return iterations, rnorm, estimate_stop

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_target_met_inside_the_cycle(self, skt, bc):
        M1, M2 = self.lagged_pair(skt, bc, 1.05)
        lu = mmd_lu(M1)
        rhs = np.random.default_rng(4).normal(size=M1.shape[0])
        x0 = lu.solve(rhs, trans="T")
        target = 1e-3 * np.linalg.norm(rhs - M2 @ x0)
        iterations, rnorm, estimate_stop = self.compare(M2, lu, rhs, x0,
                                                        target)
        # the first estimate stop meets the target: scipy's cycle
        assert rnorm <= target and 1 <= iterations == estimate_stop < 10

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_target_missed_after_ten_iterations(self, skt, bc):
        M1, M2 = self.lagged_pair(skt, bc, 3.0, dt=2e-2)
        lu = mmd_lu(M1)
        rhs = np.random.default_rng(5).normal(size=M1.shape[0])
        x0 = lu.solve(rhs, trans="T")
        target = 1e-14 * np.linalg.norm(rhs)
        iterations, rnorm, _ = self.compare(M2, lu, rhs, x0, target)
        assert rnorm > target and iterations == 10

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_estimate_stop_that_misses_goes_on(self, skt, bc):
        # scipy's cycle stops where its estimate meets ptol but the
        # iterate misses a true-residual target of 1e-13 |rhs|, which in
        # a run would cost a factorization; this cycle goes on to it
        M1, M2 = self.lagged_pair(skt, bc, 1.01, dt=1e-3)
        lu = mmd_lu(M1)
        rhs = np.random.default_rng(0).normal(size=M1.shape[0])
        x0 = lu.solve(rhs, trans="T")
        target = 1e-13 * np.linalg.norm(rhs)
        iterations, rnorm, estimate_stop = self.compare(M2, lu, rhs, x0,
                                                        target)
        assert rnorm <= target and estimate_stop < iterations < 10

    def test_lagged_solve_goes_on_instead_of_factoring(self, skt):
        # the same miss in a run's factor policy: M2 is solved on the LU
        # of M1 at the same dt, with no second factorization
        dt = 1e-3
        M1, M2 = self.lagged_pair(skt, "neumann", 1.2, dt=dt)
        policy = fresh_policy()
        rng = np.random.default_rng(0)
        M = policy.operator(dt, (np.ones(1),), lambda: M1)
        solver_mod.spsolve(M, rng.normal(size=M.shape[0]), policy)
        rhs = rng.normal(size=M.shape[0])
        M = policy.operator(dt, (np.zeros(1),), lambda: M2)
        target = max(policy.rtol, policy.floor) * np.linalg.norm(rhs)
        lu = mmd_lu(M1)
        x0 = lu.solve(rhs, trans="T")
        assert np.linalg.norm(rhs - M2 @ x0) > target
        iterations, _, estimate_stop = self.compare(M2, lu, rhs, x0, target)
        assert estimate_stop < iterations < 10
        x = solver_mod.spsolve(M, rhs, policy)
        assert np.linalg.norm(rhs - M2 @ x) == policy.residual <= target
        stats = policy.stats
        assert (stats.factorizations, stats.factorizations_new_dt,
                stats.factorizations_missed_target,
                stats.krylov_iterations) == (1, 1, 0, iterations)

    def test_breakdown_on_the_operators_own_lu(self):
        # the LU of a diagonal M of powers of two applies M^-1 exactly, so
        # psolve(M v) = v: from v0 = (1, 1, 1, 1) / 2 the first iteration
        # leaves h1 = 0 exactly.  The start x0 = -1 lies so far from the
        # solution 2^-54 that r = b - M x0 rounds to M (1, 1, 1, 1), and
        # the one iterate x0 + psolve(r) = 0 keeps the true residual b;
        # with atol = 0 only the breakdown (h1 <= eps * h0) stops the cycle
        D = np.array([0.25, 2.0, 8.0, 0.5])
        M = sp.diags_array(D, format="csr")
        lu = mmd_lu(M)
        rhs = np.ldexp(D, -54)
        x0 = -np.ones(4)
        assert np.array_equal(lu.solve(rhs - M @ x0, trans="T"), np.ones(4))
        iterations, rnorm, _ = self.compare(M, lu, rhs, x0, 0.0)
        assert iterations == 1 and rnorm == np.linalg.norm(rhs) > 0

    def test_all_zero_start(self, skt):
        M1, M2 = self.lagged_pair(skt, "dirichlet", 1.05)
        lu = mmd_lu(M1)
        rhs = np.random.default_rng(7).normal(size=M1.shape[0])
        self.compare(M2, lu, rhs, np.zeros_like(rhs),
                     1e-6 * np.linalg.norm(rhs))


class TestRunStats:
    COUNTS = {f.name for f in dataclasses.fields(RunStats)}

    def test_the_record_holds_the_eight_counts(self):
        # and the histogram of step limits
        assert [f.name for f in dataclasses.fields(RunStats)] == [
            "rejected_steps", "assemblies", "factorizations",
            "factorizations_new_dt", "factorizations_missed_target",
            "linear_solves", "krylov_iterations", "worst_linear_residual",
            "dt_limits"]
        assert dataclasses.asdict(RunStats()) == dict(
            rejected_steps=0, assemblies=0, factorizations=0,
            factorizations_new_dt=0, factorizations_missed_target=0,
            linear_solves=0, krylov_iterations=0,
            worst_linear_residual=None, dt_limits={})

    def test_trajectory_has_no_count_field(self):
        names = {f.name for f in dataclasses.fields(solver_mod.Trajectory)}
        assert "stats" in names and not names & self.COUNTS
        assert len(names) == 10

    def test_policy_keeps_no_counter_of_its_own(self):
        stats = RunStats()
        policy = solver_mod._LaggedFactor(SolverConfig.linear_tol, stats)
        assert policy.stats is stats
        assert not set(vars(policy)) & (self.COUNTS | {"solves",
                                                       "worst_residual"})

    @pytest.mark.parametrize("scheme", ["imex", "newton"])
    def test_run_gets_the_counts_its_policy_made(self, skt_lv, grid16n,
                                                 scheme, monkeypatch):
        policies = []
        real = solver_mod._LaggedFactor

        def capture(*args):
            policies.append(real(*args))
            return policies[-1]

        monkeypatch.setattr(solver_mod, "_LaggedFactor", capture)
        traj = run(skt_lv, smooth_field(grid16n, m=2, amp=0.3),
                   fixed_dt_config(scheme, 1e-3, 5e-3))
        assert len(policies) == 1 and policies[0].stats is traj.stats
        assert traj.stats.linear_solves >= len(traj.dt_history) > 0
        assert 1 <= traj.stats.factorizations <= traj.stats.assemblies
        assert traj.stats.factorizations == (
            traj.stats.factorizations_new_dt
            + traj.stats.factorizations_missed_target)

    def test_step_leaves_no_counts_behind(self, skt, grid16n, monkeypatch):
        # every step() hands a fresh policy a fresh record, so a step
        # counts only its own work and a later run starts from zero
        policies = []
        real = solver_mod._LaggedFactor

        def capture(*args):
            policies.append(real(*args))
            return policies[-1]

        monkeypatch.setattr(solver_mod, "_LaggedFactor", capture)
        f = smooth_field(grid16n, m=2, amp=0.3)
        for _ in range(2):
            step(skt, f, 1e-3, scheme="imex")
        assert policies[0].stats is not policies[1].stats
        for policy in policies:
            assert dataclasses.astuple(policy.stats)[:5] == (0, 1, 1, 1, 0)
        traj = run(skt, f, fixed_dt_config("imex", 1e-3, 1e-3))
        assert traj.stats is policies[2].stats
        assert (traj.stats.assemblies, traj.stats.linear_solves) == (1, 1)


class TestRunCounts:
    @pytest.mark.parametrize("scheme", ["newton", "imex"])
    def test_linear_operator_factored_once_per_dt(self, heat1, grid16d, scheme):
        # t_end is not a multiple of dt, so the last step lands with a
        # second step size and needs a second factorization
        traj = run(heat1, eigenmode_field(grid16d),
                   fixed_dt_config(scheme, 1e-3, 0.0125))
        assert traj.reached_end and traj.stats.rejected_steps == 0
        changes = np.count_nonzero(np.diff(traj.dt_history))
        assert changes == 1
        assert traj.stats.assemblies == traj.stats.factorizations == 1 + changes
        if scheme == "newton":
            assert traj.stats.linear_solves == traj.newton_history.sum()
        else:
            assert traj.stats.linear_solves == len(traj.dt_history)

    @given(n=st.integers(2, 200), dt=st.sampled_from([1e-3, 1e-4, 3e-4]),
           decimal=st.booleans())
    @example(n=150, dt=1e-4, decimal=True)  # last gap 1.0000000000003582e-4
    def test_fixed_dt_run_factors_once(self, n, dt, decimal):
        # after n - 1 steps t carries rounding, so the last gap t_end - t
        # is dt only up to a few ulps; the step keeps dt, and with it the
        # held LU of the constant operator, and lands on t_end exactly.
        # t_end is n * dt, or its decimal as a manifest gives it (0.015,
        # not 150 * 1e-4 = 0.015000000000000001)
        heat = ModelSpec(P=PolynomialMap.identity(1), lam=LambdaSpec(1.0))
        g = build_grid(1.0, 1.0, 4, 4, "dirichlet")
        t_end = float(f"{n * dt:.12g}") if decimal else n * dt
        for scheme in ("newton", "imex"):
            cfg = fixed_dt_config(scheme, dt, t_end, record_every=1000)
            traj = run(heat, eigenmode_field(g), cfg)
            assert traj.reached_end and traj.times[-1] == cfg.t_end
            assert len(traj.dt_history) == n
            assert (traj.stats.factorizations
                    == traj.stats.factorizations_new_dt == 1)

    def test_state_dependent_imex_lags_the_lu(self, skt, grid16n, monkeypatch):
        # the operator changes every step; between factorizations a solve
        # comes from the held LU or GMRES on it, with a true residual of
        # at most 0.1 * linear_tol * |rhs|, and mass stays conserved
        real = solver_mod.spsolve
        solves = []

        def recording(M, rhs, factors):
            before = factors.stats.factorizations
            x = real(M, rhs, factors)
            rel = np.linalg.norm(rhs - M @ x) / np.linalg.norm(rhs)
            solves.append((factors.stats.factorizations > before, rel))
            return x

        monkeypatch.setattr(solver_mod, "spsolve", recording)
        cfg = fixed_dt_config("imex", 1e-3, 0.05, record_every=10)
        traj = run(skt, smooth_field(grid16n, m=2, amp=0.3), cfg)
        assert traj.reached_end and traj.stats.rejected_steps == 0
        assert traj.stats.linear_solves == len(traj.dt_history) == len(solves)
        assert 1 <= traj.stats.factorizations < traj.stats.linear_solves
        assert traj.stats.krylov_iterations > 0
        lagged = [rel for refactored, rel in solves if not refactored]
        assert len(lagged) == traj.stats.linear_solves - traj.stats.factorizations
        assert max(lagged) <= solver_mod._KRYLOV_RTOL * cfg.linear_tol
        assert 0.0 < traj.stats.worst_linear_residual <= 1.0
        m0 = np.array(traj.records[0].mass)
        for rec in traj.records[1:]:
            assert np.abs(np.array(rec.mass) - m0).max() <= 1e-12 * np.abs(m0).min()

    @pytest.mark.parametrize("model,amp,linear_tol,paths", [
        # a small state change and a loose target let the held LU's own
        # solution pass on every lagged step; a larger change passes on
        # some steps and needs GMRES on others
        ("skt", 0.01, 0.06, {"direct", "first_check"}),
        ("heat1", 0.3, 1e-10, {"direct", "held"}),
        ("skt", 0.3, 1e-2, {"direct", "first_check", "gmres"})])
    def test_imex_gate_takes_the_policy_residual(self, model, amp, linear_tol,
                                                 paths, request, grid16n,
                                                 monkeypatch):
        # the gate reads the |rhs - M x| the policy computed, on every
        # solve path but the held LU's; a run that recomputes |M x - rhs|
        # after every solve, as the stepper did before, gives the same
        # counts, worst residual and state bit for bit
        spec = request.getfixturevalue(model)
        f0 = smooth_field(grid16n, m=spec.m, amp=amp)
        cfg = fixed_dt_config("imex", 1e-3, 0.05, record_every=10,
                              linear_tol=linear_tol)
        real_solve, real_gmres = solver_mod.spsolve, solver_mod._gmres_cycle
        taken, cycles = [], []

        def gmres(*args):
            cycles.append(1)
            return real_gmres(*args)

        def tracing(M, rhs, factors):
            before = factors.stats.factorizations, len(cycles)
            x = real_solve(M, rhs, factors)
            if factors.residual is None:
                taken.append("held")
            else:
                assert factors.residual == np.linalg.norm(M @ x - rhs)
                taken.append("direct" if factors.stats.factorizations > before[0]
                             else "gmres" if len(cycles) > before[1]
                             else "first_check")
            return x

        def recomputing(M, rhs, factors):
            x = real_solve(M, rhs, factors)
            factors.residual = None
            return x

        monkeypatch.setattr(solver_mod, "_gmres_cycle", gmres)
        monkeypatch.setattr(solver_mod, "spsolve", tracing)
        traj = run(spec, f0, cfg)
        monkeypatch.setattr(solver_mod, "spsolve", recomputing)
        old = run(spec, f0, cfg)
        assert traj.reached_end and set(taken) == paths
        for name in ("rejected_steps", "assemblies", "factorizations",
                     "linear_solves", "krylov_iterations"):
            assert getattr(traj.stats, name) == getattr(old.stats, name), name
        assert 0.0 < traj.stats.worst_linear_residual <= 1.0
        assert (np.float64(traj.stats.worst_linear_residual).tobytes()
                == np.float64(old.stats.worst_linear_residual).tobytes())
        assert np.array_equal(traj.dt_history, old.dt_history)
        assert np.array_equal(bits(traj.final.values), bits(old.final.values))

    def test_state_dependent_imex_assembles_every_attempted_step(
            self, skt_lv, grid16n, monkeypatch):
        # the operator changes with the state, and a rejected step's
        # retry at half the step builds its own
        real = solver_mod.spsolve
        calls = []

        def nan_once(M, rhs, factors):
            calls.append(1)
            x = real(M, rhs, factors)
            return np.full_like(x, np.nan) if len(calls) == 3 else x

        monkeypatch.setattr(solver_mod, "spsolve", nan_once)
        traj = run(skt_lv, smooth_field(grid16n, m=2, amp=0.3),
                   SolverConfig(scheme="imex", dt0=1e-3, t_end=1e-2))
        assert traj.reached_end and traj.stats.rejected_steps == 1
        attempted = len(traj.dt_history) + traj.stats.rejected_steps
        assert (traj.stats.assemblies == attempted
                == traj.stats.linear_solves == len(calls))
        assert traj.stats.factorizations < traj.stats.assemblies

    def test_unchanged_imex_operator_ignores_a_tiny_linear_tol(self, heat1,
                                                               grid16d):
        # a linear_tol no solve can reach in floating point: the held LU
        # of a constant A is still reused without a residual target
        traj = run(heat1, eigenmode_field(grid16d),
                   fixed_dt_config("imex", 1e-3, 0.0125, linear_tol=1e-14))
        assert traj.reached_end and traj.stats.rejected_steps == 0
        changes = np.count_nonzero(np.diff(traj.dt_history))
        assert traj.stats.factorizations == 1 + changes
        assert traj.stats.krylov_iterations == 0

    def test_lagged_target_floors_at_the_direct_residual(self, skt, grid16n):
        # 0.1 * linear_tol lies below roundoff, so without the floor set
        # by the last direct solve every step would refactor
        traj = run(skt, smooth_field(grid16n, m=2, amp=0.3),
                   fixed_dt_config("imex", 1e-3, 0.02, linear_tol=1e-14))
        assert traj.reached_end and traj.stats.rejected_steps == 0
        assert traj.stats.factorizations < traj.stats.linear_solves

    @pytest.mark.parametrize("trigger", ["new_dt", "gmres_fails"])
    def test_lagged_lu_refactors_to_the_direct_step(self, skt, grid16n,
                                                    trigger, monkeypatch):
        dt = 1e-3
        cfg = fixed_dt_config("imex", dt, dt)
        f1 = smooth_field(grid16n, m=2, amp=3.0)
        f2 = Field(grid16n, 1.01 * f1.values)
        factors = solver_mod._LaggedFactor(cfg.linear_tol, RunStats())
        solver_mod._step_imex(skt, f1, dt, solver_mod._reaction_term(skt, f1),
                              cfg, factors=factors)
        gmres_calls = []
        if trigger == "new_dt":
            dt = 2e-3
        else:
            def fails(M, psolve, b, x, r, mb_norm, atol):
                gmres_calls.append(b)
                return x, 1, np.inf

            monkeypatch.setattr(solver_mod, "_gmres_cycle", fails)
        got, _ = solver_mod._step_imex(skt, f2, dt,
                                       solver_mod._reaction_term(skt, f2),
                                       cfg, factors=factors)
        want, _ = step(skt, f2, dt, scheme="imex")
        assert factors.stats.factorizations == 2
        assert (factors.stats.factorizations_new_dt,
                factors.stats.factorizations_missed_target) == (
            (2, 0) if trigger == "new_dt" else (1, 1))
        assert np.array_equal(bits(got.values), bits(want.values))
        assert len(gmres_calls) == (trigger == "gmres_fails")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scheme", ["explicit", "imex", "newton"])
    def test_nonfinite_start_raises_before_any_step(self, skt, grid16n, scheme,
                                                   bad, monkeypatch):
        calls = []
        monkeypatch.setitem(solver_mod._STEPPERS, scheme,
                            lambda *a, **kw: calls.append(a))
        f0 = smooth_field(grid16n, m=2, amp=0.3)
        f0.values[1, 3, 4] = bad
        with pytest.raises(NumericalStateError, match="non-finite"):
            run(skt, f0, SolverConfig(scheme=scheme, dt0=1e-3, t_end=1e-2))
        assert calls == []

    def test_newton_reuses_an_unchanged_jacobian(self, heat1, grid16d,
                                                 monkeypatch):
        # a linear P gives the same A(v) at every iterate: one Jacobian and
        # one LU per step size, and the same bits as rebuilding and
        # refactoring it at every iteration
        cfg = fixed_dt_config("newton", 1e-3, 0.0125)
        f0 = eigenmode_field(grid16d)
        real_operator = solver_mod._newton_operator
        built = []
        monkeypatch.setattr(solver_mod, "_newton_operator",
                            lambda g, A, dt: built.append(1)
                            or real_operator(g, A, dt))
        traj = run(heat1, f0, cfg)
        reused = len(built)
        assert reused == traj.stats.factorizations == 1 + np.count_nonzero(
            np.diff(traj.dt_history))
        # the reference rebuilds the Jacobian and solves it directly
        monkeypatch.setattr(solver_mod._LaggedFactor, "operator",
                            lambda self, dt, coefs, build: build())
        monkeypatch.setattr(solver_mod._LaggedFactor, "solve",
                            solver_mod._LaggedFactor._direct)
        fresh = run(heat1, f0, cfg)
        assert (len(built) - reused == fresh.stats.factorizations
                == fresh.stats.linear_solves == traj.stats.linear_solves > reused)
        assert np.array_equal(bits(traj.final.values), bits(fresh.final.values))

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    def test_newton_solves_on_the_held_lu(self, skt_lv, bc, monkeypatch):
        # a nonlinear P changes the Jacobian at every iterate: a solve that
        # does not refactor comes from the held LU or GMRES on it, on the
        # lagged target, and the run takes the steps and Newton iterations
        # of a reference that factors every Jacobian
        g = build_grid(1.0, 1.0, 32, 32, bc)
        f0 = initial_field("positive_fourier", g, 2, 1.0, 1)
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_max=1e-2, t_end=0.1)
        real = solver_mod.spsolve
        lagged = []

        def recording(M, rhs, factors):
            before = factors.stats.factorizations
            x = real(M, rhs, factors)
            if factors.stats.factorizations == before:
                target = max(factors.rtol, factors.floor) * np.linalg.norm(rhs)
                lagged.append(np.linalg.norm(rhs - M @ x) / target)
            return x

        monkeypatch.setattr(solver_mod, "spsolve", recording)
        got = run(skt_lv, f0, cfg)
        assert got.reached_end and got.stats.rejected_steps == 0
        assert (len(lagged)
                == got.stats.linear_solves - got.stats.factorizations > 0)
        assert got.stats.krylov_iterations > 0
        assert max(lagged) <= 1.0
        monkeypatch.setattr(solver_mod, "spsolve", real)
        monkeypatch.setattr(solver_mod._LaggedFactor, "solve",
                            solver_mod._LaggedFactor._direct)
        want = run(skt_lv, f0, cfg)
        assert want.reached_end
        assert (want.stats.factorizations == want.stats.linear_solves
                == got.stats.linear_solves)
        assert len(got.dt_history) == len(want.dt_history)
        assert np.array_equal(got.newton_history, want.newton_history)
        scale = np.abs(want.final.values).max()
        assert np.abs(got.final.values - want.final.values).max() <= 1e-12 * scale

    def test_explicit_runs_no_linear_algebra(self, heat1, grid16n):
        traj = run(heat1, smooth_field(grid16n, amp=0.1),
                   SolverConfig(scheme="explicit", dt0=1e-4, t_end=1e-3))
        assert traj.reached_end
        assert traj.stats.factorizations == traj.stats.linear_solves == 0

    @pytest.mark.parametrize("scheme", ["explicit", "imex", "newton"])
    def test_reaction_evaluated_once_per_accepted_state(self, skt_lv, grid16n,
                                                        scheme, monkeypatch):
        # once for the initial state and once for each accepted state
        # but the last, whose reaction term no step needs
        real = solver_mod.eval_reaction
        calls = []
        monkeypatch.setattr(solver_mod, "eval_reaction",
                            lambda *a: calls.append(1) or real(*a))
        traj = run(skt_lv, smooth_field(grid16n, m=2, amp=0.3),
                   SolverConfig(scheme=scheme, dt0=1e-3, t_end=5e-3))
        assert traj.reached_end and len(traj.dt_history) > 2
        assert len(calls) == len(traj.dt_history)

    def test_retried_step_reuses_the_reaction_term(self, skt_lv, grid16n,
                                                   monkeypatch):
        real_eval = solver_mod.eval_reaction
        real_cap = solver_mod._reaction_dt_cap
        real_step = solver_mod._STEPPERS["imex"]
        evaluated, capped, stepped = [], [], []

        def cap(f, values, cfl):
            capped.append(f)
            return real_cap(f, values, cfl)

        def fails_once(spec, field, dt, f, *args, **kwargs):
            stepped.append(f)
            if len(stepped) == 1:
                raise NumericalStateError("linear solve residual too large")
            return real_step(spec, field, dt, f, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "eval_reaction",
                            lambda *a: evaluated.append(1) or real_eval(*a))
        monkeypatch.setattr(solver_mod, "_reaction_dt_cap", cap)
        monkeypatch.setitem(solver_mod._STEPPERS, "imex", fails_once)
        traj = run(skt_lv, smooth_field(grid16n, m=2, amp=0.3),
                   SolverConfig(scheme="imex", dt0=1e-3, t_end=5e-3))
        assert traj.reached_end and traj.stats.rejected_steps == 1
        assert len(evaluated) == len(traj.dt_history)
        # the cap and every attempt from a state share one array
        assert len(capped) == len(stepped) == len(traj.dt_history) + 1
        assert all(c is s for c, s in zip(capped, stepped))
        assert stepped[1] is stepped[0] and stepped[2] is not stepped[1]

    def test_numerical_state_error_rejects_and_halves(self, heat1, grid16n,
                                                      monkeypatch):
        real = solver_mod._STEPPERS["imex"]
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(args[2])
            if len(calls) == 1:
                raise NumericalStateError("linear solve residual too large")
            return real(*args, **kwargs)

        monkeypatch.setitem(solver_mod._STEPPERS, "imex", fails_once)
        cfg = SolverConfig(scheme="imex", dt0=1e-3, dt_max=1e-3, t_end=5e-3)
        traj = run(heat1, smooth_field(grid16n, amp=0.1), cfg)
        assert traj.reached_end
        assert traj.stats.rejected_steps == 1
        assert calls[:2] == [1e-3, 5e-4]
        assert traj.dt_history[0] == 5e-4
