import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from crossdiff import (AbsorbingBallReport, EnsembleSpec, Field,
                       GeneralReaction, InputError, LambdaSpec, ModelSpec,
                       PolynomialMap, SolverConfig, build_grid,
                       decay_bound_check, ensemble_absorbing_ball,
                       initial_field, run, ystar_dominance)
from crossdiff.attractor import ystar_and_decay
from crossdiff.cli import _jsonable


@pytest.fixture
def grid8n():
    return build_grid(1.0, 1.0, 8, 8, "neumann")


class TestInitialField:
    def test_constant(self, grid8n):
        u = initial_field("constant", grid8n, 2, 3.0, seed=0)
        assert u.values.shape == (2, 8, 8)
        assert np.all(u.values == 3.0)

    def test_eigenmode_peak_and_sign(self, grid16d):
        u = initial_field("eigenmode", grid16d, 2, 2.0, seed=0)
        assert np.array_equal(u.values[0], u.values[1])
        assert 0.97 * 2.0 <= u.values.max() <= 2.0
        assert u.values.min() > 0.0

    def test_fourier_is_signed_with_unit_sup(self, grid8n):
        u = initial_field("fourier", grid8n, 1, 4.0, seed=3)
        # the bump has zero mean, hence both signs, and sup-norm 1
        assert np.abs(u.values).max() == pytest.approx(4.0, rel=1e-12)
        assert u.values.min() < 0 < u.values.max()

    def test_positive_fourier_stays_positive(self, grid8n):
        u = initial_field("positive_fourier", grid8n, 2, 5.0, seed=1)
        assert u.values.min() >= 0.7 * 5.0 - 1e-12
        assert u.values.max() <= 1.3 * 5.0 + 1e-12

    def test_deterministic_in_seed(self, grid8n):
        a = initial_field("fourier", grid8n, 1, 1.0, seed=7)
        b = initial_field("fourier", grid8n, 1, 1.0, seed=7)
        c = initial_field("fourier", grid8n, 1, 1.0, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_seed_must_be_a_whole_number(self, grid8n):
        # int() would truncate 2.9 to the draw of seed 2
        with pytest.raises(InputError, match="whole number"):
            initial_field("fourier", grid8n, 1, 1.0, seed=2.9)
        a = initial_field("fourier", grid8n, 1, 1.0, seed=2.0)
        b = initial_field("fourier", grid8n, 1, 1.0, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_validation(self, grid8n):
        with pytest.raises(InputError):
            initial_field("plateau", grid8n, 1, 1.0, seed=0)
        with pytest.raises(InputError):
            initial_field("constant", grid8n, 1, 0.0, seed=0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf])
    def test_nonfinite_amplitude_rejected(self, grid8n, amplitude):
        # NaN passed the old amplitude <= 0 check and ran to a non-finite
        # state
        with pytest.raises(InputError, match="finite and positive"):
            initial_field("positive_fourier", grid8n, 2, amplitude, seed=0)


class TestEnsembleSpec:
    def _spec(self, model, grid, **kw):
        cfg = SolverConfig(dt0=1e-2, t_end=1.0)
        base = dict(model=model, grid=grid, config=cfg)
        base.update(kw)
        return EnsembleSpec(**base)

    def test_amplitudes_geometric(self, decay_model, grid8n):
        es = self._spec(decay_model, grid8n, count=4, amp_range=(0.1, 100.0))
        amps = es.amplitudes()
        assert amps[0] == pytest.approx(0.1)
        assert amps[-1] == pytest.approx(100.0)
        r = amps[1:] / amps[:-1]
        assert np.allclose(r, r[0])
        single = self._spec(decay_model, grid8n, count=1, amp_range=(0.5, 2.0))
        assert single.amplitudes().tolist() == [0.5]

    @pytest.mark.parametrize("kw", [
        dict(family="bogus"),
        dict(count=0),
        dict(amp_range=(0.0, 1.0)),
        dict(amp_range=(5.0, 1.0)),
        dict(T_observe=1.0),               # not below t_end
        dict(T_observe=-0.5),
        dict(count=2.5),                   # np.geomspace would raise TypeError
        dict(seed=2.5),
        dict(amp_range=(0.1, math.inf)),   # amplitudes() returned inf
        dict(tol=math.nan),
        dict(tol=0.0),
        dict(M1_targets=(1.0, math.nan)),
    ])
    def test_validation(self, decay_model, grid8n, kw):
        with pytest.raises(InputError):
            self._spec(decay_model, grid8n, **kw)

    def test_whole_number_float_count_and_seed(self, decay_model, grid8n):
        es = self._spec(decay_model, grid8n, count=3.0, seed=4.0)
        assert (es.count, es.seed) == (3, 4)
        assert type(es.count) is int and type(es.seed) is int


def logistic_closed_form(t, y0):
    return 1.0 / (1.0 + (1.0 / y0 - 1.0) * math.exp(-t))


class TestYstarDominance:
    def _run_constant(self, logistic, u0, t_end=6.0):
        g = build_grid(1.0, 1.0, 4, 4, "neumann")
        cfg = SolverConfig(scheme="newton", dt0=1e-2, dt_min=1e-2,
                           dt_max=1e-2, t_end=t_end)
        traj = run(logistic, Field.constant(g, [u0]), cfg)
        assert traj.reached_end
        return traj

    def test_logistic_recovers_declared_constants(self, logistic):
        # constant data reduces to y' = 2y - 2 y^{3/2} for y = |u|^2,
        # so the fit must land near C1 = C3 = 2 and y_star = 1
        traj = self._run_constant(logistic, 0.2)
        final = float(traj.final.values.mean())
        assert final == pytest.approx(logistic_closed_form(6.0, 0.2),
                                      rel=1e-3)
        rep = ystar_dominance(traj, logistic)
        assert rep.feasible and rep.passed
        assert rep.constants["p"] == 1.5
        assert rep.constants["C1"] == pytest.approx(2.0, rel=2e-2)
        assert rep.constants["C3"] == pytest.approx(2.0, rel=2e-2)
        assert rep.constants["y_star"] == pytest.approx(1.0, rel=2e-2)
        assert np.all(rep.margins >= 0)
        assert rep.extra["max_y"] <= rep.extra["bound"]

    def test_decay_from_above_dominated_by_initial_level(self, logistic):
        traj = self._run_constant(logistic, 3.0)
        rep = ystar_dominance(traj, logistic)
        assert rep.feasible and rep.passed
        y = rep.extra["y"]
        assert y[0] == pytest.approx(9.0, rel=1e-12)
        assert rep.extra["max_y"] == pytest.approx(9.0, rel=1e-12)

    def test_equilibrium_start_cannot_identify_constants(self, logistic):
        # a series frozen at the equilibrium has zero derivative, so the
        # fit degenerates to C3 = 0 and no threshold can be certified
        traj = self._run_constant(logistic, 1.0, t_end=1.0)
        rep = ystar_dominance(traj, logistic)
        assert not rep.feasible
        assert rep.constants["C3"] == 0.0
        assert rep.constants["y_star"] is None

    def test_zero_data_trivially_dominated(self, logistic):
        g = build_grid(1.0, 1.0, 4, 4, "neumann")
        cfg = SolverConfig(scheme="newton", dt0=1e-2, t_end=0.1)
        traj = run(logistic, Field.constant(g, [0.0]), cfg)
        rep = ystar_dominance(traj, logistic)
        assert rep.passed
        assert rep.constants == {"C1": 0.0, "C3": 0.0, "p": 1.5, "y_star": 0.0}

    def test_requires_competitive_reaction(self, decay_model, grid8n):
        cfg = SolverConfig(dt0=1e-2, t_end=0.1)
        traj = run(decay_model, Field.constant(grid8n, [1.0]), cfg)
        with pytest.raises(InputError):
            ystar_dominance(traj, decay_model)

    def test_requires_three_records(self, logistic):
        g = build_grid(1.0, 1.0, 4, 4, "neumann")
        cfg = SolverConfig(scheme="newton", dt0=1e-2, t_end=2e-2,
                           record_every=100)
        traj = run(logistic, Field.constant(g, [0.5]), cfg)
        with pytest.raises(InputError):
            ystar_dominance(traj, logistic)

    def test_superlinear_growth_is_infeasible(self, logistic):
        # y = exp(t^2) accelerates, which no C1*y - C3*y^p with
        # positive C3 can cover
        t = np.linspace(0.0, 2.0, 41)
        records = [SimpleNamespace(L2=math.exp(tt * tt / 2.0)) for tt in t]
        traj = SimpleNamespace(times=t, records=records)
        rep = ystar_dominance(traj, logistic)
        assert not rep.feasible
        assert not rep.passed
        assert rep.constants["C3"] < 0
        assert rep.constants["y_star"] is None
        assert "first_violation_index" in rep.extra


class TestYstarAndDecay:
    def _run_constant(self, spec, u0, t_end=6.0):
        g = build_grid(1.0, 1.0, 4, 4, "neumann")
        cfg = SolverConfig(scheme="newton", dt0=1e-2, dt_min=1e-2,
                           dt_max=1e-2, t_end=t_end)
        return run(spec, Field.constant(g, [u0]), cfg)

    @staticmethod
    def same(a, b):
        return (json.dumps(_jsonable(a), sort_keys=True)
                == json.dumps(_jsonable(b), sort_keys=True))

    def test_reports_are_the_two_checks(self, logistic):
        # the ystar report and the decay fit at p = (kappa + 2) / 2 on
        # the squared L2 series
        traj = self._run_constant(logistic, 4.5)
        fits = ystar_and_decay(traj, logistic, tol=0.1, M1_targets=(2.0,))
        assert list(fits) == ["ystar", "decay"]
        assert self.same(fits["ystar"],
                         ystar_dominance(traj, logistic, tol=0.1))
        y = np.array([rec.L2 ** 2 for rec in traj.records])
        assert self.same(fits["decay"], decay_bound_check(
            traj.times, y, 1.5, M1_targets=(2.0,)))

    def test_decay_needs_targets_and_a_positive_series(self, logistic):
        traj = self._run_constant(logistic, 4.5, t_end=0.5)
        assert list(ystar_and_decay(traj, logistic)) == ["ystar"]
        zero = self._run_constant(logistic, 0.0, t_end=0.1)
        fits = ystar_and_decay(zero, logistic, M1_targets=(2.0,))
        assert list(fits) == ["ystar"] and fits["ystar"].passed

    def test_nothing_unless_competitive(self, decay_model):
        traj = self._run_constant(decay_model, 1.0, t_end=0.1)
        assert ystar_and_decay(traj, decay_model, M1_targets=(0.5,)) == {}


class TestEnsembleAbsorbingBall:
    def test_report_keeps_no_member_series(self):
        names = {f.name for f in dataclasses.fields(AbsorbingBallReport)}
        assert "series" not in names

    @pytest.mark.parametrize("threads", [0, -3, 1.5, True])
    def test_threads_must_be_a_whole_number_of_at_least_one(
            self, decay_model, grid8n, threads, monkeypatch):
        monkeypatch.setattr("crossdiff.attractor.run", lambda *a: 1 / 0)
        es = self._decay_spec(decay_model, grid8n, count=1)
        with pytest.raises(InputError, match="threads"):
            ensemble_absorbing_ball(es, threads=threads)

    def _decay_spec(self, decay_model, grid8n, **kw):
        cfg = SolverConfig(scheme="imex", dt0=1e-2, dt_max=5e-2, t_end=20.0,
                           record_every=10)
        base = dict(model=decay_model, grid=grid8n, config=cfg,
                    family="positive_fourier", count=3,
                    amp_range=(0.1, 1.0), seed=4, T_observe=16.0)
        base.update(kw)
        return EnsembleSpec(**base)

    def test_damped_ensemble_contracts(self, decay_model, grid8n):
        rep = ensemble_absorbing_ball(self._decay_spec(decay_model, grid8n))
        assert rep.excluded == ()
        assert rep.all_reached
        assert 0.0 < rep.M_hat <= 1e-4
        later = ensemble_absorbing_ball(
            self._decay_spec(decay_model, grid8n, T_observe=19.0))
        assert later.M_hat < rep.M_hat
        assert rep.common_ball is True or rep.commonality_ratio >= 1.0

    def test_single_member_tail_is_m_hat(self, decay_model, grid8n):
        rep = ensemble_absorbing_ball(
            self._decay_spec(decay_model, grid8n, count=1,
                             amp_range=(0.5, 2.0)))
        assert list(rep.tail_sup_W12) == [0]
        assert rep.M_hat == rep.tail_sup_W12[0]

    def test_exploding_member_is_excluded(self, grid8n):
        grow = ModelSpec(
            P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
            reaction=GeneralReaction(1, f0=PolynomialMap(1, [[(1.0, (1,))]])),
            C_f=1.05, name="grow")
        cfg = SolverConfig(scheme="imex", dt0=1e-2, dt_max=5e-2, t_end=3.0,
                           record_every=5, blowup_threshold=50.0)
        es = EnsembleSpec(model=grow, grid=grid8n, config=cfg,
                          family="positive_fourier", count=2,
                          amp_range=(0.1, 10.0), seed=2)
        rep = ensemble_absorbing_ball(es)
        assert rep.excluded == (1,)
        assert not rep.all_reached
        assert set(rep.tail_sup_W12) == {0}
        assert rep.M_hat == rep.tail_sup_W12[0]
        json.dumps(_jsonable(rep))

    def test_structural_gate_blocks_misdeclared_model(self, grid8n):
        weak = ModelSpec(
            P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
            reaction=GeneralReaction(1, f0=PolynomialMap(1, [[(-1.0, (1,))]])),
            C_f=0.5, name="underdeclared")
        cfg = SolverConfig(dt0=1e-2, t_end=0.5)
        es = EnsembleSpec(model=weak, grid=grid8n, config=cfg, count=1,
                          amp_range=(0.5, 1.0))
        with pytest.raises(InputError):
            ensemble_absorbing_ball(es)
        rep = ensemble_absorbing_ball(es, skip_verify=True)
        assert rep.excluded == ()

    def test_competitive_ensemble_reports_dominance(self, logistic):
        g = build_grid(1.0, 1.0, 4, 4, "neumann")
        cfg = SolverConfig(scheme="newton", dt0=1e-2, dt_min=1e-2,
                           dt_max=1e-2, t_end=6.0)
        # keep every member off the exact equilibrium amplitude 1
        es = EnsembleSpec(model=logistic, grid=g, config=cfg,
                          family="constant", count=3, amp_range=(0.2, 4.5),
                          seed=0, T_observe=3.0, M1_targets=(2.0,))
        rep = ensemble_absorbing_ball(es)
        assert rep.excluded == ()
        for i in range(3):
            assert rep.dominance[i] is True
            # near-equilibrium members identify y_star less sharply
            assert rep.y_star[i] == pytest.approx(1.0, rel=0.15)
        assert rep.common_ball
        assert rep.commonality_ratio <= 1.1
        # the top member starts at y = 25 and crosses M1 = 2 in finite time
        assert 2 in rep.entry_times and rep.entry_times[2][2.0] is not None
        assert rep.entry_times[2][2.0] > 0

    def test_a_second_ensemble_repeats_the_first_bit_for_bit(
            self, skt_lv, monkeypatch):
        # two IMEX ensembles of two members in one process: each member
        # run of the second has the state, steps and counts of the first,
        # so no result depends on what the process factored before
        members = []
        monkeypatch.setattr("crossdiff.attractor.run",
                            lambda *a: members.append(run(*a)) or members[-1])
        es = EnsembleSpec(
            model=skt_lv, grid=build_grid(1.0, 1.0, 16, 16, "neumann"),
            config=SolverConfig(scheme="imex", dt0=1e-3, dt_max=1e-2,
                                t_end=0.05),
            family="positive_fourier", count=2, amp_range=(0.1, 100.0),
            seed=1)
        for _ in range(2):
            assert ensemble_absorbing_ball(es).all_reached
        assert len(members) == 4
        for first, again in zip(members[:2], members[2:]):
            assert first.final.values.tobytes() == again.final.values.tobytes()
            assert first.dt_history.tobytes() == again.dt_history.tobytes()
            assert dataclasses.asdict(first.stats) == dataclasses.asdict(
                again.stats)

    def test_threads_do_not_change_the_report(self, decay_model, grid8n):
        es = self._decay_spec(decay_model, grid8n, count=2)
        a = ensemble_absorbing_ball(es, threads=1)
        b = ensemble_absorbing_ball(es, threads=2)
        assert a.tail_sup_W12 == b.tail_sup_W12
        assert a.M_hat == b.M_hat
