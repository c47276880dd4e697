import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossdiff import (Field, InequalityReport, InputError, SolverConfig,
                       bmo_profile, build_grid, cell_gradient,
                       decay_bound_check, energy_inequality_check,
                       interpolation_check, morrey_profile, norms,
                       record_headers, record_row, run, stability_ratio)
from crossdiff import diagnostics as diag_mod

from conftest import eigenmode_field, smooth_field


def linear_x_field(N, m=1):
    g = build_grid(1.0, 1.0, N, N, "neumann")
    return Field.from_function(g, m, lambda c, X, Y: X)


def checkerboard_field(N):
    g = build_grid(1.0, 1.0, N, N, "neumann")
    i = np.arange(N)
    board = ((i[:, None] + i[None, :]) % 2 * 2.0 - 1.0)
    return Field(g, board[None])


class TestDiagnosticsConfig:
    @pytest.mark.parametrize("kw", [
        dict(s0=math.nan), dict(s0=math.inf),
        # a NaN q or eps failed the interpolation fit instead
        dict(q=math.nan), dict(q=math.inf), dict(q=0.0), dict(q=-2.0),
        dict(eps=math.nan), dict(eps=math.inf), dict(eps=0.0),
        dict(eps=-0.1),
        dict(mu0=math.nan), dict(mu0=-math.inf),
    ])
    def test_malformed_numbers_raise(self, kw):
        with pytest.raises(InputError, match=next(iter(kw))):
            diag_mod.DiagnosticsConfig(**kw)
        with pytest.raises(InputError, match=next(iter(kw))):
            diag_mod.DiagnosticsConfig.from_dict(kw)

    def test_defaults_and_edge_numbers_are_accepted(self):
        diag_mod.DiagnosticsConfig()
        diag_mod.DiagnosticsConfig(s0=-1.0, q=1e-3, eps=1e3, mu0=0.0)


class TestNorms:
    def test_constant_one_unit_square(self, heat1, grid16n):
        u = Field.constant(grid16n, [1.0])
        rec = norms(u, heat1, p_list=(1.0, 3.0, 3.5), R_list=(0.25,))
        assert rec.mass == pytest.approx((1.0,), rel=1e-14)
        assert rec.L1 == pytest.approx(1.0, rel=1e-14)
        assert rec.L2 == pytest.approx(1.0, rel=1e-14)
        for p, v in rec.Lp.items():
            assert v == pytest.approx(1.0, rel=1e-14), p
        assert rec.W12 == pytest.approx(1.0, rel=1e-14)
        assert rec.energy_y == 0.0
        assert rec.lambda_moment == pytest.approx(1.0, rel=1e-14)
        assert rec.bmo[0.25] == 0.0
        assert rec.morrey[0.25] == 0.0

    def test_mass_is_per_component(self, skt, grid16n):
        u = Field.constant(grid16n, [1.5, 0.5])
        rec = norms(u, skt)
        assert rec.mass == pytest.approx((1.5, 0.5), rel=1e-14)
        assert rec.L1 == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_lambda_moment_measures_domain(self, heat1):
        g = build_grid(2.0, 3.0, 8, 12, "neumann")
        u = Field.constant(g, [2.0])
        rec = norms(u, heat1, s0=2.0)
        assert rec.lambda_moment == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("N,frozen", [
        (16, 0.5770682910193559),
        (32, 0.577279787559724),
    ])
    def test_linear_field_l2_quadrature(self, heat1, N, frozen):
        # midpoint rule on u = x gives sqrt(1/3 - h^2/12) exactly
        rec = norms(linear_x_field(N), heat1)
        h = 1.0 / N
        assert rec.L2 == pytest.approx(math.sqrt(1.0 / 3.0 - h * h / 12.0),
                                       rel=1e-13)
        assert rec.L2 == pytest.approx(frozen, rel=1e-13)
        assert abs(rec.L2 - math.sqrt(1.0 / 3.0)) < 1e-3

    def test_p2_entry_deferred_to_l2(self, skt, grid16n):
        # default exponent list for k=1 is (2,), which the L2 field covers
        u = Field.constant(grid16n, [1.0, 1.0])
        assert norms(u, skt).Lp == {}
        rec = norms(u, skt, p_list=(2.0, 4.0))
        assert set(rec.Lp) == {4.0}

    def test_invalid_exponent(self, heat1, grid16n):
        u = Field.constant(grid16n, [1.0])
        with pytest.raises(InputError):
            norms(u, heat1, p_list=(0.0,))

    def test_w12_splits_into_l2_plus_gradient(self, skt, grid16n):
        u = smooth_field(grid16n, m=2, amp=0.7)
        rec = norms(u, skt)
        grad = cell_gradient(u)
        gnorm = math.sqrt(grid16n.cell_area * (grad * grad).sum())
        assert rec.W12 == pytest.approx(rec.L2 + gnorm, rel=1e-13)

    def test_eigenmode_w12_matches_continuum(self, heat1, grid32d):
        # L2 = 1/2 and ||Du||_{L2} = pi/sqrt(2) for the product sine mode
        rec = norms(eigenmode_field(grid32d), heat1)
        assert rec.W12 == pytest.approx(0.5 + math.pi / math.sqrt(2.0),
                                        rel=5e-3)

    def test_morrey_window_of_unit_gradient(self, heat1):
        # |Du| = 1 away from the boundary, so the best window carries
        # its own area ~ pi R^2
        rec = norms(linear_x_field(64), heat1, R_list=(0.25,))
        assert rec.morrey[0.25] == pytest.approx(math.pi * 0.0625, rel=0.05)

    @given(c=st.floats(min_value=-8.0, max_value=8.0).filter(
        lambda v: abs(v) > 1e-3))
    def test_homogeneity_in_the_field(self, heat2, c):
        g = build_grid(1.0, 1.0, 12, 12, "neumann")
        u = smooth_field(g, m=2, amp=0.4)
        a = norms(u, heat2, p_list=(3.0,))
        b = norms(Field(g, c * u.values), heat2, p_list=(3.0,))
        assert b.L1 == pytest.approx(abs(c) * a.L1, rel=1e-12)
        assert b.L2 == pytest.approx(abs(c) * a.L2, rel=1e-12)
        assert b.Lp[3.0] == pytest.approx(abs(c) * a.Lp[3.0], rel=1e-12)
        # A is constant for the identity potential, so y scales by c^2
        assert b.energy_y == pytest.approx(c * c * a.energy_y, rel=1e-12)


class TestRecordRows:
    def test_header_order_and_alignment(self, skt, grid16n):
        u = smooth_field(grid16n, m=2, amp=0.3)
        rec = norms(u, skt, p_list=(4.0,), R_list=(0.25, 0.125))
        headers = record_headers(rec)
        assert headers == ["t", "mass_1", "mass_2", "L1", "L2", "L4",
                           "W12", "energy_y", "lambda_moment",
                           "bmo@0.125", "bmo@0.25",
                           "morrey@0.125", "morrey@0.25"]
        row = record_row(rec)
        assert len(row) == len(headers)
        assert row[0] == rec.t
        assert tuple(row[1:3]) == rec.mass

    def test_seventeen_digits_round_trip(self, skt, grid16n):
        u = smooth_field(grid16n, m=2, amp=0.3)
        rec = norms(u, skt)
        for v in record_row(rec):
            assert float(f"{v:.17g}") == v


class TestBmoProfile:
    def test_constant_field_oscillation_zero(self, grid16n):
        u = Field.constant(grid16n, [3.7])
        rep = bmo_profile(u, radii=(0.25, 0.5), Lambda_hat=2.0, mu0=1e-12)
        for R in (0.25, 0.5):
            assert rep.oscillation[R] == 0.0
            assert rep.products[R] == 0.0
            assert rep.small[R] is True
        assert rep.all_small

    def test_checkerboard_keeps_unit_scale_oscillation(self):
        # interior ball of radius 2h covers 13 cells of a +-1 board;
        # direct enumeration gives mean |v - mean| = 144/169 there
        u = checkerboard_field(64)
        h = 1.0 / 64
        rep = bmo_profile(u, radii=(2 * h, 4 * h, 8 * h))
        assert rep.oscillation[2 * h] >= 144.0 / 169.0 - 1e-12
        for R, osc in rep.oscillation.items():
            assert 0.5 <= osc <= 1.2, R

    def test_checkerboard_translation_invariance(self):
        g = build_grid(1.0, 1.0, 32, 32, "neumann")
        i = np.arange(32)
        board = ((i[:, None] + i[None, :]) % 2 * 2.0 - 1.0)
        a = bmo_profile(Field(g, board[None]), radii=(0.125,))
        b = bmo_profile(Field(g, np.roll(board, (2, 2), (0, 1))[None]),
                        radii=(0.125,))
        c = bmo_profile(Field(g, -board[None]), radii=(0.125,))
        assert a.oscillation == b.oscillation == c.oscillation

    def test_linear_field_oscillation_scales_with_radius(self):
        # mean oscillation of u = x over a full disc is 4R/(3 pi)
        u = linear_x_field(64)
        h = 1.0 / 64
        radii = (4 * h, 8 * h, 16 * h)
        rep = bmo_profile(u, radii=radii)
        ratios = [rep.oscillation[R] / R for R in radii]
        assert max(ratios) / min(ratios) <= 1.2
        for r in ratios:
            assert 0.38 <= r <= 0.47

    def test_radius_below_two_cells_rejected(self, grid16n):
        u = Field.constant(grid16n, [1.0])
        with pytest.raises(InputError):
            bmo_profile(u, radii=(1.0 / 16,))
        with pytest.raises(InputError):
            bmo_profile(u, radii=())

    def test_oversized_radius_skipped_with_note(self, grid16n):
        u = Field.constant(grid16n, [1.0])
        rep = bmo_profile(u, radii=(0.25, 2.0))
        assert 2.0 not in rep.oscillation
        assert rep.skipped and rep.skipped[0][0] == 2.0

    def test_mu0_splits_radii(self):
        u = checkerboard_field(32)
        h = 1.0 / 32
        rep = bmo_profile(u, radii=(2 * h, 4 * h), Lambda_hat=1.0, mu0=None)
        assert rep.small == {}
        lo, hi = sorted(rep.products.values())
        mu0 = 0.5 * (lo + hi)
        rep2 = bmo_profile(u, radii=(2 * h, 4 * h), Lambda_hat=1.0, mu0=mu0)
        assert sorted(rep2.small.values()) == [False, True]
        assert not rep2.all_small


def short_run(spec, field, dt, t_end, scheme="imex", **kw):
    cfg = SolverConfig(scheme=scheme, dt0=dt, dt_min=dt, dt_max=dt,
                       t_end=t_end, store_states=True, **kw)
    traj = run(spec, field, cfg)
    assert traj.reached_end
    return traj


class TestEnergyInequality:
    def test_stationary_state_needs_no_constant(self, skt, grid16n):
        # constant states are exact fixed points of the newton scheme,
        # so every lhs/rhs term vanishes identically
        u = Field.constant(grid16n, [1.0, 2.0])
        traj = short_run(skt, u, 1e-3, 5e-3, scheme="newton")
        rep = energy_inequality_check(traj, skt)
        assert rep.constants["C"] == 0.0
        assert rep.feasible and rep.passed
        assert np.all(rep.margins == 0.0)

    def test_pure_decay_fits_zero_gronwall_constants(self, heat1, grid16d):
        traj = short_run(heat1, eigenmode_field(grid16d), 1e-3, 0.02)
        rep = energy_inequality_check(traj, heat1)
        assert rep.constants["C1"] == 0.0
        assert rep.constants["C2"] == 0.0
        assert np.all(rep.extra["gronwall_margins"] >= 0)
        assert np.all(np.asarray(rep.extra["dydt"]) < 0)

    def test_fitted_constant_is_minimal(self, skt_lv, grid16n):
        traj = short_run(skt_lv, smooth_field(grid16n, m=2, amp=0.5),
                         2e-3, 0.2)
        rep = energy_inequality_check(traj, skt_lv)
        assert rep.passed
        C = rep.constants["C"]
        lhs = np.asarray(rep.extra["lhs"])
        rhs = np.asarray(rep.extra["rhs"])
        assert np.all(rep.margins >= 0)
        assert np.min(0.99 * C * rhs - lhs) < 0
        C1, C2 = rep.constants["C1"], rep.constants["C2"]
        y = np.asarray(rep.extra["y"])[1:]
        dydt = np.asarray(rep.extra["dydt"])
        assert np.all(C1 * y + C2 - dydt >= 0)
        if C1 > 0 or C2 > 0:
            assert np.min(0.99 * C1 * y + 0.99 * C2 - dydt) < 0

    def test_lambda_evaluated_once_per_step(self, skt_lv, grid16n,
                                            monkeypatch):
        # the dissipation and reaction terms of a step share one
        # lambda(u) of the later state
        traj = short_run(skt_lv, smooth_field(grid16n, m=2, amp=0.5),
                         2e-3, 0.02)
        calls = []
        inner = diag_mod.eval_lambda

        def counted(spec, u):
            calls.append(1)
            return inner(spec, u)

        monkeypatch.setattr(diag_mod, "eval_lambda", counted)
        energy_inequality_check(traj, skt_lv)
        assert len(calls) == len(traj.states) - 1

    def test_requires_stored_states(self, heat1, grid16d):
        cfg = SolverConfig(dt0=1e-3, t_end=5e-3)
        traj = run(heat1, eigenmode_field(grid16d), cfg)
        with pytest.raises(InputError):
            energy_inequality_check(traj, heat1)

    def test_requires_a_norm_record_per_stored_state(self, heat1, grid16d):
        traj = short_run(heat1, eigenmode_field(grid16d), 1e-3, 5e-3)
        for records in ([None] * len(traj.records), traj.records[:-1]):
            with pytest.raises(InputError):
                energy_inequality_check(
                    dataclasses.replace(traj, records=records), heat1)

    def test_requires_three_states(self, heat1, grid16d):
        cfg = SolverConfig(dt0=1e-3, t_end=2e-3, store_states=True,
                           record_every=100)
        traj = run(heat1, eigenmode_field(grid16d), cfg)
        assert len(traj.states) == 2
        with pytest.raises(InputError):
            energy_inequality_check(traj, heat1)


class TestDecayBound:
    def setup_method(self):
        c = 0.5 * math.log(2.0)            # artanh(1/3)
        self.t = np.arange(0.0, 1.2 + 1e-9, 1e-3)
        self.y = 1.0 / np.tanh(self.t + c)

    def test_coth_recovers_unit_constants(self):
        rep = decay_bound_check(self.t, self.y, p=2.0, M1_targets=(2.0,))
        assert rep.feasible and rep.passed
        assert rep.constants["c2"] == pytest.approx(1.0, abs=1e-3)
        assert rep.constants["c3"] == pytest.approx(1.0, abs=1e-3)
        assert np.all(rep.margins >= 0)
        assert rep.extra["equilibrium_level"] == pytest.approx(1.0, abs=2e-3)
        assert rep.extra["T_star"][2.0] == pytest.approx(1.0, rel=1e-3)
        # coth(t + artanh(1/3)) = 2 at t = artanh(1/2) - artanh(1/3)
        assert rep.extra["entry_times"][2.0] == pytest.approx(
            math.atanh(0.5) - math.atanh(1.0 / 3.0), abs=2e-3)

    def test_supplied_constants_at_equilibrium(self):
        t = np.linspace(0.0, 2.0, 21)
        y = np.ones_like(t)
        rep = decay_bound_check(t, y, p=2.0, constants=(1.0, 1.0),
                                M1_targets=(2.0, 0.5))
        assert np.all(rep.margins == 0.0)
        assert rep.passed
        bm = rep.extra["bound_margins"]
        assert np.all(np.diff(bm) < 0) and np.all(bm > 0)
        assert rep.extra["T_star"][2.0] == pytest.approx(1.0)
        assert rep.extra["T_star"][0.5] == math.inf
        assert rep.extra["entry_times"][2.0] == 0.0
        assert rep.extra["entry_times"][0.5] is None

    def test_growing_series_is_infeasible(self):
        t = np.linspace(0.0, 2.0, 41)
        rep = decay_bound_check(t, np.exp(2.0 * t), p=2.0)
        assert not rep.feasible
        assert not rep.passed
        assert "first_violation_index" in rep.extra
        assert rep.pass_fraction == 0.0

    @pytest.mark.parametrize("t,y,p", [
        ([0, 1], [1, 1], 2.0),                       # too short
        ([0, 1, 2], [1.0, -1.0, 1.0], 2.0),          # nonpositive values
        ([0, 1, 2], [1, 1, 1], 1.0),                 # p must exceed 1
        ([0, 2, 1], [1, 1, 1], 2.0),                 # times not increasing
    ])
    def test_validation(self, t, y, p):
        with pytest.raises(InputError):
            decay_bound_check(np.array(t, float), np.array(y, float), p)


class TestInterpolation:
    def test_constant_fields_pin_the_volume_constant(self, grid16n):
        # I_high = C * L1^(q+2) with zero gradient forces
        # C = |Omega|^-(q+1)
        rep = interpolation_check([Field.constant(grid16n, [1.0])])
        assert rep.constants["C"] == pytest.approx(1.0, rel=1e-12)
        assert rep.passed
        g2 = build_grid(2.0, 2.0, 16, 16, "neumann")
        rep2 = interpolation_check([Field.constant(g2, [3.0])], q=2.0)
        assert rep2.constants["C"] == pytest.approx(0.015625, rel=1e-12)

    def test_zero_field_contributes_nothing(self, grid16n):
        rep = interpolation_check([Field.constant(grid16n, [0.0, 0.0])])
        assert rep.constants["C"] == 0.0
        assert rep.passed

    def test_fitted_constant_is_minimal(self, grid16n):
        fields = [smooth_field(grid16n, m=2, amp=a) for a in (0.2, 0.6, 1.5)]
        fields.append(Field.constant(grid16n, [0.5, 0.5]))
        rep = interpolation_check(fields, q=2.0, eps=0.1)
        assert rep.passed and np.all(rep.margins >= 0)
        C, q, eps = (rep.constants[k] for k in ("C", "q", "eps"))
        I1 = np.asarray(rep.extra["I_high"])
        I2 = np.asarray(rep.extra["I_grad"])
        L1 = np.asarray(rep.extra["L1"])
        assert np.min(eps * I2 + 0.99 * C * L1 ** (q + 2.0) - I1) < 0

    def test_constant_stable_under_refinement(self, heat1):
        Cs = []
        for N in (16, 32, 64):
            g = build_grid(1.0, 1.0, N, N, "dirichlet")
            rep = interpolation_check([eigenmode_field(g)], q=2.0, eps=0.1)
            Cs.append(rep.constants["C"])
        assert max(Cs) / min(Cs) <= 1.2

    def test_validation(self, grid16n):
        with pytest.raises(InputError):
            interpolation_check([])
        u = Field.constant(grid16n, [1.0])
        with pytest.raises(InputError):
            interpolation_check([u], q=0.0)
        with pytest.raises(InputError):
            interpolation_check([u], eps=-0.1)


class TestMorreyProfile:
    def test_smooth_decay_has_positive_slope(self, heat1, grid32d):
        traj = short_run(heat1, eigenmode_field(grid32d), 1e-3, 0.13)
        radii = (2.0 / 32, 4.0 / 32, 8.0 / 32)
        rep = morrey_profile(traj, radii)
        assert rep.passed and rep.constants["slope"] > 0
        assert rep.constants["fitted_p"] > 2.0
        q = rep.extra["quotients"]
        assert q[radii[0]] < q[radii[1]] < q[radii[2]]

    def test_window_longer_than_trajectory_rejected(self, heat1, grid16d):
        traj = short_run(heat1, eigenmode_field(grid16d), 1e-3, 0.05)
        with pytest.raises(InputError):
            morrey_profile(traj, (0.125, 0.5))
        with pytest.raises(InputError):
            morrey_profile(traj, (0.125,))

    def test_requires_stored_states(self, heat1, grid16d):
        cfg = SolverConfig(dt0=1e-3, t_end=0.05)
        traj = run(heat1, eigenmode_field(grid16d), cfg)
        with pytest.raises(InputError):
            morrey_profile(traj, (0.125, 0.25))


class TestStabilityRatio:
    def _report(self, **constants):
        return InequalityReport(name="x", constants=constants,
                                margins=np.zeros(1), pass_fraction=1.0,
                                feasible=True, passed=True)

    def test_largest_relative_change(self):
        a = self._report(C=1.0, q=2.0)
        b = self._report(C=1.1, q=2.0)
        assert stability_ratio(a, b) == pytest.approx(0.1 / 1.1)

    def test_identical_and_zero_constants(self):
        a = self._report(C=0.0)
        assert stability_ratio(a, self._report(C=0.0)) == 0.0
        b = self._report(C=2.0, extra_key=1.0)
        assert stability_ratio(b, b) == 0.0
