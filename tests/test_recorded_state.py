"""run() computes Du and A(u) once per recorded state and shares them
with norms, the explicit step cap and the reaction term; diagnose reads
y and the final bmo values from the records.  Every value must be bit
for bit the one computed from scratch."""

import dataclasses
import json
import math
import shutil
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import crossdiff.diagnostics as diag_mod
import crossdiff.grid as grid_mod
import crossdiff.solver as solver_mod
from crossdiff import (DiagnosticsConfig, Field, InputError, LambdaSpec,
                       ModelSpec, PolynomialMap, SolverConfig, bmo_profile,
                       build_grid, cell_gradient, energy_inequality_check,
                       eval_A, eval_lambda, initial_field, norms, run,
                       stable_dt)
from crossdiff.cli import _jsonable
from crossdiff.diagnostics import _energy_y
from crossdiff.model import _opnorms

from conftest import assert_within_gamma, eigenmode_field, exact


def record_bits(rec):
    # repr of a float round-trips, and tells -0.0 from 0.0
    return repr(dataclasses.astuple(rec))


def from_scratch(traj, spec, dc=DiagnosticsConfig()):
    """traj with its records replaced by norms of its stored states, each
    computing its own Du and A(u)."""
    return dataclasses.replace(traj, records=[
        norms(s, spec, t=t, s0=dc.s0, p_list=dc.p_list, R_list=dc.radii)
        for t, s in zip(traj.times, traj.states)])


def cross_model(m):
    """P_i = u_i (1 + sum_j c_ij u_j): quadratic cross-diffusion for any
    m, so A(u) is full and state dependent."""
    terms = []
    for i in range(m):
        comp = [(1.0, tuple(int(k == i) for k in range(m)))]
        for j in range(m):
            ex = [int(k == i) + int(k == j) for k in range(m)]
            comp.append((0.3 + 0.1 * i + 0.2 * j, tuple(ex)))
        terms.append(comp)
    return ModelSpec(P=PolynomialMap(m, terms), lam=LambdaSpec(1.0))


def check_energy_y(spec, u):
    """_energy_y of u, with A(u) evaluated inside and passed in, within
    gamma_n of y in rational arithmetic, with y of the magnitudes as the
    scale.  An expanded term carries at most n = 2m + 2 m Nx Ny + 1
    roundings: m in each of its two factors (A Du)_id, one squaring,
    one per addition of the 2 m Nx Ny squares and one multiplying by the
    area."""
    grad, A = cell_gradient(u), eval_A(spec, u.values)
    y = _energy_y(u, spec, grad)
    assert repr(_energy_y(u, spec, grad, A)) == repr(y)

    def exact_y(A, grad):
        AD = sum(exact(A[:, j, None]) * exact(grad[j]) for j in range(u.m))
        return Fraction(u.grid.cell_area) * (AD * AD).sum()

    assert_within_gamma(y, exact_y(A, grad), exact_y(abs(A), abs(grad)),
                        2 * u.m + 2 * u.values.size + 1)


class TestEnergyContraction:
    """y of positive states against exact arithmetic (check_energy_y)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(32, 32), (17, 23)])
    def test_y_matches_exact_arithmetic(self, m, shape):
        g = build_grid(1.0, 1.5, *shape, "neumann")
        rng = np.random.default_rng(m * 100 + shape[0])
        check_energy_y(cross_model(m), Field(g, 0.1 + rng.random((m,) + shape)))


def exact_envelope(lam, u):
    """lambda(u) and |lambda_u(u)| of one state to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        r2, k = sum(Decimal(float(x)) ** 2 for x in u), Decimal(lam.k)
        c = Decimal(lam.lambda1)
        return (Fraction(Decimal(lam.lambda0) + c * r2 ** (k / 2)),
                Fraction(c * k * r2 ** ((k - 1) / 2)))


class TestSignedStateOracles:
    """The envelope and y of signed states against exact arithmetic, and
    stable_dt as its formula."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [LambdaSpec(1.5), LambdaSpec(1.0, 0.7, 1.0),
                                     LambdaSpec(0.5, 2.0, 2.5)])
    def test_envelope_matches_exact_arithmetic(self, m, lam):
        # |u| carries m/2 + 1 roundings; the power k scales them and adds
        # an ulp-accurate pow (2), and the product and sum add 2 more
        n = math.ceil((lam.k + 1) * (m / 2 + 1)) + 4
        spec = ModelSpec(P=PolynomialMap.identity(m), lam=lam)
        u = np.random.default_rng(m).uniform(-2.0, 2.0, (m, 17, 23))
        got = eval_lambda(spec, u), lam.grad_norm(u)
        for p in np.ndindex(17, 23):
            for value, want in zip(got, exact_envelope(lam, u[:, p[0], p[1]])):
                assert_within_gamma(value[p], want, want, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(32, 32), (17, 23)])
    def test_energy_y_matches_exact_arithmetic(self, m, shape):
        g = build_grid(1.0, 1.5, *shape, "neumann")
        rng = np.random.default_rng(m * 100 + shape[0] + 1)
        check_energy_y(cross_model(m), Field(g, rng.uniform(-1.0, 1.0, (m,) + shape)))

    @pytest.mark.parametrize("m", [2, 3])
    def test_stable_dt_is_its_formula(self, m):
        # m = 3 takes LAPACK's SVD, m = 2 the closed form
        spec = cross_model(m)
        g = build_grid(1.0, 1.5, 17, 23, "neumann")
        u = Field(g, 0.1 + np.random.default_rng(m).random((m, 17, 23)))
        A = eval_A(spec, u.values)
        h = min(g.hx, g.hy)
        want = 0.9 * h * h / (8.0 * float(_opnorms(A).max()))
        assert repr(stable_dt(spec, u, 0.9)) == repr(want)
        assert repr(stable_dt(spec, u, 0.9, A=A)) == repr(want)


# explicit SKT+LV, IMEX SKT+LV, Newton heat, explicit every third step
CASES = {
    "explicit": ("skt_lv", "explicit", 1),
    "imex": ("skt_lv", "imex", 1),
    "newton_heat": ("heat1", "newton", 1),
    "explicit_every_3": ("skt_lv", "explicit", 3),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    model, scheme, every = CASES[request.param]
    spec = request.getfixturevalue(model)
    if model == "heat1":
        f0 = eigenmode_field(build_grid(1.0, 1.0, 16, 16, "dirichlet"))
    else:
        g = build_grid(1.0, 1.0, 16, 16, "neumann")
        f0 = initial_field("positive_fourier", g, 2, 1.0, 3)
    config = SolverConfig(scheme=scheme, dt0=1e-3, dt_min=1e-7, dt_max=1e-3,
                          t_end=0.01, record_every=every, store_states=True)
    return spec, f0, config


class TestSharedRecord:
    def test_records_equal_norms_of_the_stored_states(self, case):
        spec, f0, config = case
        traj = run(spec, f0, config)
        assert traj.reached_end
        assert len(traj.records) == len(traj.states) == len(traj.times)
        for t, rec, state in zip(traj.times, traj.records, traj.states):
            assert record_bits(rec) == record_bits(norms(state, spec, t=t))

    def test_steps_equal_those_of_unrecorded_states(self, case):
        # recording only the first and the final state, every step
        # computes its own Du and A(u)
        spec, f0, config = case
        got = run(spec, f0, config)
        want = run(spec, f0, dataclasses.replace(config, record_every=10**6))
        assert len(want.records) == 2
        assert got.dt_history.tobytes() == want.dt_history.tobytes()
        assert got.final.values.tobytes() == want.final.values.tobytes()
        assert list(map(record_bits, want.records)) == [
            record_bits(got.records[0]), record_bits(got.records[-1])]

    def test_one_A_and_one_gradient_per_recorded_state(self, skt_lv,
                                                        monkeypatch):
        # explicit SKT+LV recording every step: the record, the step cap
        # and the reaction of a state share one eval_A and one
        # cell_gradient
        calls = {"eval_A": 0, "cell_gradient": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (solver_mod, grid_mod, diag_mod):
            monkeypatch.setattr(mod, "eval_A", counted("eval_A", mod.eval_A))
        for mod in (solver_mod, diag_mod):
            monkeypatch.setattr(mod, "cell_gradient",
                                counted("cell_gradient", mod.cell_gradient))
        g = build_grid(1.0, 1.0, 16, 16, "neumann")
        config = SolverConfig(scheme="explicit", dt0=1e-3, dt_min=1e-7,
                              dt_max=1e-3, t_end=0.01)
        traj = run(skt_lv, initial_field("positive_fourier", g, 2, 1.0, 3),
                   config)
        assert traj.reached_end and traj.stats.rejected_steps == 0
        assert calls == {"eval_A": len(traj.records),
                         "cell_gradient": len(traj.records)}


class TestDiagnoseReadsTheRecord:
    def test_energy_check_equals_the_computed_one(self, skt_lv):
        g = build_grid(1.0, 1.0, 16, 16, "neumann")
        f0 = initial_field("positive_fourier", g, 2, 1.0, 1)
        config = SolverConfig(scheme="imex", dt0=2e-3, t_end=0.04,
                              store_states=True)
        recorded = run(skt_lv, f0, config)
        got = _jsonable(energy_inequality_check(recorded, skt_lv))
        want = _jsonable(energy_inequality_check(
            from_scratch(recorded, skt_lv), skt_lv))
        assert got == want
        ys = [_energy_y(s, skt_lv, cell_gradient(s)) for s in recorded.states]
        assert got["extra"]["y"] == ys

    def test_bmo_profile_takes_recorded_radii(self, skt):
        g = build_grid(1.0, 1.0, 32, 32, "neumann")
        u = initial_field("positive_fourier", g, 2, 1.0, 7)
        radii = (0.125, 0.25, 2.0)
        rec = norms(u, skt, R_list=radii)
        assert bmo_profile(u, radii, mu0=1.0, recorded=rec.bmo) == bmo_profile(
            u, radii, mu0=1.0)
        # a recorded value stands in for the computation, not for the
        # radius check
        marked = bmo_profile(u, (0.25,), recorded={0.25: 123.0})
        assert marked.oscillation == {0.25: 123.0}
        with pytest.raises(InputError):
            bmo_profile(u, (1 / 32,), recorded={1 / 32: 0.0})

    def test_diagnose_gives_the_same_artifacts(self, tmp_path, monkeypatch):
        from click.testing import CliRunner

        from crossdiff.cli import SCHEMA, main

        data = {"schema": SCHEMA, "seed": 3,
                "model": {"classic_skt": dict(
                    zip(("a1", "a2", "a11", "a12", "a21", "a22"),
                        (1.0, 1.0, 1.0, 0.5, 0.5, 1.0)),
                    lv=[1.0, 1.0, 1.0, 0.5, 0.5, 1.0])},
                "grid": {"Nx": 16, "Ny": 16, "bc": "neumann"},
                "solver": {"scheme": "explicit", "dt0": 1e-3, "dt_min": 1e-7,
                           "dt_max": 1e-3, "t_end": 0.02},
                "initial": {"family": "positive_fourier", "amplitude": 1.0},
                "diagnostics": {"radii": [0.125, 0.25], "mu0": 1.0}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"

        def outputs():
            res = CliRunner().invoke(main, ["diagnose", "--manifest",
                                            str(path), "--out", str(out)])
            assert res.exit_code == 0, res.output
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return files

        got = outputs()
        assert {"energy.json", "bmo.json", "ystar.json"} <= set(got)
        # the computing paths: the records are norms of the stored
        # states with their own Du and A(u), the energy check takes y from
        # records computed afresh and the final bmo values are evaluated
        # afresh
        real_run, real_energy = run, energy_inequality_check
        real_bmo = diag_mod.bmo_profile
        monkeypatch.setattr(
            "crossdiff.cli.run",
            lambda spec, f0, config, diagnostics: from_scratch(
                real_run(spec, f0, config, diagnostics=diagnostics), spec,
                diagnostics))
        monkeypatch.setattr(
            diag_mod, "energy_inequality_check",
            lambda traj, spec: real_energy(from_scratch(traj, spec), spec))
        monkeypatch.setattr(
            diag_mod, "bmo_profile",
            lambda u, radii, recorded, **kw: real_bmo(u, radii, **kw))
        assert outputs() == got
