import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from crossdiff import (LambdaSpec, ModelSpec, PolynomialMap, load_snapshot,
                       model_to_dict)
import crossdiff.cli as cli_mod
from crossdiff.cli import main

from conftest import run_python


runner = CliRunner()
REPO = Path(__file__).resolve().parents[1]


def invoke(*args, env=None):
    return runner.invoke(main, [str(a) for a in args], env=env)


def load_json(path):
    return json.loads(path.read_text())


def read_rows(csv_path):
    """Data lines of an artifact CSV: comments stripped, header split off."""
    lines = csv_path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0].split(","), body[1:]


HEAT_MODEL = {
    "m": 1,
    "P": [[[1.0, 1]]],
    "lambda": {"lambda0": 1.0},
}


def heat_sim_manifest(out_name="simout"):
    return {
        "seed": 0,
        "model": HEAT_MODEL,
        "grid": {"Lx": 1.0, "Ly": 1.0, "Nx": 16, "Ny": 16, "bc": "dirichlet"},
        "solver": {"scheme": "imex", "dt0": 1e-3, "dt_min": 1e-3,
                   "dt_max": 1e-3, "t_end": 0.05},
        "initial": {"family": "eigenmode", "amplitude": 1.0},
        "outputs": {"dir": out_name, "format": "csv",
                    "snapshot_times": [0.02]},
    }


class TestVerifyCommand:
    def _manifest(self, **model_kw):
        data = {
            "seed": 0,
            "model": HEAT_MODEL,
            "verify": {"region": {"lo": [-2.0], "hi": [2.0]}, "n": 2000},
            "outputs": {"dir": "vout"},
        }
        data.update(model_kw)
        return data

    def test_passing_model(self, write_manifest, tmp_path):
        path = write_manifest(self._manifest())
        out = tmp_path / "v1"
        r = invoke("verify", "--manifest", path, "--out", out)
        assert r.exit_code == 0, r.output
        assert "ellipticity: pass" in r.output
        rep = load_json(out / "verify.json")
        assert rep["passed"] is True
        meta = rep["_meta"]
        assert meta["seed"] == 0
        assert len(meta["manifest_sha256"]) == 64
        echo = load_json(out / "manifest.json")
        assert echo["_meta"] == meta
        assert echo["model"] == HEAT_MODEL

    def test_whole_number_floats_are_accepted(self, write_manifest, tmp_path):
        data = self._manifest(seed=3.0)
        data["verify"]["n"] = 200.0
        out = tmp_path / "v3"
        r = invoke("verify", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 0, r.output
        rep = load_json(out / "verify.json")
        assert rep["_meta"]["seed"] == 3
        assert rep["sample_count"] == 200

    def test_quintic_fails_spectral_gap_margin(self, write_manifest, tmp_path):
        # A = 1 + 5u^4 against lambda = 1 + |u|^4 leaves (k-2)/k = 1/2,
        # which the sampled C* cannot absorb
        quintic = ModelSpec(
            P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (5,))]]),
            lam=LambdaSpec(1.0, 1.0, 4.0))
        path = write_manifest(self._manifest(model=model_to_dict(quintic)))
        out = tmp_path / "v2"
        r = invoke("verify", "--manifest", path, "--out", out)
        assert r.exit_code == 1
        assert "sg_prime: FAIL" in r.output
        rep = load_json(out / "verify.json")
        assert rep["sg_prime_pass"] is False
        assert rep["ellipticity_pass"] is True

    def test_seed_override_changes_meta_and_hash(self, write_manifest, tmp_path):
        path = write_manifest(self._manifest())
        a, b = tmp_path / "a", tmp_path / "b"
        r0 = invoke("verify", "--manifest", path, "--out", a)
        r1 = invoke("verify", "--manifest", path, "--out", b, "--seed", 77)
        assert r0.exit_code == 0 and r1.exit_code == 0
        ma = load_json(a / "verify.json")["_meta"]
        mb = load_json(b / "verify.json")["_meta"]
        assert mb["seed"] == 77
        assert ma["manifest_sha256"] != mb["manifest_sha256"]

    @pytest.mark.parametrize("key,value", [
        ("tol_ell", float("nan")), ("tol_ell", -1e-9),
        ("delta_k", float("inf")), ("delta_k", 0.0),
        ("ls", [0.0, float("nan")]), ("ls", [float("inf")]),
        ("region", {"lo": [-2.0], "hi": [float("inf")]})])
    def test_non_finite_parameters_are_input_errors(self, write_manifest,
                                                    tmp_path, key, value):
        # "tol_ell": NaN used to fail ellipticity (exit 1) and write NaN,
        # which is not JSON, into verify.json
        data = self._manifest()
        data["verify"][key] = value
        out = tmp_path / "bad"
        r = invoke("verify", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / "verify.json").exists()

    def test_missing_schema_is_input_error(self, tmp_path):
        path = tmp_path / "m.json"
        data = self._manifest()
        path.write_text(json.dumps(data))          # no schema tag
        r = invoke("verify", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == 2
        assert "schema" in r.output

    def test_unreadable_model_file_is_input_error(self, write_manifest, tmp_path):
        data = self._manifest()
        del data["model"]
        data["model_file"] = "missing_model.json"
        path = write_manifest(data)
        r = invoke("verify", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == 2

    def test_output_root_env_var(self, write_manifest, tmp_path):
        path = write_manifest(self._manifest())
        root = tmp_path / "root"
        r = invoke("verify", "--manifest", path,
                   env={"CROSSDIFF_OUT": str(root)})
        assert r.exit_code == 0
        assert (root / "vout" / "verify.json").exists()


class TestSimulateCommand:
    def test_heat_decay_artifacts(self, write_manifest, tmp_path):
        path = write_manifest(heat_sim_manifest())
        out = tmp_path / "s1"
        r = invoke("simulate", "--manifest", path, "--out", out)
        assert r.exit_code == 0, r.output
        assert "terminated: reached" in r.output

        comments, headers, rows = read_rows(out / "trajectory.csv")
        sha = load_json(out / "summary.json")["_meta"]["manifest_sha256"]
        assert comments[0] == f"# manifest_sha256: {sha}"
        assert comments[1] == "# seed: 0"
        assert headers[:4] == ["t", "mass_1", "L1", "L2"]
        data = np.array([[float(v) for v in row.split(",")] for row in rows])
        l2 = data[:, headers.index("L2")]
        assert np.all(np.diff(l2) < 0)

        summary = load_json(out / "summary.json")
        assert summary["terminated_reason"] == "reached"
        assert summary["t_final"] == pytest.approx(0.05, rel=1e-12)
        assert summary["steps"] == 50
        assert summary["first_negative_t"] is None

        snaps = load_json(out / "snapshots.json")
        assert snaps["format"] == "csv"
        assert (out / "snapshot_t0.02.csv").exists()
        fld = load_snapshot(out / "final.csv")
        assert fld.values.shape == (1, 16, 16)

    def test_final_state_matches_library_run(self, write_manifest, tmp_path):
        from crossdiff import SolverConfig, build_grid, initial_field, run
        from crossdiff.model import model_from_dict

        path = write_manifest(heat_sim_manifest())
        out = tmp_path / "s2"
        assert invoke("simulate", "--manifest", path, "--out", out).exit_code == 0
        spec = model_from_dict(HEAT_MODEL)
        g = build_grid(1.0, 1.0, 16, 16, "dirichlet")
        f0 = initial_field("eigenmode", g, 1, 1.0, 0)
        cfg = SolverConfig(scheme="imex", dt0=1e-3, dt_min=1e-3, dt_max=1e-3,
                           t_end=0.05, snapshot_times=(0.02,))
        traj = run(spec, f0, cfg)
        fld = load_snapshot(out / "final.csv")
        assert np.array_equal(fld.values, traj.final.values)

    def test_manifest_echo_round_trips(self, write_manifest, tmp_path):
        path = write_manifest(heat_sim_manifest())
        out1 = tmp_path / "r1"
        assert invoke("simulate", "--manifest", path, "--out", out1).exit_code == 0
        echo = load_json(out1 / "manifest.json")
        echo.pop("_meta")
        again = tmp_path / "echo.json"
        again.write_text(json.dumps(echo))
        out2 = tmp_path / "r2"
        assert invoke("simulate", "--manifest", again, "--out", out2).exit_code == 0
        _, h1, rows1 = read_rows(out1 / "trajectory.csv")
        _, h2, rows2 = read_rows(out2 / "trajectory.csv")
        assert h1 == h2 and rows1 == rows2

    def test_binary_format_override(self, write_manifest, tmp_path):
        path = write_manifest(heat_sim_manifest())
        out = tmp_path / "s3"
        r = invoke("simulate", "--manifest", path, "--out", out,
                   "--format", "bin")
        assert r.exit_code == 0
        assert load_json(out / "snapshots.json")["format"] == "bin"
        fld = load_snapshot(out / "final.bin")
        assert fld.values.shape == (1, 16, 16)
        assert np.all(np.isfinite(fld.values))

    def test_close_snapshot_times_get_their_own_files(self, write_manifest,
                                                      tmp_path):
        # both times used to write snapshot_t0.005.csv, the second over
        # the first
        times = [0.005000001, 0.005000002]
        data = heat_sim_manifest()
        data["outputs"]["snapshot_times"] = times
        out = tmp_path / "s9"
        path = write_manifest(data)
        assert invoke("simulate", "--manifest", path, "--out", out).exit_code == 0
        files = load_json(out / "snapshots.json")["files"]
        names = [files[f"{t:.17g}"] for t in times]
        assert names == ["snapshot_t0.005000001.csv",
                         "snapshot_t0.005000002.csv"]
        a, b = (load_snapshot(out / n).values for n in names)
        assert not np.array_equal(a, b)
        # the steps onto the two times and onto t_end are the landings
        summary = load_json(out / "summary.json")
        assert summary["dt_limits"] == {"dt_max": summary["steps"] - 3,
                                        "landing": 3}

    @pytest.mark.parametrize("where", ["outputs", "solver"])
    def test_snapshot_times_from_either_key(self, write_manifest, tmp_path,
                                            where):
        data = heat_sim_manifest()
        data[where]["snapshot_times"] = [0.01]
        if where == "solver":
            del data["outputs"]["snapshot_times"]
        out = tmp_path / "s10"
        r = invoke("simulate", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 0, r.output
        assert load_json(out / "snapshots.json")["files"] == {
            "0.01": "snapshot_t0.01.csv", "final": "final.csv"}

    def test_snapshot_times_under_both_keys_is_input_error(
            self, write_manifest, tmp_path):
        # outputs.snapshot_times was dropped without a word, and only
        # solver.snapshot_times got its snapshot
        data = heat_sim_manifest()
        data["solver"]["snapshot_times"] = [0.01]
        out = tmp_path / "s11"
        r = invoke("simulate", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 2, r.output
        assert ("input error: outputs.snapshot_times and "
                "solver.snapshot_times are both given") in r.output
        assert not out.exists()

    def test_summary_reports_solver_counts(self, write_manifest, tmp_path):
        data = heat_sim_manifest()
        data["model"] = {"classic_skt": {"a1": 1.0, "a2": 1.0, "a11": 1.0,
                                         "a12": 0.5, "a21": 0.5, "a22": 1.0}}
        data["grid"]["bc"] = "neumann"
        data["solver"]["t_end"] = 0.02
        data["initial"] = {"family": "positive_fourier", "amplitude": 1.0}
        path = write_manifest(data)
        out = tmp_path / "s5"
        assert invoke("simulate", "--manifest", path, "--out", out).exit_code == 0
        summary = load_json(out / "summary.json")
        assert summary["steps"] == summary["linear_solves"] == 20
        # the state-dependent operator is assembled on every step
        assert summary["assemblies"] == 20
        assert summary["rejected_steps"] == 0
        assert 1 <= summary["factorizations"] < summary["linear_solves"]
        assert summary["krylov_iterations"] >= 0
        assert 0.0 < summary["worst_linear_residual"] <= 1.0

    def test_summary_writes_the_run_stats_whole(self, write_manifest,
                                                tmp_path, monkeypatch):
        # summary.json is the run's RunStats plus four fields of the run,
        # so a count added to the record reaches it with no CLI edit
        import crossdiff.solver as solver_mod
        from crossdiff import (RunStats, SolverConfig, build_grid,
                               initial_field, run)
        from crossdiff.model import model_from_dict

        path = write_manifest(heat_sim_manifest())
        out = tmp_path / "s7"
        assert invoke("simulate", "--manifest", path, "--out", out).exit_code == 0
        summary = load_json(out / "summary.json")
        counts = [f.name for f in dataclasses.fields(RunStats)]
        assert set(summary) == set(counts) | {
            "terminated_reason", "t_final", "steps", "first_negative_t",
            "_meta"}
        g = build_grid(1.0, 1.0, 16, 16, "dirichlet")
        cfg = SolverConfig(scheme="imex", dt0=1e-3, dt_min=1e-3, dt_max=1e-3,
                           t_end=0.05, snapshot_times=(0.02,))
        traj = run(model_from_dict(HEAT_MODEL),
                   initial_field("eigenmode", g, 1, 1.0, 0), cfg)
        assert {k: summary[k] for k in counts} == dataclasses.asdict(traj.stats)

        @dataclasses.dataclass
        class MoreStats(RunStats):
            new_count: int = 7

        monkeypatch.setattr(solver_mod, "RunStats", MoreStats)
        out = tmp_path / "s8"
        assert invoke("simulate", "--manifest", path, "--out", out).exit_code == 0
        assert load_json(out / "summary.json")["new_count"] == 7

    def test_nonfinite_start_is_runtime_failure(self, write_manifest, tmp_path):
        data = heat_sim_manifest()
        data["initial"] = {"constant": [float("nan")]}
        path = write_manifest(data)
        r = invoke("simulate", "--manifest", path, "--out", tmp_path / "s6")
        assert r.exit_code == 3
        assert "non-finite" in r.output

    def test_stiff_run_is_runtime_failure(self, write_manifest, tmp_path):
        data = heat_sim_manifest()
        data["solver"] = {"scheme": "explicit", "dt0": 0.05, "dt_min": 0.05,
                          "dt_max": 0.05, "t_end": 1.0}
        path = write_manifest(data)
        out = tmp_path / "s4"
        r = invoke("simulate", "--manifest", path, "--out", out)
        assert r.exit_code == 3
        assert load_json(out / "summary.json")["terminated_reason"] == "stiff"


class TestDiagnoseCommand:
    def _manifest(self, t_end):
        return {
            "seed": 0,
            "model": {"classic_skt": {
                "a1": 1.0, "a2": 1.0, "a11": 1.0, "a12": 0.5,
                "a21": 0.5, "a22": 1.0,
                "lv": [1.0, 1.0, 1.0, 0.5, 0.5, 1.0]}},
            "grid": {"Nx": 16, "Ny": 16, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 2e-3, "dt_max": 1e-2,
                       "t_end": t_end},
            "initial": {"family": "positive_fourier", "amplitude": 0.5},
            "outputs": {"dir": "dout"},
            "diagnostics": {"q": 2.0, "eps": 0.1},
        }

    def test_settled_run_passes_all_gates(self, write_manifest, tmp_path):
        path = write_manifest(self._manifest(t_end=3.0))
        out = tmp_path / "d1"
        r = invoke("diagnose", "--manifest", path, "--out", out)
        assert r.exit_code == 0, r.output
        summary = load_json(out / "diagnose_summary.json")
        assert summary["passed"] is True
        assert set(summary["gating"]) == {"energy", "interpolation", "ystar"}
        for name in ("energy", "interpolation", "ystar"):
            rep = load_json(out / f"{name}.json")
            assert rep["passed"] is True

    def test_transient_run_fails_ystar_gate(self, write_manifest, tmp_path):
        path = write_manifest(self._manifest(t_end=0.3))
        out = tmp_path / "d2"
        r = invoke("diagnose", "--manifest", path, "--out", out)
        assert r.exit_code == 1
        summary = load_json(out / "diagnose_summary.json")
        assert summary["passed"] is False
        assert summary["gating"]["ystar"] is False

    def test_radii_write_the_bmo_columns_and_profiles(self, write_manifest,
                                                      tmp_path):
        # on 16x16, BMO at 3h runs the shift loop (29 offsets) and at 8h
        # the bound-ordered search (197 offsets); t_end covers both radii
        # squared, so morrey.json is written too
        data = {
            "seed": 1,
            "model": {"classic_skt": {"a1": 1.0, "a2": 1.0, "a11": 1.0,
                                      "a12": 0.5, "a21": 0.5, "a22": 1.0}},
            "grid": {"Nx": 16, "Ny": 16, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 0.005, "dt_min": 0.005,
                       "dt_max": 0.005, "t_end": 0.25},
            "initial": {"family": "positive_fourier", "amplitude": 1.0},
            "diagnostics": {"radii": [0.1875, 0.5], "mu0": 1.0,
                            "M1_targets": [1.0]},
        }
        out = tmp_path / "d4"
        r = invoke("diagnose", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 0, r.output
        assert {"bmo.json", "diagnose_summary.json", "energy.json",
                "interpolation.json", "manifest.json", "morrey.json",
                "trajectory.csv"} <= {p.name for p in out.iterdir()}
        assert load_json(out / "diagnose_summary.json")["passed"] is True
        _, header, rows = read_rows(out / "trajectory.csv")
        cols = [k for k, name in enumerate(header) if name.startswith("bmo@")]
        assert [header[k] for k in cols] == ["bmo@0.1875", "bmo@0.5"]
        assert all(np.isfinite(float(row.split(",")[k]))
                   for row in rows for k in cols)

    def test_repeated_radius_counts_once(self, write_manifest, tmp_path):
        # a repeated radius gives no slope: no morrey.json, and the run
        # exits as it does with that radius once
        outcomes = []
        for k, radii in enumerate(([0.125], [0.125, 0.125], [0.125, 0.25])):
            data = self._manifest(t_end=0.3)
            data["diagnostics"] = dict(data["diagnostics"], radii=radii)
            out = tmp_path / f"r{k}"
            r = invoke("diagnose", "--manifest",
                       write_manifest(data, f"r{k}.json"), "--out", out)
            summary = load_json(out / "diagnose_summary.json")
            outcomes.append((r.exit_code, (out / "morrey.json").exists(),
                             summary["gating"]))
        assert [o[:2] for o in outcomes] == [(1, False), (1, False), (1, True)]
        assert outcomes[0][2] == outcomes[1][2] == outcomes[2][2]

    def test_bmo_and_morrey_key_a_radius_alike(self, write_manifest, tmp_path):
        # bmo.json keyed 0.1875001 by its :g form, "0.1875"
        data = self._manifest(t_end=0.04)
        data["diagnostics"] = dict(data["diagnostics"], radii=[0.125, 0.1875001])
        out = tmp_path / "k"
        r = invoke("diagnose", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code in (0, 1), r.output
        bmo = load_json(out / "bmo.json")
        morrey = load_json(out / "morrey.json")
        keys = {"0.125", "0.1875001"}
        assert set(bmo["oscillation"]) == set(morrey["extra"]["quotients"]) == keys


class TestAttractorCommand:
    def test_damped_ensemble_passes(self, write_manifest, tmp_path, decay_model):
        data = {
            "seed": 4,
            "model": model_to_dict(decay_model),
            "grid": {"Nx": 8, "Ny": 8, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 1e-2, "dt_max": 5e-2,
                       "t_end": 20.0, "record_every": 10},
            "ensemble": {"family": "positive_fourier", "count": 2,
                         "amp_range": [0.1, 1.0], "T_observe": 16.0},
            "outputs": {"dir": "aout"},
        }
        path = write_manifest(data)
        out = tmp_path / "a1"
        r = invoke("attractor", "--manifest", path, "--out", out)
        assert r.exit_code == 0, r.output
        rep = load_json(out / "absorbing_ball.json")
        assert rep["excluded"] == []
        assert 0.0 < rep["M_hat"] <= 1e-4
        _, headers, rows = read_rows(out / "members.csv")
        assert headers[0] == "member" and len(rows) == 2

    def test_escaping_member_fails(self, write_manifest, tmp_path):
        grow = ModelSpec(
            P=PolynomialMap.identity(1), lam=LambdaSpec(1.0),
            reaction=None, C_f=None, name="grow")
        md = model_to_dict(grow)
        md["reaction"] = {"general": {"f": [[[1.0, 1]]]}}
        md["C_f"] = 1.05
        data = {
            "seed": 2,
            "model": md,
            "grid": {"Nx": 8, "Ny": 8, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 1e-2, "dt_max": 5e-2,
                       "t_end": 3.0, "record_every": 5,
                       "blowup_threshold": 50.0},
            "ensemble": {"family": "positive_fourier", "count": 2,
                         "amp_range": [0.1, 10.0]},
            "outputs": {"dir": "aout"},
        }
        path = write_manifest(data)
        out = tmp_path / "a2"
        r = invoke("attractor", "--manifest", path, "--out", out)
        assert r.exit_code == 1
        rep = load_json(out / "absorbing_ball.json")
        assert rep["excluded"] == [1]

    def test_threads_flag(self, write_manifest, tmp_path, decay_model):
        data = {
            "seed": 4,
            "model": model_to_dict(decay_model),
            "grid": {"Nx": 8, "Ny": 8, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 1e-2, "dt_max": 5e-2,
                       "t_end": 5.0, "record_every": 10},
            "ensemble": {"family": "positive_fourier", "count": 2,
                         "amp_range": [0.1, 1.0]},
            "outputs": {"dir": "aout"},
        }
        path = write_manifest(data)
        a, b = tmp_path / "t1", tmp_path / "t2"
        r1 = invoke("attractor", "--manifest", path, "--out", a)
        r2 = invoke("attractor", "--manifest", path, "--out", b,
                    "--threads", 2)
        assert r1.exit_code == 0 and r2.exit_code == 0
        ra = load_json(a / "absorbing_ball.json")
        rb = load_json(b / "absorbing_ball.json")
        assert ra["M_hat"] == rb["M_hat"]


class TestSweepCommand:
    def test_sweep_over_dt0(self, write_manifest, tmp_path):
        data = heat_sim_manifest()
        data["solver"] = {"scheme": "imex", "dt0": 1e-3, "t_end": 0.02}
        data["sweep"] = {"path": "solver.dt0", "values": [1e-3, 5e-4]}
        path = write_manifest(data)
        out = tmp_path / "sw"
        r = invoke("sweep", "--manifest", path, "--out", out)
        assert r.exit_code == 0, r.output
        _, headers, rows = read_rows(out / "sweep.csv")
        assert headers == ["index", "value", "reached", "t_final", "final_L2"]
        assert len(rows) == 2
        for i in range(2):
            assert (out / f"run_{i:03d}" / "trajectory.csv").exists()
        summary = load_json(out / "sweep_summary.json")
        assert summary["all_reached"] is True
        assert summary["values"] == [1e-3, 5e-4]

    def test_every_run_writes_its_summary(self, write_manifest, tmp_path):
        # the second run stops after three steps, short of t_end
        data = heat_sim_manifest()
        data["solver"] = {"scheme": "imex", "dt0": 1e-3, "t_end": 0.02}
        data["sweep"] = {"path": "solver.max_steps", "values": [100, 3]}
        path = write_manifest(data)
        out = tmp_path / "sw"
        r = invoke("sweep", "--manifest", path, "--out", out)
        assert r.exit_code == cli_mod.EXIT_RUNTIME, r.output
        _, _, rows = read_rows(out / "sweep.csv")
        reasons = []
        for i, row in enumerate(rows):
            _, _, reached, t_final, _ = (float(v) for v in row.split(","))
            summary = load_json(out / f"run_{i:03d}" / "summary.json")
            assert (summary["terminated_reason"] == "reached") == (reached == 1.0)
            assert summary["t_final"] == t_final
            reasons.append(summary["terminated_reason"])
        assert reasons == ["reached", "maxsteps"]

    def test_sweep_needs_path_and_values(self, write_manifest, tmp_path):
        data = heat_sim_manifest()
        data["sweep"] = {"path": "solver.dt0"}
        path = write_manifest(data)
        r = invoke("sweep", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == 2


def _set(data, dotted, value):
    # a key of digits indexes a list
    node = data
    keys = [int(k) if k.isdigit() else k for k in dotted.split(".")]
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    return data


class TestInputErrors:
    """Exit code 2 is for malformed input only."""

    VERIFY = {"seed": 0, "model": HEAT_MODEL,
              "verify": {"region": {"lo": [-2.0], "hi": [2.0]}, "n": 200}}

    @pytest.mark.parametrize("dotted,value", [
        ("seed", "abc"),
        ("verify.n", "many"),
        ("verify.ls", ["x"]),
        ("verify.region", {"lo": [-2.0]}),
        ("verify", [1]),
        ("model", {"classic_skt": {"a1": 1.0, "a9": 2.0}}),
        ("model", {"classic_skt": {"a1": "x", "a2": 1.0, "a11": 0.0,
                                   "a12": 0.0, "a21": 0.0, "a22": 0.0}}),
        ("model", {"m": "two", "P": [], "lambda": {"lambda0": 1.0}}),
        # a truncated component count or matrix index would load as a
        # different model
        ("model", {"m": 1.5, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}}),
        ("model", {"m": True, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}}),
        ("model", dict(HEAT_MODEL, reaction={
            "K": [[1.0]], "B": [[0, 0.5, 1.0, 0.0, 1]], "kappa": 1.0,
            "c0": 1.0})),
        # a truncated seed or sample count would run another certification
        ("seed", 2.9),
        ("seed", True),
        ("verify.n", 200.7),
        ("verify.n", True),
    ])
    def test_bad_verify_value_is_input_error(self, write_manifest, tmp_path,
                                             dotted, value):
        path = write_manifest(_set(json.loads(json.dumps(self.VERIFY)),
                                   dotted, value))
        r = invoke("verify", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == 2, r.output
        assert "input error" in r.output

    @pytest.mark.parametrize("dotted,value", [
        ("grid.Nx", "sixteen"),
        ("initial", {"constant": ["a"]}),
        ("initial", {"family": "eigenmode", "amplitude": "big"}),
        ("solver.snapshot_times", ["soon"]),
        ("diagnostics", {"q": "two"}),
        ("diagnostics", {"radii": ["x"]}),
        ("diagnostics", {"p_list": ["x"]}),
        ("diagnostics", {"p_list": "ab"}),
        ("diagnostics", {"M1_targets": ["x"]}),
        ("sweep", {"path": "initial.amplitude", "values": ["2.0"]}),
        ("sweep", {"path": "initial.amplitude", "values": [True]}),
        ("sweep", {"path": "solver.scheme", "values": ["imex", "newton"]}),
        ("sweep", {"path": "solver.dt0.x", "values": [1e-3]}),
        ("grid.Nx", 32.5),
        ("grid.Nx", True),
        ("solver.dt_max", float("inf")),
    ])
    def test_bad_simulate_value_is_input_error(self, write_manifest, tmp_path,
                                               dotted, value):
        data = _set(heat_sim_manifest(), dotted, value)
        command = "sweep" if "sweep" in data else "simulate"
        r = invoke(command, "--manifest", write_manifest(data),
                   "--out", tmp_path / "x")
        assert r.exit_code == 2, r.output
        assert "input error" in r.output

    @pytest.mark.parametrize("command,dotted,written", [
        # a NaN linear_tol used to run with the residual gate off
        ("simulate", "solver.linear_tol", "summary.json"),
        ("simulate", "solver.blowup_threshold", "summary.json"),
        # a NaN q or eps used to fail the interpolation fit (exit 1)
        ("diagnose", "diagnostics.q", "diagnose_summary.json"),
        ("diagnose", "diagnostics.eps", "diagnose_summary.json"),
    ])
    def test_nan_solver_or_diagnostics_number_is_input_error(
            self, write_manifest, tmp_path, command, dotted, written):
        data = dict(heat_sim_manifest(), diagnostics={})
        path = write_manifest(_set(data, dotted, float("nan")))
        assert "NaN" in path.read_text()
        out = tmp_path / "x"
        r = invoke(command, "--manifest", path, "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / written).exists()

    @pytest.mark.parametrize("times", [[0.02, 0.06], [-1.0]])
    def test_snapshot_time_outside_the_run_is_input_error(
            self, write_manifest, tmp_path, times):
        # a time beyond t_end got no snapshot; a negative one wrote the
        # initial state as snapshot_t-1.csv
        data = heat_sim_manifest()
        data["outputs"]["snapshot_times"] = times
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 2, r.output
        assert "snapshot_times must lie in [0, t_end]" in r.output
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command,dotted,value", [
        ("simulate", "outputs.format", "xyz"),
        ("sweep", "outputs.format", "xyz"),
        # every sub-run's format is the number swept in
        ("sweep", "sweep.path", "outputs.format"),
    ])
    def test_unknown_output_format_is_input_error(
            self, write_manifest, tmp_path, command, dotted, value):
        # ran the whole simulation and wrote manifest.json and
        # trajectory.csv before the snapshots refused the format
        data = dict(heat_sim_manifest(),
                    sweep={"path": "initial.amplitude", "values": [1.0]})
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(_set(data, dotted, value)),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error: outputs.format must be csv or bin" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_radius_below_two_cells_is_input_error(self, write_manifest,
                                                   tmp_path, command):
        # simulate wrote a bmo@0.05 column and exited 0; diagnose ran the
        # whole simulation before bmo_profile refused the radius
        data = dict(heat_sim_manifest(), diagnostics={"radii": [0.05, 0.25]})
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 2, r.output
        assert "radius 0.05 is below two cells (0.125)" in r.output
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("dotted", ["diagnostics.radii",
                                        "diagnostics.p_list"])
    def test_nan_diagnostics_entry_is_input_error(self, write_manifest,
                                                  tmp_path, dotted):
        # a NaN radius failed in the BMO stencil (exit 4), a NaN p wrote
        # an Lnan column
        path = write_manifest(_set(dict(heat_sim_manifest(), diagnostics={}),
                                   dotted, [float("nan")]))
        assert "NaN" in path.read_text()
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", path, "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("value", [
        {"M1_targets": ["x"]},
        {"amp_range": ["a", 1.0]},
        {"count": "two"},
        {"count": 2.5},
        {"count": True},
    ])
    def test_bad_ensemble_value_is_input_error(self, write_manifest, tmp_path,
                                               value):
        data = heat_sim_manifest()
        data["ensemble"] = {"count": 1, "amp_range": [0.1, 1.0], **value}
        r = invoke("attractor", "--manifest", write_manifest(data),
                   "--out", tmp_path / "x")
        assert r.exit_code == 2, r.output
        assert "input error" in r.output

    @pytest.mark.parametrize("value", [
        {"tol": float("nan")},
        {"M1_targets": [float("nan")]},
        {"amp_range": [0.1, float("inf")]},
    ])
    def test_nonfinite_ensemble_value_is_input_error(self, write_manifest,
                                                     tmp_path, value):
        # each loaded as given and ran the ensemble
        data = heat_sim_manifest()
        data["ensemble"] = {"count": 2, "amp_range": [0.1, 1.0], **value}
        out = tmp_path / "x"
        r = invoke("attractor", "--manifest", write_manifest(data),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / "absorbing_ball.json").exists()

    @pytest.mark.parametrize("reaction", [
        # exited 4 with an AttributeError from the model loader
        [1.0, 2.0],
        {"general": [1.0]},
        # loaded as the general reaction, dropping K, kappa and c0
        {"general": {"f": [[[-1.0, 1]]]}, "K": [[1.0]], "kappa": 1.0,
         "c0": 1.0},
        {"K": [[1.0]], "c0": 1.0},
        {"K": [[1.0]], "kappa": "abc", "c0": 1.0},
    ])
    def test_malformed_reaction_is_input_error(self, write_manifest,
                                               tmp_path, reaction):
        data = _set(heat_sim_manifest(), "model",
                    dict(HEAT_MODEL, reaction=reaction))
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", write_manifest(data),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command,dotted,value", [
        # ran under Neumann conditions and exited 0
        ("simulate", "grid.BC", "dirichlet"),
        ("simulate", "initial.amp", 2.0),
        ("simulate", "outputs.snapshot_time", [0.02]),
        ("simulate", "solver.dtmax", 0.1),
        ("verify", "verify.samples", 500),
        # wrote a trajectory.csv with no bmo@ or morrey@ column
        ("simulate", "diagnostics.radius", [0.25]),
        ("attractor", "ensemble.members", 2),
        ("sweep", "sweep.threads", 2),
    ])
    def test_unknown_section_key_is_input_error(self, write_manifest,
                                                tmp_path, command, dotted,
                                                value):
        data = dict(heat_sim_manifest(), verify=copy.deepcopy(self.VERIFY["verify"]),
                    diagnostics={}, ensemble={"count": 1, "amp_range": [0.1, 1.0]})
        if command == "sweep":
            data["sweep"] = {"path": "initial.amplitude", "values": [1.0]}
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(_set(data, dotted, value)),
                   "--out", out)
        assert r.exit_code == 2, r.output
        section, key = dotted.split(".")
        assert "input error" in r.output
        assert section in r.output and repr(key) in r.output
        assert not out.exists()

    @pytest.mark.parametrize("key,value,where", [
        # ran to exit 0 with no bmo@ column
        ("diagnostic", {"radii": [0.25]}, "top-level manifest key"),
        ("outputs_dir", "elsewhere", "top-level manifest key"),
        # loaded as lambda1 = 0
        ("model.lambda.lamda1", 2.0, "lambda"),
        ("model.nmae", "heat", "model"),
    ])
    def test_unknown_top_level_or_model_key_is_input_error(
            self, write_manifest, tmp_path, key, value, where):
        data = copy.deepcopy(heat_sim_manifest())
        node = data
        *path, name = key.split(".")
        for k in path:
            node = node[k]
        node[name] = value
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", write_manifest(data),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert where in r.output and repr(name) in r.output
        assert not (out / "summary.json").exists()

    def test_classic_skt_beside_another_model_key_is_input_error(
            self, write_manifest, tmp_path):
        # the lambda beside the shorthand was ignored
        data = dict(heat_sim_manifest(), model={
            "classic_skt": {"a1": 1.0, "a2": 1.0, "a11": 1.0, "a12": 0.5,
                            "a21": 0.5, "a22": 1.0},
            "lambda": {"lambda0": 2.0}})
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", write_manifest(data),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "classic_skt" in r.output and "input error" in r.output
        assert not (out / "summary.json").exists()

    # every section the CLI reads, with its command: a value that is not a
    # JSON number, or a list of them, where one belongs
    NUMBER_RULE = [
        # each of these loaded and exited 0
        ("verify", "verify.ls", "12", "ls"),              # l = 1 and 2
        ("verify", "verify.delta_k", True, "delta_k"),     # 1.0
        ("verify", "verify.tol_ell", "1e-9", "tol_ell"),
        ("verify", "verify.n", "200", "n"),
        ("verify", "verify.region.hi", "2", "hi"),
        ("verify", "verify.region.lo", [True], "lo"),
        ("verify", "seed", "3", "seed"),
        ("simulate", "solver.t_end", True, "t_end"),      # ran to t = 1
        ("simulate", "grid.Lx", True, "Lx"),
        ("simulate", "grid.Ly", "1.0", "Ly"),
        ("simulate", "grid.Nx", "16", "Nx"),
        ("simulate", "initial.amplitude", True, "amplitude"),
        ("simulate", "initial.amplitude", "0.5", "amplitude"),
        ("simulate", "initial", {"constant": "1"}, "constant"),
        ("simulate", "initial", {"constant": [True]}, "constant"),
        ("simulate", "outputs.snapshot_times", "0", "snapshot_times"),
        ("simulate", "outputs.snapshot_times", [False], "snapshot_times"),
        ("simulate", "diagnostics.s0", True, "s0"),
        ("simulate", "diagnostics.q", "2", "q"),
        ("simulate", "diagnostics.eps", "0.5", "eps"),
        ("simulate", "diagnostics.mu0", True, "mu0"),
        ("simulate", "diagnostics.p_list", "3", "p_list"),
        ("simulate", "diagnostics.M1_targets", "1", "M1_targets"),
        ("attractor", "ensemble.amp_range", "19", "amp_range"),  # 1 to 9
        ("attractor", "ensemble.tol", True, "tol"),
        ("attractor", "ensemble.M1_targets", "1", "M1_targets"),
        ("attractor", "ensemble.count", "1", "count"),
        # exited 2 with a message that named no key
        ("simulate", "solver.dt0", "0.001", "dt0"),
        ("simulate", "diagnostics.radii", "0.25", "radii"),
        ("attractor", "ensemble.T_observe", "0.01", "T_observe"),
        # the model sections: each loaded and exited 0, apart from m,
        # which exited 2 with a message that named no key
        ("simulate", "model.classic_skt.a2", "1", "a2"),
        ("simulate", "model.classic_skt.a11", True, "a11"),
        ("simulate", "model.classic_skt.lv.5", "1", "lv"),
        ("simulate", "model.P.0.0.0", "1.0", "P"),
        ("simulate", "model.lambda.lambda1", True, "lambda1"),
        ("simulate", "model.reaction.kappa", "1", "kappa"),
        ("simulate", "model.reaction.c0", True, "c0"),
        ("simulate", "model.reaction.K.0.0", "1", "K"),
        ("simulate", "model.C_f", "3", "C_f"),
        ("simulate", "model.m", "2", "m"),
    ]

    # the models of NUMBER_RULE's model cases: a competitive model with a
    # declared C_f, and a classic_skt with a Lotka-Volterra reaction
    MODEL = {"m": 1, "P": [[[1.0, 1]]], "C_f": 3.0,
             "lambda": {"lambda0": 1.0, "lambda1": 0.0, "k": 0.0},
             "reaction": {"K": [[1.0]], "kappa": 1.0, "c0": 1.0}}
    SKT = {"classic_skt": {"a1": 1.0, "a2": 1.0, "a11": 1.0, "a12": 0.5,
                           "a21": 0.5, "a22": 1.0, "lv": [1.0] * 6}}

    @pytest.mark.parametrize("command,dotted,value,key", NUMBER_RULE,
                             ids=[f"{d}={v!r}" for _, d, v, _ in NUMBER_RULE])
    def test_non_number_is_input_error(
            self, write_manifest, tmp_path, command, dotted, value, key):
        model = (self.SKT if dotted.startswith("model.classic_skt")
                 else self.MODEL if dotted.startswith("model.") else HEAT_MODEL)
        data = dict(heat_sim_manifest(), diagnostics={},
                    model=copy.deepcopy(model),
                    verify=copy.deepcopy(self.VERIFY["verify"]),
                    ensemble={"count": 1, "amp_range": [0.1, 1.0]})
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(_set(data, dotted, value)),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert re.search(rf"\b{key}\b", r.output), r.output
        assert not out.exists()

    @pytest.mark.parametrize("dotted,key", [("seed", "seed"),
                                            ("verify.region.hi.0", "hi")])
    def test_number_too_large_for_a_float_is_input_error(
            self, write_manifest, tmp_path, dotted, key):
        # float() raised OverflowError: exit 4 with a traceback
        huge = 10 ** 400
        data = _set(json.loads(json.dumps(self.VERIFY)), dotted, huge)
        out = tmp_path / "x"
        r = invoke("verify", "--manifest", write_manifest(data), "--out", out)
        assert r.exit_code == 2, r.output
        assert "is too large for a float" in r.output
        assert re.search(rf"\b{key}\b", r.output), r.output
        assert str(huge)[:20] not in r.output
        assert not out.exists()

    @pytest.mark.parametrize("dotted", ["ensemble.skip_verify",
                                        "solver.store_states"])
    def test_boolean_keys_take_json_booleans(self, write_manifest, tmp_path,
                                             dotted):
        # "false" is a true string: the ensemble skipped the certification
        # that this model fails (exit 2 with false, 0 with "false"), and
        # the run stored every state
        data = dict(heat_sim_manifest(),
                    model={"m": 1, "P": [[[1.0, 1], [-1.0, 3]]],
                           "lambda": {"lambda0": 1.0}},
                    ensemble={"count": 1, "amp_range": [0.1, 0.1]})
        command = "attractor" if dotted.startswith("ensemble") else "simulate"
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(_set(data, dotted, "false")),
                   "--out", out)
        assert r.exit_code == 2, r.output
        key = dotted.split(".")[1]
        assert f"input error: {key} must be true or false, got 'false'" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("dotted,value,message", [
        # ran the constant state, and dropped the amplitude
        ("initial", {"family": "positive_fourier", "constant": [1.0]},
         "got ['constant', 'family']"),
        ("initial", {"constant": [1.0], "amplitude": 50.0},
         "an amplitude only beside family; got ['amplitude', 'constant']"),
        # the key beside lo and hi was ignored
        ("verify.region", {"lo": [-2.0], "hi": [2.0], "mid": [0.0]},
         "lo and hi only, got {'lo': [-2.0], 'hi': [2.0], 'mid': [0.0]}"),
        ("ensemble.region", {"lo": [0.0], "hi": [2.0], "HI": [3.0]},
         "lo and hi only, got {'lo': [0.0], 'hi': [2.0], 'HI': [3.0]}"),
    ], ids=["family_and_constant", "amplitude_and_constant",
            "verify_region_key", "ensemble_region_key"])
    def test_initial_source_and_region_keys(
            self, write_manifest, tmp_path, dotted, value, message):
        data = dict(heat_sim_manifest(), verify=copy.deepcopy(self.VERIFY["verify"]),
                    ensemble={"count": 1, "amp_range": [0.1, 1.0]})
        command = {"initial": "simulate", "verify": "verify",
                   "ensemble": "attractor"}[dotted.split(".")[0]]
        out = tmp_path / "x"
        r = invoke(command, "--manifest", write_manifest(_set(data, dotted, value)),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output and message in r.output
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["attractor", "sweep"])
    def test_threads_below_one_is_usage_error(self, write_manifest, tmp_path,
                                              command, threads):
        # both ran serially without a word
        data = heat_sim_manifest()
        data["ensemble"] = {"count": 1, "amp_range": [0.1, 1.0]}
        data["sweep"] = {"path": "initial.amplitude", "values": [1.0]}
        r = invoke(command, "--manifest", write_manifest(data),
                   "--out", tmp_path / "x", "--threads", threads)
        assert r.exit_code == 2, r.output
        assert "Invalid value for '--threads'" in r.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
    def test_nonfinite_initial_amplitude_is_input_error(
            self, write_manifest, tmp_path, amplitude):
        # NaN ran to a non-finite state and exited 3 as a runtime failure
        data = _set(heat_sim_manifest(), "initial",
                    {"family": "positive_fourier", "amplitude": amplitude})
        out = tmp_path / "x"
        r = invoke("simulate", "--manifest", write_manifest(data),
                   "--out", out)
        assert r.exit_code == 2, r.output
        assert "input error" in r.output
        assert not (out / "summary.json").exists()

    def test_nonfinite_model_coefficient_is_input_error(self, write_manifest,
                                                        tmp_path):
        data = heat_sim_manifest()
        data["model"] = {"m": 1, "P": [[[1.0, 1], [float("inf"), 3]]],
                         "lambda": {"lambda0": 1.0}}
        path = write_manifest(data)
        assert "Infinity" in path.read_text()
        r = invoke("simulate", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == 2, r.output
        assert "input error" in r.output and "must be finite" in r.output

    @pytest.mark.parametrize("command, option", [
        ("verify", ["--format", "bin"]),
        ("diagnose", ["--format", "bin"]),
        ("attractor", ["--format", "bin"]),
        ("simulate", ["--threads", "2"]),
        ("verify", ["--threads", "2"]),
        ("diagnose", ["--threads", "2"]),
    ])
    def test_option_the_command_does_not_read_is_usage_error(
            self, write_manifest, tmp_path, command, option):
        path = write_manifest(self.VERIFY)
        r = invoke(command, "--manifest", path, "--out", tmp_path / "x", *option)
        assert r.exit_code == 2
        assert "No such option" in r.output and option[0] in r.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_numerical_fault_is_not_input_error(self, write_manifest, tmp_path,
                                                monkeypatch, exc):
        def fails(*args, **kwargs):
            raise exc("fault inside the numerics")

        monkeypatch.setattr(cli_mod, "verify_structure", fails)
        path = write_manifest(self.VERIFY)
        r = invoke("verify", "--manifest", path, "--out", tmp_path / "x")
        assert r.exit_code == cli_mod.EXIT_INTERNAL == 4
        assert "input error" not in r.output
        assert f"{exc.__name__}: " in r.stderr
        assert "Traceback" in r.stderr


class TestEntryPoint:
    def test_console_script_lists_subcommands(self):
        """The `crossdiff` script declared in pyproject.toml runs `--help`
        in its own process and lists every subcommand.

        The test runs the wrapper an installer writes for the declared
        `module:attr` against the package this session imports, so it
        needs no install and never runs some other `crossdiff` found on
        PATH.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, attr = scripts["crossdiff"].split(":")
        wrapper = ("import sys\n"
                   f"from {module} import {attr}\n"
                   "sys.argv[0] = 'crossdiff'\n"
                   f"sys.exit({attr}())\n")
        cp = run_python(wrapper, "--help")
        assert cp.returncode == 0, cp.stderr
        # a command name at the start of a listing row, not anywhere in the
        # text: the `sweep` row's help mentions `simulate`
        for cmd in ("verify", "simulate", "diagnose", "attractor", "sweep"):
            assert re.search(rf"^  {cmd}\s", cp.stdout, re.M), cp.stdout
