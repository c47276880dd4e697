"""The four benchmark workloads, built from a seed through crossdiff's
public API.

Each workload is a closed loop with one caller: ``run_pass()`` makes the
workload's timed calls once and returns the output checks that failed
(an empty list when the pass is correct).  Construction is the set-up:
model, grid, initial data or manifests.  ``SIZES`` fixes the horizon of
each workload; "tiny" is a cut-down copy for warm-up and smoke tests.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

import numpy as np

import crossdiff
import crossdiff.cli
from crossdiff import attractor, solver

# SKT diffusion with the criterion-7 Lotka-Volterra reaction.
SKT = (1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
LV = (1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
HEAT_MODEL = {"m": 1, "P": [[[1.0, 1]]], "lambda": {"lambda0": 1.0}}

SIZES = {
    "ensemble_imex": {
        "full": {"n": 32, "members": 4, "t_end": 0.5},
        "tiny": {"n": 8, "members": 2, "t_end": 0.05},
    },
    "heat_newton": {
        "full": {"n": 64, "steps": 150},
        "tiny": {"n": 16, "steps": 5},
    },
    "explicit_skt": {
        "full": {"n": 32, "t_end": 0.02},
        "tiny": {"n": 8, "t_end": 1e-3},
    },
    "certify_diagnose": {
        "full": {"verify_n": 300_000, "n": 64, "dt": 1e-3, "t_end": 0.02,
                 "radii": [1 / 16, 1 / 8, 1 / 4]},
        "tiny": {"verify_n": 2000, "n": 16, "dt": 2e-3, "t_end": 0.04,
                 "radii": [1 / 8, 3 / 16]},
    },
}


class EnsembleImex:
    """Absorbing-ball ensemble: IMEX refactors a state-dependent operator
    on every step."""

    name = "ensemble_imex"
    scheme, reaction = "imex", True

    def __init__(self, seed, size, workdir):
        p = SIZES[self.name][size]
        grid = crossdiff.build_grid(1.0, 1.0, p["n"], p["n"], "neumann")
        config = crossdiff.SolverConfig(scheme="imex", dt0=1e-3, dt_min=1e-6,
                                        dt_max=1e-2, t_end=p["t_end"])
        self.espec = attractor.EnsembleSpec(
            model=crossdiff.classic_skt(*SKT, lv=LV), grid=grid,
            config=config, family="positive_fourier", count=p["members"],
            amp_range=(0.1, 100.0), seed=seed)
        self.member_steps = None
        self.per_pass = {"attractor.ensemble_absorbing_ball": 1,
                         "attractor.run": p["members"],
                         "attractor.initial_field": p["members"],
                         "model.verify_structure": 1}

    def run_pass(self, runs):
        first = len(runs)
        try:
            report = attractor.ensemble_absorbing_ball(self.espec)
        except crossdiff.InputError as e:
            return [f"structure verification failed: {e}"]
        problems = []
        if report.excluded:
            problems.append(f"members excluded: {list(report.excluded)}")
        steps = [r["steps"] for r in runs[first:]]
        if self.member_steps is None:
            self.member_steps = steps
        elif steps != self.member_steps:
            problems.append(f"member steps {steps} != first pass "
                            f"{self.member_steps}")
        return problems


class HeatNewton:
    """Heat equation, Newton scheme, fixed dt: the operator never changes."""

    name = "heat_newton"
    scheme, reaction = "newton", False

    def __init__(self, seed, size, workdir):
        p = SIZES[self.name][size]
        self.model = crossdiff.model_from_dict(HEAT_MODEL)
        grid = crossdiff.build_grid(1.0, 1.0, p["n"], p["n"], "dirichlet")
        dt = 1e-4
        self.config = crossdiff.SolverConfig(
            scheme="newton", dt0=dt, dt_min=dt, dt_max=dt,
            t_end=p["steps"] * dt, record_every=100)
        self.field0 = attractor.initial_field("eigenmode", grid, 1, 1.0, seed)
        self.per_pass = {"solver.run": 1}

    def run_pass(self, runs):
        traj = solver.run(self.model, self.field0, self.config)
        problems = []
        if not traj.reached_end:
            problems.append(f"terminated: {traj.terminated_reason}")
        if not np.all(traj.newton_history == 1):
            problems.append("a step needed other than 1 Newton solve")
        t = traj.times[-1]
        want = math.exp(-2.0 * math.pi ** 2 * t) * traj.records[0].L2
        err = abs(traj.records[-1].L2 - want) / want
        if err > 2e-2:
            problems.append(f"final L2 off the heat decay by {err:.2e}")
        return problems


class ExplicitSkt:
    """Explicit SKT+LV: CFL-limited steps and no sparse solve."""

    name = "explicit_skt"
    scheme, reaction = "explicit", True

    def __init__(self, seed, size, workdir):
        p = SIZES[self.name][size]
        self.model = crossdiff.classic_skt(*SKT, lv=LV)
        grid = crossdiff.build_grid(1.0, 1.0, p["n"], p["n"], "neumann")
        self.config = crossdiff.SolverConfig(
            scheme="explicit", dt0=1e-3, dt_min=1e-7, dt_max=1e-3,
            t_end=p["t_end"])
        self.field0 = attractor.initial_field("positive_fourier", grid, 2,
                                              1.0, seed)
        self.steps = None
        self.per_pass = {"solver.run": 1}

    def run_pass(self, runs):
        traj = solver.run(self.model, self.field0, self.config)
        problems = []
        if not traj.reached_end:
            problems.append(f"terminated: {traj.terminated_reason}")
        if traj.first_negative_t is not None:
            problems.append(f"negative values at t={traj.first_negative_t}")
        steps = len(traj.dt_history)
        if self.steps is None:
            self.steps = steps
        elif steps != self.steps:
            problems.append(f"{steps} steps != first pass {self.steps}")
        return problems


class CertifyDiagnose:
    """The paper's pipeline through the CLI: verify, then diagnose."""

    name = "certify_diagnose"
    scheme, reaction = "imex", False

    def __init__(self, seed, size, workdir):
        p = SIZES[self.name][size]
        self.workdir = workdir
        model = {"classic_skt": dict(zip(("a1", "a2", "a11", "a12", "a21", "a22"),
                                         SKT))}
        base = {"schema": crossdiff.cli.SCHEMA, "seed": seed, "model": model}
        verify = dict(base, verify={"region": {"lo": [0.0, 0.0],
                                               "hi": [100.0, 100.0]},
                                    "n": p["verify_n"]})
        diagnose = dict(
            base,
            grid={"Nx": p["n"], "Ny": p["n"], "bc": "neumann"},
            solver={"scheme": "imex", "dt0": p["dt"], "dt_min": p["dt"],
                    "dt_max": p["dt"], "t_end": p["t_end"]},
            initial={"family": "positive_fourier", "amplitude": 1.0},
            diagnostics={"radii": p["radii"], "mu0": 1.0,
                         "M1_targets": [1.0]})
        os.makedirs(workdir, exist_ok=True)
        self.manifests = {}
        for name, data in (("verify", verify), ("diagnose", diagnose)):
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            self.manifests[name] = path
        self.passes = 0
        self.per_pass = {"cli.verify": 1, "cli.diagnose": 1, "solver.run": 1,
                         "model.verify_structure": 1, "model.compute_lambda_l": 3,
                         "diagnostics.energy_inequality_check": 1,
                         "diagnostics.interpolation_check": 1,
                         "diagnostics.bmo_profile": 1,
                         "diagnostics.morrey_profile": 1}
        self.bytes_written = 0

    def _invoke(self, command, out):
        args = [command, "--manifest", self.manifests[command], "--out", out]
        try:
            crossdiff.cli.main.main(args=args, standalone_mode=False)
        except SystemExit as e:
            return e.code
        return None

    def run_pass(self, runs):
        self.passes += 1
        out = os.path.join(self.workdir, f"pass{self.passes}")
        problems = []
        for command in ("verify", "diagnose"):
            code = self._invoke(command, os.path.join(out, command))
            if code != 0:
                problems.append(f"{command} exited with {code}")
        problems += self._check_artifacts(os.path.join(out, "diagnose"))
        self.bytes_written = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(out) for f in files)
        shutil.rmtree(out)
        return problems

    @staticmethod
    def _check_artifacts(out):
        try:
            with open(os.path.join(out, "diagnose_summary.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(out, "trajectory.csv")) as fh:
                rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        except (OSError, ValueError) as e:
            return [f"diagnose artifacts unreadable: {e}"]
        problems = []
        if summary.get("passed") is not True:
            problems.append(f"diagnose gates: {summary.get('gating')}")
        header, body = rows[0], np.array(rows[1:], dtype=float)
        cols = [i for i, h in enumerate(header) if h.startswith("mass_")]
        mass = body[:, cols]
        drift = float(np.max(np.abs(mass - mass[0]) / np.abs(mass[0])))
        if drift > 1e-10:
            problems.append(f"mass drift {drift:.2e} > 1e-10")
        return problems


WORKLOADS = {w.name: w for w in (EnsembleImex, HeatNewton, ExplicitSkt,
                                 CertifyDiagnose)}
