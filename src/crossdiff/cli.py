"""Batch CLI over JSON run manifests.

Subcommands: verify, simulate, diagnose, attractor, sweep.  Every
artifact embeds the sha256 of the resolved manifest (after CLI
overrides) and the effective seed.  Exit codes: 0 success, 1 hypothesis
or assertion failure, 2 input error, 3 runtime termination, 4 internal
error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import hashlib
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import attractor as attractor_mod
from . import diagnostics as diag_mod
from .errors import (InputError, ManifestError, NumericalStateError,
                     number_list, whole_number)
from .grid import Field, build_grid, load_snapshot, save_snapshot
from .model import Region, classic_skt, model_from_dict, verify_structure
from .solver import SolverConfig, run

OUTPUT_ROOT_ENV = "CROSSDIFF_OUT"
SCHEMA = "crossdiff/1"

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_INTERNAL = 4


@contextlib.contextmanager
def _manifest_values(where):
    """Report a malformed value read from the manifest as a ManifestError.

    Wrap only statements that read or convert manifest values: an error
    of the same types raised by the numerics is a fault of the program,
    not of its input.  The package's own input errors pass through."""
    try:
        yield
    except InputError:
        raise
    except KeyError as e:
        raise ManifestError(f"{where} is missing {e}") from e
    except (TypeError, ValueError) as e:
        raise ManifestError(f"bad value in {where}: {e}") from e


# The keys each manifest section may hold; SolverConfig rejects the
# solver section's unknown keys itself, and model_from_dict the model's.
_SECTION_KEYS = {
    "grid": {"Lx", "Ly", "Nx", "Ny", "bc"},
    "initial": {"family", "amplitude", "constant", "file"},
    "outputs": {"dir", "format", "snapshot_times"},
    "verify": {"region", "n", "delta_k", "tol_ell", "ls"},
    "diagnostics": {f.name for f in dataclasses.fields(diag_mod.DiagnosticsConfig)},
    "ensemble": {"family", "count", "amp_range", "T_observe", "M1_targets",
                 "tol", "region", "skip_verify"},
    "sweep": {"path", "values"},
}
_TOP_KEYS = {"schema", "seed", "model", "model_file", "solver", *_SECTION_KEYS}


class _Resolved:
    """A manifest after CLI overrides, with its hash and output dir."""

    def __init__(self, data, base_dir, out_dir):
        self.data = data
        self.base_dir = base_dir
        self.out_dir = out_dir
        canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
        self.sha256 = hashlib.sha256(canon.encode()).hexdigest()
        self.seed = whole_number(data.get("seed", 0), "seed")
        unknown = sorted(set(data) - _TOP_KEYS)
        if unknown:
            raise ManifestError(f"unknown top-level manifest key "
                                f"{', '.join(map(repr, unknown))}")
        for name, known in _SECTION_KEYS.items():
            v = data.get(name)
            unknown = sorted(set(v) - known) if isinstance(v, dict) else ()
            if unknown:
                raise ManifestError(f"unknown key {', '.join(map(repr, unknown))} "
                                    f"in manifest section \"{name}\"")
        if self.section("outputs").get("format", "csv") not in ("csv", "bin"):
            raise ManifestError("outputs.format must be csv or bin")

    def section(self, name):
        v = self.data.get(name)
        if v is None:
            return {}
        if not isinstance(v, dict):
            raise ManifestError(f"manifest section \"{name}\" must be a JSON object")
        return copy.deepcopy(v)


def _load_manifest(path, out, seed, fmt=None):
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as e:
        raise ManifestError(f"cannot read manifest: {e}") from e
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ManifestError(f"manifest must declare \"schema\": \"{SCHEMA}\"")
    data.setdefault("seed", 0)
    if seed is not None:
        data["seed"] = int(seed)
    outputs = data.setdefault("outputs", {})
    if not isinstance(outputs, dict):
        raise ManifestError("manifest section \"outputs\" must be a JSON object")
    if fmt is not None:
        outputs["format"] = fmt
    if out is not None:
        out_dir = Path(out)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
        with _manifest_values("outputs"):
            out_dir = root / outputs.get("dir", "out")
    outputs["dir"] = str(out_dir)
    return _Resolved(data, path.parent, out_dir)


def _resolve_model(res):
    d = res.data
    if "model_file" in d:
        with _manifest_values("model_file"):
            p = Path(d["model_file"])
        if not p.is_absolute():
            p = res.base_dir / p
        try:
            md = json.loads(p.read_text())
        except OSError as e:
            raise ManifestError(f"cannot read model file: {e}") from e
        except json.JSONDecodeError as e:
            raise ManifestError(f"model file is not valid JSON: {e}") from e
    elif "model" in d:
        md = d["model"]
    else:
        raise ManifestError("manifest needs \"model\" or \"model_file\"")
    with _manifest_values("model"):
        if "classic_skt" in md:
            if len(md) > 1:
                raise ManifestError("a classic_skt model takes no other key")
            return classic_skt(**md["classic_skt"])
        return model_from_dict(md)


def _resolve_grid(res):
    g = res.section("grid")
    if not g:
        raise ManifestError("manifest needs a \"grid\" section")
    with _manifest_values("grid"):
        return build_grid(**{"Lx": 1.0, "Ly": 1.0, **g})


def _resolve_solver(res, **overrides):
    s = res.section("solver")
    if not s:
        raise ManifestError("manifest needs a \"solver\" section")
    outputs = res.section("outputs")
    if "snapshot_times" in s and "snapshot_times" in outputs:
        raise ManifestError("outputs.snapshot_times and solver.snapshot_times "
                            "are both given; give one")
    with _manifest_values("solver"):
        s.setdefault("snapshot_times", outputs.get("snapshot_times", ()))
        s.update(overrides)
        return SolverConfig(**s)


def _resolve_initial(res, model, grid):
    ini = res.section("initial")
    if not ini:
        raise ManifestError("manifest needs an \"initial\" section")
    sources = {"family", "constant", "file"} & set(ini)
    if len(sources) != 1 or "amplitude" in ini and sources != {"family"}:
        raise ManifestError("initial section needs one of family, constant or file, "
                            f"and an amplitude only beside family; got {sorted(ini)}")
    if "file" in ini:
        with _manifest_values("initial"):
            p = Path(ini["file"])
        if not p.is_absolute():
            p = res.base_dir / p
        f = load_snapshot(p, bc=grid.bc)
        if f.grid.shape != grid.shape or f.m != model.m:
            raise ManifestError("initial snapshot does not match grid/model")
        return Field(grid, f.values)
    if "constant" in ini:
        c = number_list(ini["constant"], "initial.constant")
        if len(c) != model.m:
            raise ManifestError("initial constant has wrong component count")
        return Field.constant(grid, c)
    return attractor_mod.initial_field(ini["family"], grid, model.m,
                                       ini.get("amplitude", 1.0), res.seed)


def _meta(res):
    return {"manifest_sha256": res.sha256, "seed": res.seed}


def _jsonable(v):
    """v as plain JSON values: a dataclass field by field, an array or a
    NumPy scalar as its Python value, a tuple as a list and every dict
    key as its str, so a float key is its repr.  Every artifact passes
    here, so a new report field reaches its JSON with no edit."""
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {f.name: _jsonable(getattr(v, f.name))
                for f in dataclasses.fields(v)}
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _write_json(path, payload, res):
    payload = _jsonable(payload)
    payload["_meta"] = _meta(res)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(v):
    return f"{float(v):.17g}"


def _write_csv(path, headers, rows, res):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# manifest_sha256: {res.sha256}\n")
        fh.write(f"# seed: {res.seed}\n")
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_trajectory(res, traj, name="trajectory.csv"):
    headers = diag_mod.record_headers(traj.records[0])
    rows = [diag_mod.record_row(r) for r in traj.records]
    _write_csv(res.out_dir / name, headers, rows, res)


def _write_snapshots(res, traj):
    fmt = res.section("outputs").get("format", "csv")
    files = {}
    for t, fld in sorted(traj.snapshots.items()):
        fname = f"snapshot_t{t!r}.{fmt}"  # repr is unique per time
        save_snapshot(res.out_dir / fname, fld, fmt=fmt)
        files[f"{t:.17g}"] = fname
    fname = f"final.{fmt}"
    save_snapshot(res.out_dir / fname, traj.final, fmt=fmt)
    files["final"] = fname
    _write_json(res.out_dir / "snapshots.json", {"format": fmt, "files": files}, res)


# The package's own input errors and failed file access; a bare
# ValueError or KeyError from the numerics is a fault, not an input error.
_INPUT_ERRORS = (InputError, OSError)


def _guard(fn):
    """Map exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except NumericalStateError as e:
            click.echo(f"runtime failure: {e}", err=True)
            sys.exit(EXIT_RUNTIME)
        except _INPUT_ERRORS as e:
            click.echo(f"input error: {e}", err=True)
            sys.exit(EXIT_INPUT)
        except Exception:
            # a fault of the program, not a failed hypothesis (exit 1)
            traceback.print_exc()
            sys.exit(EXIT_INTERNAL)
        sys.exit(code)

    return wrapper


_format_option = click.option("--format", "fmt", type=click.Choice(["csv", "bin"]),
                              default=None, help="Snapshot format override.")
_threads_option = click.option("--threads", type=click.IntRange(min=1), default=1,
                               show_default=True,
                               help="Worker threads for members or swept values.")


def _common(fn):
    fn = click.option("--seed", type=int, default=None,
                      help="Override the manifest seed.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output directory (else $%s/outputs.dir)." % OUTPUT_ROOT_ENV)(fn)
    fn = click.option("--manifest", required=True, type=click.Path(),
                      help="JSON run manifest.")(fn)
    return fn


@click.group()
def main():
    """Numerical laboratory for cross-diffusion systems."""


@main.command()
@_common
@_guard
def verify(manifest, out, seed):
    """Certify the structural hypotheses of the manifest's model."""
    res = _load_manifest(manifest, out, seed)
    model = _resolve_model(res)
    v = res.section("verify")
    region = v.pop("region", None)
    if region is None:
        raise ManifestError("verify section needs a \"region\"")
    with _manifest_values("verify"):
        region = Region.from_dict(region)
    report = verify_structure(model, region, seed=res.seed, **v)
    _write_json(res.out_dir / "manifest.json", res.data, res)
    _write_json(res.out_dir / "verify.json", report, res)
    for name in ("ellipticity", "growth", "f", "sg", "sg_prime"):
        click.echo(f"{name}: {'pass' if getattr(report, name + '_pass') else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def _simulate_once(res, **overrides):
    """Run the manifest's model, with the solver overrides given;
    returns the model, its diagnostics config and the trajectory."""
    model = _resolve_model(res)
    grid = _resolve_grid(res)
    config = _resolve_solver(res, **overrides)
    f0 = _resolve_initial(res, model, grid)
    with _manifest_values("diagnostics"):
        dc = diag_mod.DiagnosticsConfig(**res.section("diagnostics"))
    return model, dc, run(model, f0, config, diagnostics=dc)


def _simulate_and_write(res):
    """Run the manifest's model and write its manifest, trajectory,
    snapshots and summary under res.out_dir; returns the trajectory."""
    _, _, traj = _simulate_once(res)
    _write_json(res.out_dir / "manifest.json", res.data, res)
    _write_trajectory(res, traj)
    _write_snapshots(res, traj)
    _write_json(res.out_dir / "summary.json", {
        "terminated_reason": traj.terminated_reason,
        "t_final": float(traj.times[-1]),
        "steps": int(len(traj.dt_history)),
        "first_negative_t": traj.first_negative_t,
        **dataclasses.asdict(traj.stats),
    }, res)
    return traj


@main.command()
@_common
@_format_option
@_guard
def simulate(manifest, out, seed, fmt):
    """Integrate the manifest's model and write the trajectory."""
    res = _load_manifest(manifest, out, seed, fmt)
    traj = _simulate_and_write(res)
    click.echo(f"terminated: {traj.terminated_reason} at t={traj.times[-1]:g}")
    return EXIT_OK if traj.reached_end else EXIT_RUNTIME


@main.command()
@_common
@_guard
def diagnose(manifest, out, seed):
    """Re-run densely and fit the trajectory inequalities."""
    res = _load_manifest(manifest, out, seed)
    model, dc, traj = _simulate_once(res, store_states=True, record_every=1)
    _write_json(res.out_dir / "manifest.json", res.data, res)
    _write_trajectory(res, traj)
    if not traj.reached_end:
        raise NumericalStateError(f"run terminated: {traj.terminated_reason}")
    gating = {}
    reports = {}

    reports["energy"] = diag_mod.energy_inequality_check(traj, model)
    gating["energy"] = reports["energy"].passed
    reports["interpolation"] = diag_mod.interpolation_check(
        traj.states, q=dc.q, eps=dc.eps)
    gating["interpolation"] = reports["interpolation"].passed
    reports.update(attractor_mod.ystar_and_decay(traj, model,
                                                 M1_targets=dc.M1_targets))
    if "ystar" in reports:
        gating["ystar"] = reports["ystar"].passed
    if dc.radii:
        bmo = diag_mod.bmo_profile(traj.final, dc.radii, mu0=dc.mu0,
                                   recorded=traj.records[-1].bmo)
        _write_json(res.out_dir / "bmo.json", bmo, res)
        if dc.mu0 is not None:
            gating["bmo"] = bmo.all_small
        usable = [R for R in dc.radii
                  if R * R <= traj.times[-1] - traj.times[0]]
        if len(set(usable)) >= 2:
            reports["morrey"] = diag_mod.morrey_profile(traj, usable)

    for name, rep in reports.items():
        _write_json(res.out_dir / f"{name}.json", rep, res)
    _write_json(res.out_dir / "diagnose_summary.json",
                {"gating": gating, "passed": all(gating.values())}, res)
    for name, ok in gating.items():
        click.echo(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if all(gating.values()) else EXIT_HYPOTHESIS


@main.command("attractor")
@_common
@_threads_option
@_guard
def attractor_cmd(manifest, out, seed, threads):
    """Run an ensemble and report absorbing-ball statistics."""
    res = _load_manifest(manifest, out, seed)
    model = _resolve_model(res)
    grid = _resolve_grid(res)
    config = _resolve_solver(res)
    e = res.section("ensemble")
    if not e:
        raise ManifestError("manifest needs an \"ensemble\" section")
    region = e.pop("region", None)
    skip_verify = e.pop("skip_verify", False)
    with _manifest_values("ensemble"):
        espec = attractor_mod.EnsembleSpec(
            model=model, grid=grid, config=config, seed=res.seed,
            verify_region=None if region is None else Region.from_dict(region),
            **e)
    report = attractor_mod.ensemble_absorbing_ball(
        espec, skip_verify=skip_verify, threads=threads)
    _write_json(res.out_dir / "manifest.json", res.data, res)
    _write_json(res.out_dir / "absorbing_ball.json", report, res)
    headers = ["member", "amplitude", "reached", "tail_sup_L2",
               "tail_sup_W12", "tail_sup_lambda_moment", "y_star", "dominance"]
    rows = []
    for i in range(report.count):
        ok = i not in report.excluded
        ystar = report.y_star.get(i)
        rows.append([
            i, report.amplitudes[i], 1.0 if ok else 0.0,
            report.tail_sup_L2.get(i, float("nan")),
            report.tail_sup_W12.get(i, float("nan")),
            report.tail_sup_lambda_moment.get(i, float("nan")),
            float("nan") if ystar is None else ystar,
            1.0 if report.dominance.get(i) else 0.0])
    _write_csv(res.out_dir / "members.csv", headers, rows, res)
    click.echo(f"M_hat={report.M_hat:g} common_ball={report.common_ball} "
               f"excluded={list(report.excluded)}")
    return EXIT_OK if report.all_reached else EXIT_HYPOTHESIS


@main.command()
@_common
@_format_option
@_threads_option
@_guard
def sweep(manifest, out, seed, fmt, threads):
    """Run simulate once per value of a swept manifest key."""
    res = _load_manifest(manifest, out, seed, fmt)
    sw = res.section("sweep")
    if not sw or "path" not in sw or "values" not in sw:
        raise ManifestError("sweep section needs \"path\" and \"values\"")
    if not isinstance(sw["path"], str):
        raise ManifestError("sweep path must be a string")
    dotted = sw["path"].split(".")
    values = sw["values"]
    numbers = number_list(values, "sweep.values")
    if not numbers:
        raise ManifestError("sweep needs at least one value")

    def make_run(i, value):
        data = copy.deepcopy(res.data)
        node = data
        for k in dotted[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ManifestError(f"sweep path {sw['path']!r} runs through a non-object")
        node[dotted[-1]] = value
        data.pop("sweep", None)
        sub = _Resolved(data, res.base_dir, res.out_dir / f"run_{i:03d}")
        sub.data["outputs"]["dir"] = str(sub.out_dir)
        return sub

    subs = [make_run(i, v) for i, v in enumerate(values)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            trajs = list(ex.map(_simulate_and_write, subs))
    else:
        trajs = [_simulate_and_write(sub) for sub in subs]

    headers = ["index", "value", "reached", "t_final", "final_L2"]
    rows = []
    for i, (v, traj) in enumerate(zip(numbers, trajs)):
        rows.append([i, v, 1.0 if traj.reached_end else 0.0,
                     float(traj.times[-1]), traj.records[-1].L2])
    _write_csv(res.out_dir / "sweep.csv", headers, rows, res)
    _write_json(res.out_dir / "sweep_summary.json", {
        "path": sw["path"], "values": numbers,
        "all_reached": all(t.reached_end for t in trajs)}, res)
    ok = all(t.reached_end for t in trajs)
    click.echo(f"sweep over {sw['path']}: {'all reached' if ok else 'failures'}")
    return EXIT_OK if ok else EXIT_RUNTIME


if __name__ == "__main__":
    main()
