"""Ensemble experiments for absorbing-ball behavior.

Runs families of initial data of widely varying amplitude under one
model, gathers tail statistics of the recorded norms, and fits the
one-dimensional comparison dynamics y' <= C1*y - C3*y^p along the
squared L2 series.  Everything is fitted from the trajectories and
reported with margins; nothing is assumed about the constants.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import InequalityReport, _bump_to_cover, decay_bound_check
from .errors import (InputError, finite, nonnegative, number, number_list,
                     positive, whole_number)
from .grid import Field, Grid2D
from .model import ModelSpec, Region, verify_structure
from .solver import SolverConfig, run

__all__ = [
    "EnsembleSpec",
    "AbsorbingBallReport",
    "initial_field",
    "ensemble_absorbing_ball",
    "ystar_dominance",
    "ystar_and_decay",
]

_FAMILIES = ("constant", "eigenmode", "fourier", "positive_fourier")


@dataclass(frozen=True)
class EnsembleSpec:
    """Model, grid, solver config, and an initial-data family.

    Amplitudes are spread geometrically over amp_range across count
    members; member i is seeded deterministically from (seed, i).
    amp_range and M1_targets are lists of numbers, tol and T_observe
    numbers (errors.number_list, errors.number).
    """

    model: ModelSpec
    grid: Grid2D
    config: SolverConfig
    family: str = "positive_fourier"
    count: int = 10
    amp_range: tuple = (0.1, 100.0)
    seed: int = 0
    T_observe: float | None = None        # default t_end / 2
    M1_targets: tuple = ()
    tol: float = 0.05
    verify_region: Region | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InputError(f"family must be one of {_FAMILIES}")
        object.__setattr__(self, "count", whole_number(self.count, "count"))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
        if self.count < 1:
            raise InputError("ensemble needs at least one member")
        amp = number_list(self.amp_range, "amp_range", positive)
        if len(amp) != 2 or amp[0] > amp[1]:
            raise InputError(f"amp_range must be two positive, finite, ordered numbers, got {amp}")
        object.__setattr__(self, "amp_range", amp)
        if self.T_observe is not None:
            object.__setattr__(self, "T_observe", number(self.T_observe, "T_observe"))
            if not 0 <= self.T_observe < self.config.t_end:
                raise InputError("T_observe must lie in [0, t_end)")
        object.__setattr__(self, "tol", positive(self.tol, "tol"))
        object.__setattr__(self, "M1_targets",
                           number_list(self.M1_targets, "M1_targets", finite))

    def amplitudes(self):
        lo, hi = self.amp_range
        if self.count == 1:
            return np.array([lo])
        return np.geomspace(lo, hi, self.count)


@dataclass
class AbsorbingBallReport:
    """Tail statistics of an ensemble plus fitted entry-time data.

    M_hat is the max over included runs of the tail supremum of W12,
    so it bounds every recorded tail supremum by construction.  Entry
    times and T_star targets refer to levels of y = (L2 norm)^2, the
    series the decay fit runs on.
    """

    count: int
    amplitudes: np.ndarray
    T_observe: float
    tail_sup_W12: dict
    tail_sup_L2: dict
    tail_sup_lambda_moment: dict
    M_hat: float
    common_ball: bool
    commonality_ratio: float
    excluded: tuple
    entry_times: dict                      # run -> {M1: first t with y <= M1}
    T_star: dict                           # run -> {M1: fitted analytic time}
    y_star: dict                           # run -> fitted threshold (or None)
    dominance: dict                        # run -> ystar report passed flag

    @property
    def all_reached(self):
        return not self.excluded


def _fourier_bump(grid, rng, modes=4):
    """Smooth random field with sup norm 1 built from no-flux cosine
    modes (normal derivative vanishing at the boundary)."""
    X, Y = grid.meshgrid()
    out = np.zeros(grid.shape)
    for kx in range(modes + 1):
        for ky in range(modes + 1):
            if kx == 0 and ky == 0:
                continue
            w = rng.standard_normal() / (1.0 + kx * kx + ky * ky)
            out += w * np.cos(np.pi * kx * X / grid.Lx) * np.cos(np.pi * ky * Y / grid.Ly)
    s = np.abs(out).max()
    return out / s if s > 0 else out


def initial_field(family, grid, m, amplitude, seed):
    """Deterministic initial data of a named family at a set amplitude.

    constant: every component = amplitude.  eigenmode: amplitude times
    the first Dirichlet product mode.  fourier: amplitude times a
    random smooth sup-1 bump (signed).  positive_fourier: amplitude *
    (1 + 0.3 * bump), strictly positive.
    """
    if family not in _FAMILIES:
        raise InputError(f"family must be one of {_FAMILIES}")
    amplitude = positive(amplitude, "amplitude")
    rng = np.random.default_rng([whole_number(seed, "seed"), 0xA5])
    if family == "constant":
        return Field.constant(grid, np.full(m, amplitude))
    if family == "eigenmode":
        X, Y = grid.meshgrid()
        mode = np.sin(np.pi * X / grid.Lx) * np.sin(np.pi * Y / grid.Ly)
        return Field(grid, np.broadcast_to(amplitude * mode, (m,) + grid.shape).copy())
    vals = np.empty((m,) + grid.shape)
    for c in range(m):
        bump = _fourier_bump(grid, rng)
        if family == "fourier":
            vals[c] = amplitude * bump
        else:
            vals[c] = amplitude * (1.0 + 0.3 * bump)
    return Field(grid, vals)


def ystar_dominance(traj, spec, tol=0.05):
    """Fit y' <= C1*y - C3*y^p on the squared L2 series of a trajectory
    and check y(t) <= max(y(0), y_*) * (1 + tol), y_* = (C1/C3)^(1/(p-1)).
    tol must be finite and nonnegative.

    Requires a competitive reaction, whose decay_power is p.  Raises
    InputError when no C1 can be certified to cover the data.
    """
    tol = nonnegative(tol, "tol")
    p = getattr(spec.reaction, "decay_power", None)
    if p is None:
        raise InputError("needs a competitive reaction (one with a decay_power)")
    t = np.asarray(traj.times, dtype=float)
    y = np.array([rec.L2 ** 2 for rec in traj.records])
    if len(y) < 3:
        raise InputError("need at least 3 records")

    if y.max() == 0.0:
        return InequalityReport(
            name="ystar", constants={"C1": 0.0, "C3": 0.0, "p": p, "y_star": 0.0},
            margins=np.zeros(len(y) - 2), pass_fraction=1.0, feasible=True,
            passed=True, extra={"bound": 0.0, "max_y": 0.0, "y": y, "t": t})

    d = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    ym = y[1:-1]
    ymp = ym ** p
    M = np.column_stack([ym, -ymp])
    sol, *_ = np.linalg.lstsq(M, d, rcond=None)
    C1, C3 = (float(x) for x in sol)
    if C3 <= 0:
        return InequalityReport(
            name="ystar", constants={"C1": C1, "C3": C3, "p": p, "y_star": None},
            margins=np.full(len(d), -np.inf), pass_fraction=0.0, feasible=False,
            passed=False,
            extra={"first_violation_index": int(np.argmax(d)), "y": y, "t": t})
    mask = ym > 0
    need = d + C3 * ymp
    if mask.any():
        C1 = max(C1, float(np.max(need[mask] / ym[mask])))
        C1 = _bump_to_cover(C1, need[mask], ym[mask])
    if np.any(~mask & (need > 0)):
        return InequalityReport(
            name="ystar", constants={"C1": C1, "C3": C3, "p": p, "y_star": None},
            margins=C1 * ym - need, pass_fraction=0.0, feasible=False,
            passed=False,
            extra={"first_violation_index": int(np.argmax(need)), "y": y, "t": t})
    C1 = max(C1, 0.0)
    margins = C1 * ym - need
    y_star = (C1 / C3) ** (1.0 / (p - 1.0))
    bound = max(y[0], y_star) * (1.0 + tol)
    passed = bool(np.all(y <= bound))
    return InequalityReport(
        name="ystar",
        constants={"C1": C1, "C3": C3, "p": p, "y_star": y_star},
        margins=margins, pass_fraction=float(np.mean(margins >= 0)),
        feasible=True, passed=passed,
        extra={"bound": bound, "max_y": float(y.max()), "y": y, "t": t})


def ystar_and_decay(traj, spec, tol=0.05, M1_targets=()):
    """The reports a competitive reaction gives a trajectory, by name:
    "ystar", its ystar_dominance, and, when M1_targets is given and the
    squared L2 series is positive, "decay", decay_bound_check of that
    series at the reaction's decay_power.  Empty for any other
    reaction."""
    p = getattr(spec.reaction, "decay_power", None)
    if p is None:
        return {}
    reports = {"ystar": ystar_dominance(traj, spec, tol=tol)}
    y = np.array([rec.L2 ** 2 for rec in traj.records])
    if M1_targets and np.all(y > 0):
        reports["decay"] = decay_bound_check(np.asarray(traj.times), y, p,
                                             M1_targets=M1_targets)
    return reports


def _run_member(args):
    spec, grid, config, family, amp, seed = args
    f0 = initial_field(family, grid, spec.m, amp, seed)
    return run(spec, f0, config)


def ensemble_absorbing_ball(espec, skip_verify=False, threads=1,
                            verify_samples=2000):
    """Run the ensemble and report tail statistics and fitted entries.

    The model must pass verify_structure over espec.verify_region (a
    positive box spanning the amplitudes by default) unless skip_verify
    is set.  Members that fail to reach t_end are excluded from the
    statistics and flagged in the report.  Entry times and T_star refer
    to the squared-L2 series.  threads, a whole number of at least 1,
    is the number of members run at once; skip_verify must be a bool.
    """
    if not isinstance(skip_verify, bool):
        raise InputError(f"skip_verify must be true or false, got {skip_verify!r}")
    threads = whole_number(threads, "threads")
    if threads < 1:
        raise InputError("threads must be >= 1")
    model = espec.model
    if not skip_verify:
        region = espec.verify_region
        if region is None:
            hi = 2.0 * espec.amp_range[1]
            if espec.family == "fourier" or (espec.family == "eigenmode"
                                             and espec.grid.bc == "dirichlet"):
                region = Region.symmetric(hi, model.m)
            else:
                region = Region.positive(hi, model.m)
        rep = verify_structure(model, region, n=verify_samples, seed=espec.seed)
        if not rep.passed:
            raise InputError(
                "model fails structural verification over the ensemble region; "
                "pass skip_verify=True to override")

    amps = espec.amplitudes()
    jobs = [(model, espec.grid, espec.config, espec.family, float(a),
             np.random.default_rng([espec.seed, i]).integers(2 ** 31))
            for i, a in enumerate(amps)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            trajs = list(ex.map(_run_member, jobs))
    else:
        trajs = [_run_member(j) for j in jobs]

    T_obs = espec.T_observe if espec.T_observe is not None else espec.config.t_end / 2.0
    excluded = tuple(i for i, tr in enumerate(trajs) if not tr.reached_end)

    tail_W12, tail_L2, tail_mom = {}, {}, {}
    entry_times, T_star, y_star, dominance = {}, {}, {}, {}
    for i, tr in enumerate(trajs):
        if i in excluded:
            continue
        t = np.asarray(tr.times)
        tail = t >= T_obs * (1 - 1e-12)
        if not tail.any():
            tail = np.zeros(len(t), bool)
            tail[-1] = True
        tail_W12[i] = float(max(tr.records[j].W12 for j in np.nonzero(tail)[0]))
        tail_L2[i] = float(max(tr.records[j].L2 for j in np.nonzero(tail)[0]))
        tail_mom[i] = float(max(tr.records[j].lambda_moment
                                for j in np.nonzero(tail)[0]))
        fits = ystar_and_decay(tr, model, espec.tol, espec.M1_targets)
        if "ystar" in fits:
            dominance[i] = fits["ystar"].passed
            y_star[i] = fits["ystar"].constants.get("y_star")
        if "decay" in fits and fits["decay"].feasible:
            T_star[i] = fits["decay"].extra.get("T_star", {})
            entry_times[i] = fits["decay"].extra.get("entry_times", {})

    included = [i for i in range(len(trajs)) if i not in excluded]
    M_hat = max((tail_W12[i] for i in included), default=0.0)
    ratio = 1.0
    if included:
        lo = min(tail_L2[i] for i in included)
        hi = max(tail_L2[i] for i in included)
        ratio = hi / lo if lo > 0 else (1.0 if hi == 0 else np.inf)
    return AbsorbingBallReport(
        count=espec.count, amplitudes=amps, T_observe=float(T_obs),
        tail_sup_W12=tail_W12, tail_sup_L2=tail_L2,
        tail_sup_lambda_moment=tail_mom, M_hat=float(M_hat),
        common_ball=bool(ratio <= 1.1), commonality_ratio=float(ratio),
        excluded=excluded, entry_times=entry_times, T_star=T_star,
        y_star=y_star, dominance=dominance)
