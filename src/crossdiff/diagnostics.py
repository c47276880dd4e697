"""Trajectory diagnostics: norms, oscillation profiles, inequality fits.

Everything here is a pure function of recorded fields.  Quadrature is
midpoint (cell averages times cell area).  Inequality checks fit the
smallest constants that make a discrete inequality hold at every
recorded step and report per-step margins, so a nonnegative margin
vector is a reproducible empirical certificate, never an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.ndimage import convolve as nd_convolve
from scipy.optimize import linprog
from scipy.signal import fftconvolve

from .errors import InputError
from .grid import cell_gradient
from .model import eval_A, eval_lambda, reaction_zero_order

__all__ = [
    "NormRecord",
    "BmoReport",
    "InequalityReport",
    "DiagnosticsConfig",
    "norms",
    "bmo_profile",
    "energy_inequality_check",
    "decay_bound_check",
    "interpolation_check",
    "morrey_profile",
    "stability_ratio",
    "record_headers",
    "record_row",
]


@dataclass
class NormRecord:
    """Norms of one field at one time.

    morrey holds, per radius R, the largest windowed gradient energy
    max_x0 of integral_{B_R(x0) cap Omega} |Du|^2 dx: the parabolic
    R^-2 int int_{Q_R} quotient with the R^2 time thickness of Q_R
    integrated analytically at the frozen time.  bmo holds the sup over
    centers of the L1 mean oscillation (max over components).
    """

    t: float
    mass: tuple
    L1: float
    L2: float
    Lp: dict
    W12: float
    energy_y: float
    lambda_moment: float
    bmo: dict = dc_field(default_factory=dict)
    morrey: dict = dc_field(default_factory=dict)


@dataclass
class BmoReport:
    """Sup (over window centers) of mean oscillation, per radius."""

    radii: tuple
    oscillation: dict          # R -> sup_x0 max_c mean |u_c - mean u_c|
    products: dict             # R -> Lambda_hat^2 * oscillation^2
    mu0: float | None
    small: dict                # R -> product <= mu0 (empty if mu0 None)
    skipped: tuple = ()        # radii larger than the domain, with note

    @property
    def all_small(self):
        return all(self.small.values()) if self.small else False


@dataclass
class InequalityReport:
    """Fitted constants plus per-step residual margins.

    The fitted constants are minimal for the recorded data: each fit
    makes at least one margin vanish, so shrinking the constants by any
    factor < 1 violates some step.
    """

    name: str
    constants: dict
    margins: np.ndarray
    pass_fraction: float
    feasible: bool
    passed: bool
    stability: dict = dc_field(default_factory=dict)
    extra: dict = dc_field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "constants": {k: _jsonable(v) for k, v in self.constants.items()},
            "margins": [float(x) for x in np.asarray(self.margins).ravel()],
            "pass_fraction": self.pass_fraction,
            "feasible": self.feasible,
            "passed": self.passed,
            "stability": self.stability,
            "extra": {k: _jsonable(v) for k, v in self.extra.items()},
        }


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Per-record diagnostic knobs; defaults follow the smallest
    exponents the estimates admit (s0 = 1, q = 2)."""

    s0: float = 1.0
    q: float = 2.0
    p_list: tuple | None = None
    radii: tuple = ()
    mu0: float | None = None
    eps: float = 0.1
    M1_targets: tuple = ()

    def to_dict(self):
        return {"s0": self.s0, "q": self.q,
                "p_list": None if self.p_list is None else list(self.p_list),
                "radii": list(self.radii), "mu0": self.mu0,
                "eps": self.eps, "M1_targets": list(self.M1_targets)}

    @classmethod
    def from_dict(cls, d):
        return cls(
            s0=float(d.get("s0", 1.0)), q=float(d.get("q", 2.0)),
            p_list=(None if d.get("p_list") is None
                    else tuple(float(p) for p in d["p_list"])),
            radii=tuple(float(R) for R in d.get("radii", ())),
            mu0=None if d.get("mu0") is None else float(d["mu0"]),
            eps=float(d.get("eps", 0.1)),
            M1_targets=tuple(float(M1) for M1 in d.get("M1_targets", ())))


def _ball_kernel(grid, R):
    """Boolean stencil of cell offsets within Euclidean distance R."""
    nx = int(R / grid.hx * (1 + 1e-12))
    ny = int(R / grid.hy * (1 + 1e-12))
    dx = np.arange(-nx, nx + 1) * grid.hx
    dy = np.arange(-ny, ny + 1) * grid.hy
    return (dx[:, None] ** 2 + dy[None, :] ** 2) <= R * R * (1 + 1e-12)


def _window_sums(arr, kernel, exact=False):
    """Sliding sums of arr over the kernel footprint clipped to the
    domain.  exact=True uses direct convolution (integer-safe)."""
    if exact or kernel.size <= 81:
        return nd_convolve(arr, kernel.astype(float), mode="constant", cval=0.0)
    return fftconvolve(arr, kernel.astype(float), mode="same")


def _window_counts(shape, kernel):
    return np.rint(_window_sums(np.ones(shape), kernel, exact=True)).astype(int)


def _mean_oscillation_sup(comp, kernel):
    """sup over centers of mean_{B} |comp - mean_B comp| for one
    component on one grid; windows are clipped to the domain."""
    counts = _window_counts(comp.shape, kernel)
    means = _window_sums(comp, kernel) / counts
    acc = np.zeros(comp.shape)
    Nx, Ny = comp.shape
    cx, cy = kernel.shape[0] // 2, kernel.shape[1] // 2
    for di, dj in zip(*np.nonzero(kernel)):
        di, dj = int(di) - cx, int(dj) - cy
        cs = (slice(max(0, -di), Nx - max(0, di)),
              slice(max(0, -dj), Ny - max(0, dj)))
        vs = (slice(max(0, di), Nx + min(0, di)),
              slice(max(0, dj), Ny + min(0, dj)))
        acc[cs] += np.abs(comp[vs] - means[cs])
    return float((acc / counts).max())


def _energy_y(field, spec, grad):
    """y = int |A(u) Du|^2 by midpoint quadrature; grad is
    cell_gradient(field)."""
    A = eval_A(spec, field.points())
    AD = np.einsum("xyij,jdxy->xyid", A, grad)
    return float(field.grid.cell_area * (AD * AD).sum())


def _bmo_sup(values, kernel):
    """sup over window centers of the mean oscillation, max over
    components, of values shifted by their (0, 0) cell."""
    shifted = values - values[:, :1, :1]
    return max(_mean_oscillation_sup(comp, kernel) for comp in shifted)


def norms(u, spec, t=0.0, s0=1.0, p_list=None, R_list=None):
    """NormRecord of a field: midpoint quadrature, Euclidean pointwise
    magnitude across components, gradient norms via cell_gradient."""
    g = u.grid
    area = g.cell_area
    vals = u.values
    r = np.sqrt((vals * vals).sum(axis=0))
    mass = tuple(float(area * vals[c].sum()) for c in range(u.m))
    L1 = float(area * r.sum())
    L2 = float(math.sqrt(area * (r * r).sum()))
    if p_list is None:
        k = spec.lam.k
        p_list = (2.0 * k,) if k > 0 else ()
    Lp = {}
    for p in p_list:
        p = float(p)
        if p <= 0:
            raise InputError("Lp exponents must be positive")
        if p == 2.0:
            continue        # the dedicated L2 entry already carries it
        Lp[p] = float((area * (r ** p).sum()) ** (1.0 / p))
    grad = cell_gradient(u)
    du2 = (grad * grad).sum(axis=(0, 1))
    W12 = L2 + float(math.sqrt(area * du2.sum()))
    energy_y = _energy_y(u, spec, grad)
    lam = eval_lambda(spec, u.points())
    lambda_moment = float(area * (lam ** float(s0)).sum())
    bmo = {}
    morrey = {}
    for R in (R_list or ()):
        R = float(R)
        if R > min(g.Lx, g.Ly):
            continue
        kernel = _ball_kernel(g, R)
        bmo[R] = _bmo_sup(vals, kernel)
        morrey[R] = float(_window_sums(du2, kernel).max() * area)
    return NormRecord(t=float(t), mass=mass, L1=L1, L2=L2, Lp=Lp, W12=W12,
                      energy_y=energy_y, lambda_moment=lambda_moment,
                      bmo=bmo, morrey=morrey)


def record_headers(rec):
    h = ["t"] + [f"mass_{c + 1}" for c in range(len(rec.mass))]
    h += ["L1", "L2"]
    h += [f"L{p:g}" for p in sorted(rec.Lp)]
    h += ["W12", "energy_y", "lambda_moment"]
    h += [f"bmo@{R:g}" for R in sorted(rec.bmo)]
    h += [f"morrey@{R:g}" for R in sorted(rec.morrey)]
    return h


def record_row(rec):
    row = [rec.t, *rec.mass, rec.L1, rec.L2]
    row += [rec.Lp[p] for p in sorted(rec.Lp)]
    row += [rec.W12, rec.energy_y, rec.lambda_moment]
    row += [rec.bmo[R] for R in sorted(rec.bmo)]
    row += [rec.morrey[R] for R in sorted(rec.morrey)]
    return row


def bmo_profile(u, radii, Lambda_hat=1.0, mu0=None):
    """Sliding-window mean-oscillation profile of a field.

    For each radius, windows are the discrete Euclidean balls around
    every cell center, clipped to the domain; the report holds the sup
    over centers of the L1 mean oscillation (max over components) and
    the products Lambda_hat^2 * oscillation^2 compared against mu0 when
    one is supplied.  Radii exceeding the domain are skipped with a
    note; radii below two cells are rejected.
    """
    g = u.grid
    if not radii:
        raise InputError("need at least one radius")
    hmax = max(g.hx, g.hy)
    osc, products, small = {}, {}, {}
    skipped = []
    for R in radii:
        R = float(R)
        if R < 2.0 * hmax * (1 - 1e-12):
            raise InputError(f"radius {R:g} is below two cells ({2 * hmax:g})")
        if R > min(g.Lx, g.Ly):
            skipped.append((R, "radius exceeds domain"))
            continue
        osc[R] = _bmo_sup(u.values, _ball_kernel(g, R))
        products[R] = float(Lambda_hat) ** 2 * osc[R] ** 2
        if mu0 is not None:
            small[R] = bool(products[R] <= mu0)
    return BmoReport(radii=tuple(float(R) for R in radii), oscillation=osc,
                     products=products, mu0=mu0, small=small,
                     skipped=tuple(skipped))


def _bump_to_cover(c, lhs, rhs):
    """Smallest float >= c with c*rhs >= lhs elementwise (rhs >= 0)."""
    for _ in range(64):
        if np.all(c * rhs - lhs >= 0):
            return c
        c = np.nextafter(c, np.inf)
    raise InputError("could not certify the fitted constant")


def energy_inequality_check(traj, spec):
    """Fit the free constants of the per-step energy balance.

    For consecutive stored states (backward difference u_t) this fits
    the smallest C with

        int lam(u)|u_t|^2 + dy/dt <= C * (y + int lam(u)|f(u)|^2),

    where y = int |A(u)Du|^2, and the smallest (C1, C2) >= 0 with
    dy/dt <= C1*y + C2, minimizing mean(y)*C1 + C2 so both fits touch
    the data.  States must be stored at every record (store_states).
    """
    if traj.states is None:
        raise InputError("trajectory was run without store_states")
    if len(traj.states) < 3:
        raise InputError("need at least 3 stored states")
    times = np.asarray(traj.times, dtype=float)
    states = traj.states
    area = states[0].grid.cell_area

    def lam_weight(fld, w2):
        lam = eval_lambda(spec, fld.points())
        return float(area * (lam * w2).sum())

    ys = np.array([_energy_y(fld, spec, cell_gradient(fld)) for fld in states])

    n = len(states) - 1
    lhs = np.empty(n)
    rhs = np.empty(n)
    dydt = np.empty(n)
    for k in range(n):
        dt = times[k + 1] - times[k]
        if dt <= 0:
            raise InputError("record times must be strictly increasing")
        ut = (states[k + 1].values - states[k].values) / dt
        ut2 = (ut * ut).sum(axis=0)
        diss = lam_weight(states[k + 1], ut2)
        dydt[k] = (ys[k + 1] - ys[k]) / dt
        f = reaction_zero_order(spec, states[k + 1].points())
        f2 = np.moveaxis(f, -1, 0)
        f2 = (f2 * f2).sum(axis=0)
        lhs[k] = diss + dydt[k]
        rhs[k] = ys[k + 1] + lam_weight(states[k + 1], f2)

    # steps with rhs = 0 (stationary, reaction-free) constrain nothing
    # unless their lhs is positive, which no C can cover
    pos = rhs > 0
    C = 0.0
    if pos.any():
        C = max(0.0, float(np.max(lhs[pos] / rhs[pos])))
        C = _bump_to_cover(C, lhs[pos], rhs[pos])
    feasible = bool(np.all(lhs[~pos] <= 0))
    margins = C * rhs - lhs

    yk = ys[1:]
    res = linprog(c=[float(np.mean(yk)), 1.0],
                  A_ub=np.column_stack([-yk, -np.ones(n)]), b_ub=-dydt,
                  bounds=[(0, None), (0, None)], method="highs")
    if not res.success:
        raise InputError(f"Gronwall fit failed: {res.message}")
    C1, C2 = (float(x) for x in res.x)
    margins2 = C1 * yk + C2 - dydt
    if (margins2 < 0).any():
        C2 = _bump_to_cover(C2 - float(margins2.min()),
                            dydt - C1 * yk, np.ones(n))
        margins2 = C1 * yk + C2 - dydt
    ok = feasible and bool(np.all(margins >= 0) and np.all(margins2 >= 0))
    return InequalityReport(
        name="energy", constants={"C": C, "C1": C1, "C2": C2},
        margins=margins, pass_fraction=float(np.mean(margins >= 0)),
        feasible=feasible, passed=ok,
        extra={"y": ys, "dydt": dydt, "lhs": lhs, "rhs": rhs,
               "gronwall_margins": margins2})


def decay_bound_check(t, y, p, M1_targets=(), constants=None):
    """Fit y' + c3*y^p <= c2 on a positive series and check the closed
    form decay bound.

    The discrete derivative is the centered difference on the interior
    samples.  With fitted or supplied (c2, c3), the bound

        y(t) <= (c2/c3)^(1/p) + (c3*(p-1)*t)^(-1/(p-1))

    is checked at every positive sample time, and for each target M1
    the analytic ball-entry time

        T_*(M1) = [c3*(p-1)]^(-1) * (M1 - (c2/c3)^(1/p))^(1-p)

    is reported beside the first empirical time with y <= M1.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    p = float(p)
    if t.shape != y.shape or t.ndim != 1:
        raise InputError("t and y must be 1-d arrays of equal length")
    if len(t) < 3:
        raise InputError("need at least 3 samples")
    if not np.all(y > 0):
        raise InputError("series must be positive")
    if not p > 1:
        raise InputError("p must exceed 1")
    if np.any(np.diff(t) <= 0):
        raise InputError("times must be strictly increasing")

    dt2 = t[2:] - t[:-2]
    d = (y[2:] - y[:-2]) / dt2
    ym = y[1:-1]
    ymp = ym ** p

    first_violation = None
    if constants is not None:
        c2, c3 = (float(x) for x in constants)
        feasible = c3 > 0
    else:
        M = np.column_stack([np.ones_like(d), -ymp])
        sol, *_ = np.linalg.lstsq(M, d, rcond=None)
        c3 = float(sol[1])
        feasible = c3 > 0
        if feasible:
            c2 = float(np.max(d + c3 * ymp))
        else:
            c2 = float(np.max(d))
            first_violation = int(np.argmax(d + max(c3, 0.0) * ymp))
    margins = c2 - d - c3 * ymp if feasible else np.full_like(d, -np.inf)

    extra = {"derivative": d}
    bound_margins = np.zeros(0)
    T_star = {}
    entry = {}
    passed = False
    if feasible:
        K = (max(c2, 0.0) / c3) ** (1.0 / p)
        mask = t > 0
        bound = K + (c3 * (p - 1.0) * t[mask]) ** (-1.0 / (p - 1.0))
        bound_margins = bound - y[mask]
        tolb = 1e-12 * max(1.0, float(np.max(bound[np.isfinite(bound)], initial=1.0)))
        passed = bool(np.all(bound_margins >= -tolb))
        for M1 in M1_targets:
            M1 = float(M1)
            if M1 > K:
                T_star[M1] = float((M1 - K) ** (1.0 - p) / (c3 * (p - 1.0)))
            else:
                T_star[M1] = math.inf
            hits = np.nonzero(y <= M1)[0]
            entry[M1] = float(t[hits[0]]) if hits.size else None
        extra.update({"equilibrium_level": K, "bound_margins": bound_margins,
                      "T_star": T_star, "entry_times": entry})
    else:
        extra["first_violation_index"] = first_violation

    return InequalityReport(
        name="decay", constants={"c2": c2, "c3": c3, "p": p},
        margins=margins,
        pass_fraction=float(np.mean(margins >= 0)) if feasible else 0.0,
        feasible=feasible, passed=passed and feasible, extra=extra)


def interpolation_check(fields, q=2.0, eps=0.1):
    """Smallest C with int|u|^{q+2} <= eps*int|u|^q|Du|^2 + C*L1^{q+2}
    over the supplied family of fields (zero fields contribute 0)."""
    fields = list(fields)
    if not fields:
        raise InputError("need at least one field")
    q = float(q)
    eps = float(eps)
    if q <= 0 or eps <= 0:
        raise InputError("q and eps must be positive")
    I1 = np.empty(len(fields))
    I2 = np.empty(len(fields))
    L1 = np.empty(len(fields))
    for i, u in enumerate(fields):
        area = u.grid.cell_area
        r = np.sqrt((u.values * u.values).sum(axis=0))
        grad = cell_gradient(u)
        du2 = (grad * grad).sum(axis=(0, 1))
        I1[i] = area * (r ** (q + 2.0)).sum()
        I2[i] = area * ((r ** q) * du2).sum()
        L1[i] = area * r.sum()
    denom = L1 ** (q + 2.0)
    num = I1 - eps * I2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denom > 0, num / denom, 0.0)
    C = max(0.0, float(np.max(ratios)))
    if C > 0:
        C = _bump_to_cover(C, num, denom)
    margins = eps * I2 + C * denom - I1
    return InequalityReport(
        name="interpolation", constants={"C": C, "q": q, "eps": eps},
        margins=margins, pass_fraction=float(np.mean(margins >= 0)),
        feasible=True, passed=bool(np.all(margins >= 0)),
        extra={"I_high": I1, "I_grad": I2, "L1": L1})


def morrey_profile(traj, radii, max_windows=64):
    """Space-time gradient concentration profile along a trajectory.

    For each radius R this computes the largest parabolic quotient
    R^-2 * int int_{Q_R} |Du|^2 over windows Q_R = B_R(x0) x
    (t0 - R^2, t0) with t0 >= R^2, using the stored states, then fits
    the log-log slope over the radii.  A positive slope means the
    quotient vanishes as R -> 0; the implied integrability exponent is
    p = 2/(1 - slope/2) when slope < 2 (inf beyond).
    """
    if traj.states is None:
        raise InputError("trajectory was run without store_states")
    if len(traj.states) < 3:
        raise InputError("need at least 3 stored states")
    radii = [float(R) for R in radii]
    if len(radii) < 2:
        raise InputError("need at least 2 radii for a slope")
    times = np.asarray(traj.times, dtype=float)
    g = traj.states[0].grid
    area = g.cell_area
    du2 = np.stack([
        (cell_gradient(f) ** 2).sum(axis=(0, 1)) for f in traj.states])

    quotients = {}
    for R in radii:
        if R * R > times[-1] - times[0] + 1e-15:
            raise InputError(
                f"radius {R:g} needs a time window of length {R * R:g}; "
                "trajectory is too short")
        kernel = _ball_kernel(g, R)
        S = np.stack([_window_sums(du2[i], kernel) * area
                      for i in range(len(times))])
        Cum = np.concatenate([
            np.zeros((1,) + g.shape),
            cumulative_trapezoid(S, x=times, axis=0)])
        idx = np.nonzero(times >= times[0] + R * R * (1 - 1e-12))[0]
        stride = max(1, len(idx) // max_windows)
        best = 0.0
        for i in idx[::stride]:
            t_lo = times[i] - R * R
            j = int(np.searchsorted(times, t_lo, side="right") - 1)
            j = min(max(j, 0), len(times) - 2)
            frac = (t_lo - times[j]) / (times[j + 1] - times[j])
            lo = Cum[j] + frac * (Cum[j + 1] - Cum[j])
            best = max(best, float((Cum[i] - lo).max()))
        quotients[R] = best / (R * R)

    logR = np.log(np.array(sorted(quotients)))
    logQ = np.log(np.maximum([quotients[R] for R in sorted(quotients)],
                             np.finfo(float).tiny))
    slope = float(np.polyfit(logR, logQ, 1)[0])
    fitted_p = 2.0 / (1.0 - slope / 2.0) if slope < 2.0 else math.inf
    return InequalityReport(
        name="morrey", constants={"slope": slope, "fitted_p": fitted_p},
        margins=np.zeros(0), pass_fraction=1.0, feasible=True,
        passed=bool(slope > 0),
        extra={"quotients": quotients})


def stability_ratio(report_a, report_b, keys=None):
    """Largest relative change of shared fitted constants between two
    reports (refinement stability measure)."""
    keys = keys or (set(report_a.constants) & set(report_b.constants))
    worst = 0.0
    for k in keys:
        a, b = float(report_a.constants[k]), float(report_b.constants[k])
        scale = max(abs(a), abs(b))
        if scale > 0:
            worst = max(worst, abs(a - b) / scale)
    return worst
