"""Trajectory diagnostics: norms, oscillation profiles, inequality fits.

Everything here is a pure function of recorded fields.  Quadrature is
midpoint (cell averages times cell area).  Inequality checks fit the
smallest constants that make a discrete inequality hold at every
recorded step and report per-step margins, so a nonnegative margin
vector is a reproducible empirical certificate, never an assumption.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import InputError, number, number_list
from .grid import cell_gradient
from .model import _positive_finite, eval_A, eval_lambda, reaction_zero_order

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
    extra: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class DiagnosticsConfig:
    """Per-record diagnostic knobs; defaults follow the smallest
    exponents the estimates admit (s0 = 1, q = 2).  s0, q, eps and mu0
    must be numbers, and radii, M1_targets and p_list lists of numbers
    (errors.number_list); mu0 and p_list may be None.  s0, q and eps must
    be finite, q and eps positive, mu0 finite when given, every radius
    and Lp exponent finite and positive, no two different radii nor two
    different exponents (2, the L2 column's, among them) alike under :g,
    and every M1 target finite; anything else raises InputError."""

    s0: float = 1.0
    q: float = 2.0
    p_list: tuple | None = None
    radii: tuple = ()
    mu0: float | None = None
    eps: float = 0.1
    M1_targets: tuple = ()

    def __post_init__(self):
        for name in ("s0", "q", "eps", "mu0", "p_list", "radii", "M1_targets"):
            value = getattr(self, name)
            if value is not None or name not in ("mu0", "p_list"):
                to = number if name in ("s0", "q", "eps", "mu0") else number_list
                object.__setattr__(self, name, to(value, name))
        if not math.isfinite(self.s0):
            raise InputError("s0 must be finite")
        if not (0 < self.q < math.inf and 0 < self.eps < math.inf):
            raise InputError("q and eps must be finite and positive")
        if self.mu0 is not None and not math.isfinite(self.mu0):
            raise InputError("mu0 must be finite when given")
        for name in ("radii", "p_list"):
            if not all(0 < x < math.inf for x in getattr(self, name) or ()):
                raise InputError(f"every entry of {name} must be finite "
                                 "and positive")
        # each radius and exponent names its trajectory.csv column by its
        # :g form, and the dedicated L2 column is p = 2's
        for name, column, values in (
                ("radii", "bmo@", self.radii),
                ("p_list", "L", (2.0, *(self.p_list or ())))):
            seen = {}
            for x in values:
                other = seen.setdefault(f"{x:g}", x)
                if other != x:
                    raise InputError(f"{name} values {other!r} and {x!r} "
                                     f"share the column {column}{x:g}")
        if not all(math.isfinite(M1) for M1 in self.M1_targets):
            raise InputError("every entry of M1_targets must be finite")


def _radius(R, what):
    """R as a float; InputError unless it is finite and positive.  Every
    radius of norms, bmo_profile and morrey_profile passes here before
    it reaches _window."""
    R = float(R)
    if not 0 < R < math.inf:
        raise InputError(f"every entry of {what} must be finite and "
                         f"positive, got {R!r}")
    return R


def _window_radius(grid, R, what):
    """R as _radius returns it; InputError also when R is below two cells
    of grid.  Every radius of norms and bmo_profile passes here."""
    R = _radius(R, what)
    hmax = max(grid.hx, grid.hy)
    if R < 2.0 * hmax * (1 - 1e-12):
        raise InputError(f"radius {R:g} is below two cells ({2 * hmax:g})")
    return R


def _ball_kernel(grid, R):
    """Boolean stencil of cell offsets within Euclidean distance R."""
    nx = int(R / grid.hx * (1 + 1e-12))
    ny = int(R / grid.hy * (1 + 1e-12))
    dx = np.arange(-nx, nx + 1) * grid.hx
    dy = np.arange(-ny, ny + 1) * grid.hy
    return (dx[:, None] ** 2 + dy[None, :] ** 2) <= R * R * (1 + 1e-12)


class _Window(NamedTuple):
    kernel: np.ndarray      # boolean ball stencil, odd shape
    counts: np.ndarray      # in-domain cells of each center's window
    offsets: np.ndarray     # (K, 2) stencil offsets in np.nonzero order
    shifts: tuple           # per offset: (center slices, value slices)
    slack: float            # roundoff slack of the L2 bound, per max|u|^2
    fshape: tuple           # padded FFT shape
    spectrum: np.ndarray    # rfftn of the kernel at fshape


@functools.lru_cache(maxsize=32)
def _window(grid, R):
    """Ball kernel, exact window counts, stencil offsets, the slices
    that shift a grid array by each offset, and the kernel's spectrum,
    built once per (grid, R).  The spectrum is the rfftn of the kernel
    at the padded fast length next_fast_len(N + k - 1) per axis, which
    is the transform scipy.signal.fftconvolve computes for the kernel on
    every call.  Shared by every caller, threads included, so its arrays
    are read-only."""
    from scipy.fft import next_fast_len, rfftn
    kernel = _ball_kernel(grid, R)
    offsets = np.argwhere(kernel) - np.array(kernel.shape) // 2
    Nx, Ny = grid.shape
    shifts = tuple(
        ((slice(max(0, -di), Nx - max(0, di)), slice(max(0, -dj), Ny - max(0, dj))),
         (slice(max(0, di), Nx + min(0, di)), slice(max(0, dj), Ny + min(0, dj))))
        for di, dj in offsets.tolist())
    counts = np.zeros(grid.shape, dtype=int)
    for cs, _ in shifts:
        counts[cs] += 1
    K, N = len(offsets), Nx * Ny
    fft = math.log2(16 * N) * (math.sqrt(N) * K + N * math.sqrt(K))
    slack = 256.0 * np.finfo(float).eps * (fft / counts.min() + K)
    fshape = tuple(next_fast_len(n + k - 1, True)
                   for n, k in zip(grid.shape, kernel.shape))
    spectrum = rfftn(kernel.astype(float), fshape)
    for arr in (kernel, counts, offsets, spectrum):
        arr.flags.writeable = False
    return _Window(kernel, counts, offsets, shifts, float(slack), fshape,
                   spectrum)


def _window_sums(arr, win):
    """Sliding sums of arr over the window kernel's footprint clipped to
    the domain.

    They take scipy.signal.fftconvolve(arr, kernel, "same")'s steps
    against the cached kernel spectrum, so they give that function's
    bits: transform arr at the padded shape, multiply, invert, cut the
    full convolution to N + k - 1 per axis and take its centred slice,
    which starts at (k - 1) // 2."""
    from scipy.fft import irfftn, rfftn
    full = irfftn(rfftn(arr, win.fshape) * win.spectrum, win.fshape)
    (Nx, Ny), (kx, ky) = arr.shape, win.kernel.shape
    ox, oy = (kx - 1) // 2, (ky - 1) // 2
    return full[ox:ox + Nx, oy:oy + Ny]


# Kernels with at least this many cells search in bound order without
# a starting value.  Below it (R up to about 5h) the search's fixed
# cost, a partition and the first batch, outweighs its saving: measured
# on 64x64 and 128x128 grids, it took up to 1.4x the shift loop's time
# on fields with flat bounds.  A search that starts from another
# component's value has neither cost, and runs at every kernel size.
_PRUNE_MIN_OFFSETS = 100
# Centers gathered in the first batch and at most per later batch: the
# gather buffers hold offsets x batch floats.
_PRUNE_FIRST = 32
_PRUNE_BATCH = 256
# Largest share of the centers the search may have left to visit.  A
# gathered center costs about 1.2-2x its share of the shift loop (4.1
# against 2.4 us at 797 offsets on 64x64, 0.7 against 0.5 us at 197),
# so past about half of the grid the loop is faster.  Measured on the
# random, linear, fourier and constant fields at 64x64 and 128x128 and
# on certify_diagnose's states: 0.5 and 0.75 ran alike; 0.25 gave up
# in 14 of 105 searches that 0.5 finished sooner; 1.0 took 1.9-2.2x
# 0.5's time on random and linear fields at 128x128.
_PRUNE_MAX_SHARE = 0.5


def _shift_loop_sup(comp, means, win):
    """sup over centers of the L1 mean oscillation of comp, whose window
    means are means: the deviations |comp - mean| are added offset by
    offset, in np.nonzero order of the kernel, and divided by the
    window's cell count.  NaN and inf propagate as numpy's max does."""
    acc = np.zeros(comp.shape)
    for cs, vs in win.shifts:
        acc[cs] += np.abs(comp[vs] - means[cs])
    return float((acc / win.counts).max())


def _mean_oscillation_sup(comp, means, bound, win, best=None):
    """max(best, sup over centers of mean_{B} |comp - mean_B comp|) for
    one component on one grid, windows clipped to the domain; means are
    its window means and bound its _oscillation_bound, which must be
    finite.  best is a value already found (another component's), or
    None.

    The value at a center is the one _shift_loop_sup computes.

    Small kernels run that loop over every center until a best exists.
    Otherwise the centers are searched in bound order.  For a window of
    n cells with values u_i, computed mean m and exact mean mu,
    Cauchy-Schwarz gives

        (1/n) sum |u_i - m| <= sqrt((1/n) sum (u_i - m)^2)
                             = sqrt(mean(u^2) - m^2 + 2 m (m - mu)),

    so the L1 mean oscillation is bounded by

        b = sqrt(max(S2/n - m^2, 0) + slack),   S2 = window sum of u^2,

    once slack covers the roundoff of everything computed in floating
    point.  Let M = max|u|, eps the machine epsilon, N the cells of the
    grid, K the cells of the kernel, n_min the smallest window count
    and L = log2(16 N); the FFT length is below 16 N because R is at
    most the shorter side and each padded side is below 4/3 of 3 Nx.

    - Each FFT errs by at most about 5 L eps in relative 2-norm
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      Thm 24.2).  With |F k| <= ||k||_1 and |F x| <= ||x||_1, a
      convolution of x = u^2 with the 0/1 kernel therefore errs in
      every entry by at most about 20 L eps (sqrt(N) K + N sqrt(K)) M^2.
      S2/n errs by that over n_min, and 2 |m| |m - mu| by at most twice
      the same, as the window sum of u obeys the bound with M for M^2.
    - Summing n deviations (each at most 2M) and dividing by n raises
      the squared L1 value by at most 3 (K + 2) eps 4 M^2, and the
      subtraction, square and square root of b cost a few eps 4 M^2.

    slack = 256 eps (L (sqrt(N) K + N sqrt(K)) / n_min + K) M^2 covers
    the sum of these terms.  It is 0 for an identically zero component
    and about 1e-9 M^2 on a 64x64 grid at R = 16h.

    The search visits centers in descending bound order, in batches.  A
    batch gathers each center's window values into an (offsets, batch)
    array with one take.  Offsets outside the domain are multiplied by
    0 and contribute +0.0, and the sum over axis 0 adds the rows in
    order, so every visited value is the shift loop's value bit for
    bit.  The search stops when the next bound is <= the running maximum: no unvisited
    center can exceed it, so max(best, sup) is exact.  Without a best,
    the running maximum starts from a first batch of the highest
    bounds.  From then on, the centers whose bound exceeds the running
    maximum are all that is left to visit, and the running maximum
    only grows.  When they are more than _PRUNE_MAX_SHARE of the grid
    the bounds are too flat to prune, and the shift loop runs instead.
    """
    if best is not None or len(win.offsets) >= _PRUNE_MIN_OFFSETS:
        found = _bound_ordered_sup(comp, means, bound, win, best)
        if found is not None:
            return found
    value = _shift_loop_sup(comp, means, win)
    return value if best is None else max(best, value)


def _oscillation_bound(comp, means, win):
    """Per-center upper bound of the computed L1 mean oscillation (see
    _mean_oscillation_sup); a bound only where it is finite, which fails
    for non-finite comp and where comp squared overflows."""
    M = float(np.abs(comp).max())
    sq = _window_sums(comp * comp, win) / win.counts
    return np.sqrt(np.maximum(sq - means * means, 0.0) + win.slack * M * M)


def _bound_ordered_sup(comp, means, bound, win, best):
    """The search of _mean_oscillation_sup, from best (None: from its
    first batch, whose centers it marks in bound with -inf); None when
    it gives up."""
    Nx, Ny = comp.shape
    rx, ry = win.kernel.shape[0] // 2, win.kernel.shape[1] // 2
    Py = Ny + 2 * ry
    padded = np.zeros((Nx + 2 * rx, Py))
    padded[rx:rx + Nx, ry:ry + Ny] = comp
    inside = np.zeros(padded.shape, dtype=bool)
    inside[rx:rx + Nx, ry:ry + Ny] = True
    padded, inside = padded.ravel(), inside.ravel()
    shift = win.offsets[:, 0] * Py + win.offsets[:, 1]
    flat_means, flat_counts = means.ravel(), win.counts.ravel()
    # every batch gathers into these: fresh megabyte-sized temporaries
    # for each batch took 2.1 against 0.95 ms per 256 centers at 797
    # offsets on 64x64
    K, width = len(shift), max(_PRUNE_FIRST, _PRUNE_BATCH, 2)
    idx_buf = np.empty(K * width, dtype=np.intp)
    dev_buf = np.empty(K * width)
    in_buf = np.empty(K * width, dtype=bool)

    def visit(batch):
        if len(batch) == 1:
            # numpy sums a single column pairwise, out of the shift
            # loop's order; two equal columns are summed in row order
            batch = np.repeat(batch, 2)
        n = len(batch)
        i, j = np.divmod(batch, Ny)
        idx = idx_buf[:K * n].reshape(K, n)
        np.add(shift[:, None], (i + rx) * Py + j + ry, out=idx)
        # every index is in range, so "clip" only skips take's buffering
        dev = dev_buf[:K * n].reshape(K, n)
        np.take(padded, idx, out=dev, mode="clip")
        dev -= flat_means[batch]
        np.abs(dev, out=dev)
        mask = in_buf[:K * n].reshape(K, n)
        np.take(inside, idx, out=mask, mode="clip")
        dev *= mask
        return float((dev.sum(axis=0) / flat_counts[batch]).max())

    flat = bound.ravel()
    if best is None:
        k = min(_PRUNE_FIRST, flat.size)
        first = np.argpartition(-flat, k - 1)[:k]
        best = visit(first)
        flat[first] = -math.inf
    rest = np.flatnonzero(flat > best)
    if rest.size > _PRUNE_MAX_SHARE * flat.size:
        return None
    rest = rest[np.argsort(-flat[rest])]
    for start in range(0, rest.size, _PRUNE_BATCH):
        batch = rest[start:start + _PRUNE_BATCH]
        batch = batch[flat[batch] > best]
        if not batch.size:
            break
        best = max(best, visit(batch))
    return best


def _energy_y(field, spec, grad, A=None):
    """y = int |A(u) Du|^2 = area * sum over cells, i and d of
    (sum_j A_ij (Du)_jd)^2 by midpoint quadrature; grad is
    cell_gradient(field), (m, 2, Nx, Ny), and A, when given,
    eval_A(spec, field.values), (m, m, Nx, Ny).  Checked against the
    same sum in exact rational arithmetic, within the gamma_n bound of
    its terms (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Sec. 3.1)."""
    if A is None:
        A = eval_A(spec, field.values)
    AD = A[:, 0, None] * grad[0]
    for j in range(1, A.shape[0]):
        AD += A[:, j, None] * grad[j]
    return float(field.grid.cell_area * (AD * AD).sum())


def _bmo_sup(values, win):
    """sup over window centers of the mean oscillation, max over
    components, of values shifted by their (0, 0) cell.

    The components share one running maximum, taken in descending order
    of their largest bound: each searches only for centers whose bound
    exceeds the best value found so far, and one whose largest bound is
    at or below it is skipped.  The result is the max of the components'
    shift-loop values bit for bit.  Where a bound is not finite (values
    that are not, or whose squares pass the float range) the bounds
    prove nothing: the shift loop runs on every component, and max takes
    them in the components' order.  A single component at a kernel
    under _PRUNE_MIN_OFFSETS has no search and nothing to order, so it
    runs the shift loop with no bound."""
    shifted = values - values[:, :1, :1]
    means = [_window_sums(comp, win) / win.counts for comp in shifted]
    if len(shifted) == 1 and len(win.offsets) < _PRUNE_MIN_OFFSETS:
        return _shift_loop_sup(shifted[0], means[0], win)
    bounds = [_oscillation_bound(comp, mu, win)
              for comp, mu in zip(shifted, means)]
    tops = [float(b.max()) for b in bounds]
    if not all(map(math.isfinite, tops)):
        return max(_shift_loop_sup(comp, mu, win)
                   for comp, mu in zip(shifted, means))
    best = None
    for c in sorted(range(len(tops)), key=tops.__getitem__, reverse=True):
        if best is not None and tops[c] <= best:
            break
        best = _mean_oscillation_sup(shifted[c], means[c], bounds[c], win,
                                     best)
    return best


def norms(u, spec, t=0.0, s0=1.0, p_list=None, R_list=None, *, grad=None,
          A=None):
    """NormRecord of a field: midpoint quadrature, Euclidean pointwise
    magnitude across components, gradient norms via cell_gradient.

    grad and A, when given, must be cell_gradient(u) and eval_A(spec,
    u.values), arrays a caller already holds (solver.run() computes
    them once per recorded state and reuses them for the next step);
    otherwise they are computed here.  The record is the same either
    way."""
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
        if not 0 < p < math.inf:
            raise InputError("Lp exponents must be finite and positive")
        if p == 2.0:
            continue        # the dedicated L2 entry already carries it
        Lp[p] = float((area * (r ** p).sum()) ** (1.0 / p))
    if grad is None:
        grad = cell_gradient(u)
    du2 = (grad * grad).sum(axis=(0, 1))
    W12 = L2 + float(math.sqrt(area * du2.sum()))
    energy_y = _energy_y(u, spec, grad, A)
    lam = eval_lambda(spec, vals)
    lambda_moment = float(area * (lam ** float(s0)).sum())
    bmo = {}
    morrey = {}
    for R in (R_list or ()):
        R = _window_radius(g, R, "R_list")
        if R > min(g.Lx, g.Ly):
            continue
        win = _window(g, R)
        bmo[R] = _bmo_sup(vals, win)
        morrey[R] = float(_window_sums(du2, win).max() * area)
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


def bmo_profile(u, radii, Lambda_hat=1.0, mu0=None, recorded=None):
    """Sliding-window mean-oscillation profile of a field.

    For each radius, windows are the discrete Euclidean balls around
    every cell center, clipped to the domain; the report holds the sup
    over centers of the L1 mean oscillation (max over components) and
    the products Lambda_hat^2 * oscillation^2 compared against mu0 when
    one is supplied.  Radii exceeding the domain are skipped with a
    note; radii below two cells are rejected, and so are a Lambda_hat
    or a given mu0 that is not finite.  recorded, when given, is
    the bmo dict of a NormRecord of u; the radii it holds take their
    oscillation from it instead of computing it again.
    """
    recorded = recorded or {}
    g = u.grid
    if not radii:
        raise InputError("need at least one radius")
    if not math.isfinite(Lambda_hat):
        raise InputError(f"Lambda_hat must be finite, got {Lambda_hat!r}")
    if mu0 is not None and not math.isfinite(mu0):
        raise InputError(f"mu0 must be finite when given, got {mu0!r}")
    osc, products, small = {}, {}, {}
    skipped = []
    for R in radii:
        R = _window_radius(g, R, "radii")
        if R > min(g.Lx, g.Ly):
            skipped.append((R, "radius exceeds domain"))
            continue
        osc[R] = (recorded[R] if R in recorded
                  else _bmo_sup(u.values, _window(g, R)))
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
    the data.  States must be stored at every record (store_states),
    and y is read from the records, one NormRecord per stored state, as
    run() writes them.
    """
    if traj.states is None:
        raise InputError("trajectory was run without store_states")
    if len(traj.states) < 3:
        raise InputError("need at least 3 stored states")
    states, records = traj.states, traj.records
    if len(records) != len(states) or not all(
            isinstance(rec, NormRecord) for rec in records):
        raise InputError("need one NormRecord per stored state")
    times = np.asarray(traj.times, dtype=float)
    area = states[0].grid.cell_area
    ys = np.array([rec.energy_y for rec in records])

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
        vals = states[k + 1].values
        lam = eval_lambda(spec, vals)
        diss = float(area * (lam * ut2).sum())
        dydt[k] = (ys[k + 1] - ys[k]) / dt
        f = reaction_zero_order(spec, vals)
        f2 = (f * f).sum(axis=0)
        lhs[k] = diss + dydt[k]
        rhs[k] = ys[k + 1] + float(area * (lam * f2).sum())

    # steps with rhs = 0 (stationary, reaction-free) constrain nothing
    # unless their lhs is positive, which no C can cover
    pos = rhs > 0
    C = 0.0
    if pos.any():
        C = max(0.0, float(np.max(lhs[pos] / rhs[pos])))
        C = _bump_to_cover(C, lhs[pos], rhs[pos])
    feasible = bool(np.all(lhs[~pos] <= 0))
    margins = C * rhs - lhs

    from scipy.optimize import linprog
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

    is reported beside the first empirical time with y <= M1.  p must
    be finite and exceed 1, every M1 target be finite, and supplied
    constants be two finite numbers.
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
    if not 1 < p < math.inf:
        raise InputError(f"p must be finite and exceed 1, got {p!r}")
    M1_targets = [float(M1) for M1 in M1_targets]
    if not all(map(math.isfinite, M1_targets)):
        raise InputError("every entry of M1_targets must be finite")
    if np.any(np.diff(t) <= 0):
        raise InputError("times must be strictly increasing")
    if constants is not None:
        try:
            c2, c3 = (float(x) for x in constants)
        except (TypeError, ValueError):
            c2 = c3 = math.nan
        if not (math.isfinite(c2) and math.isfinite(c3)):
            raise InputError("constants must be two finite numbers (c2, c3), "
                             f"got {constants!r}")

    dt2 = t[2:] - t[:-2]
    d = (y[2:] - y[:-2]) / dt2
    ym = y[1:-1]
    ymp = ym ** p

    first_violation = None
    if constants is not None:
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
    over the supplied family of fields (zero fields contribute 0); q and
    eps must be finite and positive."""
    fields = list(fields)
    if not fields:
        raise InputError("need at least one field")
    q = _positive_finite(q, "q")
    eps = _positive_finite(eps, "eps")
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


# morrey_profile steps through the k admissible window end times t0 of
# a radius with stride max(1, k // _MORREY_WINDOWS).
_MORREY_WINDOWS = 64


def morrey_profile(traj, radii):
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
    radii = [_radius(R, "radii") for R in radii]
    if len(set(radii)) < 2:
        raise InputError("need at least 2 distinct radii for a slope")
    from scipy.integrate import cumulative_trapezoid
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
        win = _window(g, R)
        S = np.stack([_window_sums(du2[i], win) * area
                      for i in range(len(times))])
        Cum = np.concatenate([
            np.zeros((1,) + g.shape),
            cumulative_trapezoid(S, x=times, axis=0)])
        idx = np.nonzero(times >= times[0] + R * R * (1 - 1e-12))[0]
        stride = max(1, len(idx) // _MORREY_WINDOWS)
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
