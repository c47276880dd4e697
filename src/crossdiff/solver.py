"""Time stepping for u_t = Lap(P(u)) + f(u, Du).

All three schemes use the one face-flux operator of grid.py:

* explicit  -- forward Euler on the full right-hand side, with the step
  clipped to the parabolic stability bound of the current state;
  diffusion is laplacian_of_P, i.e. (I_m (x) L_1) P(u);
* imex      -- backward Euler on the divergence-form operator
  flux_operator(face_coefficients(u)), with A frozen at the current
  state, reaction explicit;
* newton    -- backward Euler on the fully nonlinear Lap(P(u)), solved
  by an undamped Newton iteration on component_laplacian, whose
  Jacobian is (I_m (x) L_1) A(v) with A(v) acting cellwise; reaction
  explicit.

grid.py builds the flux operator's plan (its canonical CSR pattern,
diagonal and a gather table into the face arrays) and I_m (x) L_1 once
per (grid, m), so repeated step() calls share them.  Both implicit
operators are I - dt L filled on the plan (plan.backward_euler drops
exact zeros), with no sparse arithmetic per step: the IMEX L from the
face values, the Newton L = (I_m (x) L_1) A(v) from one product per
entry, which keeps the bits and pattern of scipy's sparse product; it
is built once per step size when A is constant.  run() drives adaptive
steps and records norms along the way; every attempt takes its step
size from one rule, _step_size, which names the limit that set it, and
RunStats.dt_limits counts the accepted steps per limit.  It evaluates
the reaction term f(u, Du) once per accepted state (and once for the
initial state) and hands that one array to the reaction step cap and
to the stepper, also when a rejected step is retried; the final
state's f is never needed.

Every record is the NormRecord diagnostics.norms gives of the state
under the run's DiagnosticsConfig (s0, p_list, radii).  run() computes
a recorded state's cell-centre gradient Du (cell_gradient, (m, 2, Nx,
Ny)) and diffusion matrices A(u) (eval_A on the field's values, (m, m,
Nx, Ny)) once and hands both to norms, A(u) to the explicit step cap
stable_dt, and Du to the reaction term, also when a rejected step is
retried from that state.  A state that is not recorded (record_every >
1) has them computed where they are needed.  Every model evaluation
takes the (m, Nx, Ny) values as they are stored, with no transpose.

Every direct solve goes through _factor, SuperLU with the fill-reducing
MMD_AT_PLUS_A column ordering, so its solves give the bits of scipy's
spsolve(M, b, permc_spec="MMD_AT_PLUS_A") for a CSR matrix.  Each LU
orders its own matrix and nothing is kept between factorizations, so no
solve depends on what the process factored before it.

run() hands the stepper one factor policy (_LaggedFactor) per run, and
step() a fresh one, whose first solve is therefore direct.  The policy
counts its work into the RunStats it is handed, which run() returns as
the Trajectory's stats.  It holds the last implicit operator it built
and the LU of the last operator it factored (never two LUs at once),
and one rule serves both implicit schemes.  The operator is rebuilt
unless dt and its coefficients (the face coefficients (Ax, Ay) under
IMEX, the cellwise A(v) under Newton) are bit for bit those it was
built from, and it is then solved thus:

* the held LU solves the very operator object it was factored from, so
  an operator of a constant A (a linear P) is assembled and factored
  once per step size;
* at an unchanged dt the held LU of an earlier operator serves as a
  preconditioner (Knoll & Keyes, J. Comput. Phys. 193 (2004) 357).
  I - dt L(A(u)) of a state-dependent A changes a little from IMEX step
  to step, and the Newton Jacobian from iterate to iterate.  The
  solution of the held LU is taken if its true residual |rhs - M x| is
  on target; otherwise GMRES with that LU as preconditioner (Saad,
  Iterative Methods for Sparse Linear Systems, 2nd ed., ch. 9) runs
  for at most _KRYLOV_MAXITER iterations and its result is taken under
  the same true-residual test.  The GMRES cycle (_gmres_cycle) starts
  from the held LU's solution and residual and does scipy's float
  operations, but stops on the true residual of the iterate, not on
  scipy's preconditioned estimate alone, so its x after j iterations
  has the bits of scipy's cycle of restart j.  The target is
  0.1 * linear_tol * |rhs|, a tenth of the IMEX gate linear_tol (1 +
  |rhs|), or the relative residual of the last direct solve times |rhs|
  where that is larger, so a linear_tol below roundoff does not rule
  out every lagged solve;
* otherwise (a missed target or a new dt) the LU is dropped and M is
  factored and solved directly.

A Newton solve on the held LU is thus an inexact Newton step (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19 (1982) 400) with the
forcing term of that target; Newton's own residual test stays the
step's acceptance test.  Under Neumann conditions every IMEX operator
has unit column sums, so the held LU's inverse keeps the sum of a
vector and the Krylov corrections conserve mass to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dlartg

from . import diagnostics as diag_mod
from .errors import (InputError, NewtonConvergenceError, NumericalStateError,
                     number, number_list, whole_number)
from .grid import (Field, _flux_data, _product_plan, _require_finite,
                   cell_gradient, component_laplacian, face_coefficients,
                   laplacian_of_P, stable_dt)
from .model import eval_A, eval_P, eval_reaction

__all__ = ["SolverConfig", "RunStats", "Trajectory", "step", "run"]

_SCHEMES = ("explicit", "imex", "newton")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme and step-control parameters for run().  A malformed
    number raises InputError: a value that errors.number refuses (a
    bool, a string), dt0, dt_max, t_end or a tolerance that is not
    finite, a linear_tol that is not positive, a negative Newton
    tolerance, a blowup_threshold that is not positive (inf turns
    blowup detection off), a max_steps, record_every or max_newton
    that is not a whole number of at least 1, or a snapshot time
    outside [0, t_end]; so does a store_states that is not a bool.

    Each step size comes from the controller's dt (dt0, halved on a
    rejected step, grown 1.2x on an accepted one) by the one rule of
    _step_size, bounded by dt_min and dt_max; RunStats.dt_limits counts
    the limit that set each accepted step."""

    scheme: str = "imex"
    dt0: float = 1e-3
    t_end: float = 1.0
    dt_min: float | None = None       # default dt0 / 1024
    dt_max: float | None = None       # default dt0
    cfl_safety: float = 0.9
    newton_abs_tol: float = 1e-11
    newton_rel_tol: float = 1e-11
    max_newton: int = 12
    linear_tol: float = 1e-10
    record_every: int = 1
    snapshot_times: tuple = ()
    store_states: bool = False
    blowup_threshold: float = 1e12
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise InputError(f"scheme must be one of {_SCHEMES}")
        for name in ("dt0", "t_end", "dt_min", "dt_max", "cfl_safety",
                     "newton_abs_tol", "newton_rel_tol", "linear_tol",
                     "blowup_threshold"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, number(getattr(self, name), name))
        if not isinstance(self.store_states, bool):
            raise InputError(f"store_states must be true or false, got {self.store_states!r}")
        if not (0 < self.dt0 < np.inf and 0 < self.t_end < np.inf):
            raise InputError("dt0 and t_end must be finite and positive")
        if not 0 < self.linear_tol < np.inf:
            raise InputError("linear_tol must be finite and positive")
        if not (0 <= self.newton_abs_tol < np.inf
                and 0 <= self.newton_rel_tol < np.inf):
            raise InputError("newton_abs_tol and newton_rel_tol must be "
                             "finite and >= 0")
        if not self.blowup_threshold > 0:
            raise InputError("blowup_threshold must be positive")
        for name in ("max_steps", "record_every", "max_newton"):
            value = whole_number(getattr(self, name), name)
            if value < 1:
                raise InputError(f"{name} must be >= 1")
            object.__setattr__(self, name, value)
        if self.dt_min is None:
            object.__setattr__(self, "dt_min", self.dt0 / 1024.0)
        if self.dt_max is None:
            object.__setattr__(self, "dt_max", self.dt0)
        if not self.dt_max < np.inf:
            # the implicit ladder counts its rungs down from dt_max
            raise InputError("dt_max must be finite")
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise InputError("need 0 < dt_min <= dt0 <= dt_max")
        if not (0 < self.cfl_safety <= 1):
            raise InputError("cfl_safety must lie in (0, 1]")
        times = set(number_list(self.snapshot_times, "snapshot_times"))
        if not all(0.0 <= t <= self.t_end for t in times):
            raise InputError("snapshot_times must lie in [0, t_end]")
        object.__setattr__(self, "snapshot_times", tuple(sorted(times)))


@dataclass
class RunStats:
    """What a run did: steps rejected, implicit operators assembled, LU
    factorizations, linear solves and GMRES iterations.
    worst_linear_residual is the largest IMEX residual
    |M x - rhs| / (linear_tol (1 + |rhs|)) over the steps that passed
    that gate (None when no IMEX step did).  Every factorization has one
    of two causes, which sum to factorizations: a dt other than that of
    the held LU, or no held LU (factorizations_new_dt), and a lagged
    solve that missed its target (factorizations_missed_target).
    dt_limits counts the accepted steps by the limit that set their
    size, as _step_size names it."""

    rejected_steps: int = 0
    assemblies: int = 0
    factorizations: int = 0
    factorizations_new_dt: int = 0
    factorizations_missed_target: int = 0
    linear_solves: int = 0
    krylov_iterations: int = 0
    worst_linear_residual: float | None = None
    dt_limits: dict = dc_field(default_factory=dict)


@dataclass
class Trajectory:
    """Output of run(): recorded norms, optional states, step history,
    and the RunStats of the run."""

    times: np.ndarray
    records: list
    final: Field
    terminated_reason: str
    states: list | None = None
    snapshots: dict = dc_field(default_factory=dict)
    dt_history: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    newton_history: np.ndarray = dc_field(default_factory=lambda: np.zeros(0, dtype=int))
    first_negative_t: float | None = None
    stats: RunStats = dc_field(default_factory=RunStats)

    @property
    def reached_end(self):
        return self.terminated_reason == "reached"


# GMRES on a lagged LU runs at most this many iterations per solve.
_KRYLOV_MAXITER = 10
# A lagged solve is taken when |rhs - M x| <= _KRYLOV_RTOL * linear_tol
# * |rhs|, a tenth of the gate linear_tol (1 + |rhs|) of _step_imex, so a
# lagged IMEX step passes that gate with a tenth of it to spare.  A
# backward-Euler step is accurate to O(dt) only, and stiff integrators
# likewise solve their linear systems to a fraction of the nonlinear
# tolerance (Brown, Hindmarsh & Petzold, SIAM J. Sci. Comput. 15 (1994)
# 1467).
_KRYLOV_RTOL = 1e-1


def _bits(a):
    return a.view(np.uint8)


class _LaggedFactor:
    """Factor policy of one run (see the module docstring): the last
    operator it built, with the dt and coefficient arrays it was built
    from, and the LU of the last operator it factored, with that
    operator's dt and the relative residual of its direct solve.  It
    counts its work into stats, a RunStats.  residual is the true
    residual norm |rhs - M x| of the last solve where the policy
    computed one, else None.  The coefficient arrays and operators are
    held, not copied, so callers must not change them in place."""

    def __init__(self, linear_tol, stats):
        self.stats = stats
        self.rtol = _KRYLOV_RTOL * linear_tol
        self.dt = None
        self.coefs = ()
        self.built = None
        self.factored = None
        self.lu = None
        self.lu_dt = None  # dt of the operator the held LU was factored from
        self.floor = 0.0  # relative residual of the last direct solve
        self.residual = None

    def operator(self, dt, coefs, build):
        """The held operator while dt and every array in coefs are bit
        for bit the ones it was built from; otherwise build() and hold
        that."""
        if not (self.built is not None and dt == self.dt and all(
                np.array_equal(_bits(a), _bits(b))
                for a, b in zip(coefs, self.coefs))):
            self.built = build()
            self.stats.assemblies += 1
            self.dt, self.coefs = dt, coefs
        return self.built

    def solve(self, M, rhs):
        """x with M x = rhs, where M is the operator this policy built
        last (its dt is self.dt)."""
        if M is self.factored:
            return self.lu.solve(rhs, trans="T")
        if self.lu is None or self.dt != self.lu_dt:
            self.stats.factorizations_new_dt += 1
            return self._direct(M, rhs)
        target = max(self.rtol, self.floor) * np.linalg.norm(rhs)
        x = self.lu.solve(rhs, trans="T")
        r = rhs - M @ x
        self.residual = np.linalg.norm(r)
        if not self.residual <= target:
            x, iterations, self.residual = _gmres_cycle(
                M, lambda v: self.lu.solve(v, trans="T"), rhs, x, r,
                np.linalg.norm(x), target)
            self.stats.krylov_iterations += iterations
        if self.residual <= target:
            return x
        self.stats.factorizations_missed_target += 1
        return self._direct(M, rhs)

    def _direct(self, M, rhs):
        """Factor M and solve directly; all NaN if M is exactly
        singular."""
        # drop the old LU before factoring, so two are never held at once
        self.factored = self.lu = None
        self.stats.factorizations += 1
        self.lu = _factor(M)
        if self.lu is None:
            return np.full(np.shape(rhs), np.nan)
        self.factored, self.lu_dt = M, self.dt
        x = self.lu.solve(rhs, trans="T")
        norm = np.linalg.norm(rhs)
        self.residual = np.linalg.norm(rhs - M @ x)
        self.floor = self.residual / norm if norm > 0 else 0.0
        return x


def _gmres_cycle(M, psolve, b, x, r, mb_norm, atol):
    """One restart cycle of left-preconditioned GMRES on M x = b from x:
    returns (a new x, iterations, |b - M x|).

    The Arnoldi process, rotations and back-substitution are a port of
    gmres from scipy.sparse.linalg._isolve (Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause), with the same
    float operations in the same order (modified Gram-Schmidt, LAPACK's
    lartg Givens rotations, the same back-substitution and y @ v).  The
    stop is not scipy's: where the preconditioned residual estimate
    meets scipy's ptol, the iterate is formed and the cycle ends only if
    its true residual |b - M x| meets atol; otherwise it goes on, up to
    _KRYLOV_MAXITER iterations or an exact breakdown.  The x it returns
    after j iterations is therefore, bit for bit, that of
    gmres(M, b, x0=x, rtol=0.0, atol=0.0, restart=j, maxiter=1,
    M=psolve), and where the first estimate stop already meets atol it
    is that of gmres(..., atol=atol, restart=_KRYLOV_MAXITER).  The
    caller hands in what it already holds: the residual r = b - M @ x,
    with |r| > atol, and the norm of psolve(b), where psolve applies the
    preconditioner.
    """
    n = b.size
    eps = np.finfo(b.dtype).eps
    bnrm2 = np.linalg.norm(b)
    restart = min(_KRYLOV_MAXITER, n)
    ptol = mb_norm * min(1.0, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))

    v[0] = psolve(r)
    tmp = np.linalg.norm(v[0])
    v[0] *= 1 / tmp
    S = np.zeros(restart + 1)  # right-hand side of the Hessenberg problem
    S[0] = tmp
    breakdown = False
    for col in range(restart):
        w = psolve(M @ v[col])
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            tmp = np.dot(v[k], w)
            h[col, k] = tmp
            w -= tmp * v[k]
        h1 = np.linalg.norm(w)
        h[col, col + 1] = h1
        v[col + 1] = w
        if h1 <= eps * h0:  # the Krylov space holds the exact solution
            h[col, col + 1] = 0
            breakdown = True
        else:
            v[col + 1] *= 1 / h1
        for k in range(col):
            c, s = givens[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, mag = dlartg(h[col, col], h[col, col + 1])
        givens[col] = c, s
        h[col, col], h[col, col + 1] = mag, 0
        tmp = -s * S[col]
        S[col], S[col + 1] = c * S[col], tmp
        if not (abs(tmp) <= ptol or breakdown or col == restart - 1):
            continue
        # the iterate after col + 1 iterations; S stays as it is, so the
        # cycle can go on from here
        y = S[:col + 1].copy()
        if h[col, col] == 0:
            y[col] = 0
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        xj = x + y @ v[:col + 1]
        rnorm = np.linalg.norm(b - M @ xj)
        if rnorm <= atol or breakdown:
            break
    return xj, col + 1, rnorm


def _factor(M):
    """The SuperLU of the CSR matrix M, whose arrays are read as the CSC
    of its transpose (as scipy's spsolve does), with the fill-reducing
    MMD_AT_PLUS_A column ordering; None if M is exactly singular.  Solve
    M x = b with lu.solve(b, trans="T")."""
    try:
        return spla.splu(sp.csc_array((M.data, M.indices, M.indptr),
                                      shape=M.shape),
                         permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as e:
        if "singular" not in str(e):
            raise
        return None


def spsolve(M, rhs, factors):
    """Solve M x = rhs for a square CSR matrix M, the operator the
    factor policy factors built last (see the module docstring).

    M is solved directly with the held LU if that LU was factored from
    M.  Otherwise, at an unchanged dt, it may be solved by the held LU,
    or one GMRES cycle on it that stops on the true residual, to a true
    residual |rhs - M x| at most 0.1 * linear_tol * |rhs|, or at most
    that of the last direct solve relative to its |rhs|.  Failing that,
    M is factored and the result is an exact direct solve, bit for bit
    that of scipy's spsolve(M, rhs, permc_spec="MMD_AT_PLUS_A").  All NaN
    if M is exactly singular.
    """
    M.sum_duplicates()
    factors.stats.linear_solves += 1
    factors.residual = None
    return factors.solve(M, rhs)


def _flat(values):
    return values.reshape(-1)


def _reaction_term(spec, field, grad=None):
    """f(u, Du) of the field, shape (m, Nx, Ny); grad, when given, is
    cell_gradient(field)."""
    if spec.reaction is None:
        return np.zeros(field.values.shape)
    if grad is None:
        grad = cell_gradient(field)
    return eval_reaction(spec, field.values, grad)


def _reaction_dt_cap(f, values, cfl):
    """Step bound for the explicit reaction: rate*dt <= cfl/2, where
    rate is the largest pointwise |f(u, Du)|/|u| of the state values,
    and f is the reaction term of those values that the stepper also
    uses (run() evaluates it once per accepted state).

    The factor 2 rests on Euler's identity: a term g homogeneous of
    degree p has Dg(u) u = p g(u), so |g(u)|/|u| is 1/p of the
    Jacobian's action along u, and p <= 2 for the competitive term
    G(u) u whose coercivity exponent is at most 1.  The
    argument therefore covers homogeneous competitive zero-order terms
    only, and only along the ray through u; where K u and G(u) u nearly
    cancel the rate underestimates the Jacobian by more.  For a
    GeneralReaction, and for a gradient term B(u) Du of either reaction
    type, the cap is a heuristic: no advective bound (about h/|B|) is
    derived."""
    num = np.sqrt((f * f).sum(axis=0))
    den = np.sqrt((values * values).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(den > 0, num / den, 0.0)
    rho = float(rate.max())
    return 0.5 * cfl / rho if rho > 0 else np.inf


def _step_size(config, dt, cfl, reaction, gap):
    """The step size of one attempt and the limit that set it, or
    (None, "stiff") when a cap lies below dt_min.

    dt is the controller's: it starts at dt0, halves on a rejected step
    (not below dt_min) and grows 1.2x on an accepted one (not above
    dt_max), and it is named "dt_max" or "dt_min" where it sits at that
    bound, else "controller".  The rule, in order:

    * cfl (the explicit stability bound) and reaction (the reaction
      cap), inf where they do not apply, cap it and name the step;
    * a step below dt_min by more than 1e-12 relative is "stiff": the
      state demands less than the configured floor;
    * an implicit (imex, newton) step above dt_min moves on the ladder:
      it is rounded down to the largest rung dt_max 2^-k at or below it,
      so dt changes, and the held LU is dropped, only when it crosses a
      rung (stiff integrators keep the step, and so the iteration
      matrix, until a change pays for itself: Hindmarsh et al., ACM
      TOMS 31 (2005) 363).  The ladder only rounds a bound down, so the
      step keeps that bound's name, but a rung below dt_min is raised
      to dt_min and named "dt_min".  The explicit scheme is off the
      ladder;
    * a step at or beyond gap, the distance to the next snapshot time or
      t_end, within 1e-12 relative, lands on that target: "landing".  It
      is cut to gap only where gap is shorter by more than 1e-12
      relative, so a fixed-dt run whose last gap is dt up to rounding
      keeps dt, and the held LU, for its last step.
    """
    limit = ("dt_max" if dt == config.dt_max
             else "dt_min" if dt == config.dt_min else "controller")
    for cap, name in ((cfl, "cfl"), (reaction, "reaction")):
        if cap < dt:
            dt, limit = cap, name
    if dt < config.dt_min * (1 - 1e-12):
        return None, "stiff"
    if config.scheme != "explicit" and config.dt_min < dt < config.dt_max:
        mant, _ = math.frexp(config.dt_max)
        frac, exp = math.frexp(dt)
        dt = math.ldexp(mant, exp if mant <= frac else exp - 1)
        if dt < config.dt_min:
            dt, limit = config.dt_min, "dt_min"
    if dt >= gap * (1.0 - 1e-12):
        limit = "landing"
        if gap < dt * (1.0 - 1e-12):
            dt = gap
    return dt, limit


def _step_explicit(spec, field, dt, f, config, factors):
    rhs = laplacian_of_P(spec, field) + f
    return Field(field.grid, field.values + dt * rhs), 0


def _imex_operator(grid, coefs, dt):
    """I - dt L(A) for the face coefficients coefs, on the flux plan."""
    plan, data = _flux_data(grid, *coefs)
    return plan.backward_euler(data, dt)


def _step_imex(spec, field, dt, f, config, factors):
    coefs = face_coefficients(spec, field)
    M = factors.operator(dt, coefs,
                         lambda: _imex_operator(field.grid, coefs, dt))
    rhs = _flat(field.values + dt * f)
    x = spsolve(M, rhs, factors)
    if not np.all(np.isfinite(x)):
        return Field(field.grid, x.reshape(field.values.shape)), 0
    # the policy's |rhs - M x| where it has one; its bits are |M x - rhs|'s
    res = factors.residual
    if res is None:
        res = np.linalg.norm(M @ x - rhs)
    gate = config.linear_tol * (1.0 + np.linalg.norm(rhs))
    if res > gate:
        raise NumericalStateError(
            f"linear solve residual {res:.3e} exceeds tolerance")
    stats = factors.stats
    stats.worst_linear_residual = max(stats.worst_linear_residual or 0.0,
                                      float(res / gate))
    return Field(field.grid, x.reshape(field.values.shape)), 0


def _newton_operator(grid, A, dt):
    """The Newton Jacobian I - dt (I_m (x) L_1) A of the (m, m, Nx, Ny)
    cell matrices A, on the flux plan: each entry of the product is one
    product L_1[n, n'] A[c, d, n'], and exact zeros are dropped."""
    plan, l1, at = _product_plan(grid, A.shape[0])
    return plan.backward_euler(l1 * A.reshape(-1).take(at), dt)


def _step_newton(spec, field, dt, f, config, factors):
    g = field.grid
    L = component_laplacian(g, field.m)
    shape = field.values.shape
    uflat = _flat(field.values)
    rhs = uflat + dt * _flat(f)
    tol = config.newton_abs_tol + config.newton_rel_tol * np.linalg.norm(uflat)
    v = uflat.copy()
    solves = 0
    for _ in range(config.max_newton):
        V = v.reshape(shape)
        R = v - dt * (L @ _flat(eval_P(spec, V))) - rhs
        rn = np.linalg.norm(R)
        if not np.isfinite(rn):
            raise NewtonConvergenceError("non-finite Newton residual")
        if rn <= tol:
            return Field(g, V), solves
        A = eval_A(spec, V)
        J = factors.operator(dt, (A,), lambda: _newton_operator(g, A, dt))
        dv = spsolve(J, R, factors)
        if not np.all(np.isfinite(dv)):
            raise NewtonConvergenceError("singular Newton system")
        v = v - dv
        solves += 1
    raise NewtonConvergenceError(
        f"no convergence in {config.max_newton} iterations (residual {rn:.3e})")


_STEPPERS = {"explicit": _step_explicit, "imex": _step_imex, "newton": _step_newton}


def step(spec, field, dt, scheme="imex", config=None):
    """Advance one step of size dt; returns (new_field, newton_solves).

    The explicit scheme applies forward Euler as given (stability is the
    caller's concern); imex and newton treat diffusion implicitly and
    the reaction explicitly.
    """
    if not 0 < dt < np.inf:
        raise InputError("dt must be finite and positive")
    if scheme not in _STEPPERS:
        raise InputError(f"scheme must be one of {_SCHEMES}")
    if config is None:
        config = SolverConfig(scheme=scheme, dt0=dt, t_end=dt)
    return _STEPPERS[scheme](spec, field, dt, _reaction_term(spec, field),
                             config, _LaggedFactor(config.linear_tol, RunStats()))


def run(spec, field0, config, diagnostics=None):
    """Integrate from field0 to config.t_end; returns a Trajectory.

    Steps that fail (a NumericalStateError such as Newton breakdown or
    a linear residual over linear_tol, or non-finite values) are
    rejected, counted and retried with half the step until dt_min;
    persistent failure or a sup-norm beyond config.blowup_threshold
    terminates the run early with reason 'nonfinite' or 'blowup', and a
    stability cap falling below dt_min terminates with 'stiff'.  A
    field0 with non-finite values raises NumericalStateError before
    any step, whatever the scheme.  Records are taken at t=0, every
    record_every accepted steps, and at the final time; snapshots are
    stored exactly at the requested times.  The trajectory's stats is
    the RunStats that run() and its factor policy filled.  Each record
    is diagnostics.norms of the state with the s0, p_list and radii of
    diagnostics, a DiagnosticsConfig (its defaults when None).
    """
    _require_finite(field0)
    dc = diag_mod.DiagnosticsConfig() if diagnostics is None else diagnostics
    stepper = _STEPPERS[config.scheme]
    stats = RunStats()
    factors = _LaggedFactor(config.linear_tol, stats)

    u = field0.copy()
    t = 0.0
    dt = config.dt0
    # the snapshot times and t_end ahead of t, nearest first
    targets = [ts for ts in config.snapshot_times if 0.0 < ts < config.t_end]
    targets.append(config.t_end)

    times = []
    records = []
    states = [] if config.store_states else None

    def record(state, t):
        """Record state at t; returns its Du and A(u)."""
        grad = cell_gradient(state)
        A = eval_A(spec, state.values)
        records.append(diag_mod.norms(state, spec, t=t, s0=dc.s0,
                                      p_list=dc.p_list, R_list=dc.radii,
                                      grad=grad, A=A))
        times.append(t)
        if states is not None:
            states.append(state.copy())
        return grad, A

    # Du and A(u) of u, held while u is the state that record() took
    grad_u, A_u = record(u, 0.0)
    snapshots = {}
    for ts in config.snapshot_times:
        if ts <= 0.0:
            snapshots[ts] = u.copy()
    dt_hist = []
    newton_hist = []
    first_negative = None
    if (u.values < 0).any():
        first_negative = 0.0
    reason = "reached"
    f = None  # reaction term of u, evaluated once per accepted state
    accepted = 0

    while t < config.t_end - 1e-14 * config.t_end:
        if accepted >= config.max_steps:
            reason = "maxsteps"
            break
        while targets[0] <= t * (1 + 1e-14):
            del targets[0]
        cfl = (stable_dt(spec, u, config.cfl_safety, A=A_u)
               if config.scheme == "explicit" else np.inf)
        if f is None:
            f = _reaction_term(spec, u, grad_u)
        reaction = (np.inf if spec.reaction is None
                    else _reaction_dt_cap(f, u.values, config.cfl_safety))
        dt_try, limit = _step_size(config, dt, cfl, reaction, targets[0] - t)
        if dt_try is None:
            reason = "stiff"
            break

        try:
            new, nsolve = stepper(spec, u, dt_try, f, config, factors=factors)
            ok = bool(np.all(np.isfinite(new.values)))
        except NumericalStateError:
            ok = False
        if not ok:
            stats.rejected_steps += 1
            if dt_try <= config.dt_min * (1 + 1e-12):
                reason = "nonfinite"
                break
            dt = max(0.5 * dt_try, config.dt_min)
            continue

        u, f = new, None
        grad_u = A_u = None
        t = targets[0] if limit == "landing" else t + dt_try
        accepted += 1
        stats.dt_limits[limit] = stats.dt_limits.get(limit, 0) + 1
        dt_hist.append(dt_try)
        newton_hist.append(nsolve)
        if first_negative is None and (u.values < 0).any():
            first_negative = t

        sup = float(np.abs(u.values).max())
        if sup > config.blowup_threshold:
            reason = "blowup"
            break

        if limit == "landing" and t in config.snapshot_times:
            snapshots[t] = u.copy()
        at_end = t >= config.t_end * (1 - 1e-14)
        if accepted % config.record_every == 0 or at_end:
            grad_u, A_u = record(u, t)
        # a step clipped to land on a target must not shrink the pace
        dt = min(max(dt_try, dt) * 1.2, config.dt_max)

    if times[-1] != t:
        record(u, t)

    return Trajectory(
        times=np.array(times), records=records, final=u,
        terminated_reason=reason, states=states, snapshots=snapshots,
        dt_history=np.array(dt_hist),
        newton_history=np.array(newton_hist, dtype=int),
        first_negative_t=first_negative, stats=stats)
