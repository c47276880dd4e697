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
is built once per step size when A is constant.  run()
drives adaptive steps (halve on failure, grow 1.2x on success up to
dt_max), lands exactly on requested snapshot times and t_end, and
records norms along the way.  It evaluates the reaction term f(u, Du)
once per accepted state (and once for the initial state) and hands
that one array to the reaction step cap and to the stepper, also when
a rejected step is retried; the final state's f is never needed.

Every record is the NormRecord diagnostics.norms gives of the state
under the run's DiagnosticsConfig (s0, p_list, radii).  run() computes
a recorded state's cell-centre gradient Du (cell_gradient, (m, 2, Nx,
Ny)) and diffusion matrices A(u) (eval_A on the field's values, (m, m,
Nx, Ny)) once and hands both to norms, A(u) to the explicit step cap
stable_dt, and Du to the reaction term, also when a rejected step is
retried from that state.  A state that is not recorded (record_every >
1) has them computed where they are needed.  Every model evaluation
takes the (m, Nx, Ny) values as they are stored, with no transpose.

Every linear solve goes through spsolve(), which gives the bits of
scipy's spsolve(M, b, permc_spec="MMD_AT_PLUS_A") for a CSR matrix.
The fill-reducing ordering depends only on the sparsity pattern (Davis,
Direct Methods for Sparse Linear Systems, SIAM 2006, ch. 7), so it is
computed once per pattern (see _factor): the first LU of a pattern runs
MMD_AT_PLUS_A, and later ones factor the matrix with its columns
already in that order.  run()
hands the stepper one factor policy per run, and step() a fresh one.
The policy holds the last implicit operator it built and the LU of the
last operator it factored (never two LUs at once), and one rule decides
reuse: the operator is rebuilt unless dt and its coefficients (the face
coefficients (Ax, Ay) under IMEX, the cellwise A(v) under Newton) are
bit for bit those it was built from, and an LU is reused only for the
very operator object it was factored from.  An operator of a constant A
(a linear P) is thus assembled and factored once per step size.

* Newton (_LastFactor): any other operator is factored afresh, so
  every solve is an exact direct solve.
* IMEX (_LaggedFactor): I - dt L(A(u)) of a state-dependent A changes
  a little from step to step, so the held LU of an earlier step serves
  as a preconditioner while dt is unchanged (Knoll & Keyes, J. Comput.
  Phys. 193 (2004) 357).  The solution of the held LU is taken if its
  true residual |rhs - M x| is on target; otherwise GMRES with that LU
  as preconditioner (Saad, Iterative Methods for Sparse Linear
  Systems, 2nd ed., ch. 9) runs for at most _KRYLOV_MAXITER iterations
  and its result is taken under the same true-residual test.  The GMRES
  cycle (_gmres_cycle) is scipy's, run in place on the held LU's
  solution and residual, with the bits of scipy's gmres.  The
  target is 1e-3 * linear_tol * |rhs|, or the relative residual of the
  last direct solve times |rhs| where that is larger, so a linear_tol
  below roundoff does not rule out every lagged solve.  A missed target
  or a new dt drops the LU and factors M, which is then solved
  directly.  Under Neumann conditions every IMEX operator has unit
  column sums, so the held LU's inverse keeps the sum of a vector and
  the Krylov corrections conserve mass to roundoff.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dlartg

from . import diagnostics as diag_mod
from .errors import (InputError, NewtonConvergenceError, NumericalStateError,
                     whole_number)
from .grid import (Field, _flux_data, _product_plan, _require_finite,
                   cell_gradient, component_laplacian, face_coefficients,
                   laplacian_of_P, stable_dt)
from .model import eval_A, eval_P, eval_reaction

__all__ = ["SolverConfig", "Trajectory", "step", "run"]

_SCHEMES = ("explicit", "imex", "newton")


@dataclass(frozen=True)
class SolverConfig:
    """Scheme and step-control parameters for run().  A malformed
    number raises InputError: dt0, t_end or a tolerance that is not
    finite, a linear_tol that is not positive, a negative Newton
    tolerance, a blowup_threshold that is not positive (inf turns
    blowup detection off), or a max_steps, record_every or max_newton
    that is not a whole number of at least 1."""

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
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise InputError("need 0 < dt_min <= dt0 <= dt_max")
        if not (0 < self.cfl_safety <= 1):
            raise InputError("cfl_safety must lie in (0, 1]")
        object.__setattr__(self, "snapshot_times",
                           tuple(sorted({float(t) for t in self.snapshot_times})))


@dataclass
class Trajectory:
    """Output of run(): recorded norms, optional states, step history,
    and counts of rejected steps, implicit operators assembled, LU
    factorizations, linear solves and GMRES iterations.
    worst_linear_residual is the largest IMEX residual
    |M x - rhs| / (linear_tol (1 + |rhs|)) over the steps that passed
    that gate (None when no IMEX step did)."""

    times: np.ndarray
    records: list
    final: Field
    terminated_reason: str
    states: list | None = None
    snapshots: dict = dc_field(default_factory=dict)
    dt_history: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    newton_history: np.ndarray = dc_field(default_factory=lambda: np.zeros(0, dtype=int))
    first_negative_t: float | None = None
    assemblies: int = 0
    factorizations: int = 0
    linear_solves: int = 0
    rejected_steps: int = 0
    krylov_iterations: int = 0
    worst_linear_residual: float | None = None

    @property
    def reached_end(self):
        return self.terminated_reason == "reached"


# GMRES on a lagged LU runs at most this many iterations per solve.
_KRYLOV_MAXITER = 10
# A lagged solve is taken when |rhs - M x| <= _KRYLOV_RTOL * linear_tol
# * |rhs|, a thousandth of the gate of _step_imex, so lagged steps stay
# close to the accuracy of a direct solve.
_KRYLOV_RTOL = 1e-3
# The orderings of at most this many sparsity patterns are kept.
_ORDERINGS_MAX = 16


def _bits(a):
    return a.view(np.uint8)


class _LastFactor:
    """Factor policy of one run: the last operator it built, with the dt
    and coefficient arrays it was built from, and the LU of the last
    operator it factored, with the counts of that run: operators built,
    factorizations, linear solves, GMRES iterations, and the worst IMEX
    residual relative to its gate.  residual is the true residual norm
    |rhs - M x| of the last solve where the policy computed one, else
    None.  The coefficient arrays and operators are held, not copied, so
    callers must not change them in place."""

    def __init__(self):
        self.dt = None
        self.coefs = ()
        self.built = None
        self.factored = None
        self.lu = None
        self.assemblies = 0
        self.factorizations = 0
        self.solves = 0
        self.krylov_iterations = 0
        self.worst_residual = None
        self.residual = None

    def operator(self, dt, coefs, build):
        """The held operator while dt and every array in coefs are bit
        for bit the ones it was built from; otherwise build() and hold
        that."""
        if not (self.built is not None and dt == self.dt and all(
                np.array_equal(_bits(a), _bits(b))
                for a, b in zip(coefs, self.coefs))):
            self.built = build()
            self.assemblies += 1
            self.dt, self.coefs = dt, coefs
        return self.built

    def refactor(self, M):
        # drop the old LU before factoring, so two are never held at once
        self.factored = self.lu = None
        self.factorizations += 1
        self.lu = _factor(M)
        if self.lu is not None:
            self.factored = M
        return self.lu

    def solve(self, M, rhs):
        return _lu_solve(self.lu if M is self.factored else self.refactor(M),
                         rhs)


class _LaggedFactor(_LastFactor):
    """IMEX factor policy: the held LU of an earlier step preconditions
    GMRES while dt is unchanged (see the module docstring).  M must be
    the operator this policy built last, whose dt is self.dt."""

    def __init__(self, linear_tol):
        super().__init__()
        self.rtol = _KRYLOV_RTOL * linear_tol
        self.lu_dt = None  # dt of the operator the held LU was factored from
        self.floor = 0.0  # relative residual of the last direct solve

    def solve(self, M, rhs):
        if M is self.factored:
            return self.lu.solve(rhs)
        if self.lu is not None and self.dt == self.lu_dt:
            x = self._krylov(M, rhs)
            if x is not None:
                return x
        self.lu_dt = self.dt
        x = _lu_solve(self.refactor(M), rhs)
        norm = np.linalg.norm(rhs)
        self.residual = np.linalg.norm(rhs - M @ x)
        self.floor = self.residual / norm if norm > 0 else 0.0
        return x

    def _krylov(self, M, rhs):
        """x with |rhs - M x| on target, or None."""
        lu = self.lu
        target = max(self.rtol, self.floor) * np.linalg.norm(rhs)
        x = lu.solve(rhs)
        r = rhs - M @ x
        self.residual = np.linalg.norm(r)
        if self.residual <= target:
            return x
        x, iterations, self.residual = _gmres_cycle(
            M, lu.solve, rhs, x, r, np.linalg.norm(x), target)
        self.krylov_iterations += iterations
        return x if self.residual <= target else None


def _gmres_cycle(M, psolve, b, x, r, mb_norm, atol):
    """One restart cycle of left-preconditioned GMRES on M x = b, run
    in place on x: returns (x, iterations, |b - M x|).

    A port of gmres from scipy.sparse.linalg._isolve (Copyright (c)
    2001-2002 Enthought, Inc. 2003, SciPy Developers; BSD-3-Clause) for
    restart=_KRYLOV_MAXITER, maxiter=1, rtol=0 and atol=atol, which does
    the same float operations in the same order (modified Gram-Schmidt,
    LAPACK's lartg Givens rotations, the same back-substitution and
    y @ v), so x and the iteration count are gmres(M, b, x0=x, rtol=0.0,
    atol=atol, restart=_KRYLOV_MAXITER, maxiter=1, M=psolve)'s bit for
    bit.  The caller hands in what it already holds: the residual
    r = b - M @ x, with |r| > atol (gmres returns before its cycle
    otherwise), and the norm of psolve(b), where psolve applies the
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
        presid = abs(tmp)
        if presid <= ptol or breakdown:
            break

    if h[col, col] == 0:
        S[col] = 0
    y = S[:col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    x += y @ v[:col + 1]
    return x, col + 1, np.linalg.norm(b - M @ x)


class _LU:
    """A SuperLU of the transpose of a CSR matrix M (its arrays read as
    a CSC), and the gather that puts a right-hand side into the order
    of the LU's columns (None when the LU has its own ordering)."""

    __slots__ = ("lu", "rows")

    def __init__(self, lu, rows=None):
        self.lu, self.rows = lu, rows

    def solve(self, rhs):
        """x with M x = rhs."""
        if self.rows is not None:
            rhs = rhs.take(self.rows)
        return self.lu.solve(rhs, trans="T")


class _Ordering:
    """The fill-reducing column order of one CSR pattern, as read-only
    indices into its arrays: the matrix's CSC with its columns in that
    order has indptr indptr and takes its data and indices at gather
    (both int32), and a right-hand side is gathered at rows (intp, as
    take wants it on every solve)."""

    __slots__ = ("indptr", "gather", "rows")

    def __init__(self, indptr, perm_c):
        rows = np.empty(perm_c.size, dtype=np.intp)
        rows[perm_c] = np.arange(perm_c.size)
        lengths = np.diff(indptr).take(rows)
        self.indptr = np.zeros(rows.size + 1, dtype=np.intc)
        np.cumsum(lengths, out=self.indptr[1:])
        self.gather = (np.repeat(indptr[:-1].take(rows) - self.indptr[:-1],
                                 lengths)
                       + np.arange(self.indptr[-1], dtype=np.intc))
        self.rows = rows
        for a in (self.indptr, self.gather, self.rows):
            a.flags.writeable = False


# pattern key -> _Ordering, oldest first; shared by threads, so entries
# are read-only and the dict is touched under the lock
_orderings = {}
_orderings_lock = threading.Lock()


def _pattern_key(M):
    """The exact sparsity pattern of the CSR matrix M, as a dict key."""
    return (M.shape, np.asarray(M.indptr, dtype=np.intc).tobytes(),
            np.asarray(M.indices, dtype=np.intc).tobytes())


def _factor(M):
    """The _LU of the CSR matrix M, whose arrays are read as the CSC of
    its transpose (as scipy's spsolve does); None if exactly singular.

    The first factorization of a sparsity pattern runs SuperLU's
    fill-reducing MMD_AT_PLUS_A column ordering, and _orderings keeps
    the post-ordered lu.perm_c that SuperLU leaves, keyed on the exact
    pattern.  Every later factorization of that pattern gathers its data
    into the CSC with the columns in that order and factors it with the
    NATURAL ordering, whose post-order then leaves the columns where
    they are.  Only columns move, so SuperLU meets the entries of each
    column in the same order and does the same eliminations.  Its
    diagonal pivot preference now looks at row j of column j instead of
    the column's own diagonal; at the default threshold of 1.0 that
    matters only where two entries tie for a pivot column's largest
    magnitude, so solves give the bits of the MMD_AT_PLUS_A LU.
    """
    key = _pattern_key(M)
    with _orderings_lock:
        order = _orderings.get(key)
    try:
        if order is None:
            lu = spla.splu(sp.csc_array((M.data, M.indices, M.indptr),
                                        shape=M.shape),
                           permc_spec="MMD_AT_PLUS_A")
            order = _Ordering(np.asarray(M.indptr, dtype=np.intc), lu.perm_c)
            with _orderings_lock:
                if key not in _orderings:
                    if len(_orderings) >= _ORDERINGS_MAX:
                        del _orderings[next(iter(_orderings))]
                    _orderings[key] = order
            return _LU(lu)
        lu = spla.splu(sp.csc_array((M.data.take(order.gather),
                                     M.indices.take(order.gather),
                                     order.indptr), shape=M.shape),
                       permc_spec="NATURAL")
        return _LU(lu, order.rows)
    except RuntimeError as e:
        if "singular" not in str(e):
            raise
        return None


def _lu_solve(lu, rhs):
    if lu is None:
        return np.full(np.shape(rhs), np.nan)
    return lu.solve(rhs)


def spsolve(M, rhs, factors):
    """Solve M x = rhs for a square CSR matrix M with the factor policy
    factors.

    With a _LastFactor the result is an exact direct solve, bit for bit
    that of scipy's spsolve(M, rhs, permc_spec="MMD_AT_PLUS_A"), though
    the ordering runs only on the first LU of each sparsity pattern
    (see _factor); the LU is reused when M is the very operator it was
    factored from.  With a _LaggedFactor, M is the operator the policy
    built last; it is solved directly with the held LU if that LU was
    factored from M, and otherwise may be solved by the held LU, or one
    in-place GMRES cycle on it with scipy's bits, to a true residual
    |rhs - M x| at most 1e-3 * linear_tol * |rhs|, or at most that of
    the last direct solve relative to its |rhs| (see the module
    docstring).  All NaN if M is exactly singular.
    """
    M.sum_duplicates()
    factors.solves += 1
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
    Jacobian's action along u, and p = 1 + kappa <= 2 for the
    competitive term G(u) u of a ReactionSpec with kappa <= 1.  The
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
    factors.worst_residual = max(factors.worst_residual or 0.0,
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
    if dt <= 0:
        raise InputError("dt must be positive")
    if scheme not in _STEPPERS:
        raise InputError(f"scheme must be one of {_SCHEMES}")
    if config is None:
        config = SolverConfig(scheme=scheme, dt0=dt, t_end=dt)
    return _STEPPERS[scheme](spec, field, dt, _reaction_term(spec, field),
                             config, _LastFactor())


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
    stored exactly at the requested times.  The trajectory counts the
    rejected steps, the implicit operators the factor policy built
    (assemblies), and the factorizations, linear solves and GMRES
    iterations that ran.  Each record is diagnostics.norms of the state
    with the s0, p_list and radii of diagnostics, a DiagnosticsConfig
    (its defaults when None).
    """
    _require_finite(field0)
    dc = diag_mod.DiagnosticsConfig() if diagnostics is None else diagnostics
    stepper = _STEPPERS[config.scheme]
    if config.scheme == "imex":
        factors = _LaggedFactor(config.linear_tol)
    else:
        factors = _LastFactor()

    u = field0.copy()
    t = 0.0
    dt = min(config.dt0, config.dt_max)
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
    rejected = 0
    tptr = 0

    while t < config.t_end - 1e-14 * config.t_end:
        if accepted >= config.max_steps:
            reason = "maxsteps"
            break
        while tptr < len(targets) and targets[tptr] <= t * (1 + 1e-14):
            tptr += 1
        dt_base = dt
        dt_try = dt
        if config.scheme == "explicit":
            dt_try = min(dt_try, stable_dt(spec, u, config.cfl_safety, A=A_u))
        if f is None:
            f = _reaction_term(spec, u, grad_u)
        if spec.reaction is not None:
            dt_try = min(dt_try, _reaction_dt_cap(f, u.values, config.cfl_safety))
        if dt_try < config.dt_min * (1 - 1e-12):
            # the state demands a step below the configured floor
            reason = "stiff"
            break
        landed = None
        if tptr < len(targets):
            gap = targets[tptr] - t
            if dt_try >= gap * (1.0 - 1e-12):
                dt_try = gap
                landed = targets[tptr]

        try:
            new, nsolve = stepper(spec, u, dt_try, f, config, factors=factors)
            ok = bool(np.all(np.isfinite(new.values)))
        except NumericalStateError:
            ok = False
            new = None
        if not ok:
            rejected += 1
            if dt_try <= config.dt_min * (1 + 1e-12):
                reason = "nonfinite"
                break
            dt = max(0.5 * dt_try, config.dt_min)
            continue

        t_new = landed if landed is not None else t + dt_try
        u, f = new, None
        grad_u = A_u = None
        t = t_new
        accepted += 1
        dt_hist.append(dt_try)
        newton_hist.append(nsolve)
        if first_negative is None and (u.values < 0).any():
            first_negative = t

        sup = float(np.abs(u.values).max())
        if sup > config.blowup_threshold:
            reason = "blowup"
            break

        if landed is not None and landed in config.snapshot_times:
            snapshots[landed] = u.copy()
        at_end = t >= config.t_end * (1 - 1e-14)
        if accepted % config.record_every == 0 or at_end:
            grad_u, A_u = record(u, t)
        if landed is not None:
            tptr += 1
        # a step clipped to land on a target must not shrink the pace
        dt = min(max(dt_try, min(dt_base, config.dt_max)) * 1.2, config.dt_max)

    if times[-1] != t:
        record(u, t)

    return Trajectory(
        times=np.array(times), records=records, final=u,
        terminated_reason=reason, states=states, snapshots=snapshots,
        dt_history=np.array(dt_hist),
        newton_history=np.array(newton_hist, dtype=int),
        first_negative_t=first_negative,
        assemblies=factors.assemblies,
        factorizations=factors.factorizations,
        linear_solves=factors.solves, rejected_steps=rejected,
        krylov_iterations=factors.krylov_iterations,
        worst_linear_residual=factors.worst_residual)
