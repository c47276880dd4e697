"""Cell-centered finite volumes on a rectangle.

States live at cell centers of a uniform Nx x Ny grid over
[0, Lx] x [0, Ly].  Every diffusion operator is one sparse face-flux
matrix: each face carries a coefficient matrix times the two-point
normal difference of its cells, and a cell's row is the divergence of
its face fluxes.  Boundary conditions act through ghost cells (mirror
for no-flux, odd reflection for zero-Dirichlet), which the matrix
folds into its boundary rows.  flux_operator assembles Div(A Du) from
face coefficients through a plan cached per (grid, m): the canonical
CSR pattern, the diagonal positions, and a table that gathers each
entry's face terms from the raw face arrays, added in face-block order,
with no COO matrix, sort or conversion.  Both implicit operators, IMEX
and Newton, are I - dt L filled on this plan.  The component Laplacian
I_m (x) L_1, built from unit coefficients, is cached per (grid, m) too.
The quasilinear operator Div(A(u) Du) and the fully nonlinear form
Lap(P(u)) = (I_m (x) L_1) P(u) are both products with these matrices.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalStateError, number, whole_number
from .model import _opnorms, eval_A, eval_P

__all__ = [
    "Grid2D",
    "Field",
    "build_grid",
    "cell_gradient",
    "laplacian_of_P",
    "div_A_grad",
    "face_coefficients",
    "flux_operator",
    "component_laplacian",
    "stable_dt",
    "save_snapshot",
    "load_snapshot",
]

_BCS = ("neumann", "dirichlet")


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered grid on [0, Lx] x [0, Ly].  The side lengths
    must be numbers and the cell counts whole numbers (2.0 counts, 2.5,
    True and "8" do not)."""

    Lx: float
    Ly: float
    Nx: int
    Ny: int
    bc: str = "neumann"

    def __post_init__(self):
        object.__setattr__(self, "Lx", number(self.Lx, "Lx"))
        object.__setattr__(self, "Ly", number(self.Ly, "Ly"))
        if not (0 < self.Lx < np.inf and 0 < self.Ly < np.inf):
            raise InputError("domain side lengths must be finite and positive")
        object.__setattr__(self, "Nx", whole_number(self.Nx, "cell count Nx"))
        object.__setattr__(self, "Ny", whole_number(self.Ny, "cell count Ny"))
        if self.Nx < 2 or self.Ny < 2:
            raise InputError("need at least 2 cells per direction")
        if self.bc not in _BCS:
            raise InputError(f"bc must be one of {_BCS}")

    @property
    def hx(self):
        return self.Lx / self.Nx

    @property
    def hy(self):
        return self.Ly / self.Ny

    @property
    def cell_area(self):
        return self.hx * self.hy

    @property
    def shape(self):
        return (self.Nx, self.Ny)

    @property
    def xs(self):
        return (np.arange(self.Nx) + 0.5) * self.hx

    @property
    def ys(self):
        return (np.arange(self.Ny) + 0.5) * self.hy

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def flat_index(self, c, i, j):
        """Unknown index of component c at cell (i, j): values.ravel()
        order, c * Nx * Ny + i * Ny + j."""
        return (c * self.Nx + i) * self.Ny + j


def build_grid(Lx, Ly, Nx, Ny, bc="neumann"):
    """Construct a Grid2D; bc is 'neumann' (no-flux) or 'dirichlet'."""
    return Grid2D(Lx, Ly, Nx, Ny, bc)


@dataclass
class Field:
    """m-component cell-centered state with values of shape (m, Nx, Ny)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1:] != self.grid.shape or v.shape[0] < 1:
            raise InputError(f"values must have shape (m, {self.grid.Nx}, "
                             f"{self.grid.Ny}) with m >= 1")
        self.values = v

    @property
    def m(self):
        return self.values.shape[0]

    @classmethod
    def from_function(cls, grid, m, fn):
        X, Y = grid.meshgrid()
        vals = np.stack([np.broadcast_to(np.asarray(fn(c, X, Y), dtype=float),
                                         grid.shape).copy()
                         for c in range(m)])
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid, const):
        const = np.atleast_1d(np.asarray(const, dtype=float))
        vals = np.broadcast_to(const[:, None, None],
                               (const.size,) + grid.shape).copy()
        return cls(grid, vals)

    def copy(self):
        return Field(self.grid, self.values.copy())


def _pad(values, bc):
    """Add one ghost layer per side to (m, Nx, Ny) values.

    neumann: mirror (ghost = adjacent interior), so two-point normal
    differences vanish at the boundary.  dirichlet: odd reflection
    (ghost = -interior), so the face value (ghost+interior)/2 is an
    exact zero.  Corner ghosts are never read and are left at 0.
    """
    m, Nx, Ny = values.shape
    out = np.zeros((m, Nx + 2, Ny + 2))
    out[:, 1:-1, 1:-1] = values
    s = 1.0 if bc == "neumann" else -1.0
    out[:, 0, 1:-1] = s * values[:, 0, :]
    out[:, -1, 1:-1] = s * values[:, -1, :]
    out[:, 1:-1, 0] = s * values[:, :, 0]
    out[:, 1:-1, -1] = s * values[:, :, -1]
    return out


def cell_gradient(field):
    """Central-difference gradient at cell centers, shape (m, 2, Nx, Ny).

    Ghost layers follow the grid's boundary condition, so for no-flux
    the normal component is exactly 0 on boundary cells.  Interior
    accuracy is O(h^2); boundary-cell accuracy is O(h) for smooth
    fields compatible with the boundary condition.
    """
    g = field.grid
    p = _pad(field.values, g.bc)
    gx = (p[:, 2:, 1:-1] - p[:, :-2, 1:-1]) / (2.0 * g.hx)
    gy = (p[:, 1:-1, 2:] - p[:, 1:-1, :-2]) / (2.0 * g.hy)
    return np.stack([gx, gy], axis=1)


class _FluxPlan:
    """How face coefficients fill the flux operator of m components on a
    grid: its canonical CSR pattern and a gather table into the face
    arrays.  _flux_plan builds one per (grid, m) and shares it, threads
    included, so its arrays are read-only; matrices made from it share
    indptr and indices, and drop entries only on copies.

    Each interior face contributes a paired (+w, -w) four-entry block
    coupling its two cells, so with no-flux boundaries every column of
    the operator sums to zero, which is what makes backward-Euler steps
    conservative.  Dirichlet boundary faces contribute -2w on the
    diagonal block (odd-reflection ghosts).  Several blocks meet at a
    diagonal block, and an entry there is their sum in face-block order
    (x faces, y faces, Dirichlet faces), so the diagonal blocks of A = I
    are L_1's entries bit for bit at every m.

    * indptr, indices: the canonical (sorted, summed) pattern;
    * gather: (k, nnz) positions in the signed source vector that
      data() fills (the face values w / h^2 of each face block in the
      (m, m, faces) order of the face arrays, 0.0, then their
      negations), k being the most blocks at one entry; shorter sums
      are padded with -0.0, which adds exactly nothing, also to -0.0;
    * eye: the identity's data on the pattern, 1.0 at the diagonal
      positions.
    """

    __slots__ = ("n", "indptr", "indices", "gather", "eye", "_faces", "_size")

    def __init__(self, grid, m):
        Nx, Ny = grid.Nx, grid.Ny
        N = Nx * Ny
        n = self.n = m * N
        hx2, hy2 = grid.hx ** 2, grid.hy ** 2
        # the face arrays in source order, as (0 for Ax or 1 for Ay,
        # index into their (m, m, x, y) layout, factor, h^2) with their
        # blocks (row cells, column cells, sign); a block's entries run
        # over (m, m, faces)
        fi, j = np.meshgrid(np.arange(1, Nx), np.arange(Ny), indexing="ij")
        xL, xR = ((fi - 1) * Ny + j).ravel(), (fi * Ny + j).ravel()
        i, fj = np.meshgrid(np.arange(Nx), np.arange(1, Ny), indexing="ij")
        yB, yT = (i * Ny + fj - 1).ravel(), (i * Ny + fj).ravel()
        faces = [(0, np.s_[:, :, 1:-1], 1.0, hx2,
                  ((xL, xR, 1), (xL, xL, -1), (xR, xR, -1), (xR, xL, 1))),
                 (1, np.s_[:, :, :, 1:-1], 1.0, hy2,
                  ((yB, yT, 1), (yB, yB, -1), (yT, yT, -1), (yT, yB, 1)))]
        if grid.bc == "dirichlet":
            jj, ii = np.arange(Ny), np.arange(Nx)
            for axis, index, cells, h2 in (
                    (0, np.s_[:, :, 0], jj, hx2),
                    (0, np.s_[:, :, -1], (Nx - 1) * Ny + jj, hx2),
                    (1, np.s_[:, :, :, 0], ii * Ny, hy2),
                    (1, np.s_[:, :, :, -1], ii * Ny + Ny - 1, hy2)):
                faces.append((axis, index, -2.0, h2, ((cells, cells, 1),)))
        a = np.arange(m)[:, None, None]
        b = np.arange(m)[None, :, None]
        rows, cols, src = [], [], []  # src: source position + 1, signed
        size = 0
        for *_, blocks in faces:
            F = blocks[0][0].size
            at = size + (a * m + b) * F + np.arange(F)  # (m, m, F)
            for rc, cc, sign in blocks:
                rows.append(np.broadcast_to(a * N + rc, at.shape).ravel())
                cols.append(np.broadcast_to(b * N + cc, at.shape).ravel())
                src.append(sign * (at.ravel() + 1))
            size += F * m * m
        self._faces = tuple(f[:4] for f in faces)
        self._size = size
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        src = np.concatenate(src)
        src = np.where(src > 0, src - 1, size - src)

        # a stable sort by (row, column) keeps each entry's terms in
        # source order, which is the order data() adds them in
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        first = np.ones(c.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        position = np.cumsum(first) - 1
        rank = np.arange(c.size) - np.flatnonzero(first)[position]
        self.gather = np.full((rank.max() + 1, position[-1] + 1), 2 * size + 1)
        self.gather[rank, position] = src[order]
        # the index dtype scipy picks
        index = np.int32 if max(n, c.size) < 2 ** 31 else np.int64
        self.indices = c[first].astype(index)
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(r[first], minlength=n), out=self.indptr[1:])
        self.eye = (self.indices == r[first]).astype(float)
        for arr in (self.indptr, self.indices, self.gather, self.eye):
            arr.flags.writeable = False

    def data(self, Ax, Ay):
        """The operator's CSR data for face coefficients (Ax, Ay): each
        entry is its k gathered face values added in order."""
        size = self._size
        src = np.empty(2 * size + 2)
        at = 0
        for axis, index, factor, h2 in self._faces:
            w = (Ax, Ay)[axis][index]
            if factor != 1.0:
                w = factor * w
            np.divide(w, h2, out=src[at:at + w.size].reshape(w.shape))
            at += w.size
        src[size] = 0.0
        np.negative(src[:size + 1], out=src[size + 1:])
        data = src.take(self.gather[0])
        for row in self.gather[1:]:
            data += src.take(row)
        return data

    def backward_euler(self, data, dt):
        """I - dt L for the operator L with these data, with the bits of
        scipy's identity(n) - dt * L: each entry is eye - data * dt, and
        exact zeros are dropped, as the sparse subtraction drops them
        (whole off-diagonal blocks are zero for a diagonal A)."""
        vals = self.eye - data * dt
        keep = vals != 0
        if keep.all():
            return sp.csr_matrix((vals, self.indices, self.indptr),
                                 shape=(self.n, self.n))
        kept = np.concatenate(([0], np.cumsum(keep)))
        return sp.csr_matrix(
            (vals[keep], self.indices[keep],
             kept[self.indptr].astype(self.indptr.dtype)),
            shape=(self.n, self.n))


@functools.lru_cache(maxsize=16)
def _flux_plan(grid, m):
    return _FluxPlan(grid, m)


@functools.lru_cache(maxsize=16)
def _product_plan(grid, m):
    """(plan, l1, at) that fill (I_m (x) L_1) A for (m, m, Nx, Ny) cell
    matrices A on the flux plan: its entry (c N + n, d N + n') is the
    one product L_1[n, n'] A[c, d, n'] = l1 * A.ravel()[at].  l1 is the
    plan's data for unit face coefficients, which adds L_1's terms in
    L_1's order; l1 and at are read-only."""
    plan = _flux_plan(grid, m)
    l1 = plan.data(np.ones((m, m, grid.Nx + 1, grid.Ny)),
                   np.ones((m, m, grid.Nx, grid.Ny + 1)))
    c = np.repeat(np.arange(plan.n) // (grid.Nx * grid.Ny),
                  np.diff(plan.indptr))
    at = c * plan.n + plan.indices
    l1.flags.writeable = at.flags.writeable = False
    return plan, l1, at


def _flux_data(grid, Ax, Ay):
    """(plan, data): the flux operator's plan and CSR data for face
    coefficients with the shapes face_coefficients returns, checked."""
    Nx, Ny = grid.Nx, grid.Ny
    Ax, Ay = np.asarray(Ax), np.asarray(Ay)
    m = Ax.shape[0] if Ax.ndim == 4 else 0
    if (m < 1 or Ax.shape != (m, m, Nx + 1, Ny)
            or Ay.shape != (m, m, Nx, Ny + 1)):
        raise InputError(
            f"face coefficients must have shapes (m, m, Nx+1, Ny) = "
            f"(m, m, {Nx + 1}, {Ny}) and (m, m, Nx, Ny+1) = (m, m, {Nx}, "
            f"{Ny + 1}) with the same m >= 1; got {Ax.shape} and {Ay.shape}")
    plan = _flux_plan(grid, m)
    return plan, plan.data(Ax, Ay)


def flux_operator(grid, Ax, Ay):
    """Sparse Div(A Du) on component-major vectors (values.ravel()
    order) from face coefficients with the shapes face_coefficients
    returns, (m, m, Nx+1, Ny) and (m, m, Nx, Ny+1); other shapes raise
    InputError.  Its indptr and indices are the cached plan's, which
    are read-only."""
    plan, data = _flux_data(grid, Ax, Ay)
    return sp.csr_matrix((data, plan.indices, plan.indptr),
                         shape=(plan.n, plan.n))


@functools.lru_cache(maxsize=16)
def component_laplacian(grid, m):
    """I_m (x) L_1: the 5-point Laplacian acting on each of m components.

    Built once per (grid, m) and shared by every caller, threads
    included, so its arrays are read-only."""
    L1 = flux_operator(grid, np.ones((1, 1, grid.Nx + 1, grid.Ny)),
                       np.ones((1, 1, grid.Nx, grid.Ny + 1)))
    L = sp.kron(sp.identity(m, format="csr"), L1, format="csr")
    for arr in (L.data, L.indices, L.indptr):
        arr.flags.writeable = False
    return L


def _require_finite(field):
    if not np.all(np.isfinite(field.values)):
        raise NumericalStateError("state contains non-finite values")


def laplacian_of_P(spec, field):
    """Discrete Lap(P(u)) = (I_m (x) L_1) P(u): P is applied pointwise
    and the ghost rule to P(u) itself.  Since P(0) = 0, zero-Dirichlet
    data for u gives zero-Dirichlet data for P(u), and mirror ghosts
    commute with pointwise maps.  Returns (m, Nx, Ny)."""
    _require_finite(field)
    w = eval_P(spec, field.values)
    return (component_laplacian(field.grid, field.m) @ w.ravel()).reshape(w.shape)


def face_coefficients(spec, field):
    """A evaluated at arithmetic face averages of the padded state.

    Returns (coef_x, coef_y) with shapes (m, m, Nx+1, Ny) and
    (m, m, Nx, Ny+1).  With odd Dirichlet ghosts the boundary face
    average is exactly 0, so boundary faces carry A(0)."""
    g = field.grid
    p = _pad(field.values, g.bc)
    ux = 0.5 * (p[:, 1:, 1:-1] + p[:, :-1, 1:-1])
    uy = 0.5 * (p[:, 1:-1, 1:] + p[:, 1:-1, :-1])
    return eval_A(spec, ux), eval_A(spec, uy)


def div_A_grad(spec, field):
    """Discrete Div(A(u) Du) with face-averaged coefficients.

    Identical to laplacian_of_P when P is the identity map.  Returns
    (m, Nx, Ny)."""
    _require_finite(field)
    L = flux_operator(field.grid, *face_coefficients(spec, field))
    return (L @ field.values.ravel()).reshape(field.values.shape)


def stable_dt(spec, field, cfl=0.9, *, A=None):
    """Explicit-step bound cfl * min(hx, hy)^2 / (8 * max ||A(u)||).

    The operator norm is maximized over cell values of the current
    state; 8 = 2 * 4 covers the two space directions of the 5-point
    stencil with a matrix diffusion coefficient.  The norm comes from
    model._opnorms: closed form for m = 2, LAPACK's SVD otherwise.
    A, when given, must be eval_A(spec, field.values), the (m, m, Nx, Ny)
    cell-centre A(u) a caller already holds (solver.run() passes the one
    it computed to record the state); otherwise it is evaluated here.
    A non-finite state raises NumericalStateError, as does a state
    whose A(u) overflows."""
    _require_finite(field)
    g = field.grid
    if A is None:
        A = eval_A(spec, field.values)
    s = float(_opnorms(A).max())
    if not np.isfinite(s):
        raise NumericalStateError("diffusion matrix norm is not finite")
    if s <= 0:
        raise InputError("state has vanishing diffusion; no stable step exists")
    h = min(g.hx, g.hy)
    return float(cfl) * h * h / (8.0 * s)


def save_snapshot(path, field, fmt="csv"):
    """Write a field with the plain-text header `m Nx Ny Lx Ly`.

    csv: header line then one row per cell in component-major raveled
    order, 17 significant digits.  bin: header line (ASCII, newline
    terminated) followed by raw little-endian float64 values in the
    same order."""
    g = field.grid
    header = f"{field.m} {g.Nx} {g.Ny} {g.Lx:.17g} {g.Ly:.17g}\n"
    flat = field.values.ravel()
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(header)
            for v in flat:
                fh.write(f"{v:.17g}\n")
    elif fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(flat.astype("<f8").tobytes())
    else:
        raise InputError(f"unknown snapshot format {fmt!r}")


def load_snapshot(path, bc="neumann", fmt=None):
    """Read a snapshot written by save_snapshot.  Without fmt the format
    comes from a .csv or .bin extension; the payload cannot tell them
    apart (a csv payload can have the byte count of a bin one)."""
    if fmt is None:
        fmt = os.path.splitext(path)[1].lower().lstrip(".")
    if fmt not in ("csv", "bin"):
        raise InputError(f"unknown snapshot format {fmt!r} for {path}: pass "
                         "fmt='csv' or 'bin', or use a .csv or .bin extension")
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        parts = header.decode("ascii").split()
        # unpacking also rejects a header without exactly five fields
        m, Nx, Ny = (int(p) for p in parts[:3])
        Lx, Ly = (float(p) for p in parts[3:])
    except ValueError:
        raise InputError(f"snapshot header of {path} must be `m Nx Ny Lx Ly`"
                         ) from None
    count = m * Nx * Ny
    if fmt == "bin":
        if len(payload) != 8 * count:
            raise InputError("snapshot payload has the wrong byte count")
        flat = np.frombuffer(payload, dtype="<f8").astype(float)
    else:
        try:
            flat = np.array([float(x) for x in payload.decode("ascii").split()])
        except ValueError:
            raise InputError(f"snapshot payload of {path} is not ASCII numbers "
                             "(is it a bin snapshot?)") from None
        if flat.size != count:
            raise InputError("snapshot payload has the wrong value count")
    grid = Grid2D(Lx, Ly, Nx, Ny, bc)
    return Field(grid, flat.reshape(m, Nx, Ny))
