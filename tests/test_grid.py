import math
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st

import crossdiff.solver as solver_mod
from crossdiff import (Field, InputError, LambdaSpec, ModelSpec,
                       NumericalStateError, PolynomialMap, SolverConfig,
                       build_grid, cell_gradient, classic_skt, div_A_grad,
                       eval_A, initial_field, laplacian_of_P, load_snapshot,
                       run, save_snapshot, stable_dt)
from crossdiff.grid import _flux_plan, component_laplacian, flux_operator

from conftest import eigenmode_field, smooth_field


def dirichlet_mode_eigenvalue(grid):
    """Exact 5-point eigenvalue of sin(pi x/Lx) sin(pi y/Ly) under odd
    ghost reflection: sum over directions of (4/h^2) sin^2(pi h/(2L))."""
    return (4.0 / grid.hx ** 2 * math.sin(math.pi * grid.hx / (2 * grid.Lx)) ** 2
            + 4.0 / grid.hy ** 2 * math.sin(math.pi * grid.hy / (2 * grid.Ly)) ** 2)


class TestBuildGrid:
    def test_unit_square_spacing(self):
        g = build_grid(1.0, 1.0, 16, 16, "neumann")
        assert g.hx == 1.0 / 16.0 and g.hy == 1.0 / 16.0

    def test_anisotropic_counts_equal_spacing(self):
        g = build_grid(2.0, 1.0, 10, 5, "dirichlet")
        assert g.hx == pytest.approx(0.2) and g.hy == pytest.approx(0.2)

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 1, 8, "neumann"),
        (1.0, 1.0, 8, 1, "neumann"),
        (0.0, 1.0, 8, 8, "neumann"),
        (1.0, -2.0, 8, 8, "neumann"),
        (1.0, 1.0, 8, 8, "periodic"),
        # a truncated cell count would run on a different grid
        (1.0, 1.0, 32.5, 8, "neumann"),
        (1.0, 1.0, 8, 2.7, "neumann"),
        (1.0, 1.0, True, 8, "neumann"),
        (1.0, 1.0, 8, math.inf, "neumann"),
        (1.0, 1.0, math.nan, 8, "neumann"),
        (math.inf, 1.0, 8, 8, "neumann"),
        (1.0, math.nan, 8, 8, "neumann"),
    ])
    def test_invalid_inputs(self, args):
        with pytest.raises(InputError):
            build_grid(*args)

    def test_whole_number_float_cell_count_accepted(self):
        g = build_grid(1.0, 1.0, 32.0, 3)
        assert g == build_grid(1.0, 1.0, 32, 3)
        assert type(g.Nx) is int and g.shape == (32, 3)

    def test_cell_centers(self):
        g = build_grid(1.0, 1.0, 4, 4)
        assert np.allclose(g.xs, [0.125, 0.375, 0.625, 0.875])

    def test_flat_index_matches_ravel(self):
        g = build_grid(1.0, 1.0, 3, 5)
        vals = np.arange(2 * 3 * 5, dtype=float).reshape(2, 3, 5)
        flat = vals.ravel()
        for (c, i, j) in [(0, 0, 0), (1, 2, 4), (0, 1, 3), (1, 0, 2)]:
            assert flat[g.flat_index(c, i, j)] == vals[c, i, j]


class TestField:
    def test_shape_checked(self, grid16n):
        with pytest.raises(InputError):
            Field(grid16n, np.zeros((16, 16)))
        with pytest.raises(InputError):
            Field(grid16n, np.zeros((1, 8, 16)))
        with pytest.raises(InputError, match="m >= 1"):
            Field(grid16n, np.zeros((0, 16, 16)))

    def test_constant(self, grid16n):
        f = Field.constant(grid16n, [2.0, -1.0])
        assert f.m == 2
        assert np.all(f.values[0] == 2.0) and np.all(f.values[1] == -1.0)
        assert f.values.shape == (2, 16, 16)

    def test_copy_is_independent(self, grid16n):
        f = Field.constant(grid16n, [1.0])
        g = f.copy()
        g.values[0, 0, 0] = 7.0
        assert f.values[0, 0, 0] == 1.0


class TestDiffusionOperators:
    def test_constant_field_maps_to_zero(self, skt, grid16n, grid16d):
        for grid in (grid16n,):
            f = Field.constant(grid, [1.5, 0.5])
            assert np.all(laplacian_of_P(skt, f) == 0.0)
            assert np.all(div_A_grad(skt, f) == 0.0)
        # Dirichlet constants are not compatible data, but both operators
        # must still agree for P = identity (below); only Neumann is zero.

    @given(bc=st.sampled_from(["neumann", "dirichlet"]), Nx=st.integers(2, 12),
           Ny=st.integers(2, 12), m=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_identity_P_operators_bit_identical(self, bc, Nx, Ny, m, seed):
        # A = I: the flux operator's diagonal blocks are L_1's entries,
        # added in the same order, and its off-diagonal blocks exact zeros.
        # From m = 3 on a row has over 16 entries, scipy's sort_indices
        # is no longer stable there, and a diagonal sum can take another
        # order than in L_1 (an ulp apart at m = 3 on 4x4 Neumann, seed 0)
        heat = ModelSpec(P=PolynomialMap.identity(m), lam=LambdaSpec(1.0))
        g = build_grid(1.3, 0.7, Nx, Ny, bc)
        f = Field(g, np.random.default_rng(seed).normal(size=(m, Nx, Ny)))
        assert np.array_equal(laplacian_of_P(heat, f), div_A_grad(heat, f))

    def test_neumann_flux_telescoping(self, skt, grid16n):
        rng = np.random.default_rng(3)
        f = Field(grid16n, rng.uniform(0.2, 2.0, size=(2, 16, 16)))
        out = div_A_grad(skt, f)
        total = abs((out * grid16n.cell_area).sum())
        scale = (np.abs(out) * grid16n.cell_area).sum()
        assert total <= 1e-12 * max(scale, 1.0)
        out2 = laplacian_of_P(skt, f)
        total2 = abs((out2 * grid16n.cell_area).sum())
        scale2 = (np.abs(out2) * grid16n.cell_area).sum()
        assert total2 <= 1e-12 * max(scale2, 1.0)

    def test_dirichlet_mode_is_discrete_eigenvector(self, heat1, grid32d):
        f = eigenmode_field(grid32d)
        mu = dirichlet_mode_eigenvalue(grid32d)
        out = div_A_grad(heat1, f)
        assert np.allclose(out, -mu * f.values, rtol=1e-11, atol=1e-13)

    def test_dirichlet_mode_laplacian_converges_at_h2(self, heat1):
        errs = []
        for N in (16, 32, 64):
            g = build_grid(1.0, 1.0, N, N, "dirichlet")
            f = eigenmode_field(g)
            out = div_A_grad(heat1, f)
            errs.append(np.abs(out + 2.0 * math.pi ** 2 * f.values).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_quadratic_potential_operators_agree_exactly(self, skt):
        # for degree <= 2 potentials the arithmetic face average satisfies
        # A((a+b)/2)(b-a) = P(b) - P(a), so both discretizations coincide
        for N in (16, 32):
            g = build_grid(1.0, 1.0, N, N, "neumann")
            f = smooth_field(g, m=2)
            d = np.abs(laplacian_of_P(skt, f) - div_A_grad(skt, f)).max()
            assert d <= 1e-10

    def test_cubic_potential_operators_agree_at_h2(self):
        cubic = ModelSpec(P=PolynomialMap(1, [[(1.0, (1,)), (1.0, (3,))]]),
                          lam=LambdaSpec(1.0, 3.0, 2.0))
        diffs = []
        for N in (16, 32, 64):
            g = build_grid(1.0, 1.0, N, N, "neumann")
            f = smooth_field(g)
            d = np.abs(laplacian_of_P(cubic, f) - div_A_grad(cubic, f)).max()
            diffs.append(d)
        assert 3.0 <= diffs[0] / diffs[1] <= 5.0
        assert 3.0 <= diffs[1] / diffs[2] <= 5.0

    def test_xy_symmetry_preserved(self, skt, grid16n):
        # u_c(x, y) = u_c(y, x) on a square grid propagates through both
        # operators
        def f(c, X, Y):
            return 1.0 + 0.3 * np.cos(np.pi * X) * np.cos(np.pi * Y) \
                + 0.1 * (c + 1) * (np.cos(2 * np.pi * X) + np.cos(2 * np.pi * Y))
        u = Field.from_function(grid16n, 2, f)
        for op in (laplacian_of_P, div_A_grad):
            out = op(skt, u)
            assert np.allclose(out, np.swapaxes(out, 1, 2), atol=1e-13)

    def test_nonfinite_input_raises(self, heat1, grid16n):
        vals = np.ones((1, 16, 16))
        vals[0, 3, 4] = np.nan
        f = Field(grid16n, vals)
        with pytest.raises(NumericalStateError):
            laplacian_of_P(heat1, f)
        with pytest.raises(NumericalStateError):
            div_A_grad(heat1, f)


def face_arrays(rng, g, m, zero_blocks=False):
    """Random face coefficients of the shapes face_coefficients returns,
    (m, m, Nx+1, Ny) and (m, m, Nx, Ny+1); with zero_blocks, the
    off-diagonal blocks of component 0 are exact zeros (as a12 = 0 gives
    in classic SKT)."""
    Ax = rng.uniform(-1.0, 2.0, size=(g.Nx + 1, g.Ny, m, m))
    Ay = rng.uniform(-1.0, 2.0, size=(g.Nx, g.Ny + 1, m, m))
    if zero_blocks:
        Ax[..., 0, 1:] = 0.0
        Ay[..., 0, 1:] = 0.0
    return (np.ascontiguousarray(Ax.transpose(2, 3, 0, 1)),
            np.ascontiguousarray(Ay.transpose(2, 3, 0, 1)))


def coo_flux_operator(g, Ax, Ay):
    """The flux operator by scipy's COO route, an independent oracle.

    Each interior face gives the blocks (L, R) = +w, (L, L) = -w,
    (R, R) = -w and (R, L) = +w with w = A / h^2, x faces before y
    faces, and under Dirichlet each boundary face gives -2A / h^2 on its
    cell's diagonal block (left, right, bottom, top); a block lists its
    entries over (a, b, face).  tocsr() adds duplicates in that order.
    Ax and Ay are component-major, as face_coefficients returns them."""
    Ax, Ay = Ax.transpose(2, 3, 0, 1), Ay.transpose(2, 3, 0, 1)
    Nx, Ny, m = g.Nx, g.Ny, Ax.shape[-1]
    N = Nx * Ny
    rows, cols, data = [], [], []

    def add(rc, cc, w):
        for a in range(m):
            for b in range(m):
                rows.append(a * N + rc)
                cols.append(b * N + cc)
                data.append(w[:, a, b])

    fi, j = np.meshgrid(np.arange(1, Nx), np.arange(Ny), indexing="ij")
    L, R = ((fi - 1) * Ny + j).ravel(), (fi * Ny + j).ravel()
    w = Ax[1:-1].reshape(-1, m, m) / g.hx ** 2
    for rc, cc, s in ((L, R, 1), (L, L, -1), (R, R, -1), (R, L, 1)):
        add(rc, cc, s * w)
    i, fj = np.meshgrid(np.arange(Nx), np.arange(1, Ny), indexing="ij")
    B, T = (i * Ny + fj - 1).ravel(), (i * Ny + fj).ravel()
    w = Ay[:, 1:-1].reshape(-1, m, m) / g.hy ** 2
    for rc, cc, s in ((B, T, 1), (B, B, -1), (T, T, -1), (T, B, 1)):
        add(rc, cc, s * w)
    if g.bc == "dirichlet":
        jj, ii = np.arange(Ny), np.arange(Nx)
        for cells, w, h2 in ((jj, Ax[0], g.hx ** 2),
                             ((Nx - 1) * Ny + jj, Ax[-1], g.hx ** 2),
                             (ii * Ny, Ay[:, 0], g.hy ** 2),
                             (ii * Ny + Ny - 1, Ay[:, -1], g.hy ** 2)):
            add(cells, cells, -2.0 * w / h2)
    n = m * N
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def assert_same_csr(got, want):
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


class TestFluxOperator:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(Nx=st.integers(2, 12), Ny=st.integers(2, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_neumann_columns_sum_to_zero(self, m, Nx, Ny, seed):
        # conservation: each face adds +w and -w to the same column, so
        # no-flux operators lose no mass whatever the face coefficients
        g = build_grid(1.3, 0.7, Nx, Ny, "neumann")
        L = flux_operator(g, *face_arrays(np.random.default_rng(seed), g, m))
        assert L.shape == (m * g.Nx * g.Ny,) * 2
        col_sums = np.abs(np.asarray(L.sum(axis=0))).max()
        assert col_sums <= 1e-14 * np.abs(L.data).max()

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @given(Nx=st.integers(2, 7), Ny=st.integers(2, 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_symmetric_coefficients_give_a_symmetric_operator(self, m, bc,
                                                              Nx, Ny, seed):
        # a face couples its two cells by A/h^2 both ways, and a
        # Dirichlet face adds -2A/h^2 to its cell's diagonal block
        g = build_grid(1.3, 0.7, Nx, Ny, bc)
        Ax, Ay = face_arrays(np.random.default_rng(seed), g, m)
        Ax = Ax + np.swapaxes(Ax, 0, 1)
        Ay = Ay + np.swapaxes(Ay, 0, 1)
        L = flux_operator(g, Ax, Ay)
        assert abs(L - L.T).max() <= 1e-14 * np.abs(L.data).max()

    @pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
    @given(Nx=st.integers(2, 9), Ny=st.integers(2, 9), m=st.integers(1, 3),
           zero_blocks=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_plan_gives_the_coo_bits(self, bc, Nx, Ny, m, zero_blocks, seed):
        # flux_operator and the IMEX operator I - dt L against scipy's
        # COO conversion and sparse subtraction, which drops exact zeros
        g = build_grid(1.3, 0.7, Nx, Ny, bc)
        Ax, Ay = face_arrays(np.random.default_rng(seed), g, m, zero_blocks)
        want = coo_flux_operator(g, Ax, Ay)
        assert_same_csr(flux_operator(g, Ax, Ay), want)
        for dt in (1e-3, 0.37):
            assert_same_csr(solver_mod._imex_operator(g, (Ax, Ay), dt),
                            sp.identity(want.shape[0], format="csr") - dt * want)

    def test_dropped_zeros_leave_the_plan_intact(self):
        # an operator with zero blocks drops entries on copies: a later
        # operator at another dt still has the full pattern's bits
        g = build_grid(1.0, 1.0, 6, 5, "neumann")
        Ax, Ay = face_arrays(np.random.default_rng(5), g, 2, zero_blocks=True)
        want = coo_flux_operator(g, Ax, Ay)
        eye = sp.identity(want.shape[0], format="csr")
        first = solver_mod._imex_operator(g, (Ax, Ay), 1e-3)
        assert first.nnz < want.nnz
        second = solver_mod._imex_operator(g, (Ax, Ay), 2e-3)
        assert_same_csr(second, eye - 2e-3 * want)
        assert_same_csr(flux_operator(g, Ax, Ay), want)
        plan = _flux_plan(g, 2)
        for arr in (plan.indptr, plan.indices, plan.gather, plan.eye):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            flux_operator(g, Ax, Ay).eliminate_zeros()

    @pytest.mark.parametrize("case", ["swapped", "mismatched_m", "cell_count",
                                      "not_blocks"])
    def test_misshaped_coefficients_raise(self, case):
        g = build_grid(1.0, 1.0, 6, 6)
        Ax, Ay = face_arrays(np.random.default_rng(0), g, 2)
        if case == "swapped":
            # square grid: the same number of x and y faces
            Ax, Ay = Ay, Ax
        elif case == "mismatched_m":
            Ay = Ay[:1, :1]
        elif case == "cell_count":
            Ax, Ay = Ax[:, :, :-1], Ay[:, :, :-1]
        else:
            Ax = Ax[0]
        with pytest.raises(InputError,
                           match=r"\(m, m, Nx\+1, Ny\) = \(m, m, 7, 6\)"):
            flux_operator(g, Ax, Ay)

    def test_point_major_coefficients_raise(self):
        # the (faces, m, m) layout of an older release names the new one
        g = build_grid(1.0, 1.0, 6, 5)
        Ax, Ay = face_arrays(np.random.default_rng(0), g, 2)
        with pytest.raises(InputError,
                           match=r"got \(7, 5, 2, 2\) and \(6, 6, 2, 2\)"):
            flux_operator(g, Ax.transpose(2, 3, 0, 1), Ay.transpose(2, 3, 0, 1))

    def test_component_laplacian_is_shared_and_read_only(self):
        g = build_grid(1.0, 1.0, 5, 4)
        L = component_laplacian(g, 2)
        assert component_laplacian(build_grid(1.0, 1.0, 5, 4), 2) is L
        with pytest.raises(ValueError):
            L.data[0] = 1.0

    def test_threads_sharing_the_cache_agree_with_serial(self, skt):
        g = build_grid(1.0, 1.0, 12, 10)
        f = Field(g, np.random.default_rng(4).uniform(0.2, 2.0, (2, 12, 10)))
        component_laplacian.cache_clear()
        results = [None] * 8

        def work(k):
            results[k] = (laplacian_of_P(skt, f), div_A_grad(skt, f))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        want = (laplacian_of_P(skt, f), div_A_grad(skt, f))
        for got in results:
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestCellGradient:
    def test_constant_gradient_is_zero(self, grid16n):
        f = Field.constant(grid16n, [4.0, -2.0])
        assert np.all(cell_gradient(f) == 0.0)

    def test_affine_exact_in_interior(self, grid16n):
        X, _ = grid16n.meshgrid()
        f = Field(grid16n, X[None].copy())
        g = cell_gradient(f)
        assert np.allclose(g[0, 0, 1:-1, :], 1.0, atol=1e-13)
        assert np.allclose(g[0, 1, :, 1:-1], 0.0, atol=1e-13)

    def test_matches_one_sided_near_boundary_at_order_h(self):
        # deviation from the one-sided difference on boundary cells is
        # O(h) for smooth data, so it halves under refinement
        def dev(N):
            g = build_grid(1.0, 1.0, N, N, "neumann")
            f = smooth_field(g)
            grad = cell_gradient(f)
            one_sided = (f.values[:, 1, :] - f.values[:, 0, :]) / g.hx
            return np.abs(grad[:, 0, 0, :] - one_sided).max()
        assert dev(16) / dev(32) >= 1.8

    def test_interior_second_order(self):
        errs = []
        for N in (16, 32):
            g = build_grid(1.0, 1.0, N, N, "neumann")
            X, Y = g.meshgrid()
            f = Field.from_function(g, 1, lambda c, X, Y: np.sin(np.pi * X)
                                    * np.cos(np.pi * Y))
            grad = cell_gradient(f)
            gx = np.pi * np.cos(np.pi * X) * np.cos(np.pi * Y)
            errs.append(np.abs(grad[0, 0, 1:-1, 1:-1] - gx[1:-1, 1:-1]).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5


class TestStableDt:
    def test_identity_formula_exact(self, heat1, grid16n):
        f = Field.constant(grid16n, [1.0])
        assert stable_dt(heat1, f, cfl=1.0) == 0.00048828125

    def test_zero_state_driven_by_linear_rates(self, grid16n):
        from crossdiff import classic_skt
        spec = classic_skt(1.0, 3.0, 1.0, 1.0, 1.0, 1.0)
        f = Field.constant(grid16n, [0.0, 0.0])
        # A(0) = diag(1, 3), operator norm 3
        expect = 0.9 * grid16n.hx ** 2 / (8.0 * 3.0)
        assert stable_dt(spec, f) == pytest.approx(expect, rel=1e-12)

    def test_doubling_quadratic_terms_halves_dt(self, grid16n):
        from crossdiff import classic_skt
        base = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
        dbl = classic_skt(1.0, 1.0, 2.0, 1.0, 1.0, 2.0)
        f = Field.constant(grid16n, [100.0, 80.0])
        ratio = stable_dt(dbl, f) / stable_dt(base, f)
        assert ratio == pytest.approx(0.5, rel=2e-2)

    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_linear_in_cfl(self, cfl):
        from crossdiff import classic_skt
        spec = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
        g = build_grid(1.0, 1.0, 8, 8)
        f = Field.constant(g, [1.0, 2.0])
        assert stable_dt(spec, f, cfl) == pytest.approx(
            cfl * stable_dt(spec, f, 1.0), rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_state_raises(self, skt, grid16n, bad):
        vals = np.ones((2, 16, 16))
        vals[1, 5, 7] = bad
        with pytest.raises(NumericalStateError):
            stable_dt(skt, Field(grid16n, vals))

    def test_overflowing_diffusion_raises(self, skt, grid16n):
        # a finite state whose A(u) = 1 + 2u + v/2 ... overflows
        f = Field.constant(grid16n, [1e308, 1e308])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalStateError):
            stable_dt(skt, f)

    def test_explicit_run_matches_svd_step_cap(self, monkeypatch):
        def svd_stable_dt(spec, field, cfl=0.9, A=None):
            # run() may pass the A(u) it holds; the fake computes its own
            A = eval_A(spec, field.values).transpose(2, 3, 0, 1)
            s = float(np.linalg.svd(A, compute_uv=False)[..., 0].max())
            h = min(field.grid.hx, field.grid.hy)
            return float(cfl) * h * h / (8.0 * s)

        spec = classic_skt(1.0, 1.0, 1.0, 0.5, 0.5, 1.0,
                           lv=(1.0, 1.0, 1.0, 0.5, 0.5, 1.0))
        g = build_grid(1.0, 1.0, 16, 16, "neumann")
        f0 = initial_field("positive_fourier", g, 2, 1.0, 3)
        config = SolverConfig(scheme="explicit", dt0=1e-3, dt_min=1e-7,
                              dt_max=1e-3, t_end=0.02)
        got = run(spec, f0, config)
        monkeypatch.setattr(solver_mod, "stable_dt", svd_stable_dt)
        want = run(spec, f0, config)
        assert got.reached_end and want.reached_end
        assert len(got.dt_history) == len(want.dt_history)
        # the step caps set every step but the last; the last lands on
        # t_end, so it carries the roundoff of the summed times, an
        # absolute error however short that final step is
        assert np.allclose(got.dt_history[:-1], want.dt_history[:-1],
                           rtol=1e-13, atol=0.0)
        assert abs(got.dt_history[-1] - want.dt_history[-1]) <= 1e-13 * config.t_end


class TestSnapshots:
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_round_trip(self, tmp_path, grid16d, fmt):
        rng = np.random.default_rng(5)
        f = Field(grid16d, rng.normal(size=(2, 16, 16)))
        path = tmp_path / f"snap.{fmt}"
        save_snapshot(path, f, fmt=fmt)
        g = load_snapshot(path, bc="dirichlet")
        assert g.grid == grid16d
        if fmt == "bin":
            assert np.array_equal(g.values, f.values)
        else:
            assert np.allclose(g.values, f.values, rtol=1e-16, atol=0.0)

    def test_format_inferred_from_payload(self, tmp_path, grid16n):
        f = Field.constant(grid16n, [1.0, 2.0])
        for fmt in ("csv", "bin"):
            path = tmp_path / f"s.{fmt}"
            save_snapshot(path, f, fmt=fmt)
            assert np.array_equal(load_snapshot(path).values, f.values)

    def test_csv_with_binary_byte_count_loads_as_csv(self, tmp_path):
        # "0.12345\n" is 8 bytes, so this 2x2 csv payload has exactly the
        # byte count of a bin payload; the extension decides, not the size
        g = build_grid(1.0, 1.0, 2, 2)
        f = Field.constant(g, [0.12345])
        path = tmp_path / "s.csv"
        save_snapshot(path, f, fmt="csv")
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert len(payload) == 8 * 4
        assert np.array_equal(load_snapshot(path).values, f.values)

    def test_unknown_extension_needs_fmt(self, tmp_path):
        f = Field.constant(build_grid(1.0, 1.0, 2, 2), [0.12345])
        path = tmp_path / "s.dat"
        save_snapshot(path, f, fmt="csv")
        with pytest.raises(InputError, match="fmt"):
            load_snapshot(path)
        assert np.array_equal(load_snapshot(path, fmt="csv").values, f.values)

    def test_header_contents(self, tmp_path, grid16n):
        f = Field.constant(grid16n, [1.0])
        path = tmp_path / "s.csv"
        save_snapshot(path, f)
        head = path.read_text().splitlines()[0].split()
        assert head[:3] == ["1", "16", "16"]
        assert float(head[3]) == 1.0 and float(head[4]) == 1.0

    def test_bad_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1 4 4 1.0 1.0\n1.0\n2.0\n")
        with pytest.raises(InputError):
            load_snapshot(path, fmt="csv")

    def test_binary_payload_under_csv_name_rejected(self, tmp_path, grid16n):
        f = Field.constant(grid16n, [-1.5])
        path = tmp_path / "s.csv"
        save_snapshot(path, f, fmt="bin")
        assert max(path.read_bytes().split(b"\n", 1)[1]) >= 0x80
        with pytest.raises(InputError, match="ASCII"):
            load_snapshot(path)

    def test_non_integer_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1 2 x 1 1\n1.0\n2.0\n")
        with pytest.raises(InputError, match="header"):
            load_snapshot(path)

    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_zero_component_header_rejected(self, tmp_path, fmt):
        path = tmp_path / f"s.{fmt}"
        path.write_text("0 2 2 1 1\n")
        with pytest.raises(InputError, match="m >= 1"):
            load_snapshot(path)

    @pytest.mark.parametrize("sides", ["inf 1", "1 inf", "nan 1"])
    def test_non_finite_side_header_rejected(self, tmp_path, sides):
        path = tmp_path / "s.csv"
        path.write_text(f"1 2 2 {sides}\n1.0\n2.0\n3.0\n4.0\n")
        with pytest.raises(InputError, match="finite"):
            load_snapshot(path)

    def test_unknown_format_rejected(self, tmp_path, grid16n):
        with pytest.raises(InputError):
            save_snapshot(tmp_path / "x", Field.constant(grid16n, [1.0]),
                          fmt="hdf5")
