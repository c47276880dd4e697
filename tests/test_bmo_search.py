"""The BMO supremum: window cache, L2 bound and bound-ordered search.

The plain-Python oracle enumerates every center's clipped ball; every
code path (bound-ordered search on its own or from another
component's value, its shift-loop fallback, and components skipped by
their bound) must give the max of the components' shift-loop values
bit for bit.
"""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from crossdiff import Field, bmo_profile, build_grid, norms
from crossdiff import diagnostics as diag
from crossdiff.cli import main


def fields(Nx, Ny, Lx=1.0, Ly=1.0, seed=0):
    """The field families of the oracle and bit-equality tests."""
    x = (np.arange(Nx) + 0.5) * Lx / Nx
    y = (np.arange(Ny) + 0.5) * Ly / Ny
    X, Y = np.meshgrid(x, y, indexing="ij")
    i, j = np.meshgrid(np.arange(Nx), np.arange(Ny), indexing="ij")
    rng = np.random.default_rng(seed)
    spike = np.zeros((Nx, Ny))
    spike[Nx // 3, Ny // 2] = 5.0
    return {
        "random": rng.uniform(-1.0, 1.0, (Nx, Ny)),
        "linear": X + 0.0 * Y,
        "checkerboard": ((i + j) % 2) * 2.0 - 1.0,
        "spike": spike,
        "constant": np.full((Nx, Ny), 2.5),
        "fourier": (1.0 + 0.5 * np.cos(np.pi * X / Lx) * np.cos(2 * np.pi * Y / Ly)
                    + 0.3 * np.sin(3 * np.pi * X / Lx + 1.0)),
    }


def oracle_sup(values, grid, R):
    """max over components and centers of mean_B |u - mean_B u|, every
    ball enumerated cell by cell and clipped to the domain."""
    Nx, Ny = grid.shape
    r2 = R * R * (1 + 1e-12)
    best = 0.0
    for comp in values:
        for i in range(Nx):
            for j in range(Ny):
                ball = [float(comp[k, l]) for k in range(Nx) for l in range(Ny)
                        if ((k - i) * grid.hx) ** 2 + ((l - j) * grid.hy) ** 2 <= r2]
                mean = math.fsum(ball) / len(ball)
                best = max(best, math.fsum(abs(v - mean) for v in ball) / len(ball))
    return best


def close(a, b, rel=1e-14):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("Nx,Ny,Lx,Ly", [(12, 9, 1.5, 1.0), (10, 10, 1.0, 1.0)])
@pytest.mark.parametrize("kind", ["random", "linear", "checkerboard", "spike",
                                  "constant"])
def test_bmo_profile_matches_the_enumerated_oracle(Nx, Ny, Lx, Ly, kind):
    g = build_grid(Lx, Ly, Nx, Ny)
    v = fields(Nx, Ny, Lx, Ly)[kind]
    # the (0, 0) shift is exact in the code; the oracle takes the same
    # values, so only the window arithmetic is compared
    values = np.stack([v, 0.5 * v[::-1]])
    values = values - values[:, :1, :1]
    h = max(g.hx, g.hy)
    radii = [k * h for k in (2, 3, 4, 6, 8) if k * h <= min(Lx, Ly)]
    assert any(len(diag._window(g, R).offsets) >= diag._PRUNE_MIN_OFFSETS
               for R in radii)
    rep = bmo_profile(Field(g, values), radii)
    for R in radii:
        want = oracle_sup(values, g, R)
        assert close(rep.oscillation[R], want), (R, rep.oscillation[R], want)


PATHS = {
    # the shift loop for every kernel and component, with no running
    # maximum: the value every other path must reproduce
    "loop": None,
    # the search to the end, with batches small enough to hit a batch
    # of one center
    "search": dict(_PRUNE_MIN_OFFSETS=1, _PRUNE_MAX_SHARE=1.0,
                   _PRUNE_FIRST=1, _PRUNE_BATCH=3),
    "search_default_batches": dict(_PRUNE_MIN_OFFSETS=1, _PRUNE_MAX_SHARE=1.0),
    # the shift loop for the first component, searches from its value
    # for the others
    "loop_then_search": dict(_PRUNE_MIN_OFFSETS=10 ** 9),
    # every search gives up, after its first batch or at once from the
    # running maximum
    "fallback": dict(_PRUNE_MIN_OFFSETS=1, _PRUNE_MAX_SHARE=-1.0),
}


def loop_sup(values, win):
    """max over components of the shift loop's supremum, in component
    order."""
    shifted = values - values[:, :1, :1]
    return max(diag._shift_loop_sup(comp, diag._window_sums(comp, win)
                                    / win.counts, win)
               for comp in shifted)


def sups_on_each_path(monkeypatch, values, win):
    """{path: (supremum, search outcomes)} for one component set."""
    out = {}
    real = diag._bound_ordered_sup
    for name, consts in PATHS.items():
        with monkeypatch.context() as mp:
            outcomes = []

            def spy(comp, means, bound, w, best):
                got = real(comp, means, bound, w, best)
                outcomes.append(got)
                return got

            mp.setattr(diag, "_bound_ordered_sup", spy)
            if consts is None:
                out[name] = (loop_sup(values, win), outcomes)
                continue
            for k, v in consts.items():
                mp.setattr(diag, k, v)
            out[name] = (diag._bmo_sup(values, win), outcomes)
    return out


def assert_paths_agree(monkeypatch, values, win):
    res = sups_on_each_path(monkeypatch, values, win)
    assert res["loop"][1] == []
    assert res["search"][1] and None not in res["search"][1]
    assert res["fallback"][1] and set(res["fallback"][1]) == {None}
    want = res["loop"][0]
    for name, (got, _) in res.items():
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), name


@pytest.mark.parametrize("Nx,Ny,Lx,Ly", [(64, 64, 1.0, 1.0), (48, 80, 1.5, 2.0)])
@pytest.mark.parametrize("kind", ["random", "linear", "checkerboard", "spike",
                                  "constant", "fourier"])
def test_paths_agree_bit_for_bit(monkeypatch, Nx, Ny, Lx, Ly, kind):
    g = build_grid(Lx, Ly, Nx, Ny)
    v = fields(Nx, Ny, Lx, Ly, seed=Nx)[kind]
    values = np.stack([v, 0.25 * v[::-1] + 0.1 * v.T.mean()])
    h = max(g.hx, g.hy)
    for k in (3, 8, 16):
        assert_paths_agree(monkeypatch, values, diag._window(g, k * h))


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(2, 20), Ny=st.integers(2, 20),
       R_frac=st.floats(0.0, 1.0), scale=st.sampled_from([1e-8, 1.0, 1e6]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_paths_agree_on_random_fields(Nx, Ny, R_frac, scale, seed):
    # hypothesis and function-scoped fixtures do not mix
    mp = pytest.MonkeyPatch()
    try:
        g = build_grid(1.0 + Nx / 7.0, 1.0 + Ny / 11.0, Nx, Ny)
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal((2, Nx, Ny)) + rng.uniform(-3, 3)
        lo, hi = 2.0 * max(g.hx, g.hy), min(g.Lx, g.Ly)
        assert_paths_agree(mp, values, diag._window(g, lo + R_frac * (hi - lo)))
    finally:
        mp.undo()


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 3), N=st.integers(6, 24),
       R_frac=st.floats(0.0, 1.0),
       kinds=st.lists(st.sampled_from(["random", "linear", "fourier",
                                       "spike", "constant"]),
                      min_size=3, max_size=3),
       scales=st.lists(st.sampled_from([1e-3, 0.3, 1.0, 5.0]),
                       min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_shared_maximum_is_the_shift_loop_max(m, N, R_frac, kinds, scales,
                                               seed):
    g = build_grid(1.0, 1.0, N, N)
    fam = fields(N, N, seed=seed)
    comps = np.stack([scale * fam[kind]
                      for kind, scale in zip(kinds[:m], scales[:m])])
    lo, hi = 2.0 / N, 1.0
    win = diag._window(g, lo + R_frac * (hi - lo))
    for order in itertools.permutations(range(m)):
        values = comps[list(order)]
        got, want = diag._bmo_sup(values, win), loop_sup(values, win)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), order


@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("first", [0, 1])
def test_component_bounded_by_the_best_is_skipped(monkeypatch, k, first):
    # the small component's largest bound is below the large one's
    # supremum, so it runs neither a search nor the shift loop, in
    # whichever place it stands
    g = build_grid(1.0, 1.0, 64, 64)
    win = diag._window(g, k / 64)
    big = fields(64, 64)["fourier"]
    small = 1e-3 * fields(64, 64)["random"]
    values = np.stack([big, small] if first == 0 else [small, big])
    shifted = values - values[:, :1, :1]
    small_shifted = shifted[1 - first]
    means = diag._window_sums(small_shifted, win) / win.counts
    top = diag._oscillation_bound(small_shifted, means, win).max()
    assert top <= loop_sup(values[first:first + 1], win)
    seen = []
    real_search, real_loop = diag._bound_ordered_sup, diag._shift_loop_sup

    def search(comp, *args):
        seen.append(("search", comp.copy()))
        return real_search(comp, *args)

    def loop(comp, *args):
        seen.append(("loop", comp.copy()))
        return real_loop(comp, *args)

    monkeypatch.setattr(diag, "_bound_ordered_sup", search)
    monkeypatch.setattr(diag, "_shift_loop_sup", loop)
    got = diag._bmo_sup(values, win)
    assert seen and all(np.array_equal(comp, shifted[first]) for _, comp in seen)
    assert {kind for kind, _ in seen} == {"loop" if k == 3 else "search"}
    monkeypatch.undo()
    assert np.float64(got).tobytes() == np.float64(loop_sup(values, win)).tobytes()


# the window sums of an infinite component meet inf * 0
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("kind", ["random", "linear", "fourier", "constant",
                                  np.nan, np.inf])
def test_lone_component_at_a_small_kernel_computes_no_bound(monkeypatch,
                                                            kind):
    # one component under _PRUNE_MIN_OFFSETS has no search and nothing
    # to order: the shift loop's value, with no L2 bound computed
    g = build_grid(1.0, 1.0, 64, 64)
    win = diag._window(g, 4 / 64)
    assert len(win.offsets) == 49 < diag._PRUNE_MIN_OFFSETS
    fam = fields(64, 64)
    if isinstance(kind, str):
        values = fam[kind][None]
    else:
        values = fam["random"][None].copy()
        values[0, 5, 7] = kind
    monkeypatch.setattr(diag, "_oscillation_bound",
                        lambda *a: pytest.fail("bound computed"))
    got = diag._bmo_sup(values, win)
    assert np.float64(got).tobytes() == np.float64(loop_sup(values, win)).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("k", [3, 16])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_component_keeps_the_shift_loop_max(monkeypatch, k, bad):
    # every component runs the shift loop and Python's max takes them in
    # component order, so a NaN first wins and a NaN later loses
    g = build_grid(1.0, 1.0, 32, 32)
    win = diag._window(g, k / 32)
    fam = fields(32, 32)
    finite = fam["fourier"]
    broken = fam["random"].copy()
    broken[5, 7] = bad
    searched = []
    real = diag._bound_ordered_sup
    monkeypatch.setattr(diag, "_bound_ordered_sup",
                        lambda *a: searched.append(1) or real(*a))
    for values in (np.stack([broken, finite]), np.stack([finite, broken]),
                   np.stack([finite, 0.5 * finite, broken])):
        got, want = diag._bmo_sup(values, win), loop_sup(values, win)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert searched == []
    nan_first = diag._bmo_sup(np.stack([broken, finite]), win)
    nan_last = diag._bmo_sup(np.stack([finite, broken]), win)
    assert math.isnan(nan_first)
    assert nan_last == loop_sup(finite[None], win)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("k", [3, 8])
def test_squares_past_the_float_range_run_the_shift_loop(k):
    # u^2 overflows, so the bounds are not finite and prune nothing; a
    # search on them would skip the centers whose bound is NaN
    g = build_grid(1.0, 1.0, 32, 32)
    win = diag._window(g, k / 32)
    values = 1e155 * np.stack([fields(32, 32)["random"],
                               fields(32, 32)["fourier"]])
    got = diag._bmo_sup(values, win)
    assert math.isfinite(got)
    assert np.float64(got).tobytes() == np.float64(loop_sup(values, win)).tobytes()


@pytest.mark.parametrize("kind", ["random", "linear", "fourier", "spike"])
@pytest.mark.parametrize("offset", [0.0, 0.1, 1.0 / 3.0, 1e3])
def test_bound_covers_every_computed_center_value(kind, offset):
    g = build_grid(1.5, 2.0, 48, 80)
    for k in (3, 8, 16):
        win = diag._window(g, k * g.hy)
        for comp in (fields(48, 80, 1.5, 2.0)[kind] + offset,
                     np.full((48, 80), offset)):
            means = diag._window_sums(comp, win) / win.counts
            values = center_values(comp, means, win)
            assert np.all(values <= diag._oscillation_bound(comp, means, win))


def test_slack_is_needed_for_a_constant_field():
    # the FFT window mean of a constant misses it by roundoff, so the
    # computed oscillation is positive where the variance vanishes
    g = build_grid(1.0, 1.0, 64, 64)
    win = diag._window(g, 16 / 64)
    comp = np.full((64, 64), 0.1)
    means = diag._window_sums(comp, win) / win.counts
    values = center_values(comp, means, win)
    assert values.max() > 0.0
    assert np.all(values <= diag._oscillation_bound(comp, means, win))
    bare = win._replace(slack=0.0)
    assert not np.all(values <= diag._oscillation_bound(comp, means, bare))


def center_values(comp, means, win):
    """Every center's value as the shift loop computes it."""
    acc = np.zeros(comp.shape)
    Nx, Ny = comp.shape
    for di, dj in win.offsets.tolist():
        cs = (slice(max(0, -di), Nx - max(0, di)),
              slice(max(0, -dj), Ny - max(0, dj)))
        vs = (slice(max(0, di), Nx + min(0, di)),
              slice(max(0, dj), Ny + min(0, dj)))
        acc[cs] += np.abs(comp[vs] - means[cs])
    return acc / win.counts


class TestWindowCache:
    @pytest.mark.parametrize("Nx,Ny,Lx,Ly,k", [(12, 9, 1.5, 1.0, 2),
                                               (12, 9, 1.5, 1.0, 5),
                                               (7, 16, 1.0, 2.0, 3)])
    def test_counts_are_the_in_domain_ball_cells(self, Nx, Ny, Lx, Ly, k):
        g = build_grid(Lx, Ly, Nx, Ny)
        R = k * max(g.hx, g.hy)
        win = diag._window(g, R)
        r2 = R * R * (1 + 1e-12)
        for i in range(Nx):
            for j in range(Ny):
                n = sum(((a - i) * g.hx) ** 2 + ((b - j) * g.hy) ** 2 <= r2
                        for a in range(Nx) for b in range(Ny))
                assert win.counts[i, j] == n
        kernel = win.kernel
        assert [tuple(o) for o in win.offsets.tolist()] == [
            (a - kernel.shape[0] // 2, b - kernel.shape[1] // 2)
            for a, b in zip(*np.nonzero(kernel))]

    def test_cached_arrays_are_shared_and_read_only(self):
        win = diag._window(build_grid(1.0, 1.0, 16, 16), 0.25)
        assert diag._window(build_grid(1.0, 1.0, 16, 16), 0.25) is win
        for arr in (win.kernel, win.counts, win.offsets, win.spectrum):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 0

    @pytest.mark.parametrize("Nx,Ny,Lx,Ly", [(64, 64, 1.0, 1.0),
                                             (48, 80, 1.5, 2.0),
                                             (33, 17, 1.0, 1.0),
                                             (128, 128, 1.0, 1.0)])
    @pytest.mark.parametrize("kind", ["uniform", "squared", "zero", "normal"])
    def test_cached_spectrum_gives_fftconvolve_bits(self, Nx, Ny, Lx, Ly, kind):
        from scipy.signal import fftconvolve
        g = build_grid(Lx, Ly, Nx, Ny)
        rng = np.random.default_rng(11)
        arr = {"uniform": rng.uniform(0.0, 1.0, (Nx, Ny)),
               "squared": rng.uniform(-1.0, 1.0, (Nx, Ny)) ** 2,
               "zero": np.zeros((Nx, Ny)),
               "normal": 100.0 * rng.standard_normal((Nx, Ny))}[kind]
        wins = [diag._window(g, R) for R in (1 / 16, 1 / 8, 1 / 4, 1 / 2)]
        for win in wins:
            want = fftconvolve(arr, win.kernel.astype(float), mode="same")
            got = diag._window_sums(arr, win)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_spectrum_is_shared_and_read_only(self):
        g = build_grid(1.0, 1.0, 64, 64)
        win = diag._window(g, 0.25)
        assert diag._window(build_grid(1.0, 1.0, 64, 64), 0.25) is win
        assert win.spectrum is not None
        with pytest.raises(ValueError):
            win.spectrum[0, 0] = 0
        # a kernel of at most 81 cells has its spectrum too
        small = diag._window(g, 1 / 16)
        assert small.kernel.size <= 81
        assert small.fshape == (72, 72)
        assert small.spectrum.shape == (72, 37)
        with pytest.raises(ValueError):
            small.spectrum[0, 0] = 0

    def test_diagnose_builds_each_kernel_once(self, write_manifest, tmp_path,
                                              monkeypatch):
        built = []
        real = diag._ball_kernel

        def counting(grid, R):
            built.append((grid, R))
            return real(grid, R)

        monkeypatch.setattr(diag, "_ball_kernel", counting)
        diag._window.cache_clear()
        path = write_manifest({
            "seed": 0,
            "model": {"classic_skt": {"a1": 1.0, "a2": 1.0, "a11": 1.0,
                                      "a12": 0.5, "a21": 0.5, "a22": 1.0}},
            "grid": {"Nx": 16, "Ny": 16, "bc": "neumann"},
            "solver": {"scheme": "imex", "dt0": 4e-3, "dt_min": 4e-3,
                       "dt_max": 4e-3, "t_end": 0.08},
            "initial": {"family": "positive_fourier", "amplitude": 0.5},
            "diagnostics": {"radii": [0.125, 0.1875, 0.25]},
        })
        r = CliRunner().invoke(main, ["diagnose", "--manifest", str(path),
                                      "--out", str(tmp_path / "d")])
        assert r.exit_code in (0, 1), r.output
        assert (tmp_path / "d" / "bmo.json").exists()
        assert sorted(R for _, R in built) == [0.125, 0.1875, 0.25]

    def test_threads_on_a_cleared_cache_agree_with_serial(self, skt):
        g = build_grid(1.0, 1.0, 24, 20)
        f = Field(g, np.random.default_rng(5).uniform(0.2, 2.0, (2, 24, 20)))
        radii = (0.1, 0.2, 0.375)
        diag._window.cache_clear()
        results = [None] * 8

        def work(k):
            rec = norms(f, skt, R_list=radii)
            results[k] = (rec.bmo, rec.morrey, bmo_profile(f, radii).oscillation)

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
        rec = norms(f, skt, R_list=radii)
        want = (rec.bmo, rec.morrey, bmo_profile(f, radii).oscillation)
        assert all(got == want for got in results)
