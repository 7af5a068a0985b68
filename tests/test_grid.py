import importlib.machinery
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.linalg import solve_banded

import nlscrit as nc
from nlscrit import grid as grid_mod
from nlscrit.grid import (SPDFactor, TridiagBand, pchip, lq_norm_pow, profile_from_dict,
                          profile_to_dict, tridiag_solve)


def gauss_profile(grid, sigma=1.0):
    return nc.Profile(grid, np.exp(-grid.nodes**2 / (2.0 * sigma**2)))


def test_ball_volume_exact():
    g = nc.make_grid(3, 1.0, 4096)
    vol = nc.integrate(g, np.ones(g.n))
    assert abs(vol - 4.0 * math.pi / 3.0) < 1e-12 * vol


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_gaussian_integral(dim):
    g = nc.make_grid(dim, 20.0, 4096)
    got = nc.integrate(g, np.exp(-g.nodes**2))
    exact = math.pi ** (dim / 2.0)
    assert abs(got - exact) < 1e-9 * exact


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_quadrature_exact_up_to_cubic(dim):
    # the rule integrates p(r) r^(N-1) exactly for deg p <= 3
    g = nc.make_grid(dim, 17.0, 256, grading=2.0)
    for k in range(4):
        got = np.dot(g.weights, g.nodes**k)
        exact = 17.0 ** (k + dim) / (k + dim)
        assert abs(got - exact) < 1e-12 * exact


def test_nodes_and_weights_wellformed():
    for blend in (0.0, 0.3, 1.0):
        g = nc.make_grid(4, 100.0, 2048, grading=3.0, origin_blend=blend)
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] < g.r_max


def test_indicator_ball_generic_radius():
    # node-sampled indicator: error bounded by the mass of the straddling cell
    g = nc.make_grid(3, 2.0, 2048)
    R = 1.234567
    f = (g.nodes <= R).astype(float)
    got = nc.integrate(g, f)
    exact = 4.0 * math.pi / 3.0 * R**3
    idx = np.searchsorted(g.nodes, R)
    cell = g.omega * np.sum(g.weights[max(0, idx - 2):idx + 2])
    assert abs(got - exact) <= cell


def test_make_grid_rejections():
    with pytest.raises(ValueError):
        nc.make_grid(2, 10.0, 256)
    with pytest.raises(ValueError):
        nc.make_grid(3, -1.0, 256)
    with pytest.raises(ValueError):
        nc.make_grid(3, 10.0, 8)
    with pytest.raises(ValueError):
        nc.make_grid(3, 10.0, 256, origin_blend=2.0)
    # refused before any arithmetic, so no RuntimeWarning comes first
    for field in ("r_max", "grading"):
        for bad in (math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{field} must be"):
                    nc.make_grid(3, n=256, **{"r_max": 10.0, "grading": 0.0, field: bad})


@pytest.mark.parametrize("dim, r_max", [(34, 3e4), (92, 50.0), (52, 1.0), (2000, 50.0)])
@pytest.mark.filterwarnings("error")
def test_make_grid_names_the_dimension_it_cannot_build(dim, r_max):
    # one past the largest dim that builds at n = 64 on each r_max; at dim
    # 2000, comb(dim - 1, j) overflowed its conversion to float
    nc.make_grid(dim - 1 if dim < 2000 else 91, r_max, 64)
    with pytest.raises(ValueError, match=f"^no 64-node rule in dim {dim} on r_max {r_max}:"):
        nc.make_grid(dim, r_max, 64)


def test_integrate_linear_and_monotone():
    g = nc.make_grid(3, 10.0, 512)
    rng = np.random.default_rng(0)
    f = rng.uniform(0.0, 1.0, g.n)
    h = f + rng.uniform(0.0, 1.0, g.n)
    assert nc.integrate(g, 2.0 * f + h) == pytest.approx(
        2.0 * nc.integrate(g, f) + nc.integrate(g, h), rel=1e-13)
    assert nc.integrate(g, f) <= nc.integrate(g, h)
    assert nc.integrate(g, np.zeros(g.n)) == 0.0


def test_lq_norms_gaussian():
    g = nc.make_grid(3, 20.0, 4096)
    u = gauss_profile(g)
    assert nc.lq_norm(g, u, 2) == pytest.approx(math.pi ** 0.75, rel=1e-9)
    exact6 = ((math.pi / 3.0) ** 1.5) ** (1.0 / 6.0)
    assert nc.lq_norm(g, u, 6) == pytest.approx(exact6, rel=1e-9)
    zero = nc.Profile(g, np.zeros(g.n))
    assert nc.lq_norm(g, zero, 4) == 0.0
    with pytest.raises(ValueError):
        nc.lq_norm(g, u, 0.5)


def test_grad_l2_sq_gaussian():
    g = nc.make_grid(3, 20.0, 4096)
    u = gauss_profile(g)
    exact = 1.5 * math.pi ** 1.5
    assert nc.grad_l2_sq(g, u) == pytest.approx(exact, rel=5e-6)


def test_grad_l2_sq_plateau_interior_zero():
    # constant inside B_5, smooth quintic decay on [5, 10], zero beyond:
    # the plateau intervals contribute exactly nothing
    from scipy.integrate import quad

    g = nc.make_grid(3, 20.0, 4096)
    r = g.nodes
    t = np.clip((r - 5.0) / 5.0, 0.0, 1.0)
    vals = 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    u = nc.Profile(g, vals)
    k = g.interval_stiffness
    dv = np.diff(np.concatenate([vals, [0.0]]))
    inner = r[:-1] < 4.9
    assert np.all(dv[:-1][inner] == 0.0)

    def du_sq(rr):
        tt = (rr - 5.0) / 5.0
        sp = (30.0 * tt**2 - 60.0 * tt**3 + 30.0 * tt**4) / 5.0
        return sp**2 * rr**2

    exact = 4.0 * math.pi * quad(du_sq, 5.0, 10.0, limit=200)[0]
    assert nc.grad_l2_sq(g, u) == pytest.approx(exact, rel=1e-5)


def dense_stiffness(grid):
    d, off = grid.stiffness_bands()
    return np.diag(d) + np.diag(off, 1) + np.diag(off, -1)


def test_stiffness_apply_and_quad_match_dense():
    g = nc.make_grid(3, 20.0, 256, grading=1.0)
    A = dense_stiffness(g)
    real = np.exp(-g.nodes**2 / 2.0)
    for u in (real, real * np.exp(0.3j * g.nodes)):
        # each row has three terms, summed in another order by the matmul
        bound = 1e-14 * (np.abs(A) @ np.abs(u))
        assert np.all(np.abs(g.stiffness_apply(u) - A @ u) <= bound)
        assert g.stiffness_quad(u) == pytest.approx(nc.grad_l2_sq(g, u), rel=1e-13)


def tridiag_systems():
    """(off, diag, dense matrix, rhs): real and complex, one and two columns."""
    g = nc.make_grid(3, 10.0, 64)
    d, off = g.stiffness_bands()
    W = g.full_weights
    A = dense_stiffness(g)
    u = np.exp(-g.nodes**2)
    # descent preconditioner (W + A) and a Cayley system W + i dt/2 (A - W ups)
    idt2 = 0.5j * 1e-2
    ups = 3.0 * u
    cayley = np.diag(W) + idt2 * (A - np.diag(W * ups))
    return [(off, W + d, np.diag(W) + A, W * u),
            (idt2 * off, W + idt2 * (d - W * ups), cayley, W * u + 0.5j * u),
            (off, d - W * u, A - np.diag(W * u), np.column_stack([u, W * u]))]


def test_tridiag_solve_matches_dense():
    for o, diag, dense, rhs in tridiag_systems():
        x = tridiag_solve(o, diag, rhs)
        assert x.shape == rhs.shape
        np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10, atol=0)


def spd_systems():
    """(off, diag, dense matrix, rhs) of the positive definite A + W of
    tridiag_systems, with one and two columns."""
    o, diag, dense, rhs = tridiag_systems()[0]
    return [(o, diag, dense, rhs), (o, diag, dense, np.column_stack([rhs, diag]))]


def test_spd_factor_matches_dense():
    for o, diag, dense, rhs in spd_systems():
        factor = SPDFactor(o, diag)
        for _ in range(2):      # the factor survives its solves
            x = factor.solve(rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-10, atol=0)


@pytest.mark.parametrize("blend", [0.0, 0.5])
def test_grid_h1_factor_matches_tridiag_solve(blend):
    g = nc.make_grid(3, 50.0, 8192, origin_blend=blend)
    d, off = g.stiffness_bands()
    rhs = g.full_weights * np.exp(-g.nodes) * np.cos(g.nodes)
    x_ref = tridiag_solve(off, d + g.full_weights, rhs)
    x = g.h1_factor.solve(rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-13 * np.max(np.abs(x_ref))


def test_grid_h1_factor_is_made_once_and_read_only():
    g = nc.make_grid(3, 10.0, 64)
    factor = g.h1_factor
    assert g.h1_factor is factor
    assert not (factor._d.flags.writeable or factor._e.flags.writeable)
    assert g.dilated(2.0).h1_factor is not factor


def test_spd_factor_has_the_errors_of_tridiag_solve():
    n = 16
    off, diag, rhs = np.ones(n - 1), np.full(n, 4.0), np.ones(n)
    for dtype in (np.float32, np.complex128, np.int64):
        with pytest.raises(TypeError):
            SPDFactor(off.astype(dtype), diag)
        with pytest.raises(TypeError):
            SPDFactor(off, diag.astype(dtype))
        with pytest.raises(TypeError):
            SPDFactor(off, diag).solve(rhs.astype(dtype))
    for bad in (off, diag, rhs):
        for value in (np.nan, np.inf):
            copy = bad.copy()
            copy[3] = value
            args = [copy if a is bad else a for a in (off, diag, rhs)]
            with pytest.raises(ValueError):
                SPDFactor(*args[:2]).solve(args[2])
    # symmetric and nonsingular, but indefinite: eigenvalues 1 + 2 cos(k pi / 17)
    with pytest.raises(np.linalg.LinAlgError):
        SPDFactor(off, np.ones(n))
    with pytest.raises(np.linalg.LinAlgError):
        SPDFactor(np.zeros(n - 1), np.zeros(n))
    factor = SPDFactor(off, diag)
    assert np.array_equal(off, np.ones(n - 1)) and np.array_equal(diag, np.full(n, 4.0))
    x = factor.solve(rhs)
    assert np.array_equal(rhs, np.ones(n)) and not np.shares_memory(x, rhs)


LAPACK_ROUTINES = ("_DGTSV", "_ZGTSV", "_DPTTRF", "_DPTTRS")


def test_flapack_is_the_module_scipy_imports():
    # a fresh process, so that nlscrit loads the module before scipy.linalg does
    code = ("import sys; from nlscrit import grid; held = sys.modules['scipy.linalg._flapack']; "
            "from scipy.linalg import _flapack, get_lapack_funcs as lookup; "
            "print(_flapack is held, grid._DGTSV is held.dgtsv, grid._ZGTSV is held.zgtsv, "
            "grid._DPTTRF is held.dpttrf, grid._DPTTRS is held.dpttrs, "
            "lookup('gtsv', dtype='float64') is grid._DGTSV, "
            "lookup('pttrf', dtype='float64') is grid._DPTTRF, "
            "lookup('pttrs', dtype='float64') is grid._DPTTRS)")
    src = str(pathlib.Path(grid_mod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["True"] * 8


@pytest.mark.parametrize("failure", ["not found", "does not load"])
def test_gtsv_fallback_gives_the_same_x(failure, monkeypatch):
    # every routine of the fallback lookup: gtsv through tridiag_solve, and
    # pttrf and pttrs through SPDFactor on the positive definite systems
    expected = [tridiag_solve(o, diag, rhs) for o, diag, _, rhs in tridiag_systems()]
    spd = [(o, diag, rhs) for o, diag, _, rhs in spd_systems()]
    expected_spd = [SPDFactor(o, diag).solve(rhs) for o, diag, rhs in spd]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    if failure == "not found":
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda *args, **kwargs: None)
    else:
        def broken(spec):
            raise OSError(f"cannot load {spec.origin}")
        monkeypatch.setattr(importlib.util, "module_from_spec", broken)
    with pytest.raises((ImportError, OSError)):
        grid_mod._load_flapack()
    routines = grid_mod._lapack_routines()
    monkeypatch.undo()
    for name, routine in zip(LAPACK_ROUTINES, routines):
        monkeypatch.setattr(grid_mod, name, routine)
    for (o, diag, _, rhs), x in zip(tridiag_systems(), expected):
        assert np.array_equal(tridiag_solve(o, diag, rhs), x)
    for (o, diag, rhs), x in zip(spd, expected_spd):
        assert np.array_equal(SPDFactor(o, diag).solve(rhs), x)


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64])
def test_tridiag_solve_rejects_other_dtypes(dtype):
    n = 8
    off, diag, rhs = np.ones(n - 1), np.full(n, 4.0), np.ones(n)
    for i in range(3):
        args = [off, diag, rhs]
        args[i] = args[i].astype(dtype)
        with pytest.raises(TypeError):
            tridiag_solve(*args)


def test_tridiag_solve_rejects_nonfinite_and_singular():
    n = 16
    off, diag, rhs = np.ones(n - 1), np.full(n, 4.0), np.ones(n)
    for bad in (off, diag, rhs):
        nan_copy = bad.copy()
        nan_copy[3] = np.nan
        args = [nan_copy if a is bad else a for a in (off, diag, rhs)]
        with pytest.raises(ValueError):
            tridiag_solve(*args)
    with pytest.raises(np.linalg.LinAlgError):
        tridiag_solve(np.zeros(n - 1), np.zeros(n), rhs)


def test_tridiag_solve_nonfinite_wins_and_returns_gtsv_x():
    n = 16
    # gtsv would meet the zero pivot in row 1 before the NaN in row 4
    diag = np.zeros(n)
    diag[3] = np.nan
    with pytest.raises(ValueError):
        tridiag_solve(np.zeros(n - 1), diag, np.ones(n))
    # an inf on the diagonal leaves gtsv's x finite (x[3] = 0)
    diag = np.full(n, 4.0)
    diag[3] = np.inf
    with pytest.raises(ValueError):
        tridiag_solve(np.ones(n - 1), diag, np.ones(n))
    # finite entries whose sum overflows are solved, without a warning
    x = tridiag_solve(np.full(n - 1, 1e307), np.full(n, 1e308), np.full(n, 1e308))
    assert np.all(np.isfinite(x))
    # a finite, non-singular system returns gtsv's x bit for bit
    rng = np.random.default_rng(7)
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    diag = 4.0 + rng.standard_normal(n) + 1j * rng.standard_normal(n)
    rhs = rng.standard_normal((n, 2)) + 0j
    ab = np.vstack([np.concatenate([[0.0], off]), diag, np.concatenate([off, [0.0]])])
    assert np.array_equal(tridiag_solve(off, diag, rhs), solve_banded((1, 1), ab, rhs))


def test_band_solve_inplace_is_tridiag_solve_in_rhs_storage():
    for o, diag, _, rhs in tridiag_systems():
        x_ref = tridiag_solve(o, diag, rhs)
        band = TridiagBand(o)
        for _ in range(2):      # the band survives its solves
            d, b = diag.copy(), rhs.copy()
            x = band.solve_inplace(d, b)
            assert np.array_equal(x, x_ref)
            if d.dtype == b.dtype == band.off.dtype and b.flags.f_contiguous:
                assert np.shares_memory(x, b)
        assert np.array_equal(band.off, o) and not band.off.flags.writeable


def test_band_solve_inplace_has_the_errors_of_tridiag_solve():
    n = 16
    off, diag, rhs = np.ones(n - 1), np.full(n, 4.0), np.ones(n)
    for i, dtype in enumerate([np.float32, np.complex64, np.int64]):
        with pytest.raises(TypeError):
            TridiagBand(off.astype(dtype))
        args = [diag, rhs]
        args[i % 2] = args[i % 2].astype(dtype)
        with pytest.raises(TypeError):
            TridiagBand(off).solve_inplace(*args)
    bad = off.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError):
        TridiagBand(bad)
    for i in range(2):
        args = [diag.copy(), rhs.copy()]
        args[i][3] = np.inf
        with pytest.raises(ValueError):
            TridiagBand(off).solve_inplace(*args)
    with pytest.raises(np.linalg.LinAlgError):
        TridiagBand(np.zeros(n - 1)).solve_inplace(np.zeros(n), rhs.copy())


@pytest.mark.parametrize("t", [0.03, 0.7, 2.5, 40.0])
@pytest.mark.parametrize("dim,grading,blend", [(3, 0.0, 0.0), (6, 1.0, 0.05)])
def test_dilated_grid_is_make_grid_at_the_dilated_r_max(t, dim, grading, blend):
    g = nc.make_grid(dim, 20.0, 2048, grading, blend)
    d = g.dilated(t)
    ref = nc.make_grid(dim, 20.0 * t, 2048, grading, blend)
    assert (d.dim, d.r_max, d.n, d.grading, d.origin_blend) == (
        ref.dim, ref.r_max, ref.n, ref.grading, ref.origin_blend)
    assert np.max(np.abs(d.nodes / ref.nodes - 1.0)) <= 4e-15
    assert np.max(np.abs(d.weights / ref.weights - 1.0)) <= 1e-12


@pytest.mark.parametrize("tau", [0.05, 0.8, 3.0, 25.0])
def test_norms_on_the_dilated_grid_scale_as_the_fiber_map(tau):
    # tau^(N/2) u on the grid of nodes r_i / tau is the dilation u_tau
    dim = 4
    g = nc.make_grid(dim, 30.0, 2048, grading=1.0)
    r = g.nodes
    u = (1.0 + 0.3 * r - 0.1 * r * r) * np.exp(-0.5 * r * r)
    d = g.dilated(1.0 / tau)
    v = tau ** (dim / 2.0) * u
    assert nc.mass(d, v) == pytest.approx(nc.mass(g, u), rel=1e-13)
    assert nc.grad_l2_sq(d, v) == pytest.approx(tau ** 2 * nc.grad_l2_sq(g, u), rel=1e-13)
    for p in (2.5, 4.0):
        assert lq_norm_pow(d, v, p) == pytest.approx(
            tau ** (dim * (p / 2.0 - 1.0)) * lq_norm_pow(g, u, p), rel=1e-13)


def test_dilated_rejects_factors_it_cannot_apply():
    g = nc.make_grid(3, 10.0, 64)
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            g.dilated(t)
    with pytest.raises(RuntimeError):   # the nodes underflow to one value
        g.dilated(1e-320)
    with pytest.raises(RuntimeError):   # the weights overflow
        g.dilated(1e120)


def test_rescale_identity_and_errors():
    g = nc.make_grid(3, 20.0, 2048)
    u = gauss_profile(g)
    same = nc.rescale(u, 1.0)
    assert np.array_equal(same.values, u.values)
    with pytest.raises(ValueError):
        nc.rescale(u, 0.0)
    with pytest.raises(ValueError):
        nc.rescale(u, -2.0)
    with pytest.raises(ValueError):
        nc.rescale(u, math.nan)


@pytest.mark.parametrize("tau", [0.25, 0.5, 2.0, 4.0])
def test_rescale_dilation_identities(tau):
    g = nc.make_grid(3, 40.0, 8192)
    u = gauss_profile(g, sigma=1.3)
    ut = nc.rescale(u, tau)
    d = ut.grid
    assert d.r_max == (1.0 / tau) * 40.0 and (d.n, d.grading, d.origin_blend) == (g.n, 0.0, 0.0)
    assert np.array_equal(d.nodes, (1.0 / tau) * g.nodes)
    assert np.array_equal(ut.values, tau ** 1.5 * u.values)
    assert nc.mass(d, ut) == pytest.approx(nc.mass(g, u), rel=1e-14)
    assert nc.grad_l2_sq(d, ut) == pytest.approx(tau**2 * nc.grad_l2_sq(g, u), rel=1e-14)
    for t in (2.5, 6.0):
        gam_t = 3.0 / 2.0 - 3.0 / t
        assert lq_norm_pow(d, ut, t) == pytest.approx(
            tau ** (t * gam_t) * lq_norm_pow(g, u, t), rel=1e-14)


def test_rescale_tau2_grad_value():
    # the discretization error of ||grad u||^2 is carried over unchanged
    g = nc.make_grid(3, 40.0, 8192)
    u = gauss_profile(g)
    ut = nc.rescale(u, 2.0)
    assert nc.grad_l2_sq(ut.grid, ut) == pytest.approx(4.0 * nc.grad_l2_sq(g, u), rel=1e-14)
    assert nc.grad_l2_sq(ut.grid, ut) == pytest.approx(4.0 * 1.5 * math.pi**1.5, rel=1e-6)


def test_profile_requires_finite_matching_values():
    g = nc.make_grid(3, 10.0, 256)
    with pytest.raises(ValueError):
        nc.Profile(g, np.ones(g.n + 1))
    bad = np.ones(g.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        nc.Profile(g, bad)


def test_profile_json_roundtrip(tmp_path):
    g = nc.make_grid(3, 12.0, 256, grading=1.5, origin_blend=0.25)
    u = gauss_profile(g)
    path = tmp_path / "prof.json"
    nc.save_profile(str(path), u)
    v = nc.load_profile(str(path))
    assert v.grid.dim == 3 and v.grid.n == g.n
    assert np.allclose(v.grid.nodes, g.nodes, rtol=0, atol=0)
    assert np.array_equal(v.values, u.values)


def test_profile_json_complex_roundtrip():
    g = nc.make_grid(3, 12.0, 256)
    u = nc.Profile(g, np.exp(-g.nodes**2) * (1.0 + 0.5j))
    d = profile_to_dict(u)
    v = profile_from_dict(json.loads(json.dumps(d)))
    assert v.is_complex
    assert np.allclose(v.values, u.values, rtol=0, atol=0)


def test_profile_csv_load(tmp_path):
    g = nc.make_grid(3, 10.0, 512)
    rr = np.linspace(0.01, 10.0, 400)
    path = tmp_path / "prof.csv"
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(rr, np.exp(-rr**2 / 2.0)):
            fh.write(f"{r},{v}\n")
    u = nc.load_profile_csv(str(path), g)
    ref = np.exp(-g.nodes**2 / 2.0)
    assert np.max(np.abs(u.values - ref)) < 1e-4


def test_resample_between_grids():
    g1 = nc.make_grid(3, 20.0, 4096)
    g2 = nc.make_grid(3, 15.0, 1024, origin_blend=0.5)
    u = gauss_profile(g1)
    v = nc.resample(u, g2)
    assert np.max(np.abs(v.values - np.exp(-g2.nodes**2 / 2.0))) < 1e-6


def test_profile_csv_rejects_nonfinite_and_duplicate_radii(tmp_path):
    g = nc.make_grid(3, 10.0, 256)
    for name, rows, radius in [("dup.csv", "0.5,1.0\n0.5,0.9\n", "0.5"),
                               ("nanr.csv", "nan,1.0\n1.0,0.5\n", "nan"),
                               ("infv.csv", "0.5,inf\n1.0,0.5\n", "0.5"),
                               ("zero.csv", "0.0,1.0\n", "0.0"),
                               ("neg.csv", "0.5,1.0\n-1.0,5.0\n", "-1.0")]:
        path = tmp_path / name
        path.write_text("r,value\n" + rows)
        with pytest.raises(ValueError, match=f"{name}.*radius {radius}"):
            nc.load_profile_csv(str(path), g)


def test_profile_dict_requires_integer_dim_and_n():
    doc = {"dim": 3.0, "r_max": 30.0, "n": 16.0, "values": [0.1] * 16}
    assert profile_from_dict(doc).grid.n == 16
    for key, bad in (("dim", 3.5), ("n", 16.9), ("n", math.inf)):
        with pytest.raises(ValueError, match=key):
            profile_from_dict(dict(doc, **{key: bad}))


OSC_X = np.linspace(0.0, 6.0, 25) ** 1.3


def _graded_knots():
    r = nc.make_grid(3, 40.0, 8192).nodes
    x = np.concatenate([[0.0], r, [40.0]])
    return x, np.exp(-x ** 2 / 2.0) * (1.0 + 0.1 * np.cos(5.0 * x))


PCHIP_DATA = {
    "monotone": (np.array([0.0, 0.3, 0.35, 1.0, 2.5, 4.0]),
                 np.array([-0.0, 0.1, 0.5, 0.6, 2.0, 2.1])),
    "oscillating": (OSC_X, np.sin(3.0 * OSC_X)),
    "flat stretches": (np.arange(10.0), np.array([1.0, 1, 1, 2, 2, 3, 3, 3, 0, 0])),
    "two points": (np.array([0.5, 2.0]), np.array([1.0, -3.0])),
    "graded n=8192": _graded_knots(),
}


@pytest.mark.parametrize("name", PCHIP_DATA)
def test_pchip_matches_scipy_to_the_bit(name):
    x, y = PCHIP_DATA[name]
    span = x[-1] - x[0]
    q = np.concatenate([x, np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span, 4001),
                        [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf), np.nan]])
    with np.errstate(all="ignore"):
        ref = PchipInterpolator(x, y, extrapolate=False)(q)
    got = pchip(x, y)(q)
    outside = ~((q >= x[0]) & (q <= x[-1]))
    assert np.array_equal(np.isnan(got), outside) and np.array_equal(np.isnan(ref), outside)
    assert np.array_equal(got[~outside].view(np.int64), ref[~outside].view(np.int64))


@pytest.mark.parametrize("tau", [0.7, 1.9])
@pytest.mark.parametrize("cplx", [False, True])
def test_rescale_matches_scipy_pchip_to_the_bit(tau, cplx):
    # the dilation u_tau that rescale used to interpolate onto u's own grid
    # is, bit for bit, tau^(N/2) times resample onto the grid dilated by tau:
    # the even extension through r = 0, the Dirichlet 0 at r_max and 0 beyond
    g = nc.make_grid(3, 40.0, 8192)
    r = g.nodes
    vals = np.exp(-r ** 2 / 2.0) * (1.0 + (0.3j if cplx else 0.3) * np.sin(r))
    got = tau ** 1.5 * nc.resample(nc.Profile(g, vals), g.dilated(tau)).values

    def ref(v):
        v0 = v[0] + (v[0] - v[1]) * r[0] ** 2 / (r[1] ** 2 - r[0] ** 2)
        with np.errstate(all="ignore"):   # the Gaussian tail's tiny slopes overflow
            f = PchipInterpolator(np.concatenate([[0.0], r, [g.r_max]]),
                                  np.concatenate([[v0], v, [0.0]]), extrapolate=False)
        return np.nan_to_num(f(tau * r), nan=0.0)
    want = tau ** 1.5 * (ref(vals.real) + 1j * ref(vals.imag) if cplx else ref(vals))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
