"""Radial discretization of R^N (N >= 3).

Functions are radial, sampled at nodes 0 < r_1 < ... < r_n < r_max with an
implicit homogeneous Dirichlet value at r_max.  Node placement follows a
graded algebraic map clustering points near the origin; every cell of the
graded mesh carries a 2-point Gauss rule taken with respect to the surface
measure r^(N-1) dr, so integration of p(r) * r^(N-1) is exact for
polynomials p up to degree 3 and all quadrature weights are positive.

Gradient-type quadratic forms (grad_l2_sq, the stiffness form used by the
solvers) are built from compact first differences between adjacent nodes,
i.e. the energy of the piecewise-linear interpolant.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from math import comb, gamma, isfinite, pi
from typing import Callable

import numpy as np


def surface_area(dim: int) -> float:
    """Area of the unit sphere S^(dim-1): 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


def _graded_edges(r_max: float, m: int, grading: float, origin_blend: float) -> np.ndarray:
    # r(s) = r_max [(1-w) s^2 / (1 + grading (1 - s^2)) + w s], uniform s.
    # w = 0: full quadratic clustering at the origin (quadrature/variational
    # work).  w > 0 bounds the smallest cell: time-stepping solves carry a
    # rounding floor ~ eps * dt / dr_min^2, so evolution grids need w > 0.
    s = np.linspace(0.0, 1.0, m + 1)
    w = origin_blend
    return r_max * ((1.0 - w) * s**2 / (1.0 + grading * (1.0 - s**2)) + w * s)


def _cell_gauss(dim: int, a: np.ndarray, b: np.ndarray):
    """Vectorized 2-point Gauss rules for weight r^(dim-1) on cells [a, b].

    Moments are taken in the shifted variable t = r - (a+b)/2 so that no
    cancellation of large powers occurs for cells far from the origin.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    mu = np.zeros((4,) + a.shape)
    for k in range(4):
        acc = np.zeros_like(a)
        for j in range(dim):
            p = k + j
            if p % 2 == 0:
                acc += comb(dim - 1, j) * c ** (dim - 1 - j) * 2.0 * h ** (p + 1) / (p + 1)
        mu[k] = acc
    det = mu[1] * mu[1] - mu[0] * mu[2]
    bq = (mu[0] * mu[3] - mu[1] * mu[2]) / det
    cq = (mu[2] * mu[2] - mu[1] * mu[3]) / det
    disc = np.sqrt(bq * bq - 4.0 * cq)
    t1 = 0.5 * (-bq - disc)
    t2 = 0.5 * (-bq + disc)
    w1 = (mu[1] - t2 * mu[0]) / (t1 - t2)
    w2 = mu[0] - w1
    return c + t1, c + t2, w1, w2


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Graded radial grid with quadrature against the measure r^(N-1) dr."""

    dim: int
    r_max: float
    n: int
    grading: float
    origin_blend: float
    nodes: np.ndarray      # strictly increasing, in (0, r_max)
    weights: np.ndarray    # positive, for the measure r^(N-1) dr (no angular factor)

    @property
    def omega(self) -> float:
        return surface_area(self.dim)

    @property
    def full_weights(self) -> np.ndarray:
        """Quadrature weights including the angular factor omega_{N-1}."""
        return self._full_w

    @property
    def interval_stiffness(self) -> np.ndarray:
        """k_j = omega * int_{I_j} r^(N-1) dr / |I_j|^2 for the node-to-node
        intervals I_j, j = 0..n-1; the last interval ends at the Dirichlet
        ghost node r_max."""
        return self._k_int

    def __post_init__(self):
        om = self.omega
        object.__setattr__(self, "_full_w", om * self.weights)
        rr = np.concatenate([self.nodes, [self.r_max]])
        masses = om * (rr[1:] ** self.dim - rr[:-1] ** self.dim) / self.dim
        k = masses / np.diff(rr) ** 2
        d = np.zeros(self.n)
        d[:-1] += k[:-1]
        d[1:] += k[:-1]
        d[-1] += k[-1]
        off = -k[:-1]
        d.flags.writeable = off.flags.writeable = False
        object.__setattr__(self, "_k_int", k)
        object.__setattr__(self, "_stiff", (d, off))

    def stiffness_bands(self):
        """(diag, off) of the tridiagonal kinetic operator A, shared read-only."""
        return self._stiff

    @cached_property
    def h1_factor(self) -> SPDFactor:
        """The factor of A + W, W = diag(full_weights): the Gram matrix of the
        solvers' H^1 norm, made on first use and shared read-only."""
        d, off = self._stiff
        return SPDFactor(off, d + self._full_w)

    def dilated(self, t: float) -> RadialGrid:
        """The grid of nodes t r_i and weights t^N w_i on r_max t, with the
        same n, grading and origin blend: make_grid's grid at r_max t up to
        rounding, without its quadrature moments.  The norms of a function's
        values on it scale exactly as the function's dilation by 1/t does."""
        if not (t > 0.0 and isfinite(t)):
            raise ValueError(f"the dilation factor must be positive and finite, got {t!r}")
        with np.errstate(over="ignore"):   # an overflow fails _checked_grid
            nodes, weights = t * self.nodes, np.float64(t) ** self.dim * self.weights
        return _checked_grid(self.dim, t * self.r_max, self.grading, self.origin_blend,
                             nodes, weights)

    def stiffness_apply(self, u: np.ndarray) -> np.ndarray:
        """A u for real or complex u."""
        d, off = self.stiffness_bands()
        out = d * u
        out[:-1] = out[:-1] + off * u[1:]
        out[1:] = out[1:] + off * u[:-1]
        return out

    def stiffness_quad(self, u: np.ndarray) -> float:
        """Re u.A.u, the kinetic form of the solvers.

        It equals grad_l2_sq(u) only up to rounding, and both forms stay:
        grad_l2_sq is the reported norm, u.A.u is what the solvers decide on.
        Swapping in grad_l2_sq's per-interval sum flipped `converged` of the
        local minimization at 19 of 360 points of a (N, q, mu, a) lattice."""
        return float(np.real(np.vdot(u, self.stiffness_apply(u))))


_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file without
    importing the scipy or scipy.linalg packages, whose import (numpy.f2py
    among it) costs more than most commands.  The module is registered under
    its own name, so a later `import scipy.linalg` shares this copy.

    Assumes the layout of scipy 1.17.1: the extension `_flapack` sits in
    the package directory scipy/linalg.  ImportError when it does not."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        _FLAPACK, [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"{_FLAPACK} not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_FLAPACK] = module
    return module


def _lapack_routines():
    """(dgtsv, zgtsv, dpttrf, dpttrs); through scipy.linalg's public lookup
    on a scipy whose layout `_load_flapack` does not know."""
    try:
        flapack = _load_flapack()
        return flapack.dgtsv, flapack.zgtsv, flapack.dpttrf, flapack.dpttrs
    except (ImportError, OSError):
        from scipy.linalg import get_lapack_funcs
        dgtsv, dpttrf, dpttrs = get_lapack_funcs(("gtsv", "pttrf", "pttrs"), dtype=np.float64)
        return dgtsv, get_lapack_funcs("gtsv", dtype=np.complex128), dpttrf, dpttrs


_DGTSV, _ZGTSV, _DPTTRF, _DPTTRS = _lapack_routines()
_F64, _C128 = np.dtype(np.float64), np.dtype(np.complex128)


def all_finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of every array is finite."""
    # a sum is finite unless an entry is inf or NaN, or the sum overflows:
    # only then does the slower entrywise scan run
    with np.errstate(over="ignore", invalid="ignore"):
        return all(np.isfinite(a.sum()) or np.isfinite(a).all() for a in arrays)


def _gtsv_for(*arrays: np.ndarray):
    """zgtsv if any array is complex128, else dgtsv; TypeError unless every
    array is float64 or complex128, so no input drops to single precision."""
    dtypes = {a.dtype for a in arrays}
    if not dtypes <= {_F64, _C128}:
        raise TypeError("TridiagBand takes float64 or complex128 arrays, got "
                        + ", ".join(sorted(map(str, dtypes))))
    return _ZGTSV if _C128 in dtypes else _DGTSV


def _require_finite(*arrays: np.ndarray) -> None:
    if not all_finite(*arrays):
        raise ValueError("tridiagonal system must not contain infs or NaNs")


class TridiagBand:
    """The off-diagonal `off` of a run of symmetric tridiagonal systems that
    share it, solved by LAPACK gtsv: a Newton iteration's Jacobians, or a
    time stepper's Cayley matrices at one step size.  The arrays are float64
    or complex128 (zgtsv if any is complex): TypeError on any other dtype,
    so no input drops to single precision.  `off` is checked once, here,
    and kept as a read-only copy next to the two scratch copies that each
    solve destroys."""

    def __init__(self, off: np.ndarray):
        _gtsv_for(off)
        _require_finite(off)
        self.off = off.copy()
        self.off.flags.writeable = False
        self._lower, self._upper = np.empty_like(off), np.empty_like(off)

    def solve_inplace(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """x of T x = rhs, T the matrix of diagonal `diag` and both
        off-diagonals `off`; rhs may hold several columns.  Same routine as
        scipy's (1, 1)-banded solver: ValueError on non-finite input,
        LinAlgError when T is singular.  Solved in place: gtsv overwrites
        `diag` and writes x into the storage of `rhs`, which it returns, when
        diag and rhs have the routine's dtype and Fortran order, as 1-D
        contiguous arrays do (else it works on copies of them)."""
        gtsv = _gtsv_for(self.off, diag, rhs)
        _require_finite(diag, rhs)
        np.copyto(self._lower, self.off)
        np.copyto(self._upper, self.off)
        *_, x, info = gtsv(self._lower, diag, self._upper, rhs, 1, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gtsv")
        return x


class SPDFactor:
    """The LDL^T factor of a symmetric positive definite tridiagonal T with
    diagonal `diag` and both off-diagonals `off`, made once by LAPACK pttrf
    and applied by pttrs, so that a run of solves with one matrix pays the
    elimination once.  The contract of TridiagBand, for float64 only:
    TypeError on any other dtype; ValueError on non-finite input, the bands
    checked here and each right-hand side at its solve; LinAlgError when T
    is not positive definite.  The inputs are left as they are and the
    factor is kept read-only."""

    def __init__(self, off: np.ndarray, diag: np.ndarray):
        _require_float64(off, diag)
        _require_finite(off, diag)
        d, e, info = _DPTTRF(diag, off)
        if info > 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of pttrf")
        d.flags.writeable = e.flags.writeable = False
        self._d, self._e = d, e

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """T^-1 rhs; rhs may hold several columns."""
        _require_float64(rhs)
        _require_finite(rhs)
        x, info = _DPTTRS(self._d, self._e, rhs)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of pttrs")
        return x


def _require_float64(*arrays: np.ndarray) -> None:
    dtypes = {a.dtype for a in arrays}
    if dtypes != {_F64}:
        raise TypeError("SPDFactor takes float64 arrays, got "
                        + ", ".join(sorted(map(str, dtypes))))


NEWTON_MAX = 80   # Newton steps of one damped_newton run


def damped_newton(off: np.ndarray, m_diag: np.ndarray, state: Callable, step: Callable,
                  st: tuple, target: float, floor: float) -> tuple:
    """The one Newton run of the stationary solves, from st = state(u) =
    (u, ..., res) down to residual `target`; returns the last state taken.
    The step is step(st, solve), where solve(jac_diag, rhs), for one or two
    columns, solves the symmetric tridiagonal J of diagonal jac_diag and
    off-diagonal `off` as S J S, S = diag(m_diag)^(-1/2), in one TridiagBand.
    At residuals >= `floor` a step that does not lower the residual is halved,
    down to 2^-10; below, it ends the run (the rounding floor), as do a
    singular J, a ZeroDivisionError, a non-finite step and NEWTON_MAX steps."""
    # J is not diagonally dominant, and unscaled, gtsv's pivoting loses the
    # core rows of w = 0 grids (entries ~1e-22 at N = 6): S J S has O(1) rows
    sc = 1.0 / np.sqrt(m_diag)
    band = TridiagBand(sc[:-1] * sc[1:] * off)

    def solve(jac_diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        s = sc if rhs.ndim == 1 else sc[:, None]
        return s * band.solve_inplace(sc * sc * jac_diag, s * rhs)

    for _ in range(NEWTON_MAX):
        u, res = st[0], st[-1]
        if res < target:
            break
        try:
            du = step(st, solve)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            break
        if not all_finite(du):
            break
        t, new = 1.0, state(u + du)
        while not new[-1] < res and res >= floor and t > 2.0 ** -10:
            t *= 0.5
            new = state(u + t * du)
        if not new[-1] < res:
            break
        st = new
    return st


@dataclass(frozen=True, eq=False)
class Profile:
    """Radial function sampled on a grid; implicitly 0 at r_max."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.nodes.shape:
            raise ValueError(f"values shape {v.shape} does not match grid ({self.grid.n} nodes)")
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)


def require_on_grid(grid: RadialGrid, u: Profile) -> None:
    """ValueError unless u lives on `grid` itself: another grid with the same
    n would give wrong norms without any error."""
    if u.grid is not grid:
        raise ValueError("the profile lives on another grid")


def make_grid(dim: int, r_max: float, n: int, grading: float = 0.0,
              origin_blend: float = 0.0) -> RadialGrid:
    """Build the graded Gauss grid.  n is rounded down to an even count.  The
    moments of r^(dim-1) bound dim (at n = 64: 33 on r_max 3e4, 51 on r_max
    1, 91 on r_max 50); beyond, a ValueError names dim and r_max."""
    if dim < 3:
        raise ValueError(f"dim must be >= 3, got {dim}")
    if not (isfinite(r_max) and r_max > 0.0):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if n < 16:
        raise ValueError(f"n must be >= 16, got {n}")
    if not (isfinite(grading) and grading >= 0.0):
        raise ValueError(f"grading must be finite and >= 0, got {grading}")
    if not 0.0 <= origin_blend <= 1.0:
        raise ValueError("origin_blend must lie in [0, 1]")
    m = n // 2
    edges = _graded_edges(r_max, m, grading, origin_blend)
    try:
        with np.errstate(all="ignore"):   # a degenerate rule fails the check below
            x1, x2, w1, w2 = _cell_gauss(dim, edges[:-1], edges[1:])
        return _checked_grid(dim, r_max, grading, origin_blend,   # x1, x2 of each cell in turn
                             np.stack([x1, x2], 1).ravel(), np.stack([w1, w2], 1).ravel())
    except (OverflowError, RuntimeError):   # comb(dim - 1, j) or the rule left the floats
        raise ValueError(f"no {n}-node rule in dim {dim} on r_max {r_max}: the moments "
                         f"of r^(dim-1) leave the floats") from None


COARSE_N = 1024   # the coarse level of the nested solves (coarse_grid)


def coarse_grid(grid: RadialGrid) -> RadialGrid:
    """The COARSE_N-node grid of the same r_max, grading and origin blend as
    `grid`: the coarse level of nested iteration (A. Brandt, Math. Comp. 31,
    1977), whose solution, prolonged by `resample`, starts the solve on `grid`."""
    return make_grid(grid.dim, grid.r_max, COARSE_N, grid.grading, grid.origin_blend)


def _checked_grid(dim: int, r_max: float, grading: float, origin_blend: float,
                  nodes: np.ndarray, weights: np.ndarray) -> RadialGrid:
    if not (np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0) and all_finite(weights)):
        raise RuntimeError("grid construction produced a non-monotone, non-positive or "
                           "non-finite rule")
    return RadialGrid(dim=dim, r_max=float(r_max), n=len(nodes), grading=float(grading),
                      origin_blend=float(origin_blend), nodes=nodes, weights=weights)


def integrate(grid: RadialGrid, f: np.ndarray) -> float | complex:
    """omega_{N-1} * sum w_i f(r_i), the R^N integral of a radial sampled field."""
    f = np.asarray(f)
    if f.shape != grid.nodes.shape:
        raise ValueError("sampled field does not match the grid")
    return grid.omega * np.dot(grid.weights, f)


def mass(grid: RadialGrid, u: Profile | np.ndarray) -> float:
    v = u.values if isinstance(u, Profile) else np.asarray(u)
    return float(np.dot(grid.full_weights, np.abs(v) ** 2))


def lq_norm(grid: RadialGrid, u: Profile | np.ndarray, t: float) -> float:
    """(int |u|^t dx)^(1/t)."""
    if t < 1.0:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {t}")
    v = u.values if isinstance(u, Profile) else np.asarray(u)
    return float(np.dot(grid.full_weights, np.abs(v) ** t)) ** (1.0 / t)


def lq_norm_pow(grid: RadialGrid, u: Profile | np.ndarray, t: float) -> float:
    """int |u|^t dx (the t-th power of lq_norm)."""
    v = u.values if isinstance(u, Profile) else np.asarray(u)
    return float(np.dot(grid.full_weights, np.abs(v) ** t))


def grad_l2_sq(grid: RadialGrid, u: Profile | np.ndarray) -> float:
    """omega int |u'|^2 r^(N-1) dr via compact node-to-node differences.

    Equals the exact H^1_0 seminorm of the piecewise-linear interpolant
    (value 0 at r_max, zero slope inside [0, r_1])."""
    return grad_dot(grid, u, u)


def grad_dot(grid: RadialGrid, u: Profile | np.ndarray, v: Profile | np.ndarray) -> float:
    """Re omega int u' conj(v') r^(N-1) dr, the bilinear form of grad_l2_sq:
    Re sum_j k_j du_j conj(dv_j) over the compact differences, each with the
    Dirichlet ghost value 0 after the last node."""
    du, dv = (np.diff(np.append(w.values if isinstance(w, Profile) else w, 0.0))
              for w in (u, v))
    dv = np.conj(dv) if np.iscomplexobj(dv) else dv   # a real dv needs no conjugate copy
    return float(np.real(np.dot(grid.interval_stiffness, du * dv)))


def _pchip_edge(h0, h1, m0, m1):
    # one-sided three-point end slope, clipped to preserve the data's shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))


def pchip(x: np.ndarray, y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Monotone cubic Hermite interpolant (F. N. Fritsch & R. E. Carlson,
    SIAM J. Numer. Anal. 17, 1980) of y[..., j] at the strictly increasing
    knots x[j]; the returned function maps queries of shape (m,) to values
    of shape y.shape[:-1] + (m,), NaN outside [x[0], x[-1]].  Knot slopes
    are the Fritsch-Butland weighted harmonic mean inside and _pchip_edge at
    the ends; the coefficients and the summation order are those of
    scipy.interpolate.PchipInterpolator(extrapolate=False), so the values
    agree to the last bit."""
    with np.errstate(all="ignore"):   # flat stretches divide by zero; masked
        h = np.diff(x)
        m = np.diff(y) / h
        if len(x) == 2:
            d = np.concatenate([m, m], axis=-1)
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            ml, mr = m[..., :-1], m[..., 1:]
            whmean = (w1 / ml + w2 / mr) / (w1 + w2)
            stationary = (np.sign(mr) != np.sign(ml)) | (mr == 0) | (ml == 0)
            d = np.concatenate([_pchip_edge(h[0], h[1], m[..., :1], m[..., 1:2]),
                                np.where(stationary, 0.0, 1.0 / whmean),
                                _pchip_edge(h[-1], h[-2], m[..., -1:], m[..., -2:-1])],
                               axis=-1)
        d0 = d[..., :-1]
        t = (d0 + d[..., 1:] - 2 * m) / h
        # PPoly's sum starts from +0.0, so a knot value of -0.0 evaluates
        # to +0.0: hence 0.0 + y
        c0, c1, c2, c3 = t / h, (m - d0) / h - t, d0, 0.0 + y[..., :-1]

    def ev(xq: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
        s = xq - x[i]
        k0, k1, k2, k3 = (c.take(i, axis=-1) for c in (c0, c1, c2, c3))
        with np.errstate(all="ignore"):
            s2 = s * s
            out = ((k3 + k2 * s) + k1 * s2) + k0 * (s2 * s)
        out[..., ~((xq >= x[0]) & (xq <= x[-1]))] = np.nan
        return out
    return ev


def _even_pchip(r: np.ndarray, v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The monotone cubic interpolant (`pchip`) of the values v, real or
    complex, at the increasing knots r, extended evenly through r = 0 when
    r[0] > 0 (quadratic in r^2 through the first two knots, flat through
    one), and 0 outside [0, r[-1]]."""
    cplx = np.iscomplexobj(v)
    y = np.stack([v.real, v.imag]) if cplx else v
    if r[0] > 0.0:
        y0 = y[..., 0]
        if len(r) > 1:
            y0 = y0 + (y0 - y[..., 1]) * r[0] ** 2 / (r[1] ** 2 - r[0] ** 2)
        r = np.concatenate([[0.0], r])
        y = np.concatenate([y0[..., None], y], axis=-1)
    f = pchip(r, y)

    def ev(x):
        out = np.nan_to_num(f(x), nan=0.0)
        return out[0] + 1j * out[1] if cplx else out
    return ev


def rescale(u: Profile, tau: float) -> Profile:
    """Mass-preserving dilation u_tau(r) = tau^(N/2) u(tau r), exactly: the
    values tau^(N/2) u on u's grid dilated by 1 / tau (`RadialGrid.dilated`:
    nodes / tau, r_max / tau, the same n, grading and origin blend).  Nothing
    is interpolated, so ||u_tau||_2 = ||u||_2, grad_l2_sq scales by tau^2 and
    int |u_tau|^t by tau^(t gamma_t), all to rounding, on the result's grid;
    `resample` moves it onto another grid."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return Profile(u.grid.dilated(1.0 / tau), tau ** (u.grid.dim / 2.0) * u.values)


def resample(u: Profile, grid: RadialGrid) -> Profile:
    """Sample u onto another grid of the same dimension by monotone cubic
    interpolation, which keeps bell profiles positive; nodes beyond u's r_max
    take its Dirichlet value 0."""
    if grid.dim != u.grid.dim:
        raise ValueError("cannot resample across dimensions")
    f = _even_pchip(np.append(u.grid.nodes, u.grid.r_max), np.append(u.values, 0.0))
    return Profile(grid, f(grid.nodes))


# ---------------------------------------------------------------------------
# file formats: JSON round trip, CSV input

def profile_to_dict(u: Profile) -> dict:
    d = {
        "dim": u.grid.dim,
        "r_max": u.grid.r_max,
        "n": u.grid.n,
        "grading": u.grid.grading,
        "origin_blend": u.grid.origin_blend,
    }
    if u.is_complex:
        d["values"] = [[float(z.real), float(z.imag)] for z in u.values]
    else:
        d["values"] = [float(x) for x in u.values]
    return d


def _exact_int(d: dict, key: str) -> int:
    v = d[key]
    if isinstance(v, int):
        return v
    if not float(v).is_integer():
        raise ValueError(f"profile document field {key!r} must be an integer, got {v!r}")
    return int(float(v))


def profile_from_dict(d: dict) -> Profile:
    try:
        missing = [k for k in ("dim", "r_max", "n", "values") if k not in d]
        if missing:
            raise ValueError(f"profile document lacks {', '.join(missing)}")
        grid = make_grid(_exact_int(d, "dim"), float(d["r_max"]), _exact_int(d, "n"),
                         float(d.get("grading", 0.0)), float(d.get("origin_blend", 0.0)))
        raw = d["values"]
        if raw and isinstance(raw[0], (list, tuple)):
            vals = np.array([complex(re, im) for re, im in raw])
        else:
            vals = np.asarray(raw, dtype=float)
    except TypeError as exc:   # e.g. "r_max": null, "values": 3, or not an object
        raise ValueError(f"profile document has a field of the wrong type: {exc}") from exc
    return Profile(grid, vals)


def save_profile(path: str, u: Profile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(u), fh)
        fh.write("\n")


def load_profile(path: str) -> Profile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))


def load_profile_csv(path: str, grid: RadialGrid) -> Profile:
    """Read 'r,value' rows and resample onto `grid` (monotone cubic)."""
    rs, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() in ("r", "# r", "#r"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {row} is not 'r,value'")
            r, v = float(row[0]), float(row[1])
            if not (isfinite(r) and isfinite(v)):
                raise ValueError(f"{path}: non-finite row at radius {r!r}: value {v!r}")
            if r < 0.0:
                raise ValueError(f"{path}: negative radius {r!r}")
            rs.append(r)
            vs.append(v)
    if not rs:
        raise ValueError(f"{path}: no 'r,value' data rows")
    rs = np.asarray(rs)
    vs = np.asarray(vs)
    order = np.argsort(rs)
    rs, vs = rs[order], vs[order]
    dup = np.flatnonzero(np.diff(rs) == 0.0)
    if dup.size:
        raise ValueError(f"{path}: radius {float(rs[dup[0]])!r} appears more than once")
    if len(rs) == 1 and rs[0] == 0.0:
        raise ValueError(f"{path}: one row at radius {float(rs[0])!r} cannot be interpolated")
    return Profile(grid, _even_pchip(rs, vs)(grid.nodes))
