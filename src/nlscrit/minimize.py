"""Local minimization of the energy on the mass sphere inside the kinetic
ball ||grad u||^2 < rho0.

Two phases.  First, projected descent: the gradient of the discrete energy
in the weighted L^2 metric is projected onto the tangent space of the mass
sphere, preconditioned by (I - Laplacian)^-1 (a tridiagonal solve on this
grid), and the step is accepted under an Armijo decrease test after exact
renormalization of the mass.  Plain unpreconditioned steps are useless
here: the graded mesh makes the stiffness ratio of the Laplacian ~1e13.
Second, once the residual is small (or the energy has stalled at rounding),
a bordered-tridiagonal Newton solve on the stationary system (including the
multiplier) polishes the state to residual ~1e-12, far below the reported
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as cst
from . import functionals as fnl
from . import profiles
from .grid import (Profile, RadialGrid, lq_norm_pow, mass, rescale,
                   scaled_tridiag_solve, tridiag_solve)

MAX_ITER = 20000          # descent-phase cap
NEWTON_SWITCH = 1e-3      # residual at which Newton takes over
NEWTON_MAX = 80
STEP0 = 0.5
STEP_MAX = 4.0
ARMIJO = 1e-4
PRECOND_SHIFT = 1.0       # alpha in (alpha - Laplacian)^-1
BALL_MARGIN = 0.9         # the initial profile is dilated below this * rho0


@dataclass
class SolveReport:
    final: Profile
    energy: float
    pohozaev: float
    lam: float                        # Lagrange multiplier ("lambda" in JSON)
    grad_residual: float
    iterations: int
    trace: list = field(repr=False)   # (iteration, E, P, grad2)
    boundary_hit: bool
    converged: bool


def _norms(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray) -> fnl.FiberNorms:
    """The norms of u in the solvers' kinetic form u.A.u, at mass a (so the
    multiplier is the one of the mass sphere)."""
    return fnl.FiberNorms(grid.stiffness_quad(u), lq_norm_pow(grid, u, params.ex.two_star),
                          lq_norm_pow(grid, u, params.q), params.a)


def _nonlinear(params: cst.ProblemParams, u: np.ndarray) -> np.ndarray:
    au = np.abs(u)
    return au ** (params.ex.two_star - 2.0) * u + params.mu * au ** (params.q - 2.0) * u


def _nonlinear_prime(params: cst.ProblemParams, u: np.ndarray) -> np.ndarray:
    ts, q = params.ex.two_star, params.q
    au = np.abs(u)
    return (ts - 1.0) * au ** (ts - 2.0) + params.mu * (q - 1.0) * au ** (q - 2.0)


def _projected_gradient(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray,
                        lam: float):
    """(g, ||g||_W): g = A u / W - N(u) - lam u, the energy gradient in the
    weighted L^2 metric projected onto the tangent space of the mass sphere."""
    W = grid.full_weights
    g = grid.stiffness_apply(u) / W - _nonlinear(params, u) - lam * u
    return g, math.sqrt(float(np.dot(W, g * g)))


def _project_into_ball(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
                       rho0: float) -> Profile:
    """Dilate u (tau < 1) until ||grad u||^2 < BALL_MARGIN * rho0, keeping mass."""
    a = params.a
    cur = Profile(grid, u.values * math.sqrt(a / mass(grid, u)))
    for _ in range(8):
        g2 = grid.stiffness_quad(cur.values)
        if g2 < BALL_MARGIN * rho0:
            return cur
        tau = math.sqrt(BALL_MARGIN * rho0 / g2) * 0.98
        cur = rescale(cur, tau)
        cur = Profile(grid, cur.values * math.sqrt(a / mass(grid, cur)))
    raise RuntimeError("could not dilate the initial profile into the kinetic ball")


def _newton_polish(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray,
                   target: float):
    """Newton on (stationary equation, mass constraint); returns (u, ok, res)."""
    W, a = grid.full_weights, params.a
    diag, off = grid.stiffness_bands()
    sc = 1.0 / np.sqrt(diag + W)
    u = u.copy()
    for _ in range(NEWTON_MAX):
        lam = _norms(params, grid, u).lagrange_multiplier(params)
        F = grid.stiffness_apply(u) - W * (_nonlinear(params, u) + lam * u)
        res = math.sqrt(float(np.dot(F * F, 1.0 / W)))
        if res < target:
            return u, True, res
        try:
            jac = diag - W * (_nonlinear_prime(params, u) + lam)
            X = scaled_tridiag_solve(off, jac, np.column_stack([-F, W * u]), sc)
        except np.linalg.LinAlgError:
            return u, False, res
        x, y = X[:, 0], X[:, 1]
        denom = 2.0 * float(np.dot(W * u, y))
        if denom == 0.0 or not np.isfinite(denom):
            return u, False, res
        dlam = (-(mass(grid, u) - a) - 2.0 * float(np.dot(W * u, x))) / denom
        du = x + dlam * y
        if not np.all(np.isfinite(du)):
            return u, False, res
        u = u + du
    return u, res < target, res


def minimize_local(params: cst.ProblemParams, grid: RadialGrid,
                   init: Profile | None = None, tol: float = 1e-8,
                   thresholds: cst.Thresholds | None = None) -> SolveReport:
    """Minimizer of E on the mass sphere inside the kinetic ball.

    Admissible only on or below the threshold curve (regimes Omega1/Omega2)
    where the local minimum exists at negative level with a negative
    multiplier.  The ball constraint is enforced by step rejection plus
    dilation retraction; it must be inactive at convergence, so an active
    constraint is reported via boundary_hit instead of being "solved".
    Converged means residual < tol * max(1, |E|).
    """
    if thresholds is None:
        thresholds = cst.thresholds(params)
    if thresholds.regime not in (cst.Regime.OMEGA1, cst.Regime.OMEGA2):
        raise fnl.RegimeError(
            f"local minimization requires regime Omega1 or Omega2, got {thresholds.regime}")
    rho0 = thresholds.rho0
    a = params.a

    if init is None:
        init = profiles.gaussian(params, 1.0, grid)
    u = _project_into_ball(params, grid, init, rho0).values.astype(float)

    W = grid.full_weights
    diag, off = grid.stiffness_bands()
    precond_diag = PRECOND_SHIFT * W + diag
    nm = _norms(params, grid, u)
    E = nm.energy(params)
    step = STEP0
    trace = []
    boundary_hit = False
    res = math.inf
    it = flat = 0
    for it in range(MAX_ITER):
        gproj, res = _projected_gradient(params, grid, u, nm.lagrange_multiplier(params))
        trace.append((it, E, nm.pohozaev(params), nm.grad2))
        # the residual can plateau just above the switch while E is flat to
        # rounding: 8 accepted steps in a row that each gain <= 4 eps |E|
        # also hand over to Newton
        if res < max(tol, NEWTON_SWITCH) * max(1.0, abs(E)) or flat == 8:
            break
        d = tridiag_solve(off, precond_diag, W * gproj)
        d -= (float(np.dot(W, u * d)) / a) * u
        dd = float(np.dot(W, gproj * d))
        if dd <= 0.0:
            break
        accepted = False
        rejected_boundary = 0
        for _ in range(60):
            v = u - step * d
            v *= math.sqrt(a / mass(grid, v))
            if grid.stiffness_quad(v) >= rho0:
                rejected_boundary += 1
                step *= 0.5
                continue
            nv = _norms(params, grid, v)
            Ev = nv.energy(params)
            if Ev <= E - ARMIJO * step * dd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if rejected_boundary >= 40:
                boundary_hit = True
            break
        flat = flat + 1 if E - Ev <= 2.0 ** -50 * abs(E) else 0   # 4 eps
        u, E, nm = v, Ev, nv
        step = min(step * 1.5, STEP_MAX)

    if not boundary_hit:
        u_new, ok, _ = _newton_polish(params, grid, u, 0.01 * (tol * max(1.0, abs(E))))
        u_new *= math.sqrt(a / mass(grid, u_new))   # Newton meets the mass to ~1e-10
        if ok and grid.stiffness_quad(u_new) < rho0:
            # recompute the projected residual actually reported
            nn = _norms(params, grid, u_new)
            lam = nn.lagrange_multiplier(params)
            _, res_new = _projected_gradient(params, grid, u_new, lam)
            if res_new < res:
                u, res, E, nm = u_new, res_new, nn.energy(params), nn

    converged = res < tol * max(1.0, abs(E))
    if np.dot(W, u) < 0.0:   # sign normalization
        u = -u
    return SolveReport(final=Profile(grid, u), energy=E, pohozaev=nm.pohozaev(params),
                       lam=nm.lagrange_multiplier(params),
                       grad_residual=res, iterations=it + 1,
                       trace=trace, boundary_hit=boundary_hit,
                       converged=converged and not boundary_hit)


def _dilate(params: cst.ProblemParams, t: float) -> cst.ProblemParams:
    """(mu t^(N - q(N-2)/2), a / t^2): the image of (mu, a) under the
    dilation u -> t^((N-2)/2) u(t x), which keeps ||grad u||^2, int |u|^2*,
    the energy, P and the mountain-pass level, and scales lambda by t^2."""
    N, q = params.dim, params.q
    return cst.ProblemParams(N, q, params.mu * t ** (N - q * (N - 2) / 2.0),
                             params.a / (t * t), params.q_exact)


def minimize_in_domain(params: cst.ProblemParams, grid: RadialGrid, tol: float = 1e-8,
                       thresholds: cst.Thresholds | None = None):
    """minimize_local at params, or at an exact dilation of params when the
    minimizer outgrows the grid.

    A solve with lambda >= 0, or with ten decay lengths 10/sqrt(-lambda)
    beyond r_max, is repeated at _dilate(params, t) from the dilated
    minimizer, at most 4 times: t = 4 when lambda >= 0, else t puts ten
    decay lengths at r_max / 2.  E, P and the mountain-pass level are
    invariants of the dilation orbit, so the result holds for params
    itself.  Returns (params, thresholds, SolveReport) of the last solve."""
    if thresholds is None:
        thresholds = cst.thresholds(params)
    init = None
    for attempt in range(5):
        rep = minimize_local(params, grid, init=init, tol=tol, thresholds=thresholds)
        if attempt == 4 or (rep.lam < 0.0 and 10.0 / math.sqrt(-rep.lam) <= grid.r_max):
            return params, thresholds, rep
        t = 4.0 if rep.lam >= 0.0 else 20.0 / (math.sqrt(-rep.lam) * grid.r_max)
        init = rescale(rep.final, t)
        params = _dilate(params, t)
        thresholds = cst.thresholds(params, thresholds.S, thresholds.C_Nq)


def boundary_scan(params: cst.ProblemParams, grid: RadialGrid, samples: int,
                  seed: int = 0,
                  thresholds: cst.Thresholds | None = None) -> float:
    """Minimum energy over random profiles dilated onto the kinetic sphere
    ||grad u||^2 = rho0 (within 1e-6 relative), mass a."""
    if thresholds is None:
        thresholds = cst.thresholds(params)
    if thresholds.regime not in (cst.Regime.OMEGA1, cst.Regime.OMEGA2):
        raise fnl.RegimeError("boundary scan requires regime Omega1 or Omega2")
    rho0 = thresholds.rho0
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        trial = profiles.random_trial(rng)
        p = trial.profile(grid, params.a)
        tau = math.sqrt(rho0 / grid.stiffness_quad(p.values))
        for _ in range(12):
            p = trial.profile(grid, params.a, tau=tau)
            g2 = grid.stiffness_quad(p.values)
            if abs(g2 / rho0 - 1.0) < 1e-7:
                break
            tau *= math.sqrt(rho0 / g2)
        best = min(best, _norms(params, grid, p.values).energy(params))
    return best


@dataclass(frozen=True)
class SubadditivityReport:
    m_a: float
    m_a1: float
    m_rest: float
    gap: float            # m_a1 + m_rest - m_a; nonnegative up to solver noise


def subadditivity_check(params: cst.ProblemParams, grid: RadialGrid, a1: float,
                        tol: float = 1e-8) -> SubadditivityReport:
    """Compare m_a with m_a1 + m_(a-a1) by three independent solves."""
    if not (0.0 < a1 < params.a):
        raise ValueError("a1 must lie strictly between 0 and a")
    m = {}
    for key, aa in (("a", params.a), ("a1", a1), ("rest", params.a - a1)):
        sub = params.with_mass(aa)
        rep = minimize_local(sub, grid, tol=tol)
        if not rep.converged:
            raise RuntimeError(f"sub-run for mass {aa} did not converge "
                               f"(residual {rep.grad_residual:.2e})")
        m[key] = rep.energy
    return SubadditivityReport(m_a=m["a"], m_a1=m["a1"], m_rest=m["rest"],
                               gap=m["a1"] + m["rest"] - m["a"])
