"""Local minimization of the energy on the mass sphere inside the kinetic
ball ||grad u||^2 < rho0.

Two phases, one residual.  The residual of a state u is the weak form
F = A u - W (N(u) + lambda u) of the stationary equation (stiffness A,
quadrature weights W, lambda the multiplier of u on the mass sphere),
measured in the H^-1 dual norm sqrt(F.(A + W)^-1 F): one solve with the
LDL^T factor of A + W that the grid makes once (`RadialGrid.h1_factor`).
Unlike the weighted l^2 norm sqrt(F.F/W), whose rounding floor grows like
n^2 on these graded meshes, this norm has a rounding floor far below the
tolerance at every grid size, so `converged` means the same thing at
every n.

First, projected descent: the weighted-L^2 gradient F/W, preconditioned by
(A + alpha W)^-1, factored once per iteration as alpha moves, and
projected onto the tangent space of the mass sphere, with an Armijo test
after exact renormalization of the mass.  The shift
follows the iterate, alpha = max(-lambda, 1e-8), so that the
preconditioner is the linear part A - lambda W of the Hessian
A - W (N'(u) + lambda) (X. Antoine, A. Levitt & Q. Tang, J. Comput. Phys.
343, 2017) and the descent takes tens of iterations whatever lambda is; a
fixed shift slows it by about the ratio of the shift to -lambda.  Plain
unpreconditioned steps are useless here: the graded mesh makes the
stiffness ratio of the Laplacian ~1e13.

Second, once E < 0 and the residual is below NEWTON_SWITCH ||grad u||^2
(or below the tolerance, or once E has gone flat to rounding), a
bordered-tridiagonal Newton solve on the stationary system (including the
multiplier), damped by step halving, polishes the state to 0.01 tol, or
to the rounding floor, where its residual stops falling.

Third, a coarse level in front of both (`_seed_start`): without an init,
on grids of COARSE_START_N nodes or more, the two phases first run from
the gaussian seed on `grid.coarse_grid` (same r_max, grading and origin
blend), and the fine grid starts from that minimizer, prolonged by
`resample`.  Its descent meets the Newton switch at the first iterate, so
at n the polish does nearly all the work; `coarse` in the report gives the
coarse solve's n, iterations and convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as cst
from . import functionals as fnl
from . import profiles
from .grid import (COARSE_N, Profile, RadialGrid, SPDFactor, coarse_grid, lq_norm_pow, mass,
                   require_on_grid, resample, rescale, scaled_tridiag_solve)

MAX_ITER = 20000          # descent-phase cap
NEWTON_SWITCH = 1e-3      # residual / ||grad u||^2 at which Newton takes over
NEWTON_MAX = 80
STEP0 = 0.5
STEP_MAX = 4.0
ARMIJO = 1e-4
SHIFT_MIN = 1e-8          # the preconditioner's shift is max(-lambda, SHIFT_MIN)
BALL_MARGIN = 0.9         # the initial profile is dilated below this * rho0
SEED_FIT = 5.0            # the default seed's width is at most r_max / SEED_FIT
COARSE_START_N = 8 * COARSE_N   # grids this fine start from the coarse minimizer


@dataclass
class SolveReport:
    final: Profile
    energy: float
    pohozaev: float
    lam: float                        # Lagrange multiplier ("lambda" in JSON)
    grad_residual: float              # H^-1 norm of the residual F
    iterations: int
    trace: list = field(repr=False)   # (iteration, E, P, grad2)
    boundary_hit: bool
    converged: bool
    solves: int = 1                   # grids minimize_in_domain solved on
    coarse: dict | None = None        # the seed's coarse level (_seed_start)


def _norms(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray,
           grad2: float | None = None) -> fnl.FiberNorms:
    """The norms of u in the solvers' kinetic form u.A.u (grad2, when the
    caller has it), at mass a (so the multiplier is the one of the mass
    sphere)."""
    if grad2 is None:
        grad2 = grid.stiffness_quad(u)
    return fnl.FiberNorms(grad2, lq_norm_pow(grid, u, params.ex.two_star),
                          lq_norm_pow(grid, u, params.q), params.a)


def _nonlinear(params: cst.ProblemParams, u: np.ndarray) -> np.ndarray:
    au = np.abs(u)
    return au ** (params.ex.two_star - 2.0) * u + params.mu * au ** (params.q - 2.0) * u


def _nonlinear_prime(params: cst.ProblemParams, u: np.ndarray) -> np.ndarray:
    ts, q = params.ex.two_star, params.q
    au = np.abs(u)
    return (ts - 1.0) * au ** (ts - 2.0) + params.mu * (q - 1.0) * au ** (q - 2.0)


def _residual(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray, lam: float):
    """(F, ||F||_H^-1): F = A u - W (N(u) + lam u), and its dual norm
    sqrt(F.(A + W)^-1 F), solved with the grid's factor of A + W."""
    F = grid.stiffness_apply(u) - grid.full_weights * (_nonlinear(params, u) + lam * u)
    return F, math.sqrt(float(np.dot(F, grid.h1_factor.solve(F))))


def gaussian_norms(params: cst.ProblemParams, sigma: float) -> fnl.FiberNorms:
    """The norms of the mass-a gaussian of width sigma (`profiles.gaussian`)
    in closed form: ||grad g||^2 = a N / (2 sigma^2) and int |g|^p =
    c^p (2 pi sigma^2 / p)^(N/2), c = sqrt(a) / (pi^(N/4) sigma^(N/2)), the
    powers taken through logs, since c^p can overflow where the product
    does not."""
    N, a = params.dim, params.a
    log_s = math.log(sigma)
    log_c = 0.5 * math.log(a) - 0.25 * N * math.log(math.pi) - 0.5 * N * log_s

    def power_integral(p: float) -> float:
        return math.exp(p * log_c + 0.5 * N * (math.log(2.0 * math.pi / p) + 2.0 * log_s))

    return fnl.FiberNorms(0.5 * a * N * math.exp(-2.0 * log_s),
                          power_integral(params.ex.two_star), power_integral(params.q), a)


def seed_width(params: cst.ProblemParams) -> float:
    """sigma+ = 1 / tau+: the width of the mass-a gaussian at its own fiber
    minimum, since the dilation by tau of the width-1 gaussian has width
    1 / tau.  In regimes Omega1/Omega2 that minimum lies inside the kinetic
    ball (N. Soave, J. Funct. Anal. 279, 2020)."""
    return 1.0 / fnl.fiber_roots(params, gaussian_norms(params, 1.0))[0]


def _project_into_ball(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
                       rho0: float) -> Profile:
    """u at mass a; above ||grad u||^2 = BALL_MARGIN * rho0, dilated (tau < 1)
    once below it, resampled onto `grid` and renormalized, or RuntimeError."""
    cur = Profile(grid, u.values * math.sqrt(params.a / mass(grid, u)))
    g2 = grid.stiffness_quad(cur.values)
    if g2 >= BALL_MARGIN * rho0:
        v = resample(rescale(cur, math.sqrt(BALL_MARGIN * rho0 / g2) * 0.98), grid)
        cur = Profile(grid, v.values * math.sqrt(params.a / mass(grid, v)))
        if not grid.stiffness_quad(cur.values) < BALL_MARGIN * rho0:
            raise RuntimeError("could not dilate the initial profile into the kinetic ball")
    return cur


def _newton_polish(params: cst.ProblemParams, grid: RadialGrid, u: np.ndarray,
                   target: float, floor: float):
    """Damped Newton on (stationary equation, mass constraint) from u, down
    to residual `target`, taking only steps that lower the residual: while
    it is at or above `floor`, a step that does not is halved, down to
    2^-10; below, such a step ends the polish (the rounding floor).
    Returns (u, ok, res) of the last iterate; ok when res < floor."""
    W, a = grid.full_weights, params.a
    diag, off = grid.stiffness_bands()
    sc = 1.0 / np.sqrt(diag + W)

    def state(v):
        lam = _norms(params, grid, v).lagrange_multiplier(params)
        return (v, lam) + _residual(params, grid, v, lam)

    u, lam, F, res = state(u)
    for _ in range(NEWTON_MAX):
        if res < target:
            break
        try:
            jac = diag - W * (_nonlinear_prime(params, u) + lam)
            X = scaled_tridiag_solve(off, jac, np.column_stack([-F, W * u]), sc)
        except np.linalg.LinAlgError:
            break
        x, y = X[:, 0], X[:, 1]
        denom = 2.0 * float(np.dot(W * u, y))
        if denom == 0.0 or not np.isfinite(denom):
            break
        dlam = (-(mass(grid, u) - a) - 2.0 * float(np.dot(W * u, x))) / denom
        du = x + dlam * y
        if not np.all(np.isfinite(du)):
            break
        step, new = 1.0, state(u + du)
        while not new[3] < res and res >= floor and step > 2.0 ** -10:
            step *= 0.5
            new = state(u + step * du)
        if not new[3] < res:
            break
        u, lam, F, res = new
    return u, res < floor, res


def minimize_local(params: cst.ProblemParams, grid: RadialGrid,
                   init: Profile | None = None, tol: float = 1e-8,
                   thresholds: cst.Thresholds | None = None) -> SolveReport:
    """Minimizer of E on the mass sphere inside the kinetic ball.

    Admissible only on or below the threshold curve (regimes Omega1/Omega2)
    where the local minimum exists at negative level with a negative
    multiplier.  The default init is the mass-a gaussian at its fiber
    minimum (`seed_width`), narrowed where needed to width r_max / SEED_FIT
    so that it fits the grid; on grids of COARSE_START_N nodes or more it
    is solved first on the coarse grid (`_seed_start`).  The ball constraint
    is enforced by step rejection plus dilation retraction; it must be
    inactive at convergence, so an active constraint is reported via
    boundary_hit instead of being "solved".
    Converged means residual < tol * max(1, |E|) in the H^-1 norm.
    """
    rho0 = fnl.require_omega1_or_omega2(params, grid, thresholds, "local minimization").rho0
    coarse = None
    if init is None:
        init, coarse = _seed_start(params, grid, seed_width(params), tol, rho0)
    require_on_grid(grid, init)
    rep = _solve(params, grid, init, tol, rho0)
    rep.coarse = coarse
    return rep


def _seed_start(params: cst.ProblemParams, grid: RadialGrid, sigma: float, tol: float,
                rho0: float) -> tuple[Profile, dict | None]:
    """(init, coarse): the default init on `grid` for the seed width sigma,
    and the `coarse` facts {n, iterations, converged} of the level it came
    from, None when no coarse level ran.

    The seed is the mass-a gaussian of width min(sigma, r_max / SEED_FIT).
    On grids of COARSE_START_N nodes or more it is first solved on
    `coarse_grid(grid)` (same r_max, grading and origin blend), and the
    coarse minimizer, prolonged by `resample`, is the init: the fine descent
    then meets the Newton switch at once and only the polish runs at n
    (nested iteration, A. Brandt, Math. Comp. 31, 1977).  A coarse solve
    that does not converge, hits the ball or raises leaves the gaussian on
    `grid`.

    The coarse solve costs about what 1-2 descent iterations at n = 8192 do.
    Warm, the least of 15 calls alternating with the gaussian start, at
    mu = 1, a = a0 / 2 (2 vCPU): at n = 2048 the coarse start is slower
    ((3, 2.5), w = 0: 2.27 -> 2.80 ms; (6, 2.2): 1.86 -> 2.57 ms), at 4096
    and 6144 about even ((3, 2.5): 3.48 -> 3.28 ms and 5.26 -> 5.92 ms;
    (6, 2.2) at 4096: 3.11 -> 3.58 ms), and from 8192 on faster ((3, 2.5),
    r_max 50: 6.35 -> 4.57 ms, blend 0.5: 6.64 -> 4.79 ms; (5, 2.4):
    7.16 -> 5.94 ms; (6, 2.2): 5.81 -> 5.55 ms; (3, 2.5) at 16384:
    17.96 -> 7.95 ms, at 32768: 28.33 -> 14.31 ms)."""
    width = min(sigma, grid.r_max / SEED_FIT)
    coarse = None
    if grid.n >= COARSE_START_N:
        coarse = {"n": COARSE_N, "iterations": None, "converged": False}
        try:
            cg = coarse_grid(grid)
            rep = _solve(params, cg, profiles.gaussian(params, width, cg), tol, rho0)
        except (RuntimeError, ValueError):   # numpy.linalg.LinAlgError is a ValueError
            pass
        else:
            coarse.update(iterations=rep.iterations, converged=rep.converged)
            if rep.converged:
                return resample(rep.final, grid), coarse
    return profiles.gaussian(params, width, grid), coarse


def _solve(params: cst.ProblemParams, grid: RadialGrid, init: Profile, tol: float,
           rho0: float) -> SolveReport:
    """minimize_local's descent and Newton polish on `grid` from init."""
    a = params.a
    u = _project_into_ball(params, grid, init, rho0).values.astype(float)

    W = grid.full_weights
    diag, off = grid.stiffness_bands()
    nm = _norms(params, grid, u)
    E = nm.energy(params)
    step = STEP0
    trace = []
    boundary_hit = False
    res = math.inf
    it = flat = 0
    for it in range(MAX_ITER):
        lam = nm.lagrange_multiplier(params)
        F, res = _residual(params, grid, u, lam)
        trace.append((it, E, nm.pohozaev(params), nm.grad2))
        # where the minimum sits at E > 0 (a domain too small for it), E can
        # go flat to rounding above the tolerance: 8 accepted steps in a row
        # that each gain <= 4 eps |E| also hand over to Newton
        if (res < tol * max(1.0, abs(E)) or (E < 0.0 and res < NEWTON_SWITCH * nm.grad2)
                or flat == 8):
            break
        shift = max(-lam, SHIFT_MIN)
        d = SPDFactor(off, diag + shift * W).solve(F)
        d -= (float(np.dot(W, u * d)) / a) * u
        dd = float(np.dot(F, d))
        if dd <= 0.0:
            break
        accepted = False
        rejected_boundary = 0
        for _ in range(60):
            v = u - step * d
            v *= math.sqrt(a / mass(grid, v))
            g2 = grid.stiffness_quad(v)
            if g2 >= rho0:
                rejected_boundary += 1
                step *= 0.5
                continue
            nv = _norms(params, grid, v, g2)
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
        scale = tol * max(1.0, abs(E))
        u_new, ok, _ = _newton_polish(params, grid, u, 0.01 * scale, scale)
        u_new = u_new * math.sqrt(a / mass(grid, u_new))   # Newton meets the mass to ~1e-10
        g2 = grid.stiffness_quad(u_new)
        if ok and g2 < rho0:
            # recompute the residual actually reported
            nn = _norms(params, grid, u_new, g2)
            _, res_new = _residual(params, grid, u_new, nn.lagrange_multiplier(params))
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


def _holds(lam: float, r_max: float) -> bool:
    """Whether r_max holds ten decay lengths 10/sqrt(-lam)."""
    return lam < 0.0 and 10.0 / math.sqrt(-lam) <= r_max


def _stretch(lam: float, r_max: float) -> float:
    """The factor of r_max that puts ten decay lengths 10/sqrt(-lam) at half
    of it; 4 when lam >= 0."""
    return 4.0 if lam >= 0.0 else 20.0 / (math.sqrt(-lam) * r_max)


def minimize_in_domain(params: cst.ProblemParams, grid: RadialGrid, tol: float = 1e-8,
                       thresholds: cst.Thresholds | None = None) -> SolveReport:
    """minimize_local at params, on a wider grid when the minimizer outgrows
    this one.

    A grid holds a lambda when lambda < 0 and r_max holds ten decay lengths
    10/sqrt(-lambda).  Before the first solve, a grid that does not hold the
    default seed's closed-form lambda, or cannot hold the seed itself
    (r_max < SEED_FIT sigma+), is stretched by the rule below, and at least
    until the seed fits.  A solve whose lambda the grid does not hold is
    repeated from its resampled minimizer on the grid with r_max stretched by
    t, at most 4 times: t = 4 when lambda >= 0, else t puts ten decay lengths
    at r_max / 2.  Stretching the nodes by t scales the weights by t^N and
    the stiffness by t^(N-2), as the dilation of (mu, a) to
    (mu t^(N - q(N-2)/2), a / t^2) does, so m_a is that of the dilated problem
    and every other number belongs to params.  Returns the last solve's
    report, with the number of grids solved on in `solves`; final.grid is
    the grid it ran on."""
    thresholds = fnl.require_omega1_or_omega2(params, grid, thresholds, "local minimization")
    sigma = seed_width(params)
    lam = gaussian_norms(params, sigma).lagrange_multiplier(params)
    if not _holds(lam, grid.r_max) or grid.r_max < SEED_FIT * sigma:
        t = max(_stretch(lam, grid.r_max), SEED_FIT * sigma / grid.r_max)
        grid = grid.dilated(t)
    init, coarse = _seed_start(params, grid, sigma, tol, thresholds.rho0)
    for attempt in range(5):
        rep = minimize_local(params, grid, init=init, tol=tol, thresholds=thresholds)
        if attempt == 4 or _holds(rep.lam, grid.r_max):
            rep.solves, rep.coarse = attempt + 1, coarse
            return rep
        t = _stretch(rep.lam, grid.r_max)
        grid = grid.dilated(t)
        init = resample(rep.final, grid)


def boundary_scan(params: cst.ProblemParams, grid: RadialGrid, samples: int,
                  seed: int = 0,
                  thresholds: cst.Thresholds | None = None) -> float:
    """Minimum energy over random profiles dilated onto the kinetic sphere
    ||grad u||^2 = rho0, mass a: each profile's energy there is
    psi(sqrt(rho0 / ||grad u||^2)) of its fiber map, the energy of its exact
    dilation."""
    rho0 = fnl.require_omega1_or_omega2(params, grid, thresholds, "boundary scan").rho0
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        p = profiles.random_trial(rng).profile(grid, params.a)
        nm = fnl.fiber_norms(params, grid, p)
        best = min(best, fnl.psi_value(params, nm, math.sqrt(rho0 / nm.grad2)))
    return best


@dataclass(frozen=True)
class SubadditivityReport:
    m_a: float
    m_a1: float
    m_rest: float
    gap: float            # m_a1 + m_rest - m_a; nonnegative up to solver noise


def subadditivity_check(params: cst.ProblemParams, grid: RadialGrid, a1: float,
                        tol: float = 1e-8) -> SubadditivityReport:
    """Compare m_a with m_a1 + m_(a-a1) by three independent solves, each
    through minimize_in_domain."""
    cst.require_grid_dim(params, grid)
    if not (0.0 < a1 < params.a):
        raise ValueError("a1 must lie strictly between 0 and a")
    m = {}
    for key, aa in (("a", params.a), ("a1", a1), ("rest", params.a - a1)):
        sub = params.with_mass(aa)
        rep = minimize_in_domain(sub, grid, tol)
        if not rep.converged:
            raise RuntimeError(f"sub-run for mass {aa} did not converge "
                               f"(residual {rep.grad_residual:.2e})")
        m[key] = rep.energy
    return SubadditivityReport(m_a=m["a"], m_a1=m["a1"], m_rest=m["rest"],
                               gap=m["a1"] + m["rest"] - m["a"])
