"""Energy, Pohozaev functional, fiber maps and their critical points.

Along the mass-preserving dilation u_tau(x) = tau^(N/2) u(tau x) the energy
restricted to a fixed profile becomes an explicit function of tau,

    psi(tau) = tau^2/2 g - tau^ts/ts s - (mu/q) tau^(q gamma_q) h,

with g = ||grad u||_2^2, s = int |u|^ts, h = int |u|^q.  Its critical
points are the roots of phi(tau) = tau psi'(tau) = P(u_tau).  Below the
mass-critical exponent and in the admissible regimes the root structure is
a pair tau_plus < tau_minus (local min at negative level, global max at
nonnegative level); at the mass-critical exponent there is either one root
(a maximum) or none.  psi_value and phi_value also take arrays of tau,
and they and fiber_root_step take norms whose fields are arrays.
`newton_root`, the bracketed Newton step that solves both fiber roots from
closed-form bounds, is the package's one root finder;
`mountainpass.cpo_sequence_case2` solves its amplitudes with it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants as cst
from .grid import Profile, RadialGrid, grad_l2_sq, lq_norm_pow, mass, require_on_grid

MASS_RTOL = 1e-6
FIBER_SAMPLES = 512    # log-spaced tau of the critical-q scan and the `fiber` table


class RegimeError(ValueError):
    """The requested operation has no structure in this parameter regime."""


class StructuralAnomalyError(RuntimeError):
    """Observed fiber-root structure contradicts the admissible patterns."""


def require_omega1_or_omega2(params: cst.ProblemParams, grid: RadialGrid,
                             thresholds: cst.Thresholds | None, caller: str) -> cst.Thresholds:
    """`thresholds`, or those at params when None, for `caller`, which needs
    the hypothesis mu a^(q(1-gamma_q)/2) <= (2K)^((q gamma_q - ts)/(ts - 2)):
    ValueError for a grid of another dimension (`require_grid_dim`), then
    RegimeError naming `caller` outside Omega1/Omega2, so at every q >= 2 + 4/N."""
    cst.require_grid_dim(params, grid)
    if thresholds is None:
        thresholds = cst.thresholds(params)
    regime = thresholds.regime
    if regime not in cst.LOCAL_MIN_REGIMES:
        raise RegimeError(f"{caller} requires regime Omega1 or Omega2, "
                          f"got {regime.value if regime else None}")
    return thresholds


@dataclass(frozen=True)
class FiberNorms:
    """The norms of u, and E, P and lambda written in them."""

    grad2: float   # ||grad u||_2^2
    crit: float    # int |u|^ts
    sub: float     # int |u|^q
    mass: float    # int |u|^2

    def energy(self, params: cst.ProblemParams) -> float:
        """E(u) = 1/2 ||grad u||^2 - 1/ts int |u|^ts - mu/q int |u|^q."""
        return 0.5 * self.grad2 - self.crit / params.ex.two_star \
            - params.mu / params.q * self.sub

    def pohozaev(self, params: cst.ProblemParams) -> float:
        """P(u) = ||grad u||^2 - int |u|^ts - mu gamma_q int |u|^q."""
        return self.grad2 - self.crit - params.mu * params.ex.gamma_q * self.sub

    def lagrange_multiplier(self, params: cst.ProblemParams) -> float:
        """lambda = (||grad u||^2 - int |u|^ts - mu int |u|^q) / ||u||_2^2, the
        stationary equation paired with u: meaningful when u nearly solves it."""
        return (self.grad2 - self.crit - params.mu * self.sub) / self.mass


def fiber_norms(params: cst.ProblemParams, grid: RadialGrid, u: Profile) -> FiberNorms:
    """The norms of u on `grid`, which must be u's own grid
    (`require_on_grid`)."""
    cst.require_grid_dim(params, grid)
    require_on_grid(grid, u)
    return FiberNorms(grad2=grad_l2_sq(grid, u),
                      crit=lq_norm_pow(grid, u, params.ex.two_star),
                      sub=lq_norm_pow(grid, u, params.q),
                      mass=mass(grid, u))


def energy(params: cst.ProblemParams, grid: RadialGrid, u: Profile) -> float:
    return fiber_norms(params, grid, u).energy(params)


def pohozaev(params: cst.ProblemParams, grid: RadialGrid, u: Profile) -> float:
    return fiber_norms(params, grid, u).pohozaev(params)


def lagrange_multiplier(params: cst.ProblemParams, grid: RadialGrid, u: Profile) -> float:
    return fiber_norms(params, grid, u).lagrange_multiplier(params)


# ---------------------------------------------------------------------------
# fiber maps as functions of tau, given the norms of the base profile

def psi_value(params: cst.ProblemParams, nm: FiberNorms, tau) -> float | np.ndarray:
    ex = params.ex
    tau = np.asarray(tau, dtype=float)
    # extreme (mu, norms) overflow at large tau: those values are -inf
    with np.errstate(under="ignore", over="ignore"):
        out = (0.5 * tau**2 * nm.grad2
               - tau**ex.two_star * nm.crit / ex.two_star
               - params.mu / params.q * tau**ex.q_gamma_q * nm.sub)
    return float(out) if out.ndim == 0 else out


def phi_value(params: cst.ProblemParams, nm: FiberNorms, tau) -> float | np.ndarray:
    ex = params.ex
    tau = np.asarray(tau, dtype=float)
    with np.errstate(under="ignore", over="ignore"):   # as in psi_value
        out = (tau**2 * nm.grad2 - tau**ex.two_star * nm.crit
               - params.mu * ex.gamma_q * tau**ex.q_gamma_q * nm.sub)
    return float(out) if out.ndim == 0 else out


def psi_second(params: cst.ProblemParams, nm: FiberNorms, tau: float) -> float:
    ex = params.ex
    ts, gq = ex.two_star, ex.q_gamma_q
    return (nm.grad2 - (ts - 1.0) * tau ** (ts - 2.0) * nm.crit
            - params.mu * ex.gamma_q * (gq - 1.0) * tau ** (gq - 2.0) * nm.sub)


@dataclass(frozen=True)
class FiberReport:
    tau_plus: float | None
    tau_minus: float | None            # at critical q this is the single root
    e_at_tau_plus: float | None
    e_at_tau_minus: float | None
    psi_second_at_tau_minus: float | None
    strictly_decreasing: bool          # critical q, no root: psi < 0 and falling
    norms: FiberNorms                  # of u, which psi and its roots depend on


FIBER_REFUSALS = (   # why `fiber_root_step` refuses an entry, in the order it checks
    "fiber map has no root although the regime guarantees two; "
    "the profile may be under-resolved on this grid",
    "fiber root brackets leave the floats: (k/g)^(1/alpha), k/g or k/c is not a "
    "positive normal float, or c (2U)^beta overflows (k = mu gamma_q h, U = (g/c)^(1/(2* - 2)))",
)
FIBER_ROOT_MAXITER = 100   # Newton steps of `newton_root` before it gives up
_EPS4 = 4.0 * np.finfo(float).eps   # its stopping step, relative to x


def newton_root(f_step, a: np.ndarray, b: np.ndarray, x: np.ndarray,
                left_pos: np.ndarray) -> np.ndarray:
    """Roots of f in the brackets [a, b] by Newton steps from x, entry by
    entry: f_step(x) returns (f, f / f') at every entry of x, and left_pos is
    True where f > 0 at a (a falling map), False where f <= 0 there (a
    rising one).  Each step replaces the bracket end whose sign f has at x,
    and a step that does not land strictly inside the bracket bisects it, so
    the bracket shrinks at every step that does not stop.  An entry stops
    once its step is at most 4 eps |x| (or its bracket is that narrow).

    Entries where x is NaN are left as they are.  ValueError where f is NaN
    at an entry still running, RuntimeError if an entry takes
    FIBER_ROOT_MAXITER steps."""
    a, b, x = a.copy(), b.copy(), x.copy()
    active = ~np.isnan(x)
    for _ in range(FIBER_ROOT_MAXITER):
        if not np.count_nonzero(active):
            return x
        f, step = f_step(x)
        if np.count_nonzero(np.isnan(f) & active):
            raise ValueError("the map is NaN inside a root bracket; "
                             "the root step cannot continue")
        left = (f > 0.0) == left_pos
        np.copyto(a, x, where=left)
        np.copyto(b, x, where=~left)
        new = x - step
        tol = _EPS4 * np.abs(x)
        done = np.abs(step) <= tol
        np.copyto(new, 0.5 * (a + b), where=~(done | ((new > a) & (new < b))))
        np.copyto(x, new, where=active)
        active &= ~done & (b - a > tol)
    if np.count_nonzero(active):
        raise RuntimeError(f"root step did not converge in {FIBER_ROOT_MAXITER} Newton steps")
    return x


def fiber_root_step(params: cst.ProblemParams, nm: FiberNorms):
    """Both fiber roots below the mass-critical exponent, from the norms
    alone.  The fields of `nm` are floats or arrays of one shape; every
    entry goes through the same elementwise arithmetic, so its results do
    not depend on the other entries.

    Per entry, the reduced fiber map r(tau) = phi(tau) / tau^(q gamma_q)
    = g tau^alpha - c tau^beta - k (alpha = 2 - q gamma_q, beta = 2* -
    q gamma_q, k = mu gamma_q h) rises to a single peak and then falls.
    Where r(peak) > 0, one `newton_root` call solves every entry's lower
    root from L = (k/g)^(1/alpha) in [0, peak] and its upper root from
    U = (g/c)^(1/(2* - 2)) in [peak, 2U]: r(L) = -c L^beta and r(U) = -k
    hold only to a rounding that grows with |ln L| and |ln U|, while r(0)
    = -k and r(2U) are negative by a wide margin.  Refused (FIBER_REFUSALS,
    in that order): r(peak) <= 0; L, k/g or k/c not a positive normal float
    (an underflowed power could then cost a term more than eps/2 of k), or
    c (2U)^beta overflowing.  Where the map is concave, the steps approach
    each root from its start.

    Returns (tau_minus, tau_plus, reason).  reason is None where the entry
    is admitted, else its refusal message, and both roots are NaN there.
    Floats for float norms, else arrays of their shape."""
    ex = params.ex
    ts, gq = ex.two_star, ex.q_gamma_q
    shape = np.shape(nm.grad2)
    # 1-d even for one entry: numpy hands 0-d results to its scalar math,
    # whose pow rounds differently from the array loops.  The exponents are
    # 0-d arrays, which numpy need not convert at every power.
    g, c, h = (np.asarray(x, dtype=float).reshape(-1) for x in (nm.grad2, nm.crit, nm.sub))
    al, be = np.array(2.0 - gq), np.array(ts - gq)
    k = params.mu * ex.gamma_q * h

    def step(tau: np.ndarray):
        ga, cb = g * tau ** al, c * tau ** be
        f = ga - cb - k
        return f, tau * (f / (al * ga - be * cb))   # r / r' (f tau can underflow)

    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        peak = (al * g / (be * c)) ** (1.0 / (ts - 2.0))
        ok = step(peak)[0] > 0.0   # r(peak) > 0
        lo, up = (k / g) ** (1.0 / al), (g / c) ** (1.0 / (ts - 2.0))
        off_floats = ok & ~((np.minimum(np.minimum(lo, k / g), k / c) >= np.finfo(float).tiny)
                            & (c * (2.0 * up) ** be < np.inf))
        # row 0 the lower roots, row 1 the upper: r(0) < 0 < r(peak) > 0 > r(2U)
        tau_p, tau_m = newton_root(step, np.array([np.zeros_like(lo), peak]),
                                   np.array([peak, 2.0 * up]),
                                   np.where(ok & ~off_floats, [lo, up], np.nan),
                                   np.array([[False], [True]]))
    reason = np.full(g.shape, None, dtype=object)
    for refused, message in zip((~ok, off_floats), FIBER_REFUSALS):
        reason[refused] = message
    if not shape:
        return float(tau_m[0]), float(tau_p[0]), reason[0]
    return tau_m.reshape(shape), tau_p.reshape(shape), reason.reshape(shape)


def fiber_roots(params: cst.ProblemParams, nm: FiberNorms) -> tuple[float, float]:
    """(tau_plus, tau_minus) below the mass-critical exponent by
    `fiber_root_step`; StructuralAnomalyError with its refusal message."""
    tau_m, tau_p, reason = fiber_root_step(params, nm)
    if reason is not None:
        raise StructuralAnomalyError(reason)
    return tau_p, tau_m


def fiber_critical_points(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
                          thresholds: cst.Thresholds | None = None) -> FiberReport:
    """Locate the dilation parameters where P(u_tau) = 0.

    Requires u on the mass sphere (relative tolerance MASS_RTOL).  Below the
    mass-critical exponent the admissible regimes are Omega1/Omega2; above
    the threshold curve no root structure is described and the call is
    refused; otherwise psi is evaluated only at the roots tau_plus < tau_minus.
    At the mass-critical exponent the unique root exists iff ||grad u||^2 >
    mu gamma_q int |u|^q and has a closed form tau_u, cross-checked by the
    sign of phi on FIBER_SAMPLES points tau_u * logspace(-6, 6).
    """
    nm = fiber_norms(params, grid, u)
    if abs(nm.mass - params.a) > MASS_RTOL * params.a:
        raise ValueError(
            f"u is not on the mass sphere: ||u||_2^2 = {nm.mass:.12g}, a = {params.a:.12g}")
    ex = params.ex
    if ex.q_class == "supercritical":
        raise RegimeError("no fiber analysis above the mass-critical exponent")

    if ex.q_class == "critical":
        excess = nm.grad2 - params.mu * ex.gamma_q * nm.sub
        if excess <= 0.0:
            return FiberReport(tau_plus=None, tau_minus=None, e_at_tau_plus=None,
                               e_at_tau_minus=None, psi_second_at_tau_minus=None,
                               strictly_decreasing=True, norms=nm)
        tau_u = (excess / nm.crit) ** (1.0 / (ex.two_star - 2.0))
        # scan cross-check: phi / tau^2 changes sign exactly once, at tau_u
        taus = tau_u * np.logspace(-6.0, 6.0, FIBER_SAMPLES)
        with np.errstate(under="ignore", over="ignore"):
            sgn = np.sign(excess - nm.crit * taus ** (ex.two_star - 2.0))
        flips = np.flatnonzero(np.diff(sgn) != 0)
        if flips.size != 1:
            raise StructuralAnomalyError(
                f"expected a single fiber root at critical q, scan found {flips.size}")
        return FiberReport(tau_plus=None, tau_minus=tau_u, e_at_tau_plus=None,
                           e_at_tau_minus=psi_value(params, nm, tau_u),
                           psi_second_at_tau_minus=psi_second(params, nm, tau_u),
                           strictly_decreasing=False, norms=nm)

    if thresholds is None:
        thresholds = cst.thresholds(params)
    if thresholds.regime is cst.Regime.OMEGA3:
        raise RegimeError(
            "no two-root fiber structure is available above the threshold curve "
            "(regime Omega3); refuse rather than guess")

    tau_p, tau_m = fiber_roots(params, nm)
    return FiberReport(tau_plus=tau_p, tau_minus=tau_m,
                       e_at_tau_plus=psi_value(params, nm, tau_p),
                       e_at_tau_minus=psi_value(params, nm, tau_m),
                       psi_second_at_tau_minus=psi_second(params, nm, tau_m),
                       strictly_decreasing=False, norms=nm)
