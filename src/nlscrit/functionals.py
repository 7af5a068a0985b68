"""Energy, Pohozaev functional, fiber maps and their critical points.

Along the mass-preserving dilation u_tau(x) = tau^(N/2) u(tau x) the energy
restricted to a fixed profile becomes an explicit function of tau,

    psi(tau) = tau^2/2 g - tau^ts/ts s - (mu/q) tau^(q gamma_q) h,

with g = ||grad u||_2^2, s = int |u|^ts, h = int |u|^q.  Its critical
points are the roots of phi(tau) = tau psi'(tau) = P(u_tau).  Below the
mass-critical exponent and in the admissible regimes the root structure is
a pair tau_plus < tau_minus (local min at negative level, global max at
nonnegative level); at the mass-critical exponent there is either one root
(a maximum) or none.  psi_value and phi_value also take arrays of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cst
from .grid import Profile, RadialGrid, grad_l2_sq, lq_norm_pow, mass

MASS_RTOL = 1e-6
FIBER_SAMPLES = 512    # log-spaced tau of the critical-q scan and the `fiber` table


class RegimeError(ValueError):
    """The requested operation has no structure in this parameter regime."""


class StructuralAnomalyError(RuntimeError):
    """Observed fiber-root structure contradicts the admissible patterns."""


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
    """The norms of u on `grid`, which must be u's own grid: another grid
    with the same n would give wrong norms without any error."""
    if u.grid is not grid:
        raise ValueError("the profile lives on another grid")
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


def brentq(f, a: float, b: float) -> float:
    """Root of f in [a, b] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step as
    scipy.optimize.brentq's C routine, so the roots agree to the last bit.
    It stops once the bracket is below 1e-300 + 8.9e-16 |x| (8.9e-16 is
    about 4 eps, the tightest relative tolerance scipy accepts).  ValueError
    when f(a) and f(b) have the same sign or f returns NaN, RuntimeError
    after 100 iterations."""
    xtol, rtol, maxiter = 1e-300, 8.9e-16, 100

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:          # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                     # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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


def _reduced(params, nm):
    """phi(tau) / tau^(q gamma_q): increases to a single peak, then falls."""
    ex = params.ex
    ts, gq = ex.two_star, ex.q_gamma_q

    def red(tau: float) -> float:
        return (nm.grad2 * tau ** (2.0 - gq) - nm.crit * tau ** (ts - gq)
                - params.mu * ex.gamma_q * nm.sub)
    peak = ((2.0 - gq) * nm.grad2 / ((ts - gq) * nm.crit)) ** (1.0 / (ts - 2.0))
    return red, peak


def fiber_upper_root(params: cst.ProblemParams, nm: FiberNorms):
    """The two-root step of `fiber_critical_points` below the mass-critical
    exponent, from the norms alone: bracket both roots of the reduced fiber
    map, refusing (StructuralAnomalyError) where the map has no root or a
    bracket runs out of [1e-14, 1e14], and solve for the upper root.
    Returns (tau_minus, red, lo, peak); the lower root lies in [lo, peak]."""
    red, peak = _reduced(params, nm)
    if red(peak) <= 0.0:
        raise StructuralAnomalyError(
            "fiber map has no root although the regime guarantees two; "
            "the profile may be under-resolved on this grid")
    lo = peak
    while red(lo) > 0.0:
        lo /= 2.0
        if lo < 1e-14:
            raise StructuralAnomalyError("no lower fiber root above tau = 1e-14")
    hi = peak
    while red(hi) > 0.0:
        hi *= 2.0
        if hi > 1e14:
            raise StructuralAnomalyError("no upper fiber root below tau = 1e14")
    return brentq(red, peak, hi), red, lo, peak


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

    tau_m, red, lo, peak = fiber_upper_root(params, nm)
    tau_p = brentq(red, lo, peak)
    return FiberReport(tau_plus=tau_p, tau_minus=tau_m,
                       e_at_tau_plus=psi_value(params, nm, tau_p),
                       e_at_tau_minus=psi_value(params, nm, tau_m),
                       psi_second_at_tau_minus=psi_second(params, nm, tau_m),
                       strictly_decreasing=False, norms=nm)
