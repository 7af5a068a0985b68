"""Special radial profiles: scalar-field ground states, extremal bubbles,
cutoff families, Gaussians and trial functions.

The ground state solved here is the positive decreasing solution of

    A u'' + A (N-1)/r u' - B u + |u|^(q-2) u = 0,
    A = (q-2) N / 4,   B = 1 + (q-2)(2-N)/4,

computed on the caller's grid in the grid's own discretization,
A K u + B W u = W |u|^(q-2) u (stiffness K, quadrature weights W):
Petviashvili's iteration (V. I. Petviashvili, 1976; convergence in
D. Pelinovsky & Y. Stepanyants, SIAM J. Numer. Anal. 42, 2004), whose
solves with L = A K + B W share one LDL^T factor, followed by Newton
(`grid.damped_newton`).  From a Gaussian the iteration count does not fall
with the mesh, so on grids of more than COARSE_N nodes the iteration starts
from the ground state of `grid.coarse_grid` (same r_max, grading and origin
blend), prolonged by monotone cubic interpolation.  Its far field decays
like r^(-(N-1)/2) exp(-kappa r), kappa = sqrt(B/A), which sets the domain
of the sharp-constant grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (COARSE_N, Profile, RadialGrid, SPDFactor, coarse_grid, damped_newton, mass,
                   resample)


def ode_coefficients(dim: int, q: float) -> tuple[float, float]:
    A = (q - 2.0) * dim / 4.0
    B = 1.0 + (q - 2.0) * (2.0 - dim) / 4.0
    if A <= 0.0 or B <= 0.0:
        raise ValueError(f"no ground state normalization for dim={dim}, q={q}")
    return A, B


def weinstein_decay_rate(dim: int, q: float) -> float:
    A, B = ode_coefficients(dim, q)
    return math.sqrt(B / A)


# The residual is |L u - W |u|^(q-2) u| / |W |u|^(q-2) u| over the weak-form
# rows.  Rounding bounds it from below, at ~2e-11 for n = 8192 and ~4e-10
# for n = 32768 on w = 0 grids: below NEWTON_FLOOR, Newton also stops once
# the residual stops falling, and only a residual above it is a failure.
PETVIASHVILI_TOL = 1e-6     # handed over to Newton
PETVIASHVILI_MAX = 500
NEWTON_TOL = 1e-10
NEWTON_FLOOR = 1e-8


def weinstein_ground_state(q: float, grid: RadialGrid) -> Profile:
    """Discrete ground state of the scalar field equation on `grid`, in its
    dimension.

    Solves A K u + B W u = W |u|^(q-2) u with the grid's stiffness K and
    weights W: Petviashvili iteration down to a relative residual
    PETVIASHVILI_TOL, then damped tridiagonal Newton down to NEWTON_TOL (or
    the rounding floor).  On grids of more than COARSE_N nodes the iteration
    starts from the ground state of `coarse_grid(grid)` (same r_max,
    grading and origin blend), prolonged by `resample`; else from a
    Gaussian.
    """
    start = None
    if grid.n > COARSE_N:
        coarse = coarse_grid(grid)
        start = resample(Profile(coarse, _ground_state(q, coarse)), grid).values
    return Profile(grid, _ground_state(q, grid, start))


def _ground_state(q: float, grid: RadialGrid, u: np.ndarray | None = None) -> np.ndarray:
    """weinstein_ground_state's iteration on `grid` from u, by default the
    Gaussian B^(1/(q-2)) exp(-r^2/2).  Petviashvili's linear solves share
    one factor of L = A K + B W; Newton is `grid.damped_newton`."""
    A, B = ode_coefficients(grid.dim, q)
    W = grid.full_weights
    diag, off = grid.stiffness_bands()
    L_diag, L_off = A * diag + B * W, A * off

    def state(u):
        Lu = A * grid.stiffness_apply(u) + B * W * u
        nl = W * np.abs(u) ** (q - 2.0) * u
        return u, Lu, nl, float(np.linalg.norm(Lu - nl) / np.linalg.norm(nl))

    def newton_step(st, solve):
        u, Lu, nl, _ = st
        return -solve(L_diag - (q - 1.0) * W * np.abs(u) ** (q - 2.0), Lu - nl)

    # on grids that cannot hold the ground state (r_max far too small or far
    # too large for n) the iterate overflows or vanishes: an error, not a warning
    try:
        with np.errstate(under="ignore", over="raise", divide="raise", invalid="raise"):
            if u is None:
                u = B ** (1.0 / (q - 2.0)) * np.exp(-0.5 * grid.nodes ** 2)
            L = SPDFactor(L_off, L_diag)
            for _ in range(PETVIASHVILI_MAX):
                st = u, Lu, nl, res = state(u)
                if res < PETVIASHVILI_TOL:
                    break
                stab = (np.dot(u, Lu) / np.dot(u, nl)) ** ((q - 1.0) / (q - 2.0))
                u = stab * L.solve(nl)
            else:
                raise RuntimeError(f"Petviashvili iteration stalled at residual {res:.2e}")
            u, *_, res = damped_newton(L_off, L_diag, state, newton_step, st,
                                       NEWTON_TOL, NEWTON_FLOOR)
    except FloatingPointError as exc:
        raise RuntimeError(f"ground-state iteration failed on this grid: {exc}") from exc
    if res > NEWTON_FLOOR:
        raise RuntimeError(f"ground-state Newton stopped at residual {res:.2e}")
    return u


def aubin_talenti(b: float, grid: RadialGrid) -> Profile:
    """Extremal bubble (b / (b^2 + r^2))^((N-2)/2), N = grid.dim."""
    if b <= 0.0:
        raise ValueError("b must be positive")
    r = grid.nodes
    vals = (b / (b * b + r * r)) ** ((grid.dim - 2.0) / 2.0)
    if not vals.any():   # b * b overflows
        raise ValueError(f"the bubble of b = {b!r} vanishes at every node of this grid")
    return Profile(grid, vals)


# ---------------------------------------------------------------------------
# cutoff machinery

def smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep: 0 at t<=0, 1 at t>=1, C^2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)


def cutoff_factors(r: np.ndarray, n_cut: float):
    """(phi, 1-phi) for the radial cutoff that is 1 on [0, n] and 0 beyond 2n.

    The complement is returned separately because 1 - phi underflows in the
    region where phi is within rounding of 1; downstream tail computations
    need it to full relative accuracy."""
    s = smoothstep((np.asarray(r) - n_cut) / n_cut)
    return 1.0 - s, s


def cutoff_profile(u: Profile, n_cut: float) -> Profile:
    """v(r) = phi(r/n) u(r): identical to u on B_n, zero outside B_2n."""
    if not 0.0 < n_cut < math.inf:
        raise ValueError(f"the cutoff radius must be positive and finite, got {n_cut!r}")
    if 2.0 * n_cut > u.grid.r_max:
        raise ValueError(f"cutoff support 2n = {2*n_cut} exceeds r_max = {u.grid.r_max}")
    phi, _ = cutoff_factors(u.grid.nodes, n_cut)
    return Profile(u.grid, phi * u.values)


def gaussian(params, sigma: float, grid: RadialGrid) -> Profile:
    """c exp(-r^2 / (2 sigma^2)) with int |.|^2 = a analytically."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    N = grid.dim
    s = np.float64(sigma)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        c = math.sqrt(params.a) / (s ** (N / 2.0) * math.pi ** (N / 4.0))
        two_var = 2.0 * s ** 2
        if not (0.0 < c < math.inf and 0.0 < two_var < math.inf):
            raise ValueError(f"sigma = {sigma!r} has no finite normalization in dimension "
                             f"{N}: sigma^(N/2) or sigma^2 leaves the floating-point range")
        vals = c * np.exp(-grid.nodes ** 2 / two_var)
    if not vals.any():
        raise ValueError(f"the gaussian of sigma = {sigma!r} vanishes at every node "
                         "of this grid")
    return Profile(grid, vals)


# ---------------------------------------------------------------------------
# seeded trial functions for scans and probes

@dataclass(frozen=True)
class TrialFunction:
    """Gaussian with a low-order polynomial modulation, in closed form."""

    sigma: float
    coeffs: tuple[float, float, float]

    def __call__(self, r: np.ndarray) -> np.ndarray:
        t = np.asarray(r) / self.sigma
        c1, c2, c3 = self.coeffs
        p = 1.0 + t * (c1 + t * (c2 + t * c3))
        with np.errstate(under="ignore"):
            return p * np.exp(-0.5 * t * t)

    def profile(self, grid: RadialGrid, target_mass: float) -> Profile:
        """Sample f on the grid, renormalized to the requested mass."""
        vals = self(grid.nodes)
        return Profile(grid, vals * math.sqrt(target_mass / mass(grid, vals)))


TRIAL_SIGMA_RANGE = (0.6, 2.5)   # log-uniform widths of random_trial
TRIAL_COEFF_SCALE = 0.3          # its modulation coefficients are uniform in -+ this


def random_trial(rng: np.random.Generator) -> TrialFunction:
    lo, hi = TRIAL_SIGMA_RANGE
    sigma = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    coeffs = tuple(rng.uniform(-TRIAL_COEFF_SCALE, TRIAL_COEFF_SCALE, size=3))
    return TrialFunction(sigma=sigma, coeffs=coeffs)
