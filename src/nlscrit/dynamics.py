"""Time integration of the focusing equation with combined nonlinearities,

    i psi_t = -Lap psi - |psi|^(ts-2) psi - mu |psi|^(q-2) psi,

for radial complex data on the truncated domain (Dirichlet at r_max).

The scheme is the relaxation form of the time-symmetric Crank-Nicolson
method: the nonlinear potential is carried as a staggered auxiliary
variable

    ups^(n+1/2) = 2 V(|psi^n|^2) - ups^(n-1/2),
    V(rho) = rho^(ts/2-1) + mu rho^(q/2-1),

and each step solves one linear Cayley system
(I + i dt/2 (L - ups)) psi^(n+1) = (I - i dt/2 (L - ups)) psi^n.
The Cayley step conserves the discrete mass exactly (L is self-adjoint in
the weighted inner product and ups is real); the discrete energy is
conserved up to O(dt^2), so halving dt improves the energy drift about
fourfold.  An iterated fixed-point treatment of the nonlinearity was tried
first and abandoned: its inner iteration develops a slowly traveling
divergent mode on these graded meshes.

Blow-up is never "detected" in a rigorous sense: the integrator reports an
indicator when the kinetic norm exceeds a large multiple of its initial
value or when the auxiliary variable stops being finite even at the
minimum step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as cst
from .grid import Profile, RadialGrid, lq_norm_pow, mass, rescale, tridiag_solve

RESOLUTION_CAP = 0.5      # largest accepted dt * max|potential|
GROWTH_TRIGGER = 1.05     # kinetic-norm growth in one step that halves dt
DT_MIN = 1e-8             # a step size below this raises the blow-up indicator
BLOWUP_FACTOR = 1e3       # so does kinetic-norm growth beyond this factor


@dataclass
class TrajectorySummary:
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    grad_norm: np.ndarray            # ||grad psi||_2 (not squared)
    h1_distance: np.ndarray | None   # inf over phase of ||psi - e^(i th) ref||_H1
    probe_values: np.ndarray         # psi at the initial peak node, per sample
    blowup_flag: bool
    blowup_time: float | None
    steps: int
    dt_final: float


class _RelaxationStepper:
    def __init__(self, params: cst.ProblemParams, grid: RadialGrid, linear: bool):
        self.params = params
        self.grid = grid
        self.linear = linear
        self.ex = cst.exponents(params)

    def energy(self, psi: np.ndarray) -> float:
        ts, q, mu = self.ex.two_star, self.params.q, self.params.mu
        kin = 0.5 * self.grid.stiffness_quad(psi)
        if self.linear:
            return kin
        return kin - lq_norm_pow(self.grid, psi, ts) / ts \
            - mu / q * lq_norm_pow(self.grid, psi, q)

    def potential(self, rho: np.ndarray) -> np.ndarray:
        if self.linear:
            return np.zeros_like(rho)
        ts, q, mu = self.ex.two_star, self.params.q, self.params.mu
        with np.errstate(under="ignore"):
            return rho ** (ts / 2.0 - 1.0) + mu * rho ** (q / 2.0 - 1.0)

    def step(self, psi: np.ndarray, ups: np.ndarray, dt: float):
        """One relaxation CN step; returns (psi_new, ups_new) or None.

        A step is refused when dt * max|potential| exceeds RESOLUTION_CAP:
        the Cayley solve would stay stable but simply scramble phases,
        silently freezing a focusing solution instead of following it."""
        ups_new = 2.0 * self.potential(np.abs(psi) ** 2) - ups
        if not np.all(np.isfinite(ups_new)):
            return None
        if not self.linear and dt * float(np.max(np.abs(ups_new))) > RESOLUTION_CAP:
            return None
        idt2 = 0.5j * dt
        g = self.grid
        W = g.full_weights
        diag, off = g.stiffness_bands()
        rhs = W * psi - idt2 * (g.stiffness_apply(psi) - W * ups_new * psi)
        try:
            new = tridiag_solve(idt2 * off, W + idt2 * (diag - W * ups_new), rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(new)):
            return None
        return new, ups_new


def h1_distance(grid: RadialGrid, psi: np.ndarray, ref: np.ndarray) -> float:
    """min over theta of ||psi - e^(i theta) ref||_H1 (phase modulation only;
    radial symmetry pins translations)."""
    inner = np.vdot(ref, grid.stiffness_apply(psi)) + np.vdot(ref * grid.full_weights, psi)
    n_psi = grid.stiffness_quad(psi) + mass(grid, psi)
    n_ref = grid.stiffness_quad(ref) + mass(grid, ref)
    d2 = n_psi + n_ref - 2.0 * abs(inner)
    return math.sqrt(max(d2, 0.0))


def evolve(params: cst.ProblemParams, grid: RadialGrid, psi0: Profile,
           dt: float, t_end: float, reference: Profile | None = None,
           stride: int = 10, linear: bool = False) -> TrajectorySummary:
    """March to t_end or to the blow-up indicator.

    Near a focusing event the step size is halved whenever the kinetic
    norm grows by more than GROWTH_TRIGGER in a single step, and is
    allowed to recover on calm stretches; if it collapses below DT_MIN, or
    the kinetic norm grows beyond BLOWUP_FACTOR, the blow-up indicator is
    raised.  `linear` disables the nonlinear potentials (free propagation);
    it exists for validation against exactly solvable dynamics.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    stepper = _RelaxationStepper(params, grid, linear)
    psi = psi0.values.astype(complex)
    ups = stepper.potential(np.abs(psi) ** 2)
    probe_idx = int(np.argmax(np.abs(psi))) if np.any(psi != 0.0) else 0
    g0 = math.sqrt(max(grid.stiffness_quad(psi), 1e-300))

    times = [0.0]
    masses = [mass(grid, psi)]
    energies = [stepper.energy(psi)]
    grads = [math.sqrt(max(grid.stiffness_quad(psi), 0.0))]
    probes = [psi[probe_idx]]
    dists = None
    if reference is not None:
        ref = reference.values.astype(complex)
        dists = [h1_distance(grid, psi, ref)]

    t = 0.0
    cur_dt = dt
    steps = 0
    ok_streak = 0
    blowup = False
    blowup_time = None
    gnorm_prev = grads[0]
    max_attempts = int(50 * math.ceil(t_end / dt)) + 10000
    attempts = 0
    while t < t_end - 1e-12:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError("time stepping exceeded the attempt budget; "
                               "the step size may be collapsing")
        h = min(cur_dt, t_end - t)
        out = stepper.step(psi, ups, h)
        gnorm = None
        if out is not None:
            gnorm = math.sqrt(max(grid.stiffness_quad(out[0]), 0.0))
            grew = gnorm > GROWTH_TRIGGER * gnorm_prev and gnorm > GROWTH_TRIGGER * g0
            if grew and cur_dt > 2.0 * DT_MIN:
                out = None      # under-resolved focusing: retry smaller
        if out is None:
            cur_dt *= 0.5
            ok_streak = 0
            ups = stepper.potential(np.abs(psi) ** 2)   # restart the recursion
            if cur_dt < DT_MIN:
                blowup = True
                blowup_time = t
                break
            continue
        psi, ups = out
        t += h
        steps += 1
        if cur_dt < dt:
            ok_streak += 1
            if ok_streak >= 8:      # recover the step size after a rough patch
                cur_dt = min(2.0 * cur_dt, dt)
                ups = stepper.potential(np.abs(psi) ** 2)
                ok_streak = 0
        gnorm_prev = gnorm
        record = (steps % stride == 0) or t >= t_end - 1e-12
        if gnorm > BLOWUP_FACTOR * g0:
            blowup = True
            blowup_time = t
            record = True
        if record:
            times.append(t)
            masses.append(mass(grid, psi))
            energies.append(stepper.energy(psi))
            grads.append(gnorm)
            probes.append(psi[probe_idx])
            if dists is not None:
                dists.append(h1_distance(grid, psi, ref))
        if blowup:
            break
    return TrajectorySummary(
        times=np.asarray(times), mass=np.asarray(masses),
        energy=np.asarray(energies), grad_norm=np.asarray(grads),
        h1_distance=None if dists is None else np.asarray(dists),
        probe_values=np.asarray(probes),
        blowup_flag=blowup, blowup_time=blowup_time,
        steps=steps, dt_final=cur_dt)


@dataclass
class StabilityReport:
    initial_distance: float
    max_distance: float
    growth_factor: float
    summary: TrajectorySummary


def stability_probe(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
                    eps: float, t_end: float, dt: float = 2e-3,
                    stride: int = 20) -> StabilityReport:
    """Evolve a bump-perturbed standing-wave profile and track the phase-
    modulated H^1 distance to it.  psi0 = (1 + eps exp(-r^2)) u, mass
    renormalized; eps may be negative."""
    vals = (1.0 + eps * np.exp(-grid.nodes ** 2)) * u.values
    vals = vals * math.sqrt(params.a / mass(grid, vals))
    psi0 = Profile(grid, vals.astype(complex))
    summary = evolve(params, grid, psi0, dt, t_end, reference=u, stride=stride)
    d0 = summary.h1_distance[0]
    dmax = float(np.max(summary.h1_distance))
    growth = dmax / d0 if d0 > 0.0 else (math.inf if dmax > 0.0 else 1.0)
    return StabilityReport(initial_distance=d0, max_distance=dmax,
                           growth_factor=growth, summary=summary)


@dataclass
class BlowupReport:
    blowup_flag: bool
    blowup_time: float | None
    grad_growth: float            # max grad_norm / initial grad_norm
    summary: TrajectorySummary


def blowup_probe(params: cst.ProblemParams, grid: RadialGrid, v: Profile,
                 amplification: float, t_end: float, dt: float = 1e-3,
                 stride: int = 10) -> BlowupReport:
    """Evolve the dilated datum v_tau, tau = amplification > 1 pushes the
    profile past its fiber maximum onto the descending branch; the kinetic
    norm is then monitored for the blow-up indicator."""
    if amplification <= 0.0:
        raise ValueError("amplification must be positive")
    w = rescale(v, amplification)
    w = Profile(grid, (w.values * math.sqrt(params.a / mass(grid, w))).astype(complex))
    summary = evolve(params, grid, w, dt, t_end, stride=stride)
    growth = float(np.max(summary.grad_norm) / summary.grad_norm[0])
    return BlowupReport(blowup_flag=summary.blowup_flag,
                        blowup_time=summary.blowup_time,
                        grad_growth=growth, summary=summary)
