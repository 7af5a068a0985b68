"""Time integration of the focusing equation with combined nonlinearities,

    i psi_t = -Lap psi - |psi|^(ts-2) psi - mu |psi|^(q-2) psi,

for radial complex data on the truncated domain (Dirichlet at r_max).

The scheme is the relaxation form of the time-symmetric Crank-Nicolson
method (C. Besse, SIAM J. Numer. Anal. 42 (2004) 934-952): the nonlinear
potential is carried as a staggered auxiliary variable

    ups^(n+1/2) = 2 V(|psi^n|^2) - ups^(n-1/2),
    V(rho) = rho^(ts/2-1) + mu rho^(q/2-1),

and each step solves one linear Cayley system M+ psi^(n+1) = M- psi^n,
M+- = W +- i dt/2 (A - W ups), with A the stiffness and W the quadrature
weights of the grid.  Since M- = 2W - M+, the step is computed as

    psi^(n+1) = 2 (M+)^(-1) W psi^n - psi^n,

one tridiagonal solve whose right-hand side needs no A psi.  The Cayley step
conserves the discrete mass exactly (A is symmetric and ups is real); the
discrete energy is conserved up to O(dt^2), so halving dt improves the
energy drift about fourfold.  An iterated fixed-point treatment of the
nonlinearity was tried first and abandoned: its inner iteration develops a
slowly traveling divergent mode on these graded meshes.

Blow-up is never "detected" in a rigorous sense: the integrator reports an
indicator when the kinetic norm exceeds a large multiple of its initial
value or when the auxiliary variable stops being finite even at the
minimum step size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import constants as cst
from . import functionals as fnl
from .grid import (Profile, RadialGrid, TridiagBand, all_finite, lq_norm_pow, mass,
                   require_on_grid, rescale)

RESOLUTION_CAP = 0.5      # largest accepted dt * max|potential|
GROWTH_TRIGGER = 1.05     # kinetic-norm growth in one step that halves dt
DT_MIN = 1e-8             # a step size below this raises the blow-up indicator
BLOWUP_FACTOR = 1e3       # so does kinetic-norm growth beyond this factor
STABILITY_STRIDE = 20     # steps between the samples of stability_probe
# why a step attempt is refused; counted per trajectory
REFUSAL_REASONS = ("resolution_cap", "growth", "nonfinite", "singular")


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
    refused_steps: dict[str, int]    # refused step attempts by REFUSAL_REASONS


def _power(rho: np.ndarray, e: float, out: np.ndarray) -> np.ndarray:
    """rho ** e, into `out` unless e == 1, by products and square roots where
    e allows; pow is the costliest part of a step otherwise."""
    if e == 2.0:
        return np.multiply(rho, rho, out=out)
    if e == 1.0:
        return rho
    if e == 0.5:
        return np.sqrt(rho, out=out)
    if e == 0.25:
        return np.sqrt(np.sqrt(rho, out=out), out=out)
    return np.power(rho, e, out=out)


def _density(psi: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|psi|^2, without abs's hypot: the real part of psi * conj(psi),
    computed in the complex `scratch`."""
    np.conjugate(psi, out=scratch)
    return np.multiply(psi, scratch, out=scratch).real


class _RelaxationStepper:
    """The Cayley steps of one trajectory, computed in a workspace allocated
    once, here: no array of grid size is allocated per accepted step."""

    def __init__(self, params: cst.ProblemParams, grid: RadialGrid, linear: bool):
        cst.require_grid_dim(params, grid)
        self.params = params
        self.grid = grid
        self.linear = linear
        self.refused = dict.fromkeys(REFUSAL_REASONS, 0)
        self._dt, self._bands = None, None   # M+ for step size _dt but its ups term
        n = grid.n
        # psi and ups pairs, written alternately: a step never writes into its
        # own input, so a refused step leaves the state it was given intact
        self._psi = (np.empty(n, complex), np.empty(n, complex))
        self._ups = (np.empty(n), np.empty(n))
        self._diag = np.empty(n, complex)        # the diagonal of M+
        self._spare = np.empty(n, complex)       # psi * conj(psi), dv * conj(dv)
        self._pow = (np.empty(n), np.empty(n))   # the powers of |psi|^2
        # W and the interval stiffness as complex: the products with complex
        # arrays then run without a cast buffer, on the same loops
        self._w = grid.full_weights.astype(complex)
        self._k = grid.interval_stiffness.astype(complex)

    def potential(self, rho: np.ndarray) -> np.ndarray:
        """V(rho), a new array."""
        return self._potential(rho, np.empty_like(rho), np.empty_like(rho))

    def _potential(self, rho: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """V(rho) into `out`; `tmp` is scratch of the same size."""
        if self.linear:
            out.fill(0.0)
            return out
        ex, mu = self.params.ex, self.params.mu
        with np.errstate(under="ignore"):
            crit = _power(rho, ex.two_star / 2.0 - 1.0, out)
            sub = np.multiply(mu, _power(rho, self.params.q / 2.0 - 1.0, tmp), out=tmp)
            return np.add(crit, sub, out=out)

    def density_potential(self, psi: np.ndarray) -> np.ndarray:
        """V(|psi|^2), a new array: the restart value of the auxiliary variable."""
        return self.potential(_density(psi, self._spare))

    def grad_l2_sq(self, psi: np.ndarray) -> float:
        """grad_l2_sq(grid, psi) for complex psi, to the bit, computed in the
        workspace so that a step allocates nothing: grad_dot's arithmetic."""
        dv, prod = self._diag, self._spare
        np.subtract(psi[1:], psi[:-1], out=dv[:-1])
        np.subtract(0.0, psi[-1:], out=dv[-1:])    # the Dirichlet ghost value 0
        np.conjugate(dv, out=prod)
        np.multiply(dv, prod, out=prod)
        return float(np.real(np.dot(self._k, prod)))

    def _refuse(self, reason: str) -> None:
        """Count a refused step; returns None, step's refusal."""
        self.refused[reason] += 1
        return None

    def step(self, psi: np.ndarray, ups: np.ndarray, dt: float):
        """One relaxation CN step; returns (psi_new, ups_new), or None and
        counts the reason in `refused`.

        psi_new and ups_new live in the stepper's workspace.  A step given
        them as its input writes into the other pair, so they outlive that
        step, refused or not; any other step may overwrite them.

        A step is refused when dt * max|potential| exceeds RESOLUTION_CAP:
        the Cayley solve would stay stable but simply scramble phases,
        silently freezing a focusing solution instead of following it."""
        new = self._psi[psi is self._psi[0]]
        ups_new = self._ups[ups is self._ups[0]]
        pot = self._potential(_density(psi, new), *self._pow)
        np.multiply(2.0, pot, out=ups_new)
        np.subtract(ups_new, ups, out=ups_new)
        top = float(np.max(np.abs(ups_new, out=self._pow[1])))   # NaN or inf if any entry is
        if not math.isfinite(top):
            return self._refuse("nonfinite")
        if not self.linear and dt * top > RESOLUTION_CAP:
            return self._refuse("resolution_cap")
        W = self.grid.full_weights
        if dt != self._dt:
            # M+ = W + i dt/2 (A - W ups) but for its ups term, once per step size
            diag, off = self.grid.stiffness_bands()
            idt2 = 0.5j * dt
            self._dt, self._bands = dt, (TridiagBand(idt2 * off), W + idt2 * diag, idt2 * W)
        band, diag_b, iw = self._bands
        d = self._diag
        np.copyto(d, ups_new)    # ups_new as complex, as iw * ups_new casts it
        np.subtract(diag_b, np.multiply(iw, d, out=d), out=d)
        try:
            x = band.solve_inplace(d, np.multiply(self._w, psi, out=new))
        except np.linalg.LinAlgError:
            return self._refuse("singular")
        np.multiply(2.0, x, out=new)
        np.subtract(new, psi, out=new)
        if not all_finite(new):
            return self._refuse("nonfinite")
        return new, ups_new


def h1_distance(grid: RadialGrid, psi: np.ndarray, ref: np.ndarray,
                ref_norm_sq: float | None = None) -> float:
    """min over theta of ||psi - e^(i theta) ref||_H1 (phase modulation only;
    radial symmetry pins translations).  ref_norm_sq, ||ref||_H1^2 as
    stiffness_quad(ref) + mass(ref), spares recomputing it per sample."""
    a_psi = grid.stiffness_apply(psi)
    inner = np.vdot(ref, a_psi) + np.vdot(ref * grid.full_weights, psi)
    n_psi = float(np.real(np.vdot(psi, a_psi))) + mass(grid, psi)
    if ref_norm_sq is None:
        ref_norm_sq = grid.stiffness_quad(ref) + mass(grid, ref)
    d2 = n_psi + ref_norm_sq - 2.0 * abs(inner)
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
    it exists for validation against exactly solvable dynamics.  psi0 and
    the reference must live on `grid` itself.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("dt and t_end must be positive")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt must be finite: t_end = {t_end!r}, dt = {dt!r}")
    if not (isinstance(stride, numbers.Integral) and stride >= 1):
        raise ValueError(f"stride must be at least 1 and an integer, got {stride!r}")
    for u in (psi0,) if reference is None else (psi0, reference):
        require_on_grid(grid, u)
    stepper = _RelaxationStepper(params, grid, linear)
    psi = psi0.values.astype(complex)
    ups = stepper.density_potential(psi)
    probe_idx = int(np.argmax(np.abs(psi))) if np.any(psi != 0.0) else 0
    ref = None if reference is None else reference.values.astype(complex)
    ref_norm_sq = None if ref is None else grid.stiffness_quad(ref) + mass(grid, ref)
    times, masses, energies, grads, probes = [], [], [], [], []
    dists = None if ref is None else []

    def record(t: float, psi: np.ndarray, grad2: float) -> None:
        """Sample psi, given its grad_l2_sq; the linear flow has no potential terms."""
        m = mass(grid, psi)
        pots = (0.0, 0.0) if linear else (lq_norm_pow(grid, psi, params.ex.two_star),
                                          lq_norm_pow(grid, psi, params.q))
        times.append(t)
        masses.append(m)
        energies.append(fnl.FiberNorms(grad2, *pots, m).energy(params))
        grads.append(math.sqrt(max(grad2, 0.0)))
        probes.append(psi[probe_idx])
        if dists is not None:
            dists.append(h1_distance(grid, psi, ref, ref_norm_sq))

    # grad_l2_sq, not u.A.u: its per-interval sum is cheaper and has no
    # cancellation between the diagonal and off-diagonal terms of A
    grad2 = stepper.grad_l2_sq(psi)
    g0 = math.sqrt(max(grad2, 1e-300))
    record(0.0, psi, grad2)

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
            refused = ", ".join(f"{k} {v}" for k, v in stepper.refused.items())
            raise RuntimeError(
                f"time stepping exceeded the attempt budget of {max_attempts} attempts "
                f"at t = {t:.6g} of t_end = {t_end:.6g}: {steps} steps taken, "
                f"dt now {cur_dt:.6g}, refused attempts: {refused}; "
                "the step size may be collapsing")
        h = min(cur_dt, t_end - t)
        out = stepper.step(psi, ups, h)
        if out is not None:
            grad2 = stepper.grad_l2_sq(out[0])
            gnorm = math.sqrt(max(grad2, 0.0))
            grew = gnorm > GROWTH_TRIGGER * gnorm_prev and gnorm > GROWTH_TRIGGER * g0
            if grew and cur_dt > 2.0 * DT_MIN:
                stepper.refused["growth"] += 1
                out = None      # under-resolved focusing: retry smaller
        if out is None:
            cur_dt *= 0.5
            ok_streak = 0
            ups = stepper.density_potential(psi)   # restart the recursion
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
                ups = stepper.density_potential(psi)
                ok_streak = 0
        gnorm_prev = gnorm
        sample = (steps % stride == 0) or t >= t_end - 1e-12
        if gnorm > BLOWUP_FACTOR * g0:
            blowup = True
            blowup_time = t
            sample = True
        if sample:
            record(t, psi, grad2)
        if blowup:
            break
    return TrajectorySummary(
        times=np.asarray(times), mass=np.asarray(masses),
        energy=np.asarray(energies), grad_norm=np.asarray(grads),
        h1_distance=None if dists is None else np.asarray(dists),
        probe_values=np.asarray(probes),
        blowup_flag=blowup, blowup_time=blowup_time,
        steps=steps, dt_final=cur_dt, refused_steps=dict(stepper.refused))


@dataclass
class StabilityReport:
    initial_distance: float
    max_distance: float
    growth_factor: float
    summary: TrajectorySummary


def stability_probe(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
                    eps: float, t_end: float, dt: float = 2e-3) -> StabilityReport:
    """Evolve a bump-perturbed standing-wave profile and track the phase-
    modulated H^1 distance to it.  psi0 = (1 + eps exp(-r^2)) u and the
    reference u are both renormalized to mass a; eps may be negative.  u
    must live on `grid` itself."""
    require_on_grid(grid, u)
    vals = (1.0 + eps * np.exp(-grid.nodes ** 2)) * u.values
    with np.errstate(over="ignore"):
        m, m_u = mass(grid, vals), mass(grid, u)
    if not 0.0 < m < math.inf:
        raise ValueError(f"the profile perturbed by eps = {eps!r} has mass {m!r}")
    vals = vals * math.sqrt(params.a / m)
    psi0 = Profile(grid, vals.astype(complex))
    ref = Profile(grid, u.values * math.sqrt(params.a / m_u))
    summary = evolve(params, grid, psi0, dt, t_end, reference=ref, stride=STABILITY_STRIDE)
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
    grid: RadialGrid              # the dilated grid the datum ran on


def blowup_probe(params: cst.ProblemParams, grid: RadialGrid, v: Profile,
                 amplification: float, t_end: float, dt: float = 1e-3,
                 stride: int = 10) -> BlowupReport:
    """Evolve the dilated datum v_tau, tau = amplification > 1 pushes the
    profile past its fiber maximum onto the descending branch; the kinetic
    norm is then monitored for the blow-up indicator.  v must live on `grid`
    itself.  The datum, `rescale`'s exact dilation at mass a, runs on its own
    grid r_max / tau, which the report returns."""
    require_on_grid(grid, v)
    if not 0.0 < amplification < math.inf:
        raise ValueError(f"amplification must be positive and finite, got {amplification!r}")
    w = rescale(v, amplification)
    g = w.grid
    w = Profile(g, (w.values * math.sqrt(params.a / mass(g, w))).astype(complex))
    summary = evolve(params, g, w, dt, t_end, stride=stride)
    growth = float(np.max(summary.grad_norm) / summary.grad_norm[0])
    return BlowupReport(blowup_flag=summary.blowup_flag,
                        blowup_time=summary.blowup_time,
                        grad_growth=growth, summary=summary, grid=g)
