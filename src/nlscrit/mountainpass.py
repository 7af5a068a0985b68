"""Mountain-pass level estimates and vanishing-infimum sequences.

Three pieces of machinery:

* an upper estimate of the least energy over the positive-energy part of
  the Pohozaev set, obtained by projecting a soliton-plus-truncated-bubble
  trial family onto that set (the projection of u is its fiber maximum
  u_{tau_minus});

* at the mass-critical exponent, on the borderline mass curve, cutoff
  truncations of the Gagliardo-Nirenberg maximizer whose projected
  energies decrease to zero — computed through tail integrals of the
  cutoff complement, because at large cutoff radii the relevant excess
  (||grad u_n||^2 - mu gamma_q ||u_n||_q^q) sits tens of orders of
  magnitude below the individual norms;

* above the borderline curve, profiles with a prescribed value of the
  Gagliardo-Nirenberg quotient renormalized to unit L^q norm, whose
  excess equals the prescribed offset A_n exactly by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as cst
from . import functionals as fnl
from . import minimize as minmod
from . import profiles
from .grid import Profile, RadialGrid, grad_dot, grad_l2_sq, lq_norm_pow, mass, rescale

P_RTOL = 1e-6    # largest accepted |P| / ||grad||^2 of a projected profile
BUMP_CENTER = 1.5       # the bump that cpo case 2 adds to the ground state
BUMP_HALF_WIDTH = 0.5
MP_BLOCK = 16   # trial amplitudes per block of the mountain-pass family


# ---------------------------------------------------------------------------
# projection onto the positive-energy Pohozaev set

def project_to_pohozaev_minus(params: cst.ProblemParams, grid: RadialGrid,
                              u: Profile,
                              thresholds: cst.Thresholds | None = None) -> Profile:
    """Return u_{tau_minus}, u at its fiber maximum: the exact dilation
    `rescale(u, tau_minus)`, on its own grid r_max / tau_minus, renormalized
    to mass a.  Norms on that grid scale as the fiber map's, so the profile's
    energy is psi(tau_minus) and its Pohozaev value is 0, both to rounding."""
    return _project(params, grid, u, thresholds)[1]


def _project(params: cst.ProblemParams, grid: RadialGrid, u: Profile,
             thresholds: cst.Thresholds | None):
    """(u's fiber report, its projection w, w's norms): project_to_pohozaev_minus."""
    cst.require_grid_dim(params, grid)
    rep = fnl.fiber_critical_points(params, grid, u, thresholds=thresholds)
    if rep.tau_minus is None:
        raise fnl.RegimeError(
            "no admissible projection: the fiber map is strictly decreasing")
    v = rescale(u, rep.tau_minus)
    w = Profile(v.grid, v.values * math.sqrt(params.a / mass(v.grid, v)))
    nm = fnl.fiber_norms(params, w.grid, w)
    pw = nm.pohozaev(params)
    if abs(pw) > P_RTOL * nm.grad2:
        raise RuntimeError(f"projection quality |P| = {abs(pw):.2e} exceeds "
                           f"{P_RTOL:.0e} * ||grad||^2 = {P_RTOL * nm.grad2:.2e}")
    if nm.energy(params) <= 0.0:
        raise RuntimeError("projected profile has nonpositive energy; "
                           "it does not belong to the positive branch")
    return rep, w, nm


# ---------------------------------------------------------------------------
# mountain-pass level upper estimate

@dataclass(frozen=True)
class MPFamilySpec:
    """Soliton-plus-truncated-bubble superpositions w = u_min + s * bubble_b;
    s = 0 (the bare minimizer's own fiber maximum) is always a member."""

    bubble_widths: tuple = (0.125, 0.25, 0.5, 1.0)
    amplitudes: tuple = (0.0,) + tuple(np.geomspace(0.01, 4.0, 63).tolist())
    cutoff_radius: float = 5.0


@dataclass
class LevelEstimate:
    """The family's best projected energy `level` and its `witness`, the
    best trial's exact u_{tau_minus} (project_to_pohozaev_minus), which
    lives on its own grid, witness.grid (r_max / tau_minus), and has energy
    `level` up to rounding there."""

    level: float
    witness: Profile
    witness_norms: fnl.FiberNorms = field(repr=False)   # on witness.grid
    m_a: float
    upper_bound: float            # m_a + S^(N/2)/N
    family_trace: list = field(repr=False)   # ((b, s), projected energy)
    accepted: bool = True


def _family_norms(params: cst.ProblemParams, grid: RadialGrid,
                  family: MPFamilySpec, umin: np.ndarray):
    """(bubbles, norms): the bubble values of each width, and the FiberNorms
    of the trials w = c (umin + s bubble_b), c^2 = a / ||umin + s bubble_b||^2,
    as (widths x amplitudes) arrays in family order.  The bubble vanishes
    beyond 2 * cutoff_radius, so int |w|^ts and int |w|^q are the tail of
    umin, integrated once, plus one pass over the bubble's support per
    block of MP_BLOCK amplitudes, whose two powers come from one log |v| and
    two exp: |v|^p = exp(p log |v|).  ||umin + s bubble_b||^2 and
    ||grad w||^2 = c^2 (g_uu + 2 s g_ub + s^2 g_bb) are quadratics in s of
    three inner products each."""
    ts, q = params.ex.two_star, params.q
    m = int(np.count_nonzero(grid.nodes < 2.0 * family.cutoff_radius))
    W, head = grid.full_weights[:m], umin[:m]
    Wt, tail = grid.full_weights[m:], np.abs(umin[m:])
    tail_crit, tail_sub = float(np.dot(Wt, tail ** ts)), float(np.dot(Wt, tail ** q))
    m_uu, g_uu = mass(grid, umin), grad_l2_sq(grid, umin)
    amps = np.asarray(family.amplitudes, dtype=float)
    shape = (len(family.bubble_widths), len(amps))
    m2, grad2, crit, sub = (np.empty(shape) for _ in range(4))
    # the block, its logs and powers, written in place: two buffers per call
    buf = np.empty((2, min(MP_BLOCK, len(amps)), m))
    bubbles = []
    for i, b in enumerate(family.bubble_widths):
        bub = profiles.cutoff_profile(
            profiles.aubin_talenti(b, grid), family.cutoff_radius).values
        bubbles.append(bub)
        g_ub, g_bb = grad_dot(grid, umin, bub), grad_l2_sq(grid, bub)
        m_ub, m_bb = float(np.dot(W, head * bub[:m])), float(np.dot(W, bub[:m] * bub[:m]))
        m2[i] = m_uu + 2.0 * amps * m_ub + amps * amps * m_bb
        grad2[i] = g_uu + 2.0 * amps * g_ub + amps * amps * g_bb
        for start in range(0, len(amps), MP_BLOCK):
            cols = slice(start, start + MP_BLOCK)
            s = amps[cols]
            v, pw = buf[:, :len(s)]
            np.multiply(s[:, None], bub[:m], out=v)
            v += head
            with np.errstate(divide="ignore"):   # log 0 = -inf, whose exp is 0
                np.log(np.abs(v, out=v), out=v)
            crit[i, cols] = np.exp(np.multiply(v, ts, out=pw), out=pw) @ W
            sub[i, cols] = np.exp(np.multiply(v, q, out=pw), out=pw) @ W
    c2 = params.a / m2
    return bubbles, fnl.FiberNorms(grad2=c2 * grad2,
                                   crit=c2 ** (ts / 2.0) * (crit + tail_crit),
                                   sub=c2 ** (q / 2.0) * (sub + tail_sub), mass=params.a)


def _family_levels(params: cst.ProblemParams, grid: RadialGrid,
                   family: MPFamilySpec, umin: np.ndarray):
    """(trace, failures, best): the projected energy psi(tau_minus) of each
    admitted trial as ((b, s), level) in family order, the (b, s, reason)
    of each trial that `fnl.fiber_root_step` refuses, and the (bubble
    values, s) of the lowest level, or None when every trial is refused.
    One call of the root step solves every trial."""
    bubbles, nm = _family_norms(params, grid, family, umin)
    tau_m, _, reason = fnl.fiber_root_step(params, nm)
    levels = fnl.psi_value(params, nm, tau_m)
    trace, failures = [], []
    best, low = None, math.inf
    for i, b in enumerate(family.bubble_widths):
        for j, s in enumerate(family.amplitudes):
            if reason[i, j] is not None:
                failures.append((b, s, reason[i, j]))
                continue
            lev = float(levels[i, j])
            trace.append(((b, s), lev))
            if lev < low:
                best, low = (bubbles[i], s), lev
    return trace, failures, best


def estimate_mp_level(params: cst.ProblemParams, grid: RadialGrid,
                      family: MPFamilySpec | None = None, *,
                      minimizer: minmod.SolveReport,
                      thresholds: cst.Thresholds | None = None) -> LevelEstimate:
    """Best projected energy over the trial family around `minimizer`, a
    converged minimizer on `grid` (minimize_in_domain's, on its final.grid);
    an upper bound for the least energy on the positive Pohozaev branch,
    checked against the strict window (0, m_a + S^(N/2)/N)."""
    thresholds = fnl.require_omega1_or_omega2(params, grid, thresholds, "the level estimate")
    family = family or MPFamilySpec()
    if 2.0 * family.cutoff_radius > grid.r_max:
        raise ValueError("bubble cutoff support exceeds the grid")
    if not minimizer.converged:
        raise RuntimeError("local minimization did not converge "
                           f"(residual {minimizer.grad_residual:.2e})")
    if minimizer.final.grid is not grid:   # a wider grid has the same n
        raise ValueError("the minimizer was solved on another grid")
    m_a = minimizer.energy
    N = params.dim
    upper = m_a + thresholds.S ** (N / 2.0) / N
    a = params.a
    umin = minimizer.final.values

    trace, failures, best = _family_levels(params, grid, family, umin)
    if best is None:
        raise RuntimeError(f"family produced no admissible projection: {failures[:4]}")
    # the best trial, built and analysed as a profile: its level and
    # projection do not depend on the blocked norms' rounding
    bub, s = best
    vals = umin + s * bub
    w = Profile(grid, vals * math.sqrt(a / mass(grid, vals)))
    rep, witness, norms = _project(params, grid, w, thresholds)
    level = rep.e_at_tau_minus
    return LevelEstimate(level=level, witness=witness, witness_norms=norms, m_a=m_a,
                         upper_bound=upper, family_trace=trace, accepted=bool(0.0 < level < upper))


# ---------------------------------------------------------------------------
# vanishing-infimum sequences at the mass-critical exponent

@dataclass
class CpoSequenceReport:
    case: int
    parameters: list                  # cutoff radii (case 1) or offsets A_n (case 2)
    ratios: list                      # excess / ||u_n||_{ts}^2, one per item
    projected_energies: list          # (1/N) * ratio^(N/2)
    mass_used: float
    monotone_decreasing: bool
    details: dict = field(default_factory=dict, repr=False)


def _require_critical(params: cst.ProblemParams) -> None:
    if params.ex.q_class != "critical":
        raise fnl.RegimeError("the vanishing-infimum constructions require q = 2 + 4/N")


def _one_minus_pow(s: np.ndarray, p: float) -> np.ndarray:
    """1 - (1 - s)^p computed stably for s in [0, 1]."""
    out = np.empty_like(s)
    small = s < 1.0
    out[small] = -np.expm1(p * np.log1p(-s[small]))
    out[~small] = 1.0
    return out


def cpo_sequence_case1(params: cst.ProblemParams, grid: RadialGrid,
                       n_values) -> CpoSequenceReport:
    """Cutoff truncations of the Gagliardo-Nirenberg maximizer on the
    borderline mass curve.

    The mass is constructed from mu so that the *discrete* maximizer sits
    exactly on the curve (mu gamma_q C^q a^((q-2)/2) = 1 with C measured
    from the sampled profile); the excess of each truncation is then a pure
    tail quantity and is evaluated from integrals of the cutoff complement
    only.  Evaluating it as a difference of the full norms instead would
    hit rounding noise already at moderate cutoff radii, since the excess
    decays like exp(-2 kappa n).
    """
    cst.require_grid_dim(params, grid)
    _require_critical(params)
    n_values = sorted(float(v) for v in n_values)
    if not n_values:
        raise ValueError("need at least one cutoff radius")
    if not all(0.0 < v < math.inf for v in n_values):
        raise ValueError(f"cutoff radii must be positive and finite, got {n_values}")
    if 2.0 * max(n_values) > grid.r_max:
        raise ValueError(f"cutoff support 2*{max(n_values)} exceeds r_max = {grid.r_max}")
    N, q, mu = params.dim, params.q, params.mu
    ts, gam = params.ex.two_star, params.ex.gamma_q

    Q = profiles.weinstein_ground_state(q, grid)
    nQ = fnl.fiber_norms(params, grid, Q)
    # discrete sharp constant of this sampled maximizer
    Cq_disc = nQ.sub / (nQ.grad2 ** (q * gam / 2.0) * nQ.mass ** (q * (1.0 - gam) / 2.0))
    # borderline mass: mu gamma C^q a^((q-2)/2) = 1
    a_used = (1.0 / (mu * gam * Cq_disc)) ** (2.0 / (q - 2.0))

    t = math.sqrt(a_used / nQ.mass)
    u = t * Q.values
    g2u = t * t * nQ.grad2
    hu = t ** q * nQ.sub
    su = t ** ts * nQ.crit
    baseline = g2u - mu * gam * hu          # ~1e-15 * g2u by construction

    W = grid.full_weights
    k_int = grid.interval_stiffness
    r = grid.nodes
    kept_floor = grid.n * np.finfo(float).eps

    ratios, energies, checks = [], [], []
    for ncut in n_values:
        phi, sm = profiles.cutoff_factors(r, ncut)
        # tail integrals of the cutoff complement
        dm = float(np.dot(W, sm * (2.0 - sm) * u * u))          # 1 - phi^2
        dh = float(np.dot(W, _one_minus_pow(sm, q) * np.abs(u) ** q))
        ds = float(np.dot(W, _one_minus_pow(sm, ts) * np.abs(u) ** ts))
        # gradient tail g(u) - g(phi u), written out: grad_dot((1 - phi) u, u + phi u)
        # would difference the sum, which rounds otherwise.  sm u = (1 - phi) u
        du, dv, dw = (np.diff(np.append(f, 0.0)) for f in (u, phi * u, sm * u))
        dg = float(np.dot(k_int, dw * (du + dv)))
        hv = hu - dh
        kept_m, kept_s = a_used - dm, su - ds
        # what the cutoff keeps must exceed the rounding of the n-term sums
        if not (kept_m > kept_floor * a_used and kept_s > kept_floor * su):
            raise ValueError(f"cutoff radius {ncut!r} leaves nothing of the profile "
                             "on this grid")
        e2 = dm / kept_m                                        # c^2 - 1
        c2 = 1.0 + e2
        cq2m1 = math.expm1((q - 2.0) / 2.0 * math.log1p(e2))    # c^(q-2) - 1
        excess = c2 * (mu * gam * dh - dg - mu * gam * hv * cq2m1)
        denom = c2 * kept_s ** (2.0 / ts)
        ratio = excess / denom
        ratios.append(ratio)
        energies.append(ratio ** (N / 2.0) / N if ratio > 0.0 else -math.inf)
        checks.append(excess > 0.0)
    monotone = all(b > c for b, c in zip(ratios, ratios[1:])) and all(x > 0 for x in ratios)
    return CpoSequenceReport(case=1, parameters=n_values, ratios=ratios,
                             projected_energies=energies, mass_used=a_used,
                             monotone_decreasing=monotone,
                             details={"baseline_residual": baseline,
                                      "excess_positive": checks,
                                      "C_Nq_pow_q_discrete": Cq_disc})


def _mollifier_bump(r: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump on BUMP_CENTER -+ BUMP_HALF_WIDTH."""
    x = (np.asarray(r) - BUMP_CENTER) / BUMP_HALF_WIDTH
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def cpo_sequence_case2(params: cst.ProblemParams, grid: RadialGrid,
                       A_values) -> CpoSequenceReport:
    """Profiles with prescribed Gagliardo-Nirenberg quotient above the
    borderline curve.

    For each offset A_n > 0, a profile with quotient
    M_n = (mu gamma_q + A_n) a^((q-2)/2) is found on the one-parameter
    family Q + s * bump by the bracketed Newton step `fnl.newton_root`,
    then renormalized (in exact norm algebra) to mass a and unit L^q norm,
    after which the kinetic excess equals A_n identically.
    """
    cst.require_grid_dim(params, grid)
    _require_critical(params)
    A_values = [float(x) for x in A_values]
    if not A_values or not all(0.0 < x < math.inf for x in A_values):
        raise ValueError("offsets A_n must be positive and finite")
    N, q, mu, a = params.dim, params.q, params.mu, params.a
    ts, gam = params.ex.two_star, params.ex.gamma_q

    Q = profiles.weinstein_ground_state(q, grid).values
    bump = _mollifier_bump(grid.nodes)
    W = grid.full_weights

    def quotient(s: float) -> tuple[float, float]:
        """The quotient g2 m2^((q-2)/2) / h_q of Q + s bump (q gamma_q = 2)
        and its s-derivative, from the logarithmic derivatives of its factors."""
        v = Q + s * bump
        g2, m2, hq = grad_l2_sq(grid, v), mass(grid, v), lq_norm_pow(grid, v, q)
        val = g2 * m2 ** ((q - 2.0) / 2.0) / hq
        dlog = (2.0 * grad_dot(grid, v, bump) / g2
                + (q - 2.0) * float(np.dot(W, v * bump)) / m2
                - q * float(np.dot(W, np.abs(v) ** (q - 2.0) * v * bump)) / hq)
        return val, val * dlog

    f0 = quotient(0.0)[0]                             # = 1 / C^q at the maximizer
    # strict inequality regime required: M_n must exceed the minimum f0
    mass_comb = mu * a ** ((q - 2.0) / 2.0)
    abar_disc = q / 2.0 * f0
    if mass_comb <= abar_disc * (1.0 + 1e-10):
        raise fnl.RegimeError(
            f"case 2 requires mu a^((q-2)/2) strictly above abar "
            f"({mass_comb:.6g} vs {abar_disc:.6g})")

    ratios, energies, identities, l2star = [], [], [], []
    theta = (0.5 - 1.0 / q) / (0.5 - 1.0 / ts)
    lower_2star = a ** (-(1.0 - theta) / (2.0 * theta))
    for A_n in A_values:
        M_n = (mu * gam + A_n) * a ** ((q - 2.0) / 2.0)
        if M_n <= f0:
            raise fnl.RegimeError(f"target quotient {M_n:.6g} is below the minimum {f0:.6g}")

        def step(s: np.ndarray):
            val, slope = quotient(float(s[0]))
            return val - M_n, (val - M_n) / slope

        s_hi = 1.0
        reached = quotient(s_hi)[0]
        grew = 0
        while reached < M_n and grew < 60:
            s_hi *= 2.0
            reached = quotient(s_hi)[0]
            grew += 1
        if reached < M_n:
            raise RuntimeError(
                f"could not bracket quotient {M_n:.6g}; family reaches only {reached:.6g}")
        # from s_hi: at s = 0 the quotient is stationary (Q minimizes it)
        s_root = float(fnl.newton_root(step, np.zeros(1), np.array([s_hi]),
                                       np.array([s_hi]), np.zeros(1, dtype=bool))[0])
        nm = fnl.fiber_norms(params, grid, Profile(grid, Q + s_root * bump))
        # exact norm algebra of v(x) = alpha u(beta x)
        x = math.sqrt(nm.mass) / (math.sqrt(a) * nm.sub ** (1.0 / q))
        alpha = x ** (N / 2.0) / nm.sub ** (1.0 / q)
        beta = x ** (q / 2.0)
        g2_n = alpha ** 2 * beta ** (2.0 - N) * nm.grad2
        hq_n = alpha ** q * beta ** (-N) * nm.sub
        sq_n = alpha ** ts * beta ** (-N) * nm.crit
        excess = g2_n - mu * gam * hq_n
        denom = sq_n ** (2.0 / ts)
        ratio = excess / denom
        ratios.append(ratio)
        energies.append(ratio ** (N / 2.0) / N if ratio > 0.0 else -math.inf)
        identities.append(excess)
        l2star.append(math.sqrt(denom))
    monotone = all(b > c for b, c in zip(ratios, ratios[1:])) and all(x > 0 for x in ratios)
    return CpoSequenceReport(case=2, parameters=A_values, ratios=ratios,
                             projected_energies=energies, mass_used=a,
                             monotone_decreasing=monotone,
                             details={"kinetic_excess": identities,
                                      "l2star_norms": l2star,
                                      "l2star_lower_bound": lower_2star,
                                      "theta": theta,
                                      "gn_quotient_minimum": f0})


# ---------------------------------------------------------------------------
# borderline positivity probe

@dataclass
class PositivityProbeReport:
    min_level: float
    levels: np.ndarray
    low_diagnostics: list   # dicts for the lowest-level witnesses


def omega2_positivity_probe(params: cst.ProblemParams, grid: RadialGrid,
                            trials: int, seed: int = 0,
                            thresholds: cst.Thresholds | None = None
                            ) -> PositivityProbeReport:
    """Random search for low projected energies on the positive Pohozaev
    branch.  Cannot prove positivity of the infimum; it reports the
    smallest level found and, for the lowest witnesses, how close their
    kinetic norm is to rho0 and how close they are to Gagliardo-Nirenberg
    optimality (the mechanism that forces levels near zero)."""
    thresholds = fnl.require_omega1_or_omega2(params, grid, thresholds,
                                              "the positivity probe")
    rng = np.random.default_rng(seed)
    rho0 = thresholds.rho0
    gam = params.ex.gamma_q
    levels = np.empty(trials)
    diags = []
    for i in range(trials):
        trial = profiles.random_trial(rng)
        p = trial.profile(grid, params.a)
        rep = fnl.fiber_critical_points(params, grid, p, thresholds=thresholds)
        levels[i] = rep.e_at_tau_minus
        diags.append((rep.e_at_tau_minus, rep.tau_minus, rep.norms))
    diags.sort(key=lambda t: t[0])
    low = []
    for lev, tau, nm in diags[:5]:
        # the norms of p_tau, from the fiber algebra of p's own norms
        g2 = tau ** 2 * nm.grad2
        hq = tau ** params.ex.q_gamma_q * nm.sub
        gn_ratio = hq ** (1.0 / params.q) / (
            thresholds.C_Nq * g2 ** (gam / 2.0) * params.a ** ((1.0 - gam) / 2.0))
        low.append({"level": lev, "grad_l2_sq": g2,
                    "dist_rho0": abs(g2 - rho0),
                    "gn_optimality": gn_ratio})
    return PositivityProbeReport(min_level=float(levels.min()), levels=levels,
                                 low_diagnostics=low)
