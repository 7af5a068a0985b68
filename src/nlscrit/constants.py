"""Exponents, sharp constants and regime thresholds.

The energy landscape of

    E(u) = 1/2 ||grad u||_2^2 - 1/ts ||u||_ts^ts - mu/q ||u||_q^q,   ts = 2N/(N-2),

restricted to the mass sphere ||u||_2^2 = a is controlled by the sharp
Sobolev constant S and the sharp Gagliardo-Nirenberg constant C_Nq.  Both
are computed numerically here (bubble quadrature, ground state on a grid);
closed forms appear only in the test suite as oracles.  All threshold
formulas are evaluated in log space.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import grid as gridmod
from . import profiles

# relative tolerance for recognizing the mass-critical exponent q = 2 + 4/N
# and for deciding membership of the borderline regime
Q_CRITICAL_RTOL = 1e-12
REGIME_RTOL = 1e-10


class Regime(enum.Enum):
    """Position of (mu, a) relative to the threshold curve.

    OMEGA1/2/3 apply for q below the mass-critical exponent (below / on /
    above the curve mu a^(q(1-gamma_q)/2) = (2K)^((q gamma_q - ts)/(ts-2))).
    At the mass-critical exponent the relevant comparison is against
    abar_N = q / (2 C_Nq^q) instead.
    """

    OMEGA1 = "Omega1"
    OMEGA2 = "Omega2"
    OMEGA3 = "Omega3"
    BELOW_ABAR = "BelowAbar"
    AT_OR_ABOVE_ABAR = "AtOrAboveAbar"


# on or below the threshold curve: the regimes of the local minimizer, the
# mountain-pass level and their stability (`functionals.require_omega1_or_omega2`)
LOCAL_MIN_REGIMES = (Regime.OMEGA1, Regime.OMEGA2)


@dataclass(frozen=True)
class Exponents:
    two_star: float
    gamma_q: float
    q_gamma_q: float
    q_class: str  # "subcritical" | "critical" | "supercritical"


@dataclass(frozen=True)
class ProblemParams:
    """(N, q, mu, a): dimension, subcritical power, its weight, mass.  The
    exponents are derived once, at construction (`ex`); q is mass-critical
    when it lies within Q_CRITICAL_RTOL (relative) of 2 + 4/N."""

    dim: int
    q: float
    mu: float
    a: float
    ex: Exponents = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        N, q = self.dim, self.q
        if N < 3:
            raise ValueError(f"dim must be >= 3, got {N}")
        ts = 2.0 * N / (N - 2.0)
        if not (2.0 < q < ts):
            raise ValueError(f"q must lie in (2, {ts}), got {q}")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.a <= 0.0:
            raise ValueError("a (mass) must be positive")
        if not (math.isfinite(self.mu) and math.isfinite(self.a)):
            raise ValueError(f"mu and a must be finite, got mu={self.mu}, a={self.a}")
        q_crit = 2.0 + 4.0 / N
        if abs(q - q_crit) <= Q_CRITICAL_RTOL * q_crit:   # snap: q*gamma_q == 2 exactly
            ex = Exponents(ts, 2.0 / q, 2.0, "critical")
        else:
            gamma_q = N / 2.0 - N / q
            cls = "supercritical" if q > q_crit else "subcritical"
            ex = Exponents(ts, gamma_q, q * gamma_q, cls)
        object.__setattr__(self, "ex", ex)

    def with_mass(self, a: float) -> "ProblemParams":
        return ProblemParams(self.dim, self.q, self.mu, a)


@dataclass(frozen=True)
class Thresholds:
    """Constant pack; fields that are undefined for the given q are None."""

    S: float
    C_Nq: float
    K: float | None
    a0: float | None
    rho_crit: float | None   # rho_{mu,a}, the maximizer of f_{mu,a}
    rho0: float | None       # rho_{mu,a0}; independent of mu and a
    abar_N: float | None     # q / (2 C_Nq^q), mass-critical q only
    regime: Regime | None


def parse_q(text: str) -> float:
    """Parse a q value: a decimal, or a fraction a/b rounded once to a float."""
    try:
        return float(Fraction(text.strip()))
    except ValueError:
        return float(text)


def is_critical(params: ProblemParams) -> bool:
    return params.ex.q_class == "critical"


def require_grid_dim(params: ProblemParams, grid: gridmod.RadialGrid) -> None:
    """ValueError unless `grid` discretizes R^N for the problem's N: on a grid
    of another dimension the norms would be taken against r^(N'-1) dr with
    the exponents of N, and nothing downstream would notice."""
    if grid.dim != params.dim:
        raise ValueError(f"the problem has dimension {params.dim} but the grid "
                         f"has dimension {grid.dim}")


# ---------------------------------------------------------------------------
# sharp constants

# the bubble grid of S and the ground-state grid of C_Nq
SOBOLEV_R_MAX = 3.0e4
SOBOLEV_N = 8192
SOBOLEV_GRADING = 3.0
GN_N = 8192


@lru_cache(maxsize=32)
def sobolev_constant(dim: int, b: float = 1.0) -> float:
    """Sharp constant S of S ||u||_ts^2 <= ||grad u||_2^2.

    Rayleigh quotient of the extremal bubble, smoothly cut off over the
    outer 60% of a wide graded grid, Richardson-extrapolated over n and 2n
    (SOBOLEV_N) to cancel the O(h^2) of the gradient quadrature.  The domain
    truncation is the remaining error source; SOBOLEV_R_MAX = 3e4 keeps it
    below 0.05% even for dim = 3 where the bubble tail decays slowest.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    ts = 2.0 * dim / (dim - 2.0)

    def quotient(nn: int) -> float:
        g = gridmod.make_grid(dim, SOBOLEV_R_MAX, nn, SOBOLEV_GRADING)
        u = profiles.aubin_talenti(b, g)
        u = profiles.cutoff_profile(u, 0.4 * SOBOLEV_R_MAX)
        num = gridmod.grad_l2_sq(g, u)
        den = gridmod.lq_norm(g, u, ts) ** 2
        return num / den

    s1 = quotient(SOBOLEV_N)
    s2 = quotient(2 * SOBOLEV_N)
    return (4.0 * s2 - s1) / 3.0


@lru_cache(maxsize=64)
def _gn_constant_cached(dim: int, q: float) -> float:
    r_max = max(50.0, 72.0 / profiles.weinstein_decay_rate(dim, q))
    g = gridmod.make_grid(dim, r_max, GN_N, 0.0)
    Q = profiles.weinstein_ground_state(q, g)
    gam = dim / 2.0 - dim / q
    num = gridmod.lq_norm(g, Q, q)
    den = gridmod.grad_l2_sq(g, Q) ** (gam / 2.0) * gridmod.mass(g, Q) ** ((1.0 - gam) / 2.0)
    return num / den


def gn_constant(params: ProblemParams) -> float:
    """Sharp constant C_Nq of ||u||_q <= C_Nq ||grad u||^gamma_q ||u||_2^(1-gamma_q).

    The quotient of the discrete ground state of the associated scalar
    field equation (the maximizer of the quotient), solved on a w = 0 grid
    of GN_N nodes reaching 72 decay lengths (at least r = 50); cached per
    (N, q).  Its discretization error is O(h^2): at the atlas's five (N, q)
    it moves by 1.1e-7 to 8.0e-7 relative from n = 4096 to 8192 and by a
    quarter of that, 2.8e-8 to 2.0e-7, from 8192 to 16384, so at GN_N it
    is off by about 4e-8 to 3e-7 relative.  Blending the grid toward
    uniform spacing at the origin (w = 0.05) moves it by only 1.5e-9 to
    9.6e-9.
    """
    return _gn_constant_cached(params.dim, params.q)


# ---------------------------------------------------------------------------
# thresholds

def f_mu_a(params: ProblemParams, S: float, C_Nq: float, rho: float) -> float:
    """1/2 - (1/ts) S^(-ts/2) rho^(ts/2-1) - (mu/q) C^q a^(q(1-gamma)/2) rho^(q gamma/2-1)."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    ex = params.ex
    ts, gq = ex.two_star, ex.q_gamma_q
    t_sob = math.exp((ts / 2.0 - 1.0) * math.log(rho) - (ts / 2.0) * math.log(S)) / ts
    t_gn = params.mu / params.q * math.exp(
        params.q * math.log(C_Nq)
        + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)
        + (gq / 2.0 - 1.0) * math.log(rho))
    return 0.5 - t_sob - t_gn


def _below_mass_critical(params: ProblemParams, what: str) -> Exponents:
    """The exponents of params; ValueError naming `what` unless q gamma_q < 2."""
    if params.ex.q_gamma_q >= 2.0:
        raise ValueError(f"{what} requires q below the mass-critical exponent")
    return params.ex


def _log_rho_crit(params: ProblemParams, S: float, C_Nq: float) -> float:
    ex = _below_mass_critical(params, "rho_{mu,a}")
    ts, gq = ex.two_star, ex.q_gamma_q
    inner = (math.log(2.0 - gq) + math.log(ts) + (ts / 2.0) * math.log(S)
             + params.q * math.log(C_Nq) + math.log(params.mu)
             + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)
             - math.log(params.q) - math.log(ts - 2.0))
    return 2.0 / (ts - gq) * inner


def rho_crit(params: ProblemParams, S: float, C_Nq: float) -> float:
    """The maximizer rho_{mu,a} of f_mu_a."""
    return math.exp(_log_rho_crit(params, S, C_Nq))


def threshold_K(params: ProblemParams, S: float, C_Nq: float) -> float:
    ex = _below_mass_critical(params, "K")
    ts, gq = ex.two_star, ex.q_gamma_q
    log_pref = (math.log(ts - gq) - math.log(ts) - math.log(2.0 - gq)
                - (ts / 2.0) * math.log(S))
    log_base = (math.log(ts) + (ts / 2.0) * math.log(S) + math.log(2.0 - gq)
                + params.q * math.log(C_Nq) - math.log(params.q) - math.log(ts - 2.0))
    return math.exp(log_pref + (ts - 2.0) / (ts - gq) * log_base)


def _log_threshold(params: ProblemParams, K: float) -> float:
    """log of (2K)^((q gamma - ts)/(ts - 2)), the right side of the threshold curve."""
    ts, gq = params.ex.two_star, params.ex.q_gamma_q
    return (gq - ts) / (ts - 2.0) * math.log(2.0 * K)


def _a0(params: ProblemParams, log_thr: float) -> float:
    return math.exp((log_thr - math.log(params.mu)) * 2.0
                    / (params.q * (1.0 - params.ex.gamma_q)))


def critical_mass_a0(params: ProblemParams, S: float, C_Nq: float) -> float:
    """a0 with mu a0^(q(1-gamma)/2) = (2K)^((q gamma - ts)/(ts - 2)), for this mu."""
    _below_mass_critical(params, "a0")
    return _a0(params, _log_threshold(params, threshold_K(params, S, C_Nq)))


def rho_zero(params: ProblemParams, S: float) -> float:
    """rho0 = rho_{mu,a0}; closed form free of mu and a."""
    ex = _below_mass_critical(params, "rho0")
    ts, gq = ex.two_star, ex.q_gamma_q
    log_rho0 = 2.0 / (ts - 2.0) * (math.log(ts) + math.log(2.0 - gq)
                                   + (ts / 2.0) * math.log(S)
                                   - math.log(2.0) - math.log(ts - gq))
    return math.exp(log_rho0)


def abar(params: ProblemParams, C_Nq: float) -> float:
    """abar_N = q / (2 C_Nq^q); defined only at the mass-critical exponent."""
    if not is_critical(params):
        raise ValueError("abar_N is defined only at q = 2 + 4/N")
    return math.exp(math.log(params.q) - math.log(2.0) - params.q * math.log(C_Nq))


def classify(params: ProblemParams, S: float | None = None,
             C_Nq: float | None = None) -> Regime:
    """Regime of (mu, a); the borderline case is detected in log space with
    relative tolerance REGIME_RTOL."""
    if params.ex.q_class == "supercritical":
        raise ValueError("no regime partition is defined for q above the mass-critical exponent")
    return thresholds(params, S, C_Nq).regime


def thresholds(params: ProblemParams, S: float | None = None,
               C_Nq: float | None = None) -> Thresholds:
    """Populate the constant pack; undefined entries are None.

    Individual accessors (threshold_K, critical_mass_a0, rho_zero, abar)
    raise for out-of-domain q; this aggregate stays total."""
    ex = params.ex
    if S is None:
        S = sobolev_constant(params.dim)
    if C_Nq is None:
        C_Nq = gn_constant(params)
    K = a0 = rc = r0 = ab = None
    regime = None
    # log of mu a^(q(1-gamma)/2), the left side of both regime comparisons
    lhs = math.log(params.mu) + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)
    if ex.q_class == "subcritical":
        K = threshold_K(params, S, C_Nq)
        rhs = _log_threshold(params, K)
        a0 = _a0(params, rhs)
        rc = rho_crit(params, S, C_Nq)
        r0 = rho_zero(params, S)
        tol = REGIME_RTOL * max(1.0, abs(lhs), abs(rhs))
        if abs(lhs - rhs) <= tol:
            regime = Regime.OMEGA2
        else:
            regime = Regime.OMEGA1 if lhs < rhs else Regime.OMEGA3
    elif ex.q_class == "critical":
        ab = abar(params, C_Nq)
        rhs = math.log(ab)
        tol = REGIME_RTOL * max(1.0, abs(lhs), abs(rhs))
        regime = Regime.AT_OR_ABOVE_ABAR if lhs >= rhs - tol else Regime.BELOW_ABAR
    return Thresholds(S=S, C_Nq=C_Nq, K=K, a0=a0, rho_crit=rc, rho0=r0,
                      abar_N=ab, regime=regime)


def energy_lower_bound(params: ProblemParams, S: float, C_Nq: float,
                       grad2: float) -> float:
    """grad2 * f_mu_a(grad2): the coercivity bound E(u) >= this for u on the
    mass sphere."""
    return grad2 * f_mu_a(params, S, C_Nq, grad2)
