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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import grid as gridmod

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


@dataclass(frozen=True)
class ProblemParams:
    """(N, q, mu, a): dimension, subcritical power, its weight, mass."""

    dim: int
    q: float
    mu: float
    a: float
    q_exact: Fraction | None = None

    def __post_init__(self):
        if self.dim < 3:
            raise ValueError(f"dim must be >= 3, got {self.dim}")
        ts = 2.0 * self.dim / (self.dim - 2.0)
        if not (2.0 < self.q < ts):
            raise ValueError(f"q must lie in (2, {ts}), got {self.q}")
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        if self.a <= 0.0:
            raise ValueError("a (mass) must be positive")
        if not (math.isfinite(self.mu) and math.isfinite(self.a)):
            raise ValueError(f"mu and a must be finite, got mu={self.mu}, a={self.a}")

    def with_mass(self, a: float) -> "ProblemParams":
        return ProblemParams(self.dim, self.q, self.mu, a, self.q_exact)


@dataclass(frozen=True)
class Exponents:
    two_star: float
    gamma_q: float
    q_gamma_q: float
    q_class: str  # "subcritical" | "critical" | "supercritical"


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


def parse_q(text: str) -> tuple[float, Fraction | None]:
    """Parse a q value, keeping exact rational form when one is given."""
    text = text.strip()
    try:
        fr = Fraction(text)
        return float(fr), fr
    except ValueError:
        return float(text), None


def exponents(params: ProblemParams) -> Exponents:
    N, q = params.dim, params.q
    ts = 2.0 * N / (N - 2.0)
    q_crit = 2.0 + 4.0 / N
    if params.q_exact is not None:
        exact_crit = Fraction(2) + Fraction(4, N)
        if params.q_exact == exact_crit:
            cls = "critical"
        else:
            cls = "subcritical" if params.q_exact < exact_crit else "supercritical"
    else:
        if abs(q - q_crit) <= Q_CRITICAL_RTOL * q_crit:
            cls = "critical"
        else:
            cls = "subcritical" if q < q_crit else "supercritical"
    if cls == "critical":
        # snap so that q*gamma_q == 2 holds exactly
        gamma_q = 2.0 / q
        q_gamma_q = 2.0
    else:
        gamma_q = N / 2.0 - N / q
        q_gamma_q = q * gamma_q
    return Exponents(two_star=ts, gamma_q=gamma_q, q_gamma_q=q_gamma_q, q_class=cls)


def is_critical(params: ProblemParams) -> bool:
    return exponents(params).q_class == "critical"


# ---------------------------------------------------------------------------
# sharp constants

@lru_cache(maxsize=32)
def sobolev_constant(dim: int, b: float = 1.0, r_max: float = 3.0e4,
                     n: int = 8192, grading: float = 3.0) -> float:
    """Sharp constant S of S ||u||_ts^2 <= ||grad u||_2^2.

    Rayleigh quotient of the extremal bubble, smoothly cut off over the
    outer 60% of a wide graded grid, Richardson-extrapolated over n and 2n
    to cancel the O(h^2) of the gradient quadrature.  The domain truncation
    is the remaining error source; r_max = 3e4 keeps it below 0.05% even
    for dim = 3 where the bubble tail decays slowest.
    """
    from . import profiles

    if dim < 3:
        raise ValueError("dim must be >= 3")
    ts = 2.0 * dim / (dim - 2.0)

    def quotient(nn: int) -> float:
        g = gridmod.make_grid(dim, r_max, nn, grading)
        u = profiles.aubin_talenti(dim, b, g)
        u = profiles.cutoff_profile(u, 0.4 * r_max)
        num = gridmod.grad_l2_sq(g, u)
        den = gridmod.lq_norm(g, u, ts) ** 2
        return num / den

    s1 = quotient(n)
    s2 = quotient(2 * n)
    return (4.0 * s2 - s1) / 3.0


@lru_cache(maxsize=64)
def _gn_constant_cached(dim: int, q: float, r_max: float, n: int) -> float:
    from . import profiles

    g = gridmod.make_grid(dim, r_max, n, 0.0)
    Q = profiles.weinstein_ground_state(dim, q, g)
    gam = dim / 2.0 - dim / q
    num = gridmod.lq_norm(g, Q, q)
    den = gridmod.grad_l2_sq(g, Q) ** (gam / 2.0) * gridmod.mass(g, Q) ** ((1.0 - gam) / 2.0)
    return num / den


def gn_constant(params: ProblemParams, r_max: float | None = None, n: int = 8192) -> float:
    """Sharp constant C_Nq of ||u||_q <= C_Nq ||grad u||^gamma_q ||u||_2^(1-gamma_q).

    The quotient of the discrete ground state of the associated scalar
    field equation (the maximizer of the quotient), solved on a w = 0 grid
    of n nodes reaching 72 decay lengths (at least r = 50).  The quotient
    is stationary at the maximizer, so C_Nq is far more accurate than the
    O(h^2) profile: it moves by 1.5e-9 to 1.1e-8 relative when the same
    grid blends toward uniform spacing at the origin (w = 0.05).
    """
    from . import profiles

    if r_max is None:
        kappa = profiles.weinstein_decay_rate(params.dim, params.q)
        r_max = max(50.0, 72.0 / kappa)
    return _gn_constant_cached(params.dim, params.q, float(r_max), n)


# ---------------------------------------------------------------------------
# thresholds

def f_mu_a(params: ProblemParams, S: float, C_Nq: float, rho: float) -> float:
    """1/2 - (1/ts) S^(-ts/2) rho^(ts/2-1) - (mu/q) C^q a^(q(1-gamma)/2) rho^(q gamma/2-1)."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    ex = exponents(params)
    ts, gq = ex.two_star, ex.q_gamma_q
    t_sob = math.exp((ts / 2.0 - 1.0) * math.log(rho) - (ts / 2.0) * math.log(S)) / ts
    t_gn = params.mu / params.q * math.exp(
        params.q * math.log(C_Nq)
        + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)
        + (gq / 2.0 - 1.0) * math.log(rho))
    return 0.5 - t_sob - t_gn


def _log_rho_crit(params: ProblemParams, S: float, C_Nq: float) -> float:
    ex = exponents(params)
    ts, gq = ex.two_star, ex.q_gamma_q
    if gq >= 2.0:
        raise ValueError("rho_{mu,a} requires q below the mass-critical exponent")
    inner = (math.log(2.0 - gq) + math.log(ts) + (ts / 2.0) * math.log(S)
             + params.q * math.log(C_Nq) + math.log(params.mu)
             + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)
             - math.log(params.q) - math.log(ts - 2.0))
    return 2.0 / (ts - gq) * inner


def rho_crit(params: ProblemParams, S: float, C_Nq: float) -> float:
    """The maximizer rho_{mu,a} of f_mu_a."""
    return math.exp(_log_rho_crit(params, S, C_Nq))


def threshold_K(params: ProblemParams, S: float, C_Nq: float) -> float:
    ex = exponents(params)
    ts, gq = ex.two_star, ex.q_gamma_q
    if gq >= 2.0:
        raise ValueError("K requires q below the mass-critical exponent")
    log_pref = (math.log(ts - gq) - math.log(ts) - math.log(2.0 - gq)
                - (ts / 2.0) * math.log(S))
    log_base = (math.log(ts) + (ts / 2.0) * math.log(S) + math.log(2.0 - gq)
                + params.q * math.log(C_Nq) - math.log(params.q) - math.log(ts - 2.0))
    return math.exp(log_pref + (ts - 2.0) / (ts - gq) * log_base)


def critical_mass_a0(params: ProblemParams, S: float, C_Nq: float) -> float:
    """a0 with mu a0^(q(1-gamma)/2) = (2K)^((q gamma - ts)/(ts - 2)), for this mu."""
    ex = exponents(params)
    ts, gq = ex.two_star, ex.q_gamma_q
    if gq >= 2.0:
        raise ValueError("a0 requires q below the mass-critical exponent")
    K = threshold_K(params, S, C_Nq)
    log_thr = (gq - ts) / (ts - 2.0) * math.log(2.0 * K)
    return math.exp((log_thr - math.log(params.mu)) * 2.0 / (params.q * (1.0 - ex.gamma_q)))


def rho_zero(params: ProblemParams, S: float) -> float:
    """rho0 = rho_{mu,a0}; closed form free of mu and a."""
    ex = exponents(params)
    ts, gq = ex.two_star, ex.q_gamma_q
    if gq >= 2.0:
        raise ValueError("rho0 requires q below the mass-critical exponent")
    log_rho0 = 2.0 / (ts - 2.0) * (math.log(ts) + math.log(2.0 - gq)
                                   + (ts / 2.0) * math.log(S)
                                   - math.log(2.0) - math.log(ts - gq))
    return math.exp(log_rho0)


def abar(params: ProblemParams, C_Nq: float) -> float:
    """abar_N = q / (2 C_Nq^q); defined only at the mass-critical exponent."""
    if not is_critical(params):
        raise ValueError("abar_N is defined only at q = 2 + 4/N")
    return math.exp(math.log(params.q) - math.log(2.0) - params.q * math.log(C_Nq))


def _log_mass_combination(params: ProblemParams) -> float:
    ex = exponents(params)
    return math.log(params.mu) + params.q * (1.0 - ex.gamma_q) / 2.0 * math.log(params.a)


def classify(params: ProblemParams, S: float | None = None,
             C_Nq: float | None = None) -> Regime:
    """Regime of (mu, a); the borderline case is detected in log space with
    relative tolerance REGIME_RTOL."""
    ex = exponents(params)
    if S is None:
        S = sobolev_constant(params.dim)
    if C_Nq is None:
        C_Nq = gn_constant(params)
    lhs = _log_mass_combination(params)
    if ex.q_class == "critical":
        rhs = math.log(abar(params, C_Nq))
        tol = REGIME_RTOL * max(1.0, abs(lhs), abs(rhs))
        if lhs >= rhs - tol:
            return Regime.AT_OR_ABOVE_ABAR
        return Regime.BELOW_ABAR
    if ex.q_class == "supercritical":
        raise ValueError("no regime partition is defined for q above the mass-critical exponent")
    ts, gq = ex.two_star, ex.q_gamma_q
    K = threshold_K(params, S, C_Nq)
    rhs = (gq - ts) / (ts - 2.0) * math.log(2.0 * K)
    tol = REGIME_RTOL * max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) <= tol:
        return Regime.OMEGA2
    return Regime.OMEGA1 if lhs < rhs else Regime.OMEGA3


def thresholds(params: ProblemParams, S: float | None = None,
               C_Nq: float | None = None) -> Thresholds:
    """Populate the constant pack; undefined entries are None.

    Individual accessors (threshold_K, critical_mass_a0, rho_zero, abar)
    raise for out-of-domain q; this aggregate stays total."""
    ex = exponents(params)
    if S is None:
        S = sobolev_constant(params.dim)
    if C_Nq is None:
        C_Nq = gn_constant(params)
    K = a0 = rc = r0 = ab = None
    regime = None
    if ex.q_class == "subcritical":
        K = threshold_K(params, S, C_Nq)
        a0 = critical_mass_a0(params, S, C_Nq)
        rc = rho_crit(params, S, C_Nq)
        r0 = rho_zero(params, S)
        regime = classify(params, S, C_Nq)
    elif ex.q_class == "critical":
        ab = abar(params, C_Nq)
        regime = classify(params, S, C_Nq)
    return Thresholds(S=S, C_Nq=C_Nq, K=K, a0=a0, rho_crit=rc, rho0=r0,
                      abar_N=ab, regime=regime)


def energy_lower_bound(params: ProblemParams, S: float, C_Nq: float,
                       grad2: float) -> float:
    """grad2 * f_mu_a(grad2): the coercivity bound E(u) >= this for u on the
    mass sphere."""
    return grad2 * f_mu_a(params, S, C_Nq, grad2)
