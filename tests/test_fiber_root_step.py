"""Property test of `functionals.fiber_root_step` on norms drawn over many
decades: the closed-form brackets hold each admitted root, each root's
residual is at rounding, and each refusal names the condition that failed.
The reduced fiber map is r(t) = g t^alpha - c t^beta - k, with
alpha = 2 - q gamma_q, beta = 2* - q gamma_q and k = mu gamma_q h."""

import math

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import constants as cst
from nlscrit import functionals as fnl

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the five atlas pairs, and one where alpha = 0.005
PAIRS = [(3, "2.5"), (3, "3.2"), (4, "2.5"), (5, "2.4"), (6, "2.2"), (3, "3.33")]
EPS4 = 4.0 * np.finfo(float).eps
DECADES = st.floats(-150.0, 150.0)


@st.composite
def entry(draw):
    """(log10 g, log10 c, mode, x): h = 10^x ("free", or h = 0 there), or
    k = (1 - 10^-x) max_t (g t^alpha - c t^beta) with x in [0, 17]
    ("near": r(peak) barely positive, down to below rounding)."""
    if draw(st.booleans()):
        return draw(DECADES), draw(DECADES), "near", draw(st.floats(0.0, 17.0))
    return draw(DECADES), draw(DECADES), "free", draw(st.one_of(st.just(None), DECADES))


def norms(params, drawn):
    ex = params.ex
    al, be = 2.0 - ex.q_gamma_q, ex.two_star - ex.q_gamma_q
    g = 10.0 ** np.array([d[0] for d in drawn])
    c = 10.0 ** np.array([d[1] for d in drawn])
    h = np.zeros(len(drawn))
    for i, (_, _, mode, x) in enumerate(drawn):
        if mode == "near":
            top = (al * g[i] / (be * c[i])) ** (1.0 / (be - al))
            h[i] = (1.0 - 10.0 ** -x) * (1.0 - al / be) * g[i] * top ** al \
                / (params.mu * ex.gamma_q)
        elif x is not None:
            h[i] = 10.0 ** x
    return fnl.FiberNorms(g, c, h, params.a)


@pytest.mark.parametrize("dim, q", PAIRS)
@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(drawn=st.lists(entry(), min_size=1, max_size=24))
def test_root_step_brackets_and_residuals(dim, q, drawn):
    params = nc.ProblemParams(dim, cst.parse_q(q), 1.0, 1.0)
    ex = params.ex
    al, be = 2.0 - ex.q_gamma_q, ex.two_star - ex.q_gamma_q
    with np.errstate(all="ignore"):
        nm = norms(params, drawn)
        g, c = nm.grad2, nm.crit
        k = params.mu * ex.gamma_q * nm.sub

        def residual(t):   # |r(t)| over the sum of its terms' magnitudes
            ga, cb = g * t ** al, c * t ** be
            return np.abs(ga - cb - k) / (ga + cb + k), ga - cb - k

        peak = (al * g / (be * c)) ** (1.0 / (be - al))
        lo, hi = (k / g) ** (1.0 / al), (g / c) ** (1.0 / (ex.two_star - 2.0))
        rel_peak, r_peak = residual(peak)
        tau_m, tau_p, reason = fnl.fiber_root_step(params, nm)
        res_p, res_m = residual(tau_p)[0], residual(tau_m)[0]
        tiny = np.finfo(float).tiny
        in_floats = (lo >= tiny) & (k / g >= tiny) & (k / c >= tiny) \
            & np.isfinite(c * (2.0 * hi) ** be)
    # the computed L and U bound the roots of the map with float exponents
    # only up to rounding: of their bases (raised to 1/alpha or 1/(2* - 2))
    # and of their exponents (times |ln L| or |ln U|); 2* - 2 also differs
    # from beta - alpha, both rounded, by up to 3.5 eps
    eps = np.finfo(float).eps
    for i in range(len(drawn)):
        rises = r_peak[i] > 0.0 or rel_peak[i] <= EPS4   # at rounding: either way
        if reason[i] is None:
            assert rises and in_floats[i]
            lo_slack = (4.0 + abs(math.log(lo[i])) + 1.0 / al) * eps
            hi_slack = (4.0 + 4.0 * abs(math.log(hi[i]))) * eps
            assert lo[i] * (1.0 - lo_slack) <= tau_p[i] <= peak[i] <= tau_m[i] \
                <= hi[i] * (1.0 + hi_slack)
            assert res_p[i] <= EPS4 and res_m[i] <= EPS4
        elif reason[i] == fnl.FIBER_REFUSALS[0]:
            assert not r_peak[i] > 0.0 or rel_peak[i] <= EPS4
        else:
            assert reason[i] == fnl.FIBER_REFUSALS[1]
            assert rises and not in_floats[i]
