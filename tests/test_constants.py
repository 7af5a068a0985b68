import inspect
import math

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import dynamics, functionals, minimize, mountainpass, profiles
from nlscrit.constants import Regime, energy_lower_bound, parse_q
from nlscrit.functionals import energy, fiber_norms


def sobolev_closed_form(dim):
    # sharp constant of the embedding, used here purely as a test oracle
    from math import gamma, pi
    return pi * dim * (dim - 2) * (gamma(dim / 2.0) / gamma(float(dim))) ** (2.0 / dim)


def test_exponents_basic():
    ex = nc.ProblemParams(3, 3.0, 1.0, 1.0).ex
    assert ex.two_star == 6.0
    assert ex.gamma_q == pytest.approx(0.5, abs=1e-15)
    assert ex.q_gamma_q == pytest.approx(1.5, abs=1e-15)
    assert ex.q_class == "subcritical"


def test_exponents_critical_rational():
    ex = nc.ProblemParams(3, parse_q("10/3"), 1.0, 1.0).ex
    assert ex.q_class == "critical"
    assert ex.q_gamma_q == 2.0
    assert ex.gamma_q == pytest.approx(3.0 / 5.0, rel=1e-15)
    ex4 = nc.ProblemParams(4, 3.0, 1.0, 1.0).ex
    assert ex4.q_class == "critical"
    assert ex4.two_star == 4.0
    assert ex4.q_gamma_q == 2.0


def test_exponents_critical_float_tolerance():
    # 2 + 4/3 and 10/3 differ in the last bit; classification must not care
    ex = nc.ProblemParams(3, 10.0 / 3.0, 1.0, 1.0).ex
    assert ex.q_class == "critical"


def test_exponents_derived_once_per_params():
    p = nc.ProblemParams(3, 2.5, 1.0, 1.0)
    assert p.with_mass(2.0) == nc.ProblemParams(3, 2.5, 1.0, 2.0)
    assert p.with_mass(2.0).ex == p.ex


def test_params_rejects_bad_q():
    with pytest.raises(ValueError):
        nc.ProblemParams(3, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        nc.ProblemParams(3, 6.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        nc.ProblemParams(3, 2.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        nc.ProblemParams(3, 2.5, 1.0, 0.0)
    for mu, a in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            nc.ProblemParams(3, 2.5, mu, a)


def test_q_class_is_one_float_rule():
    # the fraction, its correctly rounded decimal and the float expression
    # 2 + 4/3 (one bit below) all lie within Q_CRITICAL_RTOL of 2 + 4/N
    assert parse_q("10/3") == 3.3333333333333335
    for text in ("10/3", "3.3333333333333335", repr(2.0 + 4.0 / 3.0)):
        assert nc.ProblemParams(3, parse_q(text), 1.0, 1.0).ex.q_class == "critical"
    assert nc.ProblemParams(3, parse_q("3"), 1.0, 1.0).ex.q_class == "subcritical"
    assert nc.ProblemParams(3, parse_q("7/2"), 1.0, 1.0).ex.q_class == "supercritical"


# every public function that takes (params, grid), with its arguments after
# them; U stands for a profile on the grid
U = object()
TAKES_PARAMS_AND_GRID = {
    functionals: {"fiber_norms": (U,), "energy": (U,), "pohozaev": (U,),
                  "lagrange_multiplier": (U,), "fiber_critical_points": (U,)},
    minimize: {"minimize_local": (), "minimize_in_domain": (), "boundary_scan": (4,),
               "subadditivity_check": (0.5,)},
    mountainpass: {"project_to_pohozaev_minus": (U,), "estimate_mp_level": (),
                   "cpo_sequence_case1": ([1.0],), "cpo_sequence_case2": ([1.0],),
                   "omega2_positivity_probe": (4,)},
    dynamics: {"evolve": (U, 1e-3, 1e-2), "stability_probe": (U, 0.1, 1e-2),
               "blowup_probe": (U, 1.05, 1e-2)},
}


@pytest.mark.parametrize("module, name", [(m, name) for m, names in
                                          TAKES_PARAMS_AND_GRID.items() for name in names])
def test_params_and_grid_of_another_dimension_are_refused(module, name):
    params = nc.ProblemParams(4, 2.5, 1.0, 1.0)
    grid = nc.make_grid(3, 30.0, 256)
    u = nc.Profile(grid, np.exp(-grid.nodes**2).astype(complex if module is dynamics else float))
    args = [u if a is U else a for a in TAKES_PARAMS_AND_GRID[module][name]]
    kwargs = {"minimizer": None} if name == "estimate_mp_level" else {}
    with pytest.raises(ValueError, match="dimension 4 but the grid has dimension 3"):
        getattr(module, name)(params, grid, *args, **kwargs)


def test_every_function_of_params_and_grid_is_checked():
    for module, names in TAKES_PARAMS_AND_GRID.items():
        found = {name for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and fn.__module__ == module.__name__
                 and not name.startswith("_")
                 and list(inspect.signature(fn).parameters)[:2] == ["params", "grid"]}
        assert found == set(names), module.__name__


@pytest.mark.parametrize("dim", [3, 4])
def test_sobolev_constant_vs_closed_form(dim):
    S = nc.sobolev_constant(dim)
    assert S == pytest.approx(sobolev_closed_form(dim), rel=5e-3)


def test_sobolev_constant_b_invariance():
    S1 = nc.sobolev_constant(3, b=1.0)
    S2 = nc.sobolev_constant(3, b=2.0)
    assert abs(S2 - S1) < 1e-3 * S1


def test_gn_equality_at_ground_state(base325, sharp3):
    _, C = sharp3
    g = nc.make_grid(3, 50.0, 8192)
    Q = profiles.weinstein_ground_state(2.5, g)
    gam = 3.0 / 2.0 - 3.0 / 2.5
    lhs = nc.lq_norm(g, Q, 2.5)
    rhs = C * nc.grad_l2_sq(g, Q) ** (gam / 2.0) * nc.mass(g, Q) ** ((1.0 - gam) / 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-3)


def test_gn_bound_random_profiles(base325, sharp3):
    _, C = sharp3
    g = nc.make_grid(3, 50.0, 4096)
    gam = 3.0 / 2.0 - 3.0 / 2.5
    rng = np.random.default_rng(21)
    for _ in range(40):
        u = profiles.random_trial(rng).profile(g, 1.0)
        lhs = nc.lq_norm(g, u, 2.5)
        rhs = C * nc.grad_l2_sq(g, u) ** (gam / 2.0)
        assert lhs <= rhs * (1.0 + 1e-3)


def test_abar_formula_consistency():
    p = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    C = nc.gn_constant(p)
    assert nc.abar(p, C) == pytest.approx(3.0 / (2.0 * C**3), rel=1e-12)
    with pytest.raises(ValueError):
        nc.abar(nc.ProblemParams(4, 2.5, 1.0, 1.0), C)


def test_rho0_closed_form_n3_q3():
    # at (N, q) = (3, 3): ts = 6, q gamma_q = 3/2, and the general formula
    # collapses to rho0 = sqrt(S^3 / 3)
    p = nc.ProblemParams(3, 3.0, 1.0, 1.0)
    S = nc.sobolev_constant(3)
    assert nc.rho_zero(p, S) == pytest.approx(math.sqrt(S**3 / 3.0), rel=1e-12)


def test_rho0_independent_of_mu_and_a():
    S = nc.sobolev_constant(3)
    vals = [nc.rho_zero(nc.ProblemParams(3, 2.5, mu, a), S)
            for mu in (0.5, 1.0, 2.0) for a in (0.3, 7.0)]
    assert max(vals) - min(vals) < 1e-12 * vals[0]


def test_threshold_trichotomy_at_a0(base325, sharp3, a0_325):
    S, C = sharp3
    p = base325.with_mass(a0_325)
    rc = nc.rho_crit(p, S, C)
    assert abs(nc.f_mu_a(p, S, C, rc)) < 1e-8
    assert nc.classify(p, S, C) is Regime.OMEGA2
    p_lo = base325.with_mass(a0_325 / 2.0)
    assert nc.f_mu_a(p_lo, S, C, nc.rho_crit(p_lo, S, C)) > 0.0
    assert nc.classify(p_lo, S, C) is Regime.OMEGA1
    p_hi = base325.with_mass(2.0 * a0_325)
    assert nc.f_mu_a(p_hi, S, C, nc.rho_crit(p_hi, S, C)) < 0.0
    assert nc.classify(p_hi, S, C) is Regime.OMEGA3


def test_f_mu_a_shape(base325, sharp3, a0_325):
    S, C = sharp3
    p = base325.with_mass(a0_325 / 2.0)
    assert nc.f_mu_a(p, S, C, 1e-12) < 0.0      # q-term blows up as rho -> 0+
    assert nc.f_mu_a(p, S, C, 1e12) < 0.0       # Sobolev term dominates at infinity
    rc = nc.rho_crit(p, S, C)
    h = 1e-5 * rc
    deriv = (nc.f_mu_a(p, S, C, rc + h) - nc.f_mu_a(p, S, C, rc - h)) / (2.0 * h)
    assert abs(deriv) < 1e-8 / rc
    with pytest.raises(ValueError):
        nc.f_mu_a(p, S, C, 0.0)


def test_trichotomy_random_parameters(sharp3):
    S, C = sharp3
    rng = np.random.default_rng(3)
    for _ in range(50):
        mu = math.exp(rng.uniform(-1.5, 1.5))
        p1 = nc.ProblemParams(3, 2.5, mu, 1.0)
        a0 = nc.critical_mass_a0(p1, S, C)
        a = a0 * math.exp(rng.uniform(-1.0, 1.0))
        p = p1.with_mass(a)
        sign = nc.f_mu_a(p, S, C, nc.rho_crit(p, S, C))
        regime = nc.classify(p, S, C)
        if regime is Regime.OMEGA1:
            assert sign > 0.0
        elif regime is Regime.OMEGA3:
            assert sign < 0.0
        else:
            assert abs(sign) < 1e-8


def test_energy_lower_bound_random_profiles(params_half, sharp3, soliton_grid):
    S, C = sharp3
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = profiles.random_trial(rng).profile(soliton_grid, params_half.a)
        nm = fiber_norms(params_half, soliton_grid, u)
        bound = energy_lower_bound(params_half, S, C, nm.grad2)
        e = energy(params_half, soliton_grid, u)
        assert e >= bound - 1e-6 * max(1.0, abs(bound))


def test_thresholds_pack_subcritical(params_half, sharp3):
    S, C = sharp3
    thr = nc.thresholds(params_half, S, C)
    assert thr.regime is Regime.OMEGA1
    assert thr.abar_N is None
    for v in (thr.K, thr.a0, thr.rho_crit, thr.rho0):
        assert v is not None and v > 0.0


def test_thresholds_pack_critical():
    p = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    thr = nc.thresholds(p)
    assert thr.K is None and thr.a0 is None and thr.rho0 is None
    assert thr.abar_N is not None
    assert thr.regime in (Regime.BELOW_ABAR, Regime.AT_OR_ABOVE_ABAR)


def test_classify_critical_branches():
    p0 = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    C = nc.gn_constant(p0)
    ab = nc.abar(p0, C)
    ex = p0.ex
    expo = 2.0 / (p0.q * (1.0 - ex.gamma_q))
    a_at = (ab / p0.mu) ** expo
    assert nc.classify(p0.with_mass(a_at), C_Nq=C) is Regime.AT_OR_ABOVE_ABAR
    assert nc.classify(p0.with_mass(0.5 * a_at), C_Nq=C) is Regime.BELOW_ABAR
    assert nc.classify(p0.with_mass(2.0 * a_at), C_Nq=C) is Regime.AT_OR_ABOVE_ABAR


def test_supercritical_rejections():
    p = nc.ProblemParams(3, 5.0, 1.0, 1.0)   # above 2 + 4/3, below 6
    S = 5.478
    C = 0.5
    with pytest.raises(ValueError):
        nc.threshold_K(p, S, C)
    with pytest.raises(ValueError):
        nc.critical_mass_a0(p, S, C)
    with pytest.raises(ValueError):
        nc.rho_zero(p, S)
    with pytest.raises(ValueError):
        nc.classify(p, S, C)
    thr = nc.thresholds(p, S, C)
    assert thr.K is None and thr.regime is None


def test_qgamma_exactly_two_at_critical():
    for dim in (3, 4, 5):
        q = 2.0 + 4.0 / dim
        ex = nc.ProblemParams(dim, q, 1.0, 1.0).ex
        assert ex.q_gamma_q == 2.0
