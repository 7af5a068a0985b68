import json
import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import brentq as scipy_brentq

import nlscrit as nc
from nlscrit import cli
from nlscrit import functionals as fnl
from nlscrit import profiles


def analytic_gaussian_energy(mu):
    # u = e^(-r^2/2), N = 3, q = 3: all three terms are Gaussian integrals
    kin = 0.75 * math.pi ** 1.5
    crit = (math.pi / 3.0) ** 1.5 / 6.0
    sub = (mu / 3.0) * (2.0 * math.pi / 3.0) ** 1.5
    return kin - crit - sub


def test_energy_gaussian_analytic():
    p = nc.ProblemParams(3, 3.0, 1.0, 1.0)
    g = nc.make_grid(3, 25.0, 8192)
    u = nc.Profile(g, np.exp(-g.nodes**2 / 2.0))
    assert fnl.energy(p, g, u) == pytest.approx(analytic_gaussian_energy(1.0), rel=1e-6)
    zero = nc.Profile(g, np.zeros(g.n))
    assert fnl.energy(p, g, zero) == 0.0
    assert fnl.pohozaev(p, g, zero) == 0.0


def test_pohozaev_gaussian_analytic():
    p = nc.ProblemParams(3, 3.0, 1.0, 1.0)
    g = nc.make_grid(3, 25.0, 8192)
    u = nc.Profile(g, np.exp(-g.nodes**2 / 2.0))
    exact = (1.5 * math.pi ** 1.5 - (math.pi / 3.0) ** 1.5
             - 0.5 * (2.0 * math.pi / 3.0) ** 1.5)
    assert fnl.pohozaev(p, g, u) == pytest.approx(exact, rel=1e-6)


def test_energy_of_rescaled_equals_fiber_value(params_half, soliton_grid):
    g = soliton_grid
    u = profiles.gaussian(params_half, 1.2, g)
    nm = fnl.fiber_norms(params_half, g, u)
    for tau in (0.5, 1.0, 2.0):
        direct = fnl.energy(params_half, g, nc.rescale(u, tau))
        assert direct == pytest.approx(fnl.psi_value(params_half, nm, tau), rel=1e-5)


def test_fiber_derivative_identity(params_half, soliton_grid):
    # tau psi'(tau) = P(u_tau): finite differences of the resampled energy
    # against the Pohozaev value of the resampled profile
    g = soliton_grid
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = profiles.random_trial(rng).profile(g, params_half.a)
        for tau in (0.6, 1.1):
            d = 1e-3 * tau
            ep = fnl.energy(params_half, g, nc.rescale(u, tau + d))
            em = fnl.energy(params_half, g, nc.rescale(u, tau - d))
            lhs = tau * (ep - em) / (2.0 * d)
            rhs = fnl.pohozaev(params_half, g, nc.rescale(u, tau))
            scale = max(abs(rhs), nc.grad_l2_sq(g, u))
            assert abs(lhs - rhs) < 1e-5 * scale


def test_two_root_structure_subcritical(params_half, soliton_grid, thr_half):
    g = soliton_grid
    u = profiles.gaussian(params_half, 1.0, g)
    rep = fnl.fiber_critical_points(params_half, g, u, thresholds=thr_half)
    assert rep.tau_plus is not None and rep.tau_minus is not None
    assert 0.0 < rep.tau_plus < rep.tau_minus
    assert rep.e_at_tau_plus < 0.0 <= rep.e_at_tau_minus
    assert rep.psi_second_at_tau_minus < 0.0
    nm = fnl.fiber_norms(params_half, g, u)
    for tau in (rep.tau_plus, rep.tau_minus):
        assert abs(fnl.phi_value(params_half, nm, tau)) < 1e-6 * nm.grad2
    # dense-scan oracle: the root count and locations must agree
    taus = np.logspace(-4, 4, 10000)
    phi = fnl.phi_value(params_half, nm, taus)
    flips = np.flatnonzero(np.sign(phi[:-1]) != np.sign(phi[1:]))
    assert len(flips) == 2
    assert taus[flips[0]] == pytest.approx(rep.tau_plus, rel=2e-3)
    assert taus[flips[1]] == pytest.approx(rep.tau_minus, rel=2e-3)


def test_fiber_samples_recorded(params_half, soliton_grid, tmp_path, capsys):
    path = str(tmp_path / "u.json")
    nc.save_profile(path, profiles.gaussian(params_half, 1.0, soliton_grid))
    code = cli.main(["fiber", "--profile", path, "--dim", "3", "--q", "2.5",
                     "--mu", "1", "--a", "0.5a0"])
    rows = json.loads(capsys.readouterr().out)["samples"]
    assert code == 0 and len(rows) == 512
    assert [r[0] for r in rows] == np.logspace(-6.0, 6.0, 512).tolist()
    # the table is of the profile the command renormalizes to mass a
    u = nc.load_profile(path)
    u = nc.Profile(u.grid, u.values * math.sqrt(params_half.a / nc.mass(u.grid, u)))
    nm = fnl.fiber_norms(params_half, u.grid, u)
    for tau, psi, phi in (rows[0], rows[255], rows[-1]):
        assert psi == pytest.approx(fnl.psi_value(params_half, nm, tau), rel=1e-12)
        assert phi == pytest.approx(fnl.phi_value(params_half, nm, tau), rel=1e-12)


def test_fiber_evaluates_only_at_the_roots(params_half, soliton_grid, thr_half,
                                           monkeypatch):
    seen = []
    for name in ("psi_value", "phi_value"):
        def spy(params, nm, tau, f=getattr(fnl, name)):
            seen.append(np.ndim(tau))
            return f(params, nm, tau)
        monkeypatch.setattr(fnl, name, spy)
    u = profiles.gaussian(params_half, 1.0, soliton_grid)
    fnl.fiber_critical_points(params_half, soliton_grid, u, thresholds=thr_half)
    assert seen and set(seen) == {0}


def test_fiber_mass_check(params_half, soliton_grid, thr_half):
    u = profiles.gaussian(params_half.with_mass(2.0 * params_half.a), 1.0,
                          soliton_grid)
    with pytest.raises(ValueError):
        fnl.fiber_critical_points(params_half, soliton_grid, u, thresholds=thr_half)


def test_fiber_refused_in_omega3(base325, sharp3, a0_325, soliton_grid):
    S, C = sharp3
    p = base325.with_mass(4.0 * a0_325)
    thr = nc.thresholds(p, S, C)
    u = profiles.gaussian(p, 1.0, soliton_grid)
    with pytest.raises(fnl.RegimeError):
        fnl.fiber_critical_points(p, soliton_grid, u, thresholds=thr)


def test_fiber_critical_q_closed_form():
    p = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    g = nc.make_grid(4, 30.0, 4096)
    u = profiles.gaussian(p, 1.0, g)
    nm = fnl.fiber_norms(p, g, u)
    gam = p.ex.gamma_q
    excess = nm.grad2 - p.mu * gam * nm.sub
    assert excess > 0.0
    rep = fnl.fiber_critical_points(p, g, u)
    assert rep.tau_plus is None and rep.tau_minus is not None
    tau_exact = (excess / nm.crit) ** (1.0 / (4.0 - 2.0))
    assert rep.tau_minus == pytest.approx(tau_exact, rel=1e-12)
    # peak energy closed form: (1/N) (excess / ||u||_{ts}^2)^(N/2)
    e_exact = 0.25 * (excess / nm.crit ** 0.5) ** 2.0
    assert rep.e_at_tau_minus == pytest.approx(e_exact, rel=1e-6)
    assert rep.psi_second_at_tau_minus < 0.0


@pytest.mark.parametrize("a", [1.0, 1e-10])
def test_fiber_critical_q_root_anywhere(a):
    # tau_u scales like a^(-1/2): at a = 1e-10 it lies beyond tau = 1e6
    g = nc.make_grid(4, 50.0, 2048)
    Q = profiles.weinstein_ground_state(3.0, g)
    p = nc.ProblemParams(4, 3.0, 1.0, a)
    u = nc.Profile(g, Q.values * math.sqrt(a / nc.mass(g, Q)))
    rep = fnl.fiber_critical_points(p, g, u)
    nm = fnl.fiber_norms(p, g, u)
    tau_u = ((nm.grad2 - p.mu * p.ex.gamma_q * nm.sub) / nm.crit) ** 0.5
    assert rep.tau_minus == tau_u and (tau_u > 1e6) == (a < 1e-6)
    assert rep.e_at_tau_minus == fnl.psi_value(p, nm, tau_u)


def test_fiber_critical_q_decreasing_branch():
    # heavy-mass ground state: mu gamma_q int |u|^q >= ||grad u||^2 and the
    # fiber map has no root
    p0 = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    g = nc.make_grid(4, 50.0, 4096)
    Q = profiles.weinstein_ground_state(3.0, g)
    gam = p0.ex.gamma_q
    # scale u = t Q so that the excess becomes negative: excess(t) =
    # t^2 g - mu gam t^q h < 0 for t large
    g2, hq = nc.grad_l2_sq(g, Q), nc.lq_norm_pow(g, Q, 3.0)
    t = (2.0 * g2 / (p0.mu * gam * hq)) ** (1.0 / (3.0 - 2.0))
    u = nc.Profile(g, t * Q.values)
    a = nc.mass(g, u)
    p = p0.with_mass(a)
    rep = fnl.fiber_critical_points(p, g, u)
    assert rep.strictly_decreasing
    assert rep.tau_minus is None
    # psi is negative and falling on a sample of dilations
    nm = fnl.fiber_norms(p, g, u)
    taus = np.logspace(-2, 2, 50)
    psis = fnl.psi_value(p, nm, taus)
    assert np.all(np.diff(psis) < 0.0)
    assert np.all(psis[1:] < 0.0)


# the three return paths: two roots below the mass-critical exponent; at
# q = 2 + 4/N one root, or none once mu gamma_q int |u|^q exceeds ||grad u||^2
@pytest.mark.parametrize("mu, roots", [(None, (True, True, False)),
                                       (1.0, (False, True, False)),
                                       (1e3, (False, False, True))],
                         ids=["two roots", "one root", "decreasing"])
def test_fiber_report_carries_the_norms(mu, roots, params_half, thr_half):
    if mu is None:
        p, g, thr = params_half, nc.make_grid(3, 50.0, 2048), thr_half
        u = profiles.random_trial(np.random.default_rng(3)).profile(g, p.a)
    else:
        p, g, thr = nc.ProblemParams(4, 3.0, mu, 1.0), nc.make_grid(4, 30.0, 2048), None
        u = profiles.gaussian(p, 1.0, g)
    rep = fnl.fiber_critical_points(p, g, u, thresholds=thr)
    assert (rep.tau_plus is not None, rep.tau_minus is not None,
            rep.strictly_decreasing) == roots
    assert rep.norms == fnl.fiber_norms(p, g, u)


def test_fiber_roots_stable_under_grid_doubling(params_half, thr_half):
    g1 = nc.make_grid(3, 50.0, 4096)
    g2 = nc.make_grid(3, 50.0, 8192)
    rng = np.random.default_rng(5)
    for _ in range(5):
        tr = profiles.random_trial(rng)
        r1 = fnl.fiber_critical_points(params_half, g1, tr.profile(g1, params_half.a),
                                       thresholds=thr_half)
        r2 = fnl.fiber_critical_points(params_half, g2, tr.profile(g2, params_half.a),
                                       thresholds=thr_half)
        assert abs(r1.tau_plus - r2.tau_plus) < 1e-3 * r2.tau_plus
        assert abs(r1.tau_minus - r2.tau_minus) < 1e-3 * r2.tau_minus


def test_tau_plus_lands_inside_kinetic_ball(params_half, soliton_grid, thr_half):
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = profiles.random_trial(rng).profile(soliton_grid, params_half.a)
        rep = fnl.fiber_critical_points(params_half, soliton_grid, u,
                                        thresholds=thr_half)
        nm = fnl.fiber_norms(params_half, soliton_grid, u)
        assert rep.tau_plus ** 2 * nm.grad2 < thr_half.rho0


def test_lagrange_multiplier_formula(params_half, soliton_grid):
    u = profiles.gaussian(params_half, 1.0, soliton_grid)
    nm = fnl.fiber_norms(params_half, soliton_grid, u)
    lam = fnl.lagrange_multiplier(params_half, soliton_grid, u)
    assert lam == pytest.approx((nm.grad2 - nm.crit - params_half.mu * nm.sub) / nm.mass,
                                rel=1e-14)


def test_lagrange_multiplier_recovers_eigenvalue():
    # manufactured linear solution: lowest eigenpair of the discrete radial
    # Laplacian; the subcritical term scales like amplitude^(q-2), so the
    # mass must be extremely small before the multiplier formula reduces to
    # the eigenvalue
    p = nc.ProblemParams(3, 2.5, 1.0, 1e-60)
    g = nc.make_grid(3, 10.0, 256)
    d, off = g.stiffness_bands()
    A = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
    W = np.diag(g.full_weights)
    vals, vecs = sla.eigh(A, W, subset_by_index=[0, 0])
    lam_exact = vals[0]
    u = vecs[:, 0]
    u = u * math.sqrt(p.a / np.dot(g.full_weights, u * u))
    prof = nc.Profile(g, u)
    got = fnl.lagrange_multiplier(p, g, prof)
    # 1e-6 covers the eigensolver's forward error on the ill-scaled mass
    # matrix (tiny origin weights); the formula itself is the Rayleigh
    # quotient of the computed vector
    assert got == pytest.approx(lam_exact, rel=1e-6)
    # independent oracle: the lowest Dirichlet eigenvalue of the ball is
    # (pi / R)^2
    assert got == pytest.approx((math.pi / 10.0) ** 2, rel=5e-3)


def test_lagrange_multiplier_scaling_consistency(params_half, soliton_grid):
    u = profiles.gaussian(params_half, 1.0, soliton_grid)
    nm = fnl.fiber_norms(params_half, soliton_grid, u)
    ex = params_half.ex
    tau = 1.5
    predicted = (tau**2 * nm.grad2 - tau**ex.two_star * nm.crit
                 - params_half.mu * tau**ex.q_gamma_q * nm.sub) / nm.mass
    got = fnl.lagrange_multiplier(params_half, soliton_grid, nc.rescale(u, tau))
    assert got == pytest.approx(predicted, rel=1e-4)


# (f, a, b): smooth, steep, nearly flat, and roots at either endpoint
BRACKETS = [
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, -1.0, 3.0),
    (lambda x: math.tanh(60.0 * (x - 0.3)), -1.0, 2.0),
    (lambda x: math.exp(40.0 * x) - 7.0, -1.0, 1.0),
    (lambda x: 1e-3 * (x - 1.1) + (x - 1.1) ** 5, 0.0, 3.0),
    (lambda x: 1e-12 * (x - 0.7) + 1e-200, 0.0, 1.0),
    (lambda x: x * (x - 1.0), 0.0, 0.5),
    (lambda x: x - 2.5, 1.0, 2.5),
]


@pytest.mark.parametrize("f, a, b", BRACKETS)
def test_brentq_matches_scipy_to_the_bit(f, a, b):
    calls = [0, 0]

    def counted(k):
        def g(x):
            calls[k] += 1
            return f(x)
        return g
    assert fnl.brentq(counted(0), a, b) == scipy_brentq(counted(1), a, b, xtol=1e-300,
                                                        rtol=8.9e-16)
    assert calls[0] == calls[1]


@pytest.mark.parametrize("f, a, b, exc", [
    (lambda x: x * x + 1.0, 0.0, 1.0, ValueError),           # no sign change
    (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, ValueError),
    (lambda x: (x - 1.1) ** 9, 0.0, 3.0, RuntimeError),      # 100 iterations
])
def test_brentq_error_contract_matches_scipy(f, a, b, exc):
    with pytest.raises(exc) as ours:
        fnl.brentq(f, a, b)
    with pytest.raises(exc) as theirs:
        scipy_brentq(f, a, b, xtol=1e-300, rtol=8.9e-16)
    assert str(ours.value) == str(theirs.value)
