import math

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import functionals as fnl
from nlscrit import minimize as mn
from nlscrit import profiles


def check_minimizer_contracts(params, grid, thr, rep):
    assert rep.converged and not rep.boundary_hit
    assert rep.energy < 0.0
    assert rep.lam < 0.0
    assert abs(rep.pohozaev) < 1e-6
    assert rep.grad_residual < 1e-8 * max(1.0, abs(rep.energy))
    assert nc.grad_l2_sq(grid, rep.final) < thr.rho0
    assert nc.mass(grid, rep.final) == pytest.approx(params.a, rel=1e-12)
    vals = rep.final.values
    assert np.all(vals > -1e-12)
    assert np.all(np.diff(vals) < 1e-10)        # radially decreasing


def test_minimizer_omega1(params_half, soliton_grid, thr_half, minimizer_half):
    check_minimizer_contracts(params_half, soliton_grid, thr_half, minimizer_half)


def test_minimizer_omega2(params_at, soliton_grid, thr_at, minimizer_at):
    check_minimizer_contracts(params_at, soliton_grid, thr_at, minimizer_at)


def test_minimizer_energy_monotone_trace(params_half, soliton_grid, thr_half):
    # from the default start the fine descent stops at its first iterate: the
    # seed given as init makes it run on this grid
    rep = mn.minimize_local(params_half, soliton_grid,
                            init=_gaussian_seed(params_half, soliton_grid), thresholds=thr_half)
    es = np.array([t[1] for t in rep.trace])
    assert len(es) > 2
    assert np.all(np.diff(es) <= 1e-12 * np.maximum(1.0, np.abs(es[:-1])))


def test_minimizer_sits_at_its_fiber_minimum(params_half, soliton_grid, thr_half,
                                             minimizer_half):
    rep = fnl.fiber_critical_points(params_half, soliton_grid, minimizer_half.final,
                                    thresholds=thr_half)
    assert rep.tau_plus == pytest.approx(1.0, rel=1e-2)
    assert rep.e_at_tau_plus == pytest.approx(minimizer_half.energy,
                                              rel=1e-8, abs=1e-10)


def test_minimizer_restart_is_fixed_point(params_half, soliton_grid, thr_half,
                                          minimizer_half):
    rep = mn.minimize_local(params_half, soliton_grid, init=minimizer_half.final,
                            thresholds=thr_half)
    assert rep.iterations <= 3
    assert rep.energy == pytest.approx(minimizer_half.energy, abs=1e-10)


def test_init_on_another_grid_is_refused(params_half, thr_half):
    # same dimension and n, another r_max: the solve would run on values
    # sampled at other nodes
    init = profiles.gaussian(params_half, 1.0, nc.make_grid(3, 50.0, 2048))
    with pytest.raises(ValueError, match="another grid"):
        mn.minimize_local(params_half, nc.make_grid(3, 80.0, 2048), init=init,
                          thresholds=thr_half)


def test_minimize_in_domain_solves_the_seed_width_once(params_half, soliton_grid, thr_half,
                                                      monkeypatch):
    calls = []
    seed_width = mn.seed_width
    monkeypatch.setattr(mn, "seed_width", lambda p: calls.append(p) or seed_width(p))
    assert mn.minimize_in_domain(params_half, soliton_grid, thresholds=thr_half).converged
    assert calls == [params_half]


def test_minimize_rejected_in_omega3(base325, sharp3, a0_325, soliton_grid):
    S, C = sharp3
    p = base325.with_mass(3.0 * a0_325)
    thr = nc.thresholds(p, S, C)
    with pytest.raises(fnl.RegimeError):
        mn.minimize_local(p, soliton_grid, thresholds=thr)


def test_init_outside_ball_is_retracted(params_half, soliton_grid, thr_half):
    # a strongly concentrated start has kinetic norm above rho0; the solver
    # must dilate it inside and still converge to the same minimum
    init = profiles.gaussian(params_half, 0.25, soliton_grid)
    assert nc.grad_l2_sq(soliton_grid, init) > thr_half.rho0
    rep = mn.minimize_local(params_half, soliton_grid, init=init, thresholds=thr_half)
    assert rep.converged
    assert rep.energy == pytest.approx(-0.4612, rel=1e-3)


def test_boundary_scan_omega1(params_half, soliton_grid, thr_half):
    best = mn.boundary_scan(params_half, soliton_grid, 64, seed=11,
                            thresholds=thr_half)
    assert best > 0.0


def test_boundary_scan_scores_the_exact_dilation(params_half, soliton_grid, thr_half):
    # a trial scores the energy of tau^(N/2) p on the grid whose nodes are
    # p's divided by tau, tau^2 ||grad p||^2 = rho0: its dilation onto the
    # kinetic sphere, exact to rounding
    g, p = soliton_grid, params_half
    score = mn.boundary_scan(p, g, 1, seed=11, thresholds=thr_half)
    u = profiles.random_trial(np.random.default_rng(11)).profile(g, p.a)
    tau = math.sqrt(thr_half.rho0 / nc.grad_l2_sq(g, u))
    gt = nc.make_grid(g.dim, g.r_max / tau, g.n, g.grading, g.origin_blend)
    w = nc.Profile(gt, tau ** (g.dim / 2.0) * u.values)
    assert nc.grad_l2_sq(gt, w) == pytest.approx(thr_half.rho0, rel=1e-12)
    assert score == pytest.approx(fnl.energy(p, gt, w), rel=1e-12)


def test_boundary_scan_omega2(params_at, soliton_grid, thr_at):
    best = mn.boundary_scan(params_at, soliton_grid, 64, seed=12, thresholds=thr_at)
    assert best >= -1e-6


def test_boundary_dilated_ground_state(params_at, soliton_grid, thr_at):
    # one boundary sample built by hand from the sharpest available profile
    g = soliton_grid
    Q = profiles.weinstein_ground_state(2.5, g)
    u = nc.Profile(g, Q.values * math.sqrt(params_at.a / nc.mass(g, Q)))
    tau = math.sqrt(thr_at.rho0 / nc.grad_l2_sq(g, u))
    w = nc.rescale(u, tau)   # exact: on its own grid, one dilation lands on the sphere
    assert nc.mass(w.grid, w) == pytest.approx(params_at.a, rel=1e-14)
    assert nc.grad_l2_sq(w.grid, w) == pytest.approx(thr_at.rho0, rel=1e-14)
    assert fnl.energy(params_at, w.grid, w) >= -1e-6


def test_subadditivity_half_split(params_half, soliton_grid):
    rep = mn.subadditivity_check(params_half, soliton_grid, params_half.a / 2.0)
    assert rep.gap >= -1e-6
    assert rep.m_a < 0.0 and rep.m_a1 < 0.0 and rep.m_rest < 0.0
    # symmetric split: both sub-masses coincide
    assert rep.m_a1 == pytest.approx(rep.m_rest, abs=1e-8)


def test_subadditivity_small_mass(params_half, soliton_grid):
    rep = mn.subadditivity_check(params_half, soliton_grid, params_half.a / 100.0)
    assert rep.gap >= -1e-6
    # the small-mass minimum is shallow and the large one carries the value
    assert abs(rep.m_a1) < 0.05 * abs(rep.m_a)
    assert rep.m_a1 > rep.m_rest


def test_subadditivity_rejects_bad_split(params_half, soliton_grid):
    with pytest.raises(ValueError):
        mn.subadditivity_check(params_half, soliton_grid, params_half.a)


def _point(dim, q, mu=1.0, rel=0.5):
    """(params, thresholds) at mass rel * a0."""
    base = nc.ProblemParams(dim, q, mu, 1.0)
    S, C = nc.sobolev_constant(dim), nc.gn_constant(base)
    params = base.with_mass(rel * nc.critical_mass_a0(base, S, C))
    return params, nc.thresholds(params, S, C)


def _gaussian_seed(params, grid):
    """The default seed on `grid` itself: given as init, the descent runs at
    grid.n from the gaussian, where the default would start from the coarse
    minimizer."""
    return profiles.gaussian(params, min(mn.seed_width(params), grid.r_max / mn.SEED_FIT),
                             grid)


def test_descent_hands_a_flat_energy_to_newton():
    # the projected residual plateaued just above the Newton switch while E was
    # flat to rounding; this point used to run the 20000-iteration cap, and
    # 352 iterations with the preconditioner's fixed shift 1 (-lambda = 0.036)
    params, thr = _point(4, 2.5, 0.46875, 0.44921875)
    g = nc.make_grid(4, 50.0, 8192)
    rep = mn.minimize_local(params, g, init=_gaussian_seed(params, g), thresholds=thr)
    assert rep.converged
    assert rep.iterations < 60


def test_descent_converges_where_lambda_is_small():
    # -lambda = 3e-4: the fixed shift took 16286 iterations (13 s) here
    params, thr = _point(3, 3.2)
    g = nc.make_grid(3, 800.0, 8192)
    rep = mn.minimize_local(params, g, init=_gaussian_seed(params, g), thresholds=thr)
    assert rep.converged and not rep.boundary_hit
    assert rep.iterations < 200


@pytest.mark.parametrize("dim, q, r", [(3, 3.2, 200.0), (5, 2.4, 50.0)])
def test_wider_grid_is_the_dilated_problem(dim, q, r):
    # the dilation u -> t^((N-2)/2) u(t x) maps (mu, a) to
    # (mu t^(N - q(N-2)/2), a / t^2), keeps E and ||grad u||^2 and scales lambda
    # by t^2; on make_grid(N, t r, n) and make_grid(N, r, n) it maps nodes to
    # nodes, so the two discrete problems, and their minimizers, are the same
    t, n = 4.0, 2048
    params, thr = _point(dim, q)
    dilated = nc.ProblemParams(dim, q, params.mu * t ** (dim - q * (dim - 2) / 2.0),
                               params.a / t ** 2)
    wide, narrow = nc.make_grid(dim, t * r, n), nc.make_grid(dim, r, n)
    init = profiles.gaussian(params, 1.0, wide)
    rep = mn.minimize_local(params, wide, init=init, thresholds=thr)
    rep_d = mn.minimize_local(dilated, narrow,
                              init=nc.Profile(narrow, t ** ((dim - 2) / 2.0) * init.values))
    assert rep.converged and rep_d.converged
    assert rep_d.energy == pytest.approx(rep.energy, rel=1e-10, abs=0.0)
    assert nc.grad_l2_sq(narrow, rep_d.final) == pytest.approx(
        nc.grad_l2_sq(wide, rep.final), rel=1e-10, abs=0.0)
    assert rep_d.lam == pytest.approx(t * t * rep.lam, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("dim, q", [(3, 2.5), (5, 2.4)])
@pytest.mark.parametrize("n", [8192, 16384, 32768])
def test_converged_at_every_grid_size(dim, q, n):
    # the l^2 residual sqrt(F.F/W) has a rounding floor that grows like n^2
    # and stopped the polish above its target at n >= 16384; the H^-1 one
    # does not
    params, thr = _point(dim, q)
    rep = mn.minimize_local(params, nc.make_grid(dim, 50.0, n), thresholds=thr)
    assert rep.converged and not rep.boundary_hit


@pytest.mark.parametrize("dim, q", [(3, 2.5), (5, 2.4)])
def test_minimum_converges_at_order_two(dim, q):
    params, thr = _point(dim, q)
    m = [mn.minimize_local(params, nc.make_grid(dim, 50.0, n), thresholds=thr).energy
         for n in (2048, 4096, 8192, 16384)]
    for k in range(2):
        order = math.log2((m[k + 1] - m[k]) / (m[k + 2] - m[k + 1]))
        assert order == pytest.approx(2.0, abs=0.1)


@pytest.fixture(scope="module")
def grid6():
    return nc.make_grid(6, 50.0, 8192)


@pytest.mark.parametrize("rel", [0.25, 0.5, 0.75, 1.0])
def test_newton_converges_on_the_w0_core(rel, grid6):
    # unscaled, gtsv's pivoting lost the core rows of the bordered Newton
    # system at N = 6 (entries ~1e-22), and these runs stalled at residual 0.06-0.28
    params, thr = _point(6, 2.2, rel=rel)
    rep = mn.minimize_local(params, grid6, thresholds=thr)
    assert rep.converged and not rep.boundary_hit
    assert rep.grad_residual < 1e-8 * abs(rep.energy)
    assert rep.energy < 0.0 and rep.lam < 0.0
    assert abs(rep.pohozaev) < 1e-6 * abs(rep.energy)   # discrete P is not exact
    assert nc.mass(grid6, rep.final) == pytest.approx(params.a, rel=1e-12)


ATLAS_PAIRS = [(3, 2.5), (3, 3.2), (4, 2.5), (5, 2.4), (6, 2.2)]


@pytest.mark.parametrize("dim, sigma", [(3, 2.0), (6, 3.0)])
def test_gaussian_norms_closed_form(dim, sigma):
    params = nc.ProblemParams(dim, 2.2 if dim == 6 else 2.5, 1.0, 0.7)
    g = nc.make_grid(dim, 12.0 * sigma, 16384)
    want = fnl.fiber_norms(params, g, profiles.gaussian(params, sigma, g))
    got = mn.gaussian_norms(params, sigma)
    for name in ("grad2", "crit", "sub", "mass"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-6), name


def test_gaussian_norms_past_the_range_of_c_to_the_p():
    # at sigma = 1e40, N = 3, c^6 ~ 1e-360 underflows while int |g|^6 ~ 1e-240
    # does not: the norms still scale as the dilation by 1/sigma does
    params = nc.ProblemParams(3, 2.5, 1.0, 0.7)
    one, wide = mn.gaussian_norms(params, 1.0), mn.gaussian_norms(params, 1e40)
    ex = params.ex
    assert wide.grad2 == pytest.approx(one.grad2 * 1e-80, rel=1e-12)
    assert wide.crit == pytest.approx(one.crit * 1e40 ** -ex.two_star, rel=1e-12)
    assert wide.sub == pytest.approx(one.sub * 1e40 ** -ex.q_gamma_q, rel=1e-12)


@pytest.mark.parametrize("dim, q", ATLAS_PAIRS)
@pytest.mark.parametrize("rel", [0.5, 1.0])
def test_seed_sits_at_its_fiber_minimum_inside_the_ball(dim, q, rel):
    params, thr = _point(dim, q, rel=rel)
    sigma = mn.seed_width(params)
    g = nc.make_grid(dim, 10.0 * sigma, 8192)
    seed = profiles.gaussian(params, sigma, g)
    rep = fnl.fiber_critical_points(params, g, seed, thresholds=thr)
    assert rep.tau_plus == pytest.approx(1.0, abs=1e-3)
    assert rep.norms.grad2 < mn.BALL_MARGIN * thr.rho0


@pytest.mark.parametrize("dim, q", ATLAS_PAIRS)
def test_default_seed_needs_no_retraction(dim, q, monkeypatch):
    def refused(*args):
        raise AssertionError("the default seed was resampled into the ball")

    monkeypatch.setattr(mn, "rescale", refused)
    for rel in (0.5, 1.0):
        params, thr = _point(dim, q, rel=rel)
        assert mn.minimize_in_domain(params, nc.make_grid(dim, 50.0, 2048),
                                     thresholds=thr).converged


@pytest.mark.parametrize("q, most, rel", [(2.5, 1, 0.5), (3.2, 2, 0.5), (3.2, 1, 1.0)],
                         ids=["2.5-1", "3.2-2", "3.2-1-rel1.0"])
def test_seed_grid_saves_the_outgrown_solve(q, most, rel, monkeypatch):
    # at (3, 3.2) the minimizer outgrows r_max = 50: the grid is stretched to
    # the seed before the first solve instead of after it, also at a = a0,
    # where the seed fits r_max = 50 but its lambda does not
    calls = []
    solve = mn.minimize_local

    def counted(*args, **kwargs):
        calls.append(args[1].r_max)
        return solve(*args, **kwargs)

    monkeypatch.setattr(mn, "minimize_local", counted)
    params, thr = _point(3, q, rel=rel)
    rep = mn.minimize_in_domain(params, nc.make_grid(3, 50.0, 8192), thresholds=thr)
    assert rep.converged
    assert rep.solves == len(calls) <= most
    assert rep.final.grid.r_max == calls[-1]


def _fails(how):
    """A stand-in for mn._solve whose coarse-grid solves fail as `how` says."""
    solve = mn._solve

    def failing(params, grid, init, tol, rho0):
        if grid.n != profiles.COARSE_N:
            return solve(params, grid, init, tol, rho0)
        if how == "raises":
            raise RuntimeError("coarse solve failed")
        rep = solve(params, grid, init, tol, rho0)
        if how == "boundary":
            rep.boundary_hit = True
        rep.converged = False
        return rep
    return failing


@pytest.mark.parametrize("how", ["raises", "unconverged", "boundary"])
def test_failed_coarse_solve_leaves_the_gaussian_start(how, monkeypatch):
    params, thr = _point(3, 2.5)
    g = nc.make_grid(3, 50.0, 8192)
    want = mn.minimize_local(params, g, init=_gaussian_seed(params, g), thresholds=thr)
    monkeypatch.setattr(mn, "_solve", _fails(how))
    for solve in (mn.minimize_local, mn.minimize_in_domain):
        rep = solve(params, g, thresholds=thr)
        assert rep.coarse["n"] == profiles.COARSE_N and rep.coarse["converged"] is False
        assert (rep.coarse["iterations"] is None) == (how == "raises")
        assert rep.iterations == want.iterations
        assert rep.energy == want.energy
        assert np.array_equal(rep.final.values, want.final.values)


@pytest.mark.parametrize("dim, q", ATLAS_PAIRS)
@pytest.mark.parametrize("rel", [0.5, 1.0])
def test_coarse_start_agrees_with_the_gaussian_start(dim, q, rel, monkeypatch):
    params, thr = _point(dim, q, rel=rel)
    g = nc.make_grid(dim, 50.0, 8192)
    rep = mn.minimize_in_domain(params, g, thresholds=thr)
    monkeypatch.setattr(mn, "COARSE_START_N", math.inf)
    want = mn.minimize_in_domain(params, g, thresholds=thr)
    assert rep.coarse["n"] == profiles.COARSE_N and rep.coarse["converged"] is True
    assert want.coarse is None
    assert rep.converged and want.converged
    assert rep.final.grid.r_max == want.final.grid.r_max
    assert rep.energy == pytest.approx(want.energy, rel=1e-10, abs=0.0)
    assert rep.iterations <= want.iterations


def test_explicit_init_runs_no_coarse_level(params_half, soliton_grid, thr_half, monkeypatch):
    def refused(*args):
        raise AssertionError("an explicit init was solved on the coarse grid")

    init = profiles.gaussian(params_half, 1.0, soliton_grid)
    want = mn.minimize_local(params_half, soliton_grid, init=init, thresholds=thr_half)
    monkeypatch.setattr(mn, "_seed_start", refused)
    rep = mn.minimize_local(params_half, soliton_grid, init=init, thresholds=thr_half)
    assert rep.coarse is None and want.coarse is None
    assert rep.iterations == want.iterations > 1
    assert np.array_equal(rep.final.values, want.final.values)


def test_coarse_start_only_on_fine_grids(params_half, thr_half):
    small = mn.minimize_local(params_half, nc.make_grid(3, 50.0, mn.COARSE_START_N - 2),
                              thresholds=thr_half)
    large = mn.minimize_local(params_half, nc.make_grid(3, 50.0, mn.COARSE_START_N),
                              thresholds=thr_half)
    assert small.coarse is None and small.iterations > 1
    assert large.coarse["n"] == profiles.COARSE_N and large.coarse["converged"] is True
    assert large.coarse["iterations"] > 1 and large.iterations == 1


@pytest.mark.parametrize("dim, q", [(5, 2.7), (6, 2.6)])
def test_newton_polish_backs_off_at_the_equality_mass(dim, q, monkeypatch):
    # at a = a0 near the mass-critical exponent the descent hands over where
    # the full Newton step raises the residual; the undamped polish stopped
    # there (residuals 1.1e-2 and 2.7e-2, E 3 % and 11 % high).  A later
    # handover, NEWTON_SWITCH = 1e-7, is the reference
    params, thr = _point(dim, q, rel=1.0)
    g = nc.make_grid(dim, 50.0, 2048)
    rep = mn.minimize_in_domain(params, g, thresholds=thr)
    assert rep.converged and not rep.boundary_hit
    monkeypatch.setattr(mn, "NEWTON_SWITCH", 1e-7)
    ref = mn.minimize_in_domain(params, g, thresholds=thr)
    assert ref.converged and ref.final.grid.r_max == rep.final.grid.r_max
    assert rep.energy == pytest.approx(ref.energy, rel=1e-9)


def test_a_solve_the_grid_does_not_hold_is_repeated_on_the_stretched_grid(monkeypatch):
    # the seed's closed-form lambda picks a first grid that holds the
    # minimizer's in every case measured, so the re-solve is forced: the
    # first solve's lambda is taken as not held
    params, thr = _point(3, 2.5)
    holds, checked, solved = mn._holds, [], []
    local = mn.minimize_local

    def first_solve_not_held(lam, r_max):
        checked.append(lam)   # the first check is the seed's, before any solve
        return len(checked) != 2 and holds(lam, r_max)

    def recorded(*args, **kwargs):
        solved.append(local(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(mn, "_holds", first_solve_not_held)
    monkeypatch.setattr(mn, "minimize_local", recorded)
    rep = mn.minimize_in_domain(params, nc.make_grid(3, 30.0, 2048), thresholds=thr)
    monkeypatch.undo()
    first = solved[0].final.grid
    t = mn._stretch(solved[0].lam, first.r_max)
    assert rep.solves == len(solved) == 2 and rep.converged and t > 1.0
    assert first.r_max == 30.0   # the seed needs no stretch
    assert np.array_equal(rep.final.grid.nodes, first.dilated(t).nodes)
    assert rep.final.grid.r_max == first.dilated(t).r_max
    direct = mn.minimize_local(params, rep.final.grid, thresholds=thr)
    assert direct.converged
    assert rep.energy == pytest.approx(direct.energy, rel=1e-10)


@pytest.mark.parametrize("frac", [0.9, 0.7, 0.5, 0.3])
def test_a_minimizer_pinned_at_the_ball_is_a_boundary_hit(frac):
    # with rho0 below the minimizer's ||grad u||^2 the descent sits on the
    # ball; at 0.9, 0.7 and 0.5 it handed over to Newton there (flat E), and
    # the polish's critical point outside the ball (1.11 rho0 at 0.9) was
    # refused without a report; at 0.3 the last line search was refused
    params, thr = _point(3, 2.5)
    g = nc.make_grid(3, 50.0, 2048)
    init = _gaussian_seed(params, g)
    free = mn.minimize_local(params, g, init=init, thresholds=thr)
    assert free.converged
    rho0 = frac * g.stiffness_quad(free.final.values)
    rep = mn._solve(params, g, init, 1e-8, rho0)
    assert rep.boundary_hit and not rep.converged
    assert g.stiffness_quad(rep.final.values) < rho0


def test_a_singular_newton_step_ends_the_polish(monkeypatch):
    # the polish keeps its last iterate, here the descent's: the same state
    # as a polish that takes no step
    params, thr = _point(3, 2.5)
    g = nc.make_grid(3, 50.0, 2048)
    init = _gaussian_seed(params, g)

    class Singular(nc.grid.TridiagBand):
        def solve_inplace(self, diag, rhs):
            raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(mn, "TridiagBand", Singular)
    rep = mn.minimize_local(params, g, init=init, thresholds=thr)
    monkeypatch.undo()
    assert not rep.converged and rep.grad_residual > 1e-8
    monkeypatch.setattr(mn, "NEWTON_MAX", 0)
    ref = mn.minimize_local(params, g, init=init, thresholds=thr)
    assert np.array_equal(rep.final.values, ref.final.values)
    assert (rep.energy, rep.grad_residual) == (ref.energy, ref.grad_residual)
