import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import nlscrit as nc
from nlscrit import constants as cst
from nlscrit import functionals as fnl
from nlscrit import minimize as mn
from nlscrit import mountainpass as mp
from nlscrit import profiles


def critical_params(multiple, dim=4, mu=1.0):
    """Mass-critical parameters with mu a^((q-2)/2) = multiple * abar."""
    p0 = nc.ProblemParams(dim, 2.0 + 4.0 / dim, mu, 1.0)
    C = nc.gn_constant(p0)
    ab = nc.abar(p0, C)
    ex = p0.ex
    a = (multiple * ab / mu) ** (2.0 / (p0.q * (1.0 - ex.gamma_q)))
    return p0.with_mass(a)


def test_projection_contracts(params_half, soliton_grid, thr_half):
    u = profiles.gaussian(params_half, 1.0, soliton_grid)
    w = mp.project_to_pohozaev_minus(params_half, soliton_grid, u,
                                     thresholds=thr_half)
    g2 = nc.grad_l2_sq(w.grid, w)
    assert abs(fnl.pohozaev(params_half, w.grid, w)) < 1e-6 * g2
    assert fnl.energy(params_half, w.grid, w) > 0.0
    assert nc.mass(w.grid, w) == pytest.approx(params_half.a, rel=1e-6)
    # idempotence: the projected profile is its own fiber maximum
    rep = fnl.fiber_critical_points(params_half, w.grid, w,
                                    thresholds=thr_half)
    assert rep.tau_minus == pytest.approx(1.0, rel=1e-3)


def test_projection_refused_on_decreasing_branch():
    p0 = critical_params(2.0)
    g = nc.make_grid(4, 50.0, 4096)
    Q = profiles.weinstein_ground_state(3.0, g)
    gam = p0.ex.gamma_q
    g2, hq = nc.grad_l2_sq(g, Q), nc.lq_norm_pow(g, Q, 3.0)
    t = 2.0 * g2 / (p0.mu * gam * hq)
    u = nc.Profile(g, t * Q.values)
    p = p0.with_mass(nc.mass(g, u))
    with pytest.raises(fnl.RegimeError):
        mp.project_to_pohozaev_minus(p, g, u)


def check_level_estimate(est):
    assert est.accepted
    assert 0.0 < est.level < est.upper_bound
    assert est.m_a < 0.0
    # the s = 0 member is the bare minimizer's own fiber maximum
    bare = [lev for (b, s), lev in est.family_trace if s == 0.0]
    assert bare and min(bare) > 0.0
    # reported level is the family minimum
    assert est.level == pytest.approx(min(lev for _, lev in est.family_trace))


def test_level_estimate_omega1(mp_estimate_half, params_half):
    est = mp_estimate_half
    check_level_estimate(est)
    w = est.witness
    g2 = nc.grad_l2_sq(w.grid, w)
    assert abs(fnl.pohozaev(params_half, w.grid, w)) < 1e-6 * g2
    assert nc.mass(w.grid, w) == pytest.approx(params_half.a, rel=1e-6)
    assert fnl.energy(params_half, w.grid, w) == pytest.approx(est.level, rel=1e-12)


def test_witness_refused_on_the_solve_grid(mp_estimate_half, params_half, minimizer_half):
    # the witness lives on its own grid; the solve grid has the same n, so
    # without the check its norms would be wrong without any error
    with pytest.raises(ValueError, match="another grid"):
        fnl.energy(params_half, minimizer_half.final.grid, mp_estimate_half.witness)


def test_level_estimate_omega2(mp_estimate_at):
    check_level_estimate(mp_estimate_at)


def test_level_estimate_monotone_in_family(params_half, soliton_grid,
                                           minimizer_half, thr_half,
                                           mp_estimate_half):
    small = mp.MPFamilySpec(bubble_widths=(0.25,),
                            amplitudes=tuple(np.geomspace(0.05, 2.0, 12).tolist()))
    est_small = mp.estimate_mp_level(params_half, soliton_grid, family=small,
                                     minimizer=minimizer_half, thresholds=thr_half)
    assert mp_estimate_half.level <= est_small.level + 1e-12


def test_level_estimate_needs_the_minimizer_grid(params_half, minimizer_half, thr_half):
    # minimize_in_domain may solve on a wider grid with the same node count:
    # the family must be built on the grid the minimizer was solved on
    g = minimizer_half.final.grid
    wider = nc.make_grid(g.dim, 2.0 * g.r_max, g.n)
    with pytest.raises(ValueError, match="another grid"):
        mp.estimate_mp_level(params_half, wider, minimizer=minimizer_half,
                             thresholds=thr_half)


def fiber_loop(params, grid, family, umin, thr):
    """The trial family one profile at a time through fiber_critical_points:
    (trace, refused (b, s), best trial profile)."""
    trace, refused, best = [], [], (math.inf, None)
    W = grid.full_weights
    for b in family.bubble_widths:
        bub = profiles.cutoff_profile(profiles.aubin_talenti(b, grid),
                                      family.cutoff_radius)
        for s in family.amplitudes:
            vals = umin + s * bub.values
            w = nc.Profile(grid, vals * math.sqrt(params.a / float(np.dot(W, vals * vals))))
            try:
                lev = fnl.fiber_critical_points(params, grid, w, thresholds=thr).e_at_tau_minus
            except fnl.StructuralAnomalyError:
                refused.append((b, s))
                continue
            trace.append(((b, s), lev))
            if lev < best[0]:
                best = (lev, w)
    return trace, refused, best[1]


def assert_same_trace(got, want):
    assert [row for row, _ in got] == [row for row, _ in want]
    for (_, x), (_, y) in zip(got, want):
        assert x == pytest.approx(y, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("dim, q", [(3, "2.5"), (3, "3.2"), (4, "2.5"), (5, "2.4"),
                                    (6, "2.2")])
def test_blocked_family_matches_fiber_loop(dim, q):
    unit = nc.ProblemParams(dim, cst.parse_q(q), 1.0, 1.0)
    params = unit.with_mass(0.5 * nc.critical_mass_a0(unit, nc.sobolev_constant(dim),
                                                       nc.gn_constant(unit)))
    g = nc.make_grid(dim, 50.0, 2048)
    thr = nc.thresholds(params)
    minimizer = mn.minimize_local(params, g, thresholds=thr)
    family = mp.MPFamilySpec()
    est = mp.estimate_mp_level(params, g, family, minimizer=minimizer, thresholds=thr)
    trace, refused, w = fiber_loop(params, g, family, minimizer.final.values, thr)
    assert not refused
    assert_same_trace(est.family_trace, trace)
    # the winner is rebuilt as a profile: level and witness to the bit
    assert est.level == fnl.fiber_critical_points(params, g, w, thresholds=thr).e_at_tau_minus
    witness = mp.project_to_pohozaev_minus(params, g, w, thresholds=thr)
    assert np.array_equal(est.witness.values, witness.values)


def test_blocked_family_refuses_the_loop_refusals(base325, a0_325, soliton_grid,
                                                  minimizer_half):
    # above the threshold curve, labelled Omega1, some trials have no fiber
    # root: the blocked norms must refuse exactly those
    params = base325.with_mass(3.0 * a0_325)
    thr = dataclasses.replace(nc.thresholds(params), regime=nc.Regime.OMEGA1)
    family = mp.MPFamilySpec()
    umin = minimizer_half.final.values
    trace, failures, _ = mp._family_levels(params, soliton_grid, family, umin)
    want_trace, want_refused, _ = fiber_loop(params, soliton_grid, family, umin, thr)
    assert want_trace and want_refused
    assert [(b, s) for b, s, _ in failures] == want_refused
    assert_same_trace(trace, want_trace)


ATLAS_PAIRS = [(3, "2.5"), (3, "3.2"), (4, "2.5"), (5, "2.4"), (6, "2.2")]


@functools.lru_cache(maxsize=None)
def atlas_family_norms(dim, q):
    """(params, norms) of the default family around the minimizer at
    a = a0/2 on the n = 2048 grid of `test_blocked_family_matches_fiber_loop`."""
    unit = nc.ProblemParams(dim, cst.parse_q(q), 1.0, 1.0)
    params = unit.with_mass(0.5 * nc.critical_mass_a0(unit, nc.sobolev_constant(dim),
                                                       nc.gn_constant(unit)))
    g = nc.make_grid(dim, 50.0, 2048)
    minimizer = mn.minimize_local(params, g, thresholds=nc.thresholds(params))
    return params, mp._family_norms(params, g, mp.MPFamilySpec(), minimizer.final.values)[1]


def entry(params, nm, idx):
    return fnl.FiberNorms(float(nm.grad2[idx]), float(nm.crit[idx]), float(nm.sub[idx]),
                          params.a)


@pytest.mark.parametrize("dim, q", ATLAS_PAIRS)
def test_root_step_is_batch_invariant(dim, q):
    # each trial's roots and peak do not depend on the other trials
    params, nm = atlas_family_norms(dim, q)
    assert nm.grad2.shape == (4, 64)
    tau_m, tau_p, peak, reason = fnl.fiber_root_step(params, nm)
    for idx in np.ndindex(nm.grad2.shape):
        one = fnl.fiber_root_step(params, entry(params, nm, idx))
        assert one == (tau_m[idx], tau_p[idx], peak[idx], None)
        assert reason[idx] is None


@pytest.mark.parametrize("dim, q", ATLAS_PAIRS)
def test_root_step_matches_scipy_brentq(dim, q):
    # the oracle brackets the rising and the falling branch of the reduced
    # fiber map g t^(2-qg) - c t^(ts-qg) - mu gamma_q h on its own and
    # solves each
    params, nm = atlas_family_norms(dim, q)
    ex = params.ex
    al, be = 2.0 - ex.q_gamma_q, ex.two_star - ex.q_gamma_q
    tau_m, tau_p = fnl.fiber_root_step(params, nm)[:2]
    eps = np.finfo(float).eps
    for idx in np.ndindex(nm.grad2.shape):
        g, c, h = float(nm.grad2[idx]), float(nm.crit[idx]), float(nm.sub[idx])

        def red(t, g=g, c=c, h=h):
            return g * t ** al - c * t ** be - params.mu * ex.gamma_q * h
        top = (al * g / (be * c)) ** (1.0 / (be - al))
        lo, hi = 0.5 * top, 2.0 * top
        while red(lo) > 0.0:
            lo *= 0.5
        while red(hi) > 0.0:
            hi *= 2.0
        want = scipy_brentq(red, top, hi, xtol=1e-300, rtol=8.9e-16)
        assert abs(tau_m[idx] - want) <= 4.0 * eps * want
        want = scipy_brentq(red, lo, top, xtol=1e-300, rtol=8.9e-16)
        assert abs(tau_p[idx] - want) <= 8.0 * eps * want


def test_root_step_raises_on_a_nan_map_value():
    # a NaN inside a running bracket stops the step; one in an entry that
    # starts at NaN (a refused entry) does not
    def step(x):
        f = np.where(x > 0.5, np.nan, x - 0.75)
        return f, f
    with pytest.raises(ValueError, match="NaN"):
        fnl.newton_root(step, np.zeros(2), np.ones(2), np.array([0.9, np.nan]),
                        np.zeros(2, dtype=bool))
    root = fnl.newton_root(lambda x: (x - 0.25, x - 0.25), np.zeros(2), np.ones(2),
                           np.array([1.0, np.nan]), np.zeros(2, dtype=bool))
    assert root[0] == 0.25 and math.isnan(root[1])
    # (x - 1.1)^9: Newton's steps shrink the error by only 8/9 each
    with pytest.raises(RuntimeError, match="did not converge"):
        fnl.newton_root(lambda x: ((x - 1.1) ** 9, (x - 1.1) / 9.0), np.zeros(1),
                        np.full(1, 3.0), np.full(1, 3.0), np.zeros(1, dtype=bool))


def test_root_step_refuses_per_entry():
    # three admitted trials around three built to hit each refusal in turn:
    # no root (the subcritical term swamps the peak), no lower root above
    # 1e-14 (no subcritical term) and no upper root below 1e14 (a critical
    # term so small that the peak lies past 1e14)
    params, nm = atlas_family_norms(3, "2.5")
    (g0, g1, g2), (c0, c1, c2), (h0, h1, h2) = nm.grad2[0, :3], nm.crit[0, :3], nm.sub[0, :3]
    g, c, h = np.array([(g0, c0, h0), (g0, c0, 1e6 * h0), (g1, c1, 0.0),
                        (g1, 1e-200 * c1, h1), (g1, c1, h1), (g2, c2, h2)]).T
    mixed = fnl.FiberNorms(g, c, h, params.a)
    tau, _, _, reason = fnl.fiber_root_step(params, mixed)
    assert list(reason[[1, 2, 3]]) == list(fnl.FIBER_REFUSALS)
    for i in (1, 2, 3):
        with pytest.raises(fnl.StructuralAnomalyError) as exc:
            fnl.fiber_roots(params, entry(params, mixed, i))
        assert str(exc.value) == reason[i]
        assert math.isnan(tau[i])
    keep = [0, 4, 5]
    admitted = fnl.fiber_root_step(params, fnl.FiberNorms(g[keep], c[keep], h[keep],
                                                          params.a))
    assert list(reason[keep]) == [None] * 3
    assert np.array_equal(tau[keep], admitted[0])


@pytest.mark.parametrize("family", [mp.MPFamilySpec(amplitudes=()),
                                    mp.MPFamilySpec(bubble_widths=())],
                         ids=["no-amplitudes", "no-widths"])
def test_empty_family_has_no_admissible_projection(family, params_half, soliton_grid,
                                                   minimizer_half, thr_half):
    with pytest.raises(RuntimeError, match="family produced no admissible projection"):
        mp.estimate_mp_level(params_half, soliton_grid, family, minimizer=minimizer_half,
                             thresholds=thr_half)


def test_cpo_case1_sequence():
    p = critical_params(1.0)
    g = nc.make_grid(4, 200.0, 8192)
    rep = mp.cpo_sequence_case1(p, g, [5.0, 10.0, 20.0, 40.0])
    assert rep.monotone_decreasing
    assert all(r > 0.0 for r in rep.ratios)
    assert all(e > 0.0 for e in rep.projected_energies)
    assert all(rep.details["excess_positive"])
    # closed-form relation between the two reported sequences
    for r, e in zip(rep.ratios, rep.projected_energies):
        assert e == pytest.approx(r ** 2.0 / 4.0, rel=1e-12)
    # the construction sits on the borderline curve of its own discrete system
    assert abs(rep.details["baseline_residual"]) < 1e-12
    S4 = nc.sobolev_constant(4)
    assert rep.projected_energies[-1] < 0.05 * S4 ** 2.0 / 4.0


def test_cpo_case1_mass_matches_continuum_curve():
    p = critical_params(1.0)
    g = nc.make_grid(4, 200.0, 8192)
    rep = mp.cpo_sequence_case1(p, g, [5.0])
    # discrete calibration must agree with the continuum-threshold mass
    assert rep.mass_used == pytest.approx(p.a, rel=1e-3)


def test_cpo_case1_rejects_oversized_cutoff():
    p = critical_params(1.0)
    g = nc.make_grid(4, 100.0, 2048)
    with pytest.raises(ValueError):
        mp.cpo_sequence_case1(p, g, [30.0, 60.0])


def test_cpo_case1_rejects_subcritical(params_half, soliton_grid):
    with pytest.raises(fnl.RegimeError):
        mp.cpo_sequence_case1(params_half, soliton_grid, [5.0])


def test_cpo_case2_sequence():
    p = critical_params(2.0)
    g = nc.make_grid(4, 200.0, 8192)
    A_values = [0.1, 0.01, 0.001]
    rep = mp.cpo_sequence_case2(p, g, A_values)
    assert rep.monotone_decreasing
    # prescribed kinetic excess holds to root-finder accuracy
    for A_n, excess in zip(A_values, rep.details["kinetic_excess"]):
        assert excess == pytest.approx(A_n, rel=1e-11)
    # interpolation lower bound on the critical norm
    lb = rep.details["l2star_lower_bound"]
    assert all(x >= lb * (1.0 - 1e-12) for x in rep.details["l2star_norms"])
    assert 0.0 < rep.details["theta"] < 1.0
    # ratio_n = A_n / ||u_n||_{ts}^2 with the critical norm pinned near its
    # interpolation lower bound, so the ratios track A_n proportionally
    for A_n, r, x in zip(A_values, rep.ratios, rep.details["l2star_norms"]):
        assert r == pytest.approx(A_n / x**2, rel=1e-10)
    S4 = nc.sobolev_constant(4)
    assert rep.projected_energies[-1] < 0.05 * S4 ** 2.0 / 4.0


def test_cpo_case2_amplitude_matches_scipy_brentq(monkeypatch):
    # the oracle brackets the quotient of Q + s bump on its own and solves
    # quotient(s) = M_n by Brent's method
    amplitudes = []
    solve = fnl.newton_root

    def spy(*args):
        x = solve(*args)
        amplitudes.append(float(x[0]))
        return x
    monkeypatch.setattr(fnl, "newton_root", spy)
    p = critical_params(2.0)
    g = nc.make_grid(4, 200.0, 8192)
    A_values = [0.1, 0.01, 0.001]
    mp.cpo_sequence_case2(p, g, A_values)
    q, W = p.q, g.full_weights
    Q = profiles.weinstein_ground_state(q, g).values
    bump = mp._mollifier_bump(g.nodes)

    def quotient(s):
        v = Q + s * bump
        return (nc.grad_l2_sq(g, v) * float(np.dot(W, v * v)) ** ((q - 2.0) / 2.0)
                / float(np.dot(W, np.abs(v) ** q)))
    eps = np.finfo(float).eps
    assert len(amplitudes) == len(A_values)
    for A_n, got in zip(A_values, amplitudes):
        M_n = (p.mu * p.ex.gamma_q + A_n) * p.a ** ((q - 2.0) / 2.0)
        hi = 1.0
        while quotient(hi) < M_n:
            hi *= 2.0
        want = scipy_brentq(lambda s: quotient(s) - M_n, 0.0, hi, xtol=1e-300, rtol=8.9e-16)
        assert abs(got - want) <= 4.0 * eps * want


def test_cpo_case2_quotient_minimum_is_ground_state():
    p = critical_params(2.0)
    g = nc.make_grid(4, 200.0, 8192)
    rep = mp.cpo_sequence_case2(p, g, [0.1])
    C = nc.gn_constant(p)
    assert rep.details["gn_quotient_minimum"] == pytest.approx(C ** -3.0, rel=1e-3)


def test_cpo_case2_rejects_borderline_mass():
    p = critical_params(1.0)
    g = nc.make_grid(4, 100.0, 2048)
    with pytest.raises(fnl.RegimeError):
        mp.cpo_sequence_case2(p, g, [0.1])
    with pytest.raises(ValueError):
        mp.cpo_sequence_case2(critical_params(2.0), g, [-0.1])


def test_positivity_probe_omega2(params_at, soliton_grid, thr_at):
    rep = mp.omega2_positivity_probe(params_at, soliton_grid, 64, seed=5,
                                     thresholds=thr_at)
    assert rep.min_level > 0.0
    assert len(rep.levels) == 64
    assert np.min(rep.levels) == rep.min_level
    # diagnostics for the lowest witnesses are recorded
    low = rep.low_diagnostics[0]
    assert set(low) == {"level", "grad_l2_sq", "dist_rho0", "gn_optimality"}
    assert 0.0 < low["gn_optimality"] <= 1.001


def test_positivity_probe_omega1(params_half, soliton_grid, thr_half):
    rep = mp.omega2_positivity_probe(params_half, soliton_grid, 32, seed=6,
                                     thresholds=thr_half)
    assert rep.min_level > 0.0
