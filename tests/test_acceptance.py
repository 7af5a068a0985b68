"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Tolerances are fixed here, not configurable.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import cli
from nlscrit import dynamics as dyn
from nlscrit import functionals as fnl
from nlscrit import minimize as mn
from nlscrit import mountainpass as mp
from nlscrit import profiles


def report(num, name, failures):
    line = f"ACCEPTANCE {num} ({name}): " + ("PASS" if not failures else
                                             "FAIL " + "; ".join(failures))
    print(line)
    assert not failures, line


def test_criterion_1_quadrature_oracles():
    failures = []
    for dim in (3, 4, 5):
        g = nc.make_grid(dim, 20.0, 4096)
        got = nc.integrate(g, np.exp(-g.nodes**2))
        exact = math.pi ** (dim / 2.0)
        if abs(got - exact) > 1e-6 * exact:
            failures.append(f"gaussian N={dim} err {abs(got-exact)/exact:.1e}")
        # ball volumes: full ball and a cell-aligned interior radius
        gb = nc.make_grid(dim, 1.0, 4096)
        vol = nc.integrate(gb, np.ones(gb.n))
        om = nc.surface_area(dim)
        if abs(vol - om / dim) > 1e-6 * (om / dim):
            failures.append(f"ball volume N={dim}")
        R = gb.nodes[2048] + 0.5 * (gb.nodes[2049] - gb.nodes[2048])
        # align to the nearest cell edge: use the midpoint between the two
        # Gauss nodes of adjacent cells (edges fall between node pairs)
        inside = (gb.nodes <= R).astype(float)
        got_R = nc.integrate(gb, inside)
        exact_R = om / dim * R**dim
        if abs(got_R - exact_R) > 2e-4 * exact_R:
            failures.append(f"interior ball N={dim} err {abs(got_R-exact_R)/exact_R:.1e}")
    report(1, "quadrature oracle", failures)


def test_criterion_2_sobolev_constant():
    failures = []
    from math import gamma, pi
    S3 = nc.sobolev_constant(3)
    closed = pi * 3 * (gamma(1.5) / gamma(3.0)) ** (2.0 / 3.0)
    if abs(S3 - closed) > 5e-3 * closed:
        failures.append(f"S(3)={S3:.5f} vs {closed:.5f}")
    S3b = nc.sobolev_constant(3, b=2.0)
    if abs(S3b - S3) > 1e-3 * S3:
        failures.append(f"b-invariance {abs(S3b-S3)/S3:.1e}")
    report(2, "Sobolev constant", failures)


def test_criterion_3_gn_sharpness():
    failures = []
    rng = np.random.default_rng(2024)
    for dim, q in ((3, 2.5), (3, 3.0), (4, 3.0)):
        p = nc.ProblemParams(dim, q, 1.0, 1.0)
        C = nc.gn_constant(p)
        g = nc.make_grid(dim, 50.0, 8192)
        gam = dim / 2.0 - dim / q
        Q = profiles.weinstein_ground_state(q, g)
        lhs = nc.lq_norm(g, Q, q)
        rhs = C * nc.grad_l2_sq(g, Q) ** (gam / 2.0) * nc.mass(g, Q) ** ((1 - gam) / 2.0)
        if abs(lhs - rhs) > 1e-3 * rhs:
            failures.append(f"equality at Q ({dim},{q})")
        worst = 0.0
        for _ in range(100):
            u = profiles.random_trial(rng).profile(g, 1.0)
            bound = C * nc.grad_l2_sq(g, u) ** (gam / 2.0)
            worst = max(worst, nc.lq_norm(g, u, q) / bound)
        if worst > 1.0 + 1e-3:
            failures.append(f"bound violated ({dim},{q}): ratio {worst:.6f}")
    report(3, "GN sharpness", failures)


def test_criterion_4_fiber_structure(params_half, params_at, thr_half, thr_at,
                                     soliton_grid):
    failures = []
    fine = nc.make_grid(3, 50.0, 16384)
    for tag, params, thr in (("Omega1", params_half, thr_half),
                             ("Omega2", params_at, thr_at)):
        rng = np.random.default_rng(99)
        for k in range(20):
            tr = profiles.random_trial(rng)
            u = tr.profile(soliton_grid, params.a)
            rep = fnl.fiber_critical_points(params, soliton_grid, u, thresholds=thr)
            nm = fnl.fiber_norms(params, soliton_grid, u)
            ok = (rep.tau_plus is not None and rep.tau_minus is not None
                  and 0.0 < rep.tau_plus < rep.tau_minus
                  and rep.e_at_tau_plus < 0.0 <= rep.e_at_tau_minus
                  and rep.psi_second_at_tau_minus < 0.0
                  and abs(fnl.phi_value(params, nm, rep.tau_plus)) < 1e-6 * nm.grad2
                  and abs(fnl.phi_value(params, nm, rep.tau_minus)) < 1e-6 * nm.grad2)
            if not ok:
                failures.append(f"{tag} trial {k}: structure")
                continue
            rep2 = fnl.fiber_critical_points(params, fine, tr.profile(fine, params.a),
                                             thresholds=thr)
            if (abs(rep2.tau_plus - rep.tau_plus) > 1e-3 * rep.tau_plus
                    or abs(rep2.tau_minus - rep.tau_minus) > 1e-3 * rep.tau_minus):
                failures.append(f"{tag} trial {k}: drift under doubling")
    report(4, "fiber structure", failures)


def test_criterion_5_local_minimizer(params_half, params_at, thr_half, thr_at,
                                     soliton_grid, minimizer_half, minimizer_at):
    failures = []
    for tag, params, thr, rep in (("a0/2", params_half, thr_half, minimizer_half),
                                  ("a0", params_at, thr_at, minimizer_at)):
        if not rep.converged:
            failures.append(f"{tag}: not converged")
            continue
        if not rep.energy < 0.0:
            failures.append(f"{tag}: E >= 0")
        if not abs(rep.pohozaev) < 1e-6:
            failures.append(f"{tag}: |P| = {abs(rep.pohozaev):.1e}")
        if not rep.lam < 0.0:
            failures.append(f"{tag}: lambda >= 0")
        if not nc.grad_l2_sq(soliton_grid, rep.final) < thr.rho0:
            failures.append(f"{tag}: outside kinetic ball")
        best = mn.boundary_scan(params, soliton_grid, 64, seed=31, thresholds=thr)
        if not best >= -1e-6:
            failures.append(f"{tag}: boundary minimum {best:.2e}")
    sub = mn.subadditivity_check(params_half, soliton_grid, params_half.a / 2.0)
    if not sub.gap >= -1e-6:
        failures.append(f"subadditivity gap {sub.gap:.2e}")
    report(5, "local minimizer", failures)


def test_criterion_6_mountain_pass_bounds(mp_estimate_half, mp_estimate_at,
                                          params_at, soliton_grid, thr_at):
    failures = []
    for tag, est in (("a0/2", mp_estimate_half), ("a0", mp_estimate_at)):
        if not (0.0 < est.level < est.upper_bound):
            failures.append(f"{tag}: level {est.level:.4f} vs bound {est.upper_bound:.4f}")
    probe = mp.omega2_positivity_probe(params_at, soliton_grid, 128, seed=17,
                                       thresholds=thr_at)
    if not probe.min_level > 0.0:
        failures.append(f"positivity probe min {probe.min_level:.2e}")
    report(6, "mountain-pass bounds", failures)


def test_criterion_7_vanishing_infimum():
    failures = []
    p0 = nc.ProblemParams(4, 3.0, 1.0, 1.0)
    C = nc.gn_constant(p0)
    ab = nc.abar(p0, C)
    ex = p0.ex
    expo = 2.0 / (p0.q * (1.0 - ex.gamma_q))
    g = nc.make_grid(4, 200.0, 8192)
    S4 = nc.sobolev_constant(4)
    cap = 0.05 * S4 ** 2.0 / 4.0

    rep1 = mp.cpo_sequence_case1(p0.with_mass((ab / p0.mu) ** expo), g,
                                 [5.0, 10.0, 20.0, 40.0])
    es = rep1.projected_energies
    if not (all(e > 0.0 for e in es) and all(a > b for a, b in zip(es, es[1:]))):
        failures.append(f"case 1 energies not strictly decreasing positive: {es}")
    if not es[-1] < cap:
        failures.append(f"case 1 final {es[-1]:.2e} >= {cap:.2e}")

    A_values = [0.1, 0.01, 0.001]
    rep2 = mp.cpo_sequence_case2(p0.with_mass((2.0 * ab / p0.mu) ** expo), g, A_values)
    es2 = rep2.projected_energies
    if not (all(e > 0.0 for e in es2) and all(a > b for a, b in zip(es2, es2[1:]))):
        failures.append(f"case 2 energies not strictly decreasing positive: {es2}")
    if not es2[-1] < cap:
        failures.append(f"case 2 final {es2[-1]:.2e} >= {cap:.2e}")
    for A_n, excess in zip(A_values, rep2.details["kinetic_excess"]):
        if abs(excess - A_n) > 1e-4 * A_n:
            failures.append(f"case 2 identity at A={A_n}: {excess:.6e}")
    report(7, "vanishing infimum evidence", failures)


def test_criterion_8_dynamics(params_half, dyn_grid, dyn_minimizer,
                              standing_summary, stability_half, blowup_half):
    failures = []
    s = standing_summary
    if not np.max(np.abs(s.mass - s.mass[0])) / 10.0 < 1e-8:
        failures.append("mass drift")
    if not np.max(np.abs(s.energy - s.energy[0])) / 10.0 < 1e-6:
        failures.append("energy drift")
    peak0 = abs(s.probe_values[0])
    if not np.max(np.abs(np.abs(s.probe_values) - peak0)) < 1e-4 * peak0:
        failures.append("standing-wave modulus drift")
    # second-order signature on an active perturbed state
    vals = (1.0 + 0.3 * np.exp(-dyn_grid.nodes**2)) * dyn_minimizer.final.values
    vals *= math.sqrt(params_half.a / float(np.dot(dyn_grid.full_weights, vals**2)))
    pert = nc.Profile(dyn_grid, vals.astype(complex))
    d = {}
    for dt in (2e-3, 1e-3):
        ss = dyn.evolve(params_half, dyn_grid, pert, dt=dt, t_end=1.0, stride=10)
        d[dt] = np.max(np.abs(ss.energy - ss.energy[0]))
        if not d[dt] < 1e-6:
            failures.append(f"perturbed energy drift at dt={dt}")
    ratio = d[2e-3] / d[1e-3]
    if not 2.5 < ratio < 6.5:
        failures.append(f"dt-halving ratio {ratio:.2f}")
    if not (stability_half.growth_factor < 10.0
            and not stability_half.summary.blowup_flag):
        failures.append("stability probe unbounded")
    if not (blowup_half.blowup_flag and blowup_half.blowup_time is not None
            and blowup_half.blowup_time < 10.0):
        failures.append("blow-up indicator not raised before t=10")
    report(8, "dynamics probes", failures)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    failures = []
    fast = ["--grid-n", "2048", "--r-max", "30"]
    prof = str(tmp_path / "g.json")
    cli.main(["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5",
              "--mu", "1", "--a", "0.5a0", "--origin-blend", "0.5",
              "--out", prof] + fast)
    capsys.readouterr()
    commands = {
        "constants": ["constants", "--dim", "3", "--q", "2.5", "--mu", "1",
                      "--a", "auto-a0"],
        "profile": ["profile", "--kind", "weinstein", "--dim", "3", "--q", "2.5",
                    "--mu", "1", "--a", "1.0"] + fast,
        "fiber": ["fiber", "--profile", prof, "--dim", "3", "--q", "2.5",
                  "--mu", "1", "--a", "0.5a0"],
        "minimize": ["minimize", "--dim", "3", "--q", "2.5", "--mu", "1",
                     "--a", "0.5a0"] + fast,
        "subadd": ["subadd", "--dim", "3", "--q", "2.5", "--mu", "1",
                   "--a", "0.5a0"] + fast,
        "mountain-pass": ["mountain-pass", "--dim", "3", "--q", "2.5", "--mu", "1",
                          "--a", "0.5a0"] + fast,
        "cpo": ["cpo", "--case", "2", "--dim", "4", "--q", "3", "--mu", "1",
                "--mass-multiple", "2", "--steps", "2",
                "--grid-n", "2048", "--r-max", "60"],
        "evolve": ["evolve", "--init", prof, "--dim", "3", "--q", "2.5",
                   "--mu", "1", "--a", "0.5a0", "--dt", "2e-3",
                   "--t-end", "0.02", "--csv"],
        "sweep": ["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "0.9:1.1:2",
                  "--a-rel-range", "0.6:1.4:4"],
    }
    for name, args in commands.items():
        outs = []
        for _ in range(2):
            code = cli.main(args)
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"{name}: exit {code}")
                break
        if len(outs) == 2 and outs[0] != outs[1]:
            failures.append(f"{name}: outputs differ")
    # cross-process reproducibility for one representative command
    args = [sys.executable, "-m", "nlscrit.cli", "constants", "--dim", "3",
            "--q", "2.5", "--mu", "1", "--a", "auto-a0"]
    r1 = subprocess.run(args, capture_output=True, text=True)
    r2 = subprocess.run(args, capture_output=True, text=True)
    if r1.returncode != 0 or r1.stdout != r2.stdout:
        failures.append("cross-process constants differ")
    report(9, "CLI determinism", failures)
