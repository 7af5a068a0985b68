import ast
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from nlscrit import cli
from nlscrit import constants as cst
from nlscrit import functionals as fnl
from nlscrit import grid as gridmod


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


FAST = ["--grid-n", "2048", "--r-max", "30"]


def test_constants_auto_a0_is_borderline(capsys):
    code, out = run_cli(["constants", "--dim", "3", "--q", "2.5", "--mu", "1",
                         "--a", "auto-a0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["regime"] == "Omega2"
    assert doc["abar_N"] is None
    assert doc["exponents"]["q_class"] == "subcritical"


def test_constants_critical_q_nulls(capsys):
    code, out = run_cli(["constants", "--dim", "4", "--q", "3", "--mu", "1",
                         "--a", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] is None and doc["a0"] is None and doc["rho0"] is None
    assert doc["abar_N"] > 0
    assert doc["regime"] in ("BelowAbar", "AtOrAboveAbar")


def test_profile_fiber_pipeline(tmp_path, capsys):
    prof = tmp_path / "gauss.json"
    code, out = run_cli(["profile", "--kind", "gaussian", "--sigma", "1.0",
                         "--dim", "3", "--q", "2.5", "--mu", "1",
                         "--a", "0.5a0", "--out", str(prof)] + FAST, capsys)
    assert code == 0
    code, out = run_cli(["fiber", "--profile", str(prof), "--dim", "3",
                         "--q", "2.5", "--mu", "1", "--a", "0.5a0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_plus"] is not None and doc["tau_minus"] is not None
    assert 0.0 < doc["tau_plus"] < doc["tau_minus"]
    assert doc["e_at_tau_plus"] < 0.0 <= doc["e_at_tau_minus"]
    assert len(doc["samples"]) == 512


def test_fiber_domain_error_is_json_exit_1(tmp_path, capsys):
    prof = tmp_path / "gauss.json"
    run_cli(["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5",
             "--mu", "1", "--a", "1.0", "--out", str(prof)] + FAST, capsys)
    code, out = run_cli(["fiber", "--profile", str(prof), "--dim", "3",
                         "--q", "2.5", "--mu", "1", "--a", "3a0"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert "error_kind" in doc and "message" in doc and "context" in doc


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_auto_q_round_trips_as_critical(dim, capsys):
    # the q that `--q auto` prints, fed back as text, is the same critical q
    code, out = run_cli(["constants", "--dim", str(dim), "--q", "auto", "--a", "1"], capsys)
    assert code == 0
    q = json.loads(out)["params"]["q"]
    code, out = run_cli(["constants", "--dim", str(dim), "--q", repr(q),
                         "--mass-multiple", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["q"] == q and doc["exponents"]["q_class"] == "critical"


@pytest.mark.parametrize("cmd", [
    ["fiber", "--profile"],
    ["evolve", "--dt", "1e-3", "--t-end", "0.002", "--init"],
])
def test_profile_of_another_dim_is_refused(cmd, tmp_path, capsys):
    prof = tmp_path / "g.json"
    code, _ = run_cli(["profile", "--kind", "gaussian", "--dim", "3", "--a", "1.0",
                       "--out", str(prof)] + FAST, capsys)
    assert code == 0
    code = cli.main(cmd + [str(prof), "--dim", "4", "--q", "2.5", "--a", "1.0"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["error_kind"] == "usage"
    assert "dimension 3" in doc["message"] and "--dim is 4" in doc["message"]


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cpo", "--dim", "4", "--q", "3"])
    assert exc.value.code == 2


def test_minimize_command(capsys):
    code, out = run_cli(["minimize", "--dim", "3", "--q", "2.5", "--mu", "1",
                         "--a", "0.5a0"] + FAST, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["energy"] < 0.0 and doc["lambda"] < 0.0
    assert len(doc["trace"]) <= 256


def test_minimize_descent_shift_follows_lambda(capsys):
    # -lambda is far above 1 here: a shift capped at 1 ran the descent to
    # its 20000-iteration cap
    code, out = run_cli(["minimize", "--dim", "3", "--q", "2.5", "--mu", "1e4",
                         "--a", "0.5a0", "--grid-n", "512"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True and doc["lambda"] < -1.0
    assert doc["iterations"] < 100


def test_minimize_on_the_dilation_orbit_of_the_readme_point(capsys):
    # (mu, a/a0) = (1e4, 0.5) lies on the README point's dilation orbit, with
    # decay length 0.0124: on r_max 0.5 it gives the README m_a.  A width-1
    # gaussian seed could not be dilated into the kinetic ball here
    docs = []
    for mu, r_max in (("1", "50"), ("1e4", "0.5")):
        code, out = run_cli(["minimize", "--dim", "3", "--q", "2.5", "--mu", mu,
                             "--a", "0.5a0", "--r-max", r_max], capsys)
        assert code == 0
        docs.append(json.loads(out))
    readme, orbit = docs
    assert orbit["converged"] is True
    assert orbit["energy"] == pytest.approx(readme["energy"], rel=1e-6)
    for doc in docs:
        diag = doc["diagnostics"]
        assert diag["solves"] == 1
        assert diag["decay_lengths"] == diag["r_max"] * math.sqrt(-doc["lambda"])
        # the fine grid only polishes the minimizer of the 1024-node grid
        g = gridmod.make_grid(3, diag["r_max"], 8192)
        assert diag["n"] == 8192
        assert diag["dr_min"] == pytest.approx(float(np.min(np.diff(g.nodes))), rel=1e-12)
        assert diag["coarse"]["n"] == 1024 and diag["coarse"]["converged"] is True
        assert diag["coarse"]["iterations"] > doc["iterations"] == 1


def test_cpo_case2_command(capsys):
    # --q omitted on purpose: cpo defaults to the mass-critical exponent
    code, out = run_cli(["cpo", "--case", "2", "--dim", "4",
                         "--mu", "1", "--mass-multiple", "2", "--steps", "3",
                         "--grid-n", "4096", "--r-max", "100"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["monotone_decreasing"] is True
    rat = doc["ratios"]
    assert len(rat) == 3 and rat[0] > rat[1] > rat[2] > 0.0


def test_cpo_case1_command_defaults(capsys):
    code, out = run_cli(["cpo", "--case", "1", "--dim", "4", "--mu", "1",
                         "--n-values", "3,6", "--grid-n", "2048",
                         "--r-max", "60"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["monotone_decreasing"] is True
    assert doc["mass_used"] > 0.0


@pytest.mark.parametrize("flag", [["--a", "7"], ["--mass-multiple", "5"]])
def test_cpo_case1_rejects_mass_flags(flag, capsys):
    # case 1 builds its borderline mass from mu, so a mass flag would do nothing
    code = cli.main(["cpo", "--case", "1", "--dim", "4", "--q", "3", "--mu", "1",
                     "--n-values", "3", "--grid-n", "256", "--r-max", "60"] + flag)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["error_kind"] == "usage" and "--case 1" in doc["message"]


@pytest.mark.parametrize("args, message", [
    (["--dim", "5", "--mu", "1e8", "--grid-n", "32", "--r-max", "1e4"],
     "ground-state iteration failed"),
    (["--dim", "3", "--grid-n", "64", "--r-max", "30", "--n-values", "0"],
     "cutoff radii must be positive and finite"),
    (["--dim", "4", "--q", "3", "--grid-n", "256", "--r-max", "60", "--n-values", "nan"],
     "cutoff radii must be positive and finite"),
    (["--dim", "6", "--mu", "1e-8", "--grid-n", "64", "--r-max", "1e-3",
      "--n-values", "1e-300"], "leaves nothing of the profile"),
])
@pytest.mark.filterwarnings("error")
def test_cpo_case1_domain_errors(args, message, capsys):
    code = cli.main(["cpo", "--case", "1"] + args)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert message in json.loads(out)["message"]


def test_evolve_accepts_csv_init(tmp_path, capsys):
    import numpy as np
    rr = np.linspace(0.01, 29.9, 500)
    path = tmp_path / "init.csv"
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(rr, 0.3 * np.exp(-rr**2 / 2.0)):
            fh.write(f"{r},{v}\n")
    code, out = run_cli(["evolve", "--init", str(path), "--dim", "3",
                         "--q", "2.5", "--mu", "1", "--a", "1.0",
                         "--dt", "2e-3", "--t-end", "0.02",
                         "--grid-n", "1024", "--r-max", "30",
                         "--origin-blend", "0.5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert not doc["blowup_flag"]


def test_evolve_stability_probe_command(tmp_path, capsys):
    prof = tmp_path / "g.json"
    run_cli(["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5",
             "--mu", "1", "--a", "1.0", "--origin-blend", "0.5",
             "--grid-n", "1024", "--r-max", "30", "--out", str(prof)], capsys)
    code, out = run_cli(["evolve", "--init", str(prof), "--dim", "3",
                         "--q", "2.5", "--mu", "1", "--a", "1.0",
                         "--dt", "2e-3", "--t-end", "0.02",
                         "--probe", "stability", "--eps", "1e-2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["probe"] == "stability"
    assert doc["initial_distance"] > 0.0


def test_evolve_command_json_and_csv(tmp_path, capsys):
    prof = tmp_path / "init.json"
    run_cli(["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5",
             "--mu", "1", "--a", "1.0", "--origin-blend", "0.5",
             "--out", str(prof)] + FAST, capsys)
    args = ["evolve", "--init", str(prof), "--dim", "3", "--q", "2.5",
            "--mu", "1", "--a", "1.0", "--dt", "2e-3", "--t-end", "0.05"]
    code, out = run_cli(args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["probe"] == "none" and not doc["blowup_flag"]
    assert len(doc["times"]) == len(doc["mass"]) == len(doc["energy"])
    g = gridmod.load_profile(str(prof)).grid
    dr_min = float(np.min(np.diff(g.nodes)))
    assert doc["diagnostics"] == {"steps": 25, "refused_steps": {
        "resolution_cap": 0, "growth": 0, "nonfinite": 0, "singular": 0},
        "grid": {"n": 2048, "r_max": 30.0, "origin_blend": 0.5, "dr_min": dr_min},
        "dt_over_dr_min_sq": 2e-3 / dr_min ** 2}
    assert list(doc["diagnostics"]) == ["steps", "refused_steps", "grid",
                                        "dt_over_dr_min_sq"]
    code, out_csv = run_cli(args + ["--csv"], capsys)
    assert code == 0
    lines = out_csv.strip().splitlines()
    assert lines[0] == "t,mass,energy,grad_norm,h1_distance"
    assert len(lines) > 2


def test_evolve_attempt_budget_error_document(tmp_path, capsys):
    prof = tmp_path / "narrow.json"
    run_cli(["profile", "--kind", "gaussian", "--sigma", "0.2", "--dim", "3",
             "--q", "2.5", "--mu", "1", "--a", "0.5a0", "--grid-n", "128",
             "--r-max", "30", "--origin-blend", "0.02", "--out", str(prof)], capsys)
    code, out = run_cli(["evolve", "--init", str(prof), "--dim", "3", "--q", "2.5",
                         "--dt", "1e-3", "--t-end", "0.01"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "RuntimeError"
    assert re.fullmatch(r"time stepping exceeded the attempt budget of 10500 attempts "
                        r"at t = \S+ of t_end = 0\.01: \d+ steps taken, dt now \S+, "
                        r"refused attempts: resolution_cap [1-9]\d*, growth \d+, "
                        r"nonfinite \d+, singular \d+; the step size may be collapsing",
                        doc["message"]), doc["message"]


def test_plain_evolve_resolves_no_mass(tmp_path, capsys):
    # a plain run starts from the file's own mass, so the default --a auto-a0
    # must not cost a ground-state solve for C_Nq
    prof = tmp_path / "init.json"
    run_cli(["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5",
             "--mu", "1", "--a", "1.0", "--origin-blend", "0.5",
             "--out", str(prof)] + FAST, capsys)
    cli.cst._gn_constant_cached.cache_clear()
    code, out = run_cli(["evolve", "--init", str(prof), "--dim", "3", "--q", "2.5",
                         "--dt", "2e-3", "--t-end", "0.01"], capsys)
    assert code == 0 and json.loads(out)["probe"] == "none"
    assert cli.cst._gn_constant_cached.cache_info().misses == 0


def test_sweep_regime_flips_once_per_row(capsys):
    code, out = run_cli(["sweep", "--dim", "3", "--q", "2.5",
                         "--mu-range", "0.8:1.2:3",
                         "--a-rel-range", "0.55:1.45:6"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,a,regime,m_a,level,error"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 18
    for mu in sorted({r[0] for r in rows}):
        regs = [r[2] for r in rows if r[0] == mu]
        flips = sum(1 for x, y in zip(regs, regs[1:]) if x != y)
        assert flips == 1
        assert regs[0] == "Omega1" and regs[-1] == "Omega3"


def test_sweep_dilates_outgrown_minimizer(capsys):
    # at r_max = 50 this minimizer is truncated by the domain (m_a = +0.033);
    # the sweep solves again on a wider grid and finds the negative minimum
    code, out = run_cli(["sweep", "--dim", "3", "--q", "3.2",
                         "--mu-range", "0.546875:0.546875:1",
                         "--a-rel-range", "0.47265625:0.47265625:1", "--with-ma"],
                        capsys)
    assert code == 0
    mu, a, regime, m_a, level, error = out.strip().splitlines()[1].split(",")
    assert (mu, regime, error) == ("0.546875", "Omega1", "")
    assert float(m_a) < 0.0


def test_sweep_solves_each_column_once(capsys, monkeypatch):
    # an a/a0 column is one dilation orbit: one solve, the same cells in every row
    calls = []
    solve = cli.minmod.minimize_in_domain

    def counted(params, *args):
        calls.append(params.a)
        return solve(params, *args)

    monkeypatch.setattr(cli.minmod, "minimize_in_domain", counted)
    code, out = run_cli(["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "0.8:1.6:3",
                         "--a-rel-range", "0.5:1.25:4", "--with-ma", "--with-level"]
                        + FAST, capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert len(calls) == 3
    for j, regime in enumerate(("Omega1", "Omega1", "Omega2", "Omega3")):
        column = rows[j::4]
        assert len({r[0] for r in column}) == 3 and {r[2] for r in column} == {regime}
        cells = {tuple(r[3:]) for r in column}
        assert len(cells) == 1
        m_a, level, error = cells.pop()
        if regime == "Omega3":
            assert (m_a, level, error) == ("", "", "")
        else:
            assert float(m_a) < 0.0 < float(level) and error == ""


def test_sweep_solves_ground_state_once(capsys, monkeypatch):
    # C_Nq is cached per (N, q): every mu of the sweep, and every wider grid
    # of its solves, reuses the one ground state
    calls = []
    solve = cli.profiles.weinstein_ground_state

    def counted(q, grid):
        calls.append((grid.dim, q))
        return solve(q, grid)

    monkeypatch.setattr(cli.profiles, "weinstein_ground_state", counted)
    cli.cst._gn_constant_cached.cache_clear()
    code, _ = run_cli(["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "0.5:2:3",
                       "--a-rel-range", "0.5:1.5:3", "--with-ma", "--grid-n", "2048"],
                      capsys)
    assert code == 0
    assert calls == [(3, 2.5)]


def test_mountain_pass_takes_the_norms_of_each_profile_once(capsys, monkeypatch):
    # the best trial's fiber report gives both the level and the projection,
    # and the projection's quality check gives the witness energy: one
    # fiber_norms call on the trial (inside fiber_critical_points) and one on
    # the witness
    seen = []
    norms = fnl.fiber_norms

    def counted(params, grid, u):
        seen.append(u)
        return norms(params, grid, u)

    monkeypatch.setattr(fnl, "fiber_norms", counted)
    code, _ = run_cli(["mountain-pass", "--dim", "3", "--q", "2.5", "--mu", "1",
                       "--a", "0.5a0", "--grid-n", "2048"], capsys)
    assert code == 0
    assert len(seen) == 2 and seen[0] is not seen[1]
    assert seen[1].grid.r_max < seen[0].grid.r_max   # the witness, at tau_minus > 1


@pytest.mark.parametrize("args", [
    ["--kind", "weinstein", "--dim", "4", "--q", "3"],
    ["--kind", "bubble", "--dim", "3", "--q", "auto"],
])
def test_profile_without_a_mass_runs_at_critical_q(args, capsys):
    # only the gaussian has a mass; a0 is undefined at q = 2 + 4/N
    code, out = run_cli(["profile", "--grid-n", "512"] + args, capsys)
    assert code == 0
    assert json.loads(out)["kind"] == args[1]


def test_readme_profile_solves_ground_state_once(tmp_path, capsys, monkeypatch):
    # the Weinstein profile needs no mass: no C_Nq, so one solve, not two
    calls = []
    solve = cli.profiles.weinstein_ground_state

    def counted(q, grid):
        calls.append((grid.dim, q))
        return solve(q, grid)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.profiles, "weinstein_ground_state", counted)
    cli.cst._gn_constant_cached.cache_clear()
    code, _ = run_cli(["profile", "--kind", "weinstein", "--dim", "3", "--q", "2.5",
                       "--out", "Q.json"], capsys)
    assert code == 0
    assert calls == [(3, 2.5)]


def test_sweep_unconverged_solve_is_row_error(capsys, monkeypatch):
    def unconverged(params, g, tol, thr):
        return cli.minmod.SolveReport(
            final=None, energy=-1.0, pohozaev=0.0, lam=-1.0, grad_residual=0.25,
            iterations=1, trace=[], boundary_hit=False, converged=False)

    monkeypatch.setattr(cli.minmod, "minimize_in_domain", unconverged)
    code, out = run_cli(["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "1:1:1",
                         "--a-rel-range", "0.5:0.5:1", "--with-ma"] + FAST, capsys)
    assert code == 0
    mu, a, regime, m_a, level, error = out.strip().splitlines()[1].split(",")
    assert (regime, m_a, level) == ("Omega1", "", "")
    assert error == "RuntimeError: local minimization did not converge (residual 2.50e-01)"


def test_memory_error_is_one_error_document(capsys, monkeypatch):
    # a grid or lattice too large to allocate ends as an error document, not
    # a traceback; the allocation itself is faked
    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(gridmod, "make_grid", too_large)
    code, out = run_cli(["minimize", "--dim", "3", "--q", "2.5", "--mu", "1",
                         "--a", "0.5a0"] + FAST, capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "MemoryError"
    assert doc["message"] == "Unable to allocate 745. GiB"
    assert doc["context"] == {"command": "minimize"}


def test_sweep_empty_lattice_is_usage_error(capsys):
    code, out = run_cli(["sweep", "--dim", "3", "--q", "2.5",
                         "--mu-range", "1:1:1", "--a-rel-range", "0.5:1.5:0"],
                        capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["error_kind"] == "usage" and "--a-rel-range" in doc["message"]


@pytest.mark.parametrize("args, accepted", [
    (["--dim", "3", "--q", "2.5", "--mu", "1", "--a", "0.5a0"], True),
    # the seed (width 23.1) does not fit r_max 50, so the minimizer is solved
    # on r_max ~ 247 with the same 256 nodes: the level is not accepted, but
    # the witness, exact on its own grid, still carries it
    (["--grid-n", "256", "--dim", "5", "--q", "2.4", "--a", "0.2"], False),
])
def test_mountain_pass_diagnostics(args, accepted, capsys):
    code, out = run_cli(["mountain-pass"] + args, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is accepted
    diag = doc["diagnostics"]
    assert diag["family_size"] == 256
    assert diag["admitted"] == len(doc["family_trace"]) == 256 and diag["refused"] == 0
    assert diag["witness_level_gap"] == abs(doc["witness_energy"] - doc["level"]) / abs(doc["level"])
    assert diag["witness_level_gap"] < 1e-12


def test_every_command_reports_one_m_a(tmp_path, capsys):
    # at r_max = 30 this minimizer is truncated by the domain (E = +0.035,
    # lambda > 0): minimize, subadd, mountain-pass and sweep all solve it on
    # one wider grid and report one negative m_a at the requested (mu, a)
    point = ["--dim", "3", "--q", "3.2", "--mu", "1", "--a", "0.25a0"] + FAST
    witness = tmp_path / "w.json"
    docs = {}
    for cmd, extra in (("minimize", []), ("subadd", []),
                       ("mountain-pass", ["--witness-out", str(witness)])):
        code, out = run_cli([cmd] + point + extra, capsys)
        assert code == 0
        docs[cmd] = json.loads(out)
    code, out = run_cli(["sweep", "--dim", "3", "--q", "3.2", "--mu-range", "1:1:1",
                         "--a-rel-range", "0.25:0.25:1", "--with-ma"] + FAST, capsys)
    assert code == 0
    mu, a, regime, m_a, level, error = out.strip().splitlines()[1].split(",")
    assert (regime, error) == ("Omega1", "")
    energy = docs["minimize"]["energy"]
    assert energy < 0.0 and docs["minimize"]["lambda"] < 0.0
    assert docs["subadd"]["m_a"] == docs["mountain-pass"]["m_a"] == float(m_a) == energy
    diag = docs["minimize"]["diagnostics"]
    assert diag["r_max"] > 30.0 and diag["solves"] >= 1
    assert diag["decay_lengths"] >= 10.0
    assert diag["n"] == 2048 and diag["coarse"] is None
    for key in ("r_max", "n", "dr_min", "solves", "decay_lengths", "coarse"):
        assert docs["mountain-pass"]["diagnostics"][key] == diag[key]
    # the witness file holds u_{tau_minus} on its own grid, at the level
    w = gridmod.load_profile(str(witness))
    params = cst.ProblemParams(3, 3.2, 1.0, gridmod.mass(w.grid, w))
    assert fnl.energy(params, w.grid, w) == pytest.approx(docs["mountain-pass"]["level"],
                                                          rel=1e-12)


def test_witness_out_round_trip(tmp_path, capsys):
    # the witness file is u_{tau_minus} itself: `fiber` finds it at its own
    # fiber maximum, at the level
    point = ["--dim", "3", "--q", "2.5", "--mu", "1", "--a", "0.5a0"]
    witness = tmp_path / "w.json"
    code, out = run_cli(["mountain-pass", "--grid-n", "2048", "--witness-out", str(witness)]
                        + point, capsys)
    assert code == 0
    level = json.loads(out)["level"]
    code, out = run_cli(["fiber", "--profile", str(witness)] + point, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["tau_minus"] == pytest.approx(1.0, rel=0.0, abs=1e-9)
    assert doc["e_at_tau_minus"] == pytest.approx(level, rel=1e-12)


def test_mountain_pass_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out = run_cli(["mountain-pass", "--dim", "3", "--q", "2.5", "--mu", "1",
                         "--a", "0.5a0", "--grid-n", "2048", "--trace-csv", str(trace)],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["trace_path"] == str(trace)
    header, *rows = trace.read_text().splitlines()
    assert header == "bubble_width,amplitude,projected_energy"
    rows = [[float(x) for x in row.split(",")] for row in rows]
    assert len(rows) == doc["diagnostics"]["admitted"] == 256
    # 256 members: the document's trace is not downsampled
    assert [[[b, s], lev] for b, s, lev in rows] == doc["family_trace"]
    assert min(lev for _, _, lev in rows) == pytest.approx(doc["level"], rel=1e-12)


def test_mountain_pass_witness_blows_up(tmp_path, capsys):
    # --amp 1.05 dilates the witness, at its fiber maximum, onto the
    # descending branch: the kinetic norm runs away within a few steps
    point = ["--dim", "3", "--q", "2.5", "--mu", "1", "--a", "0.5a0"]
    witness = tmp_path / "w.json"
    code, _ = run_cli(["mountain-pass", "--grid-n", "2048", "--origin-blend", "0.05",
                       "--witness-out", str(witness)] + point, capsys)
    assert code == 0
    code, out = run_cli(["evolve", "--init", str(witness)] + point
                        + ["--probe", "blowup", "--amp", "1.05", "--dt", "1e-3",
                           "--t-end", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["probe"] == "blowup" and doc["blowup_flag"] is True
    assert doc["blowup_time"] < 1.0
    assert doc["diagnostics"]["refused_steps"]["growth"] >= 1
    # the diagnostics describe the grid the probe ran on: the witness's grid
    # dilated by 1 / 1.05
    ran = gridmod.load_profile(str(witness)).grid.dilated(1.0 / 1.05)
    dr_min = float(np.min(np.diff(ran.nodes)))
    assert doc["diagnostics"]["grid"] == {"n": 2048, "r_max": ran.r_max,
                                          "origin_blend": 0.05, "dr_min": dr_min}
    assert doc["diagnostics"]["dt_over_dr_min_sq"] == 1e-3 / dr_min ** 2


@pytest.mark.parametrize("args", [
    ["constants", "--dim", "3", "--q", "2.5", "--mu", "1", "--a", "auto-a0"],
    ["minimize", "--dim", "3", "--q", "2.5", "--mu", "1", "--a", "0.5a0"] + FAST,
    ["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "0.9:1.1:2",
     "--a-rel-range", "0.6:1.4:4"],
])
def test_repeat_runs_byte_identical(args, capsys):
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


def test_schema_version_everywhere(tmp_path, capsys):
    prof = tmp_path / "g.json"
    cmds = [
        ["constants", "--dim", "3", "--q", "2.5", "--mu", "1", "--a", "1.0"],
        ["profile", "--kind", "gaussian", "--dim", "3", "--q", "2.5", "--mu", "1",
         "--a", "1.0", "--out", str(prof)] + FAST,
    ]
    for args in cmds:
        code, out = run_cli(args, capsys)
        assert code == 0
        if out:
            assert json.loads(out)["schema_version"] == 1
    assert json.loads(prof.read_text())["schema_version"] == 1


@pytest.mark.parametrize("args", [
    ["constants", "--mu", "1", "--a", "inf"],
    ["constants", "--mu", "nan", "--a", "1.0"],
    ["constants", "--dim", "3", "--q", "auto", "--mass-multiple", "-2"],
    ["cpo", "--case", "1", "--dim", "4", "--steps", "0"],
    ["fiber", "--profile", "missing.json", "--a", "1.0"],
    ["evolve", "--init", "empty.csv", "--a", "1.0", "--grid-n", "256"],
    ["fiber", "--profile", "bad.json", "--a", "1.0"],
    ["evolve", "--init", "onecol.csv", "--a", "1.0", "--grid-n", "256"],
    ["constants", "--a", "1.0", "--out", "no-such-dir/x.json"],
    ["constants", "--dim", "0", "--q", "auto"],
    ["fiber", "--profile", "scalar-values.json", "--a", "1.0"],
    ["fiber", "--profile", "null-rmax.json", "--a", "1.0"],
    ["evolve", "--init", "dup.csv", "--a", "1.0", "--grid-n", "256"],
    ["evolve", "--init", "nan-radius.csv", "--a", "1.0", "--grid-n", "256"],
    ["fiber", "--profile", "frac.json", "--a", "1.0"],
    ["evolve", "--init", "neg.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--dt", "1e-3", "--t-end", "0.002"],
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--dt", "1", "--t-end", "inf"],
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--dt", "nan"],
    ["minimize", "--a", "1.0", "--r-max", "inf"],
    ["minimize", "--a", "1.0", "--r-max", "nan"],
    ["minimize", "--a", "1.0", "--grading", "nan"],
    ["minimize", "--q", "3.5", "--a", "1"],
    ["constants", "--q", "1e400"],
    ["constants", "--q", "2.5", "--mu", "1e-300"],
    ["constants", "--q", "auto", "--mass-multiple", "1e300"],
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "1e-300"],
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--probe", "blowup", "--amp", "inf"],
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--probe", "stability", "--eps", "1e300", "--dt", "1e-3", "--t-end", "0.002"],
    ["minimize", "--tol", "inf"],
    ["subadd", "--tol", "nan"],
    ["sweep", "--mu-range", "1:1:1", "--a-rel-range", "0.5:0.5:1", "--tol", "0"],
    ["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "1:2:0", "--a-rel-range", "0.5:1:2"],
    ["sweep", "--dim", "3", "--q", "2.5", "--mu-range", "1:2:-3", "--a-rel-range", "0.5:1:2"],
    # grids that cannot hold the ground state: its iterate overflows or vanishes
    ["profile", "--dim", "3", "--q", "2.01", "--a", "1.0", "--grid-n", "32", "--r-max", "1e-3",
     "--kind", "weinstein"],
    ["profile", "--dim", "5", "--q", "3.2", "--a", "1.0", "--grid-n", "16", "--r-max", "1e4",
     "--grading", "1", "--kind", "weinstein"],
    ["sweep", "--mu-range", "1:inf:1", "--a-rel-range", "0.9:1.1:2"],
    # t_end / dt overflows
    ["evolve", "--init", "ok.csv", "--a", "1.0", "--grid-n", "256", "--r-max", "10",
     "--dt", "1e-300", "--t-end", "1e10"],
])
@pytest.mark.filterwarnings("error")
def test_bad_input_is_one_error_document(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.csv").write_text("r,value\n")
    (tmp_path / "bad.json").write_text('{"dim": 3}\n')
    (tmp_path / "onecol.csv").write_text("r\n0.5\n1.0\n")
    (tmp_path / "scalar-values.json").write_text(
        '{"dim": 3, "r_max": 50, "n": 1024, "values": 3}\n')
    (tmp_path / "null-rmax.json").write_text(
        '{"dim": 3, "r_max": null, "n": 1024, "values": [1.0]}\n')
    (tmp_path / "dup.csv").write_text("r,value\n0.5,1.0\n0.5,0.9\n")
    (tmp_path / "nan-radius.csv").write_text("r,value\nnan,1.0\n1.0,0.5\n")
    (tmp_path / "neg.csv").write_text("r,value\n-1.0,5.0\n0.5,1.0\n1.0,0.5\n2.0,0.1\n")
    (tmp_path / "ok.csv").write_text("r,value\n0.5,1.0\n1.0,0.5\n2.0,0.1\n")
    (tmp_path / "frac.json").write_text(json.dumps(
        {"dim": 3.5, "r_max": 30, "n": 16.9, "values": [0.1] * 16}) + "\n")
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["error_kind"] and doc["context"] == {"command": args[0]}


@pytest.mark.parametrize("field, value", [("r_max", math.inf), ("grading", math.nan)])
@pytest.mark.filterwarnings("error")
def test_profile_document_with_a_non_finite_grid_field_is_refused(field, value, tmp_path,
                                                                   capsys):
    # json.load reads Infinity and NaN; make_grid refuses them by name
    doc = {"dim": 3, "r_max": 30.0, "n": 16, "grading": 0.0, "values": [0.1] * 16}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**doc, field: value}) + "\n")
    code = cli.main(["fiber", "--profile", str(path), "--a", "1.0"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["message"].startswith(f"{field} must be")


@pytest.mark.parametrize("args, dim", [
    # make_grid's unnamed "non-monotone ... rule" RuntimeError before
    (["constants", "--dim", "34", "--q", "2.05"], 34),
    # "OverflowError: int too large to convert to float" before
    (["fiber", "--profile", "dim.json", "--dim", "300000", "--q", "2.00001", "--a", "1.0"],
     300000),
])
@pytest.mark.filterwarnings("error")
def test_a_dimension_without_a_grid_is_refused_by_name(args, dim, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dim.json").write_text(json.dumps(
        {"dim": 300000, "r_max": 30.0, "n": 16, "values": [0.1] * 16}) + "\n")
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["error_kind"] == "ValueError"
    assert re.match(rf"no \d+-node rule in dim {dim} on r_max ", doc["message"]), doc["message"]


@pytest.mark.parametrize("args, message", [
    (["--kind", "bubble", "--b", "inf"], "--b must be positive and finite"),
    (["--kind", "bubble", "--b", "0"], "--b must be positive and finite"),
    (["--kind", "gaussian", "--sigma", "nan"], "--sigma must be positive and finite"),
    # sigma^(N/2) or sigma^2 underflows or overflows: no gaussian of mass a
    (["--kind", "gaussian", "--sigma", "1e-300"], "no finite normalization"),
    (["--kind", "gaussian", "--sigma", "1e-200"], "no finite normalization"),
    (["--kind", "gaussian", "--sigma", "1e300"], "no finite normalization"),
    # b * b overflows, or the gaussian underflows, at every node
    (["--kind", "bubble", "--b", "1e300"], "vanishes at every node"),
    (["--kind", "gaussian", "--sigma", "1e-160"], "vanishes at every node"),
])
@pytest.mark.filterwarnings("error")
def test_profile_rejects_degenerate_scales(args, message, capsys):
    code = cli.main(["profile", "--a", "1.0", "--grid-n", "64"] + args)
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert message in json.loads(out)["message"]


@pytest.mark.parametrize("args", [
    ["constants", "--grid-n", "1024"],
    ["mountain-pass", "--tol", "1e-6"],
    ["sweep", "--mu-range", "1:2:2", "--a-rel-range", "0.5:1:2", "--mu", "2"],
    ["sweep", "--mu-range", "1:2:2", "--a-rel-range", "0.5:1:2", "--a", "0.5:1:2"],
    ["sweep", "--mu-range", "1:2", "--a-rel-range", "0.5:1:2"],
    ["cpo", "--case", "1", "--n-values", "3,x"],
])
def test_unread_or_malformed_flags_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2


def test_readme_examples_parse():
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples, cmd = [], ""
    for line in lines:
        if cmd or line.startswith("    nlscrit "):
            cmd += " " + line.strip().rstrip("\\")
            if not line.endswith("\\"):
                examples.append(cmd)
                cmd = ""
    assert len(examples) >= 10
    parser = cli.build_parser()
    for text in examples:
        argv = shlex.split(text)[1:]
        assert parser.parse_args(argv).func.__name__.startswith("_cmd_")


def test_readme_examples_are_the_benchmark_commands():
    # the benchmark's cold-CLI workload keeps its own copy of README's CLI
    # example block: the same argv in the same order
    root = pathlib.Path(__file__).parents[1]
    readme, cmd = [], ""
    for line in (root / "README.md").read_text().splitlines():
        if cmd or line.startswith("    nlscrit "):
            cmd += " " + line.strip().rstrip("\\")
            if not line.endswith("\\"):
                readme.append(shlex.split(cmd)[1:])
                cmd = ""
        elif readme and not line.strip():
            break    # the end of the block
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    copy = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["README"])
    assert readme == [shlex.split(args) for _, args in copy]


def test_cold_import_skips_scipy_packages():
    # only the compiled LAPACK wrappers scipy.linalg._flapack are loaded
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = ("import nlscrit.cli, sys; "
            "print([m for m in ('scipy.optimize', 'scipy.interpolate', 'scipy.linalg', "
            "'numpy.f2py') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_package_imports_are_module_level():
    # an import inside a function hides a dependency between the modules
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "nlscrit"
    nested = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level > 0
                   and id(node) not in top]
    assert nested == []


def test_no_function_takes_dim_and_grid():
    # a grid carries its dimension: a separate dim argument could disagree
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "nlscrit"
    both = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"dim", "grid"} <= names:
                    both.append(f"{path.name}:{node.name}")
    assert both == []
