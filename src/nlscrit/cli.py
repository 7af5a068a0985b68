"""Command-line front end.

argparse parses straight into the commands: each subcommand registers only
the flags it reads and dispatches to its `_cmd_*` function, which takes the
parsed namespace.  Every command writes exactly one JSON document (or one
CSV table for `sweep`/`evolve --csv`) to stdout or to --out.  Exit codes:
0 success, 1 domain error (reported as an error JSON), 2 usage error.  All
outputs are deterministic: the same arguments give the same bytes; no
timestamps, no machine state.

Masses can be given in the problem's natural normalizations:
`--a auto-a0`, `--a 0.5a0` (any multiple of the threshold mass), or a
plain number; at the mass-critical exponent `--mass-multiple k` sets
mu a^(q(1-gamma_q)/2) = k * abar_N.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import constants as cst
from . import dynamics as dyn
from . import functionals as fnl
from . import grid as gridmod
from . import minimize as minmod
from . import mountainpass as mp
from . import profiles

SCHEMA_VERSION = 1


class DomainError(RuntimeError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# default sequence items of `cpo`; --steps k keeps the first k
CPO_N_VALUES = (5.0, 10.0, 20.0, 40.0)   # case 1: cutoff radii
CPO_A_VALUES = (0.1, 0.01, 0.001)        # case 2: offsets A_n
TRACE_ROWS = 256   # rows of a downsampled minimize or mountain-pass trace


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, cst.Regime):
        return obj.value
    return obj


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(doc: dict) -> str:
    """The JSON document of a command's result, schema_version first."""
    return json.dumps(_jsonable({"schema_version": SCHEMA_VERSION, **doc}), indent=2) + "\n"


def _problem(args: argparse.Namespace) -> cst.ProblemParams:
    """(N, q, mu) of the flags, at mass 1."""
    qtext = args.q
    if qtext == "auto":   # 2 + 4/N as a fraction, which parse_q rounds once
        if args.dim < 3:
            raise ValueError(f"dim must be >= 3, got {args.dim}")
        qtext = f"{2 * args.dim + 4}/{args.dim}"
    return cst.ProblemParams(args.dim, cst.parse_q(qtext), args.mu, 1.0)


def _resolve_mass(args: argparse.Namespace) -> cst.ProblemParams:
    probe = _problem(args)
    mass_text = args.a.strip()
    mult = args.mass_multiple
    if mult is not None:
        if not (math.isfinite(mult) and mult > 0.0):
            raise DomainError("usage", "--mass-multiple must be positive and finite")
        if not cst.is_critical(probe):
            raise DomainError("usage", "--mass-multiple requires q = 2 + 4/N")
        ab = cst.abar(probe, cst.gn_constant(probe))
        a = (mult * ab / args.mu) ** (2.0 / (probe.q * (1.0 - probe.ex.gamma_q)))
        return probe.with_mass(a)
    if mass_text.endswith("a0"):
        head = mass_text[:-2].strip()
        if head in ("auto-", "auto", ""):
            k = 1.0
        else:
            k = float(head)
        if cst.is_critical(probe):
            raise DomainError("usage", "a0 is undefined at the mass-critical exponent; "
                                       "use --mass-multiple instead")
        S = cst.sobolev_constant(args.dim)
        C = cst.gn_constant(probe)
        a0 = cst.critical_mass_a0(probe, S, C)
        return probe.with_mass(k * a0)
    return probe.with_mass(float(mass_text))


def _make_grid(args: argparse.Namespace) -> gridmod.RadialGrid:
    return gridmod.make_grid(args.dim, args.r_max, args.grid_n, args.grading,
                             args.origin_blend)


def _downsample(seq: list) -> list:
    idx = np.linspace(0, len(seq) - 1, min(len(seq), TRACE_ROWS)).astype(int)
    return [seq[i] for i in idx]


# ---------------------------------------------------------------------------
# command implementations

def _cmd_constants(args: argparse.Namespace) -> dict:
    params = _resolve_mass(args)
    ex = params.ex
    thr = cst.thresholds(params)
    return {
        "params": {"dim": params.dim, "q": params.q, "mu": params.mu, "a": params.a},
        "exponents": {"two_star": ex.two_star, "gamma_q": ex.gamma_q,
                      "q_gamma_q": ex.q_gamma_q, "q_class": ex.q_class},
        "S": thr.S, "C_Nq": thr.C_Nq, "K": thr.K, "a0": thr.a0,
        "rho_crit": thr.rho_crit, "rho0": thr.rho0, "abar_N": thr.abar_N,
        "regime": thr.regime,
    }


def _cmd_profile(args: argparse.Namespace) -> dict:
    # only the gaussian has a mass: weinstein needs (N, q), the bubble nothing
    params = _resolve_mass(args) if args.kind == "gaussian" else _problem(args)
    g = _make_grid(args)
    if args.kind == "weinstein":
        p = profiles.weinstein_ground_state(params.q, g)
    elif args.kind == "bubble":
        p = profiles.aubin_talenti(args.b, g)
    else:
        p = profiles.gaussian(params, args.sigma, g)
    return {"kind": args.kind, **gridmod.profile_to_dict(p)}


def _load_profile_arg(path: str, args: argparse.Namespace) -> gridmod.Profile:
    if path.endswith(".csv"):
        return gridmod.load_profile_csv(path, _make_grid(args))
    u = gridmod.load_profile(path)
    if u.grid.dim != args.dim:
        raise DomainError("usage", f"{path} is a profile in dimension {u.grid.dim}, "
                                   f"but --dim is {args.dim}")
    return u


def _cmd_fiber(args: argparse.Namespace) -> dict:
    params = _resolve_mass(args)
    u = _load_profile_arg(args.profile, args)
    g = u.grid
    # place the loaded profile on the mass sphere before analysis
    u = gridmod.Profile(g, u.values * math.sqrt(params.a / gridmod.mass(g, u)))
    rep = fnl.fiber_critical_points(params, g, u)
    taus = np.logspace(-6.0, 6.0, fnl.FIBER_SAMPLES)
    return {
        "tau_plus": rep.tau_plus, "tau_minus": rep.tau_minus,
        "e_at_tau_plus": rep.e_at_tau_plus, "e_at_tau_minus": rep.e_at_tau_minus,
        "psi_second_at_tau_minus": rep.psi_second_at_tau_minus,
        "strictly_decreasing": rep.strictly_decreasing,
        "samples": np.column_stack([taus, fnl.psi_value(params, rep.norms, taus),
                                    fnl.phi_value(params, rep.norms, taus)]),
    }


def _dr_min(g: gridmod.RadialGrid) -> float:
    return float(np.min(np.diff(g.nodes)))


def _domain_diagnostics(rep: minmod.SolveReport) -> dict:
    """The grid minimize_in_domain solved on: its r_max, n and smallest node
    spacing, how many grids it solved on, the decay lengths r_max
    sqrt(-lambda) it holds (0 when lambda >= 0), and the coarse level its
    seed was solved on ({n, iterations, converged}, or None)."""
    g = rep.final.grid
    return {"r_max": g.r_max, "n": g.n, "dr_min": _dr_min(g), "solves": rep.solves,
            "decay_lengths": g.r_max * math.sqrt(max(-rep.lam, 0.0)),
            "coarse": rep.coarse}


def _cmd_minimize(args: argparse.Namespace) -> dict:
    rep = minmod.minimize_in_domain(_resolve_mass(args), _make_grid(args), args.tol)
    g = rep.final.grid
    return {
        "energy": rep.energy, "pohozaev": rep.pohozaev, "lambda": rep.lam,
        "grad_residual": rep.grad_residual, "iterations": rep.iterations,
        "boundary_hit": rep.boundary_hit, "converged": rep.converged,
        "grad_l2_sq": gridmod.grad_l2_sq(g, rep.final),
        "trace": _downsample(rep.trace),
        "diagnostics": _domain_diagnostics(rep),
    }


def _cmd_subadd(args: argparse.Namespace) -> dict:
    params = _resolve_mass(args)
    g = _make_grid(args)
    a1 = params.a / 2.0 if args.a1 is None else args.a1
    rep = minmod.subadditivity_check(params, g, a1, tol=args.tol)
    return {"a1": a1, "m_a": rep.m_a, "m_a1": rep.m_a1, "m_rest": rep.m_rest, "gap": rep.gap}


def _cmd_mountain_pass(args: argparse.Namespace) -> dict:
    params = _resolve_mass(args)
    thr = cst.thresholds(params)
    rep = minmod.minimize_in_domain(params, _make_grid(args), thresholds=thr)
    g = rep.final.grid
    family = mp.MPFamilySpec()
    est = mp.estimate_mp_level(params, g, family, minimizer=rep, thresholds=thr)
    size = len(family.bubble_widths) * len(family.amplitudes)
    witness_energy = est.witness_norms.energy(params)
    doc = {
        "level": est.level, "m_a": est.m_a, "upper_bound": est.upper_bound,
        "accepted": est.accepted,
        "witness_energy": witness_energy,
        "witness_pohozaev": est.witness_norms.pohozaev(params),
        "family_trace": _downsample(est.family_trace),
        "diagnostics": {
            "family_size": size, "admitted": len(est.family_trace),
            "refused": size - len(est.family_trace),
            "witness_level_gap": abs(witness_energy - est.level) / abs(est.level),
            **_domain_diagnostics(rep)},
    }
    if args.witness_out:
        gridmod.save_profile(args.witness_out, est.witness)
        doc["witness_path"] = args.witness_out
    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["bubble_width", "amplitude", "projected_energy"])
            for (b, s), lev in est.family_trace:
                wr.writerow([repr(float(b)), repr(float(s)), repr(float(lev))])
        doc["trace_path"] = args.trace_csv
    return doc


def _cmd_cpo(args: argparse.Namespace) -> dict:
    if args.steps is not None and args.steps < 1:
        raise DomainError("usage", "--steps must be at least 1")
    if args.case == 1 and (args.a is not None or args.mass_multiple is not None):
        raise DomainError("usage", "--case 1 builds its own mass from mu: "
                                   "--a and --mass-multiple do not apply")
    if args.a is None:
        args.a = "1.0"
    params = _resolve_mass(args)
    g = _make_grid(args)
    if args.case == 1:
        rep = mp.cpo_sequence_case1(params, g, args.n_values or CPO_N_VALUES[:args.steps])
    else:
        rep = mp.cpo_sequence_case2(params, g, args.a_values or CPO_A_VALUES[:args.steps])
    return {
        "case": rep.case, "parameters": rep.parameters, "ratios": rep.ratios,
        "projected_energies": rep.projected_energies,
        "mass_used": rep.mass_used,
        "monotone_decreasing": rep.monotone_decreasing,
    }


def _cmd_evolve(args: argparse.Namespace):
    # only the probes renormalize to the mass --a; a plain run keeps the file's
    params = _problem(args) if args.probe == "none" else _resolve_mass(args)
    u = _load_profile_arg(args.init, args)
    g = u.grid
    dt, t_end = args.dt, args.t_end
    if args.probe == "stability":
        rep = dyn.stability_probe(params, g, u, args.eps, t_end, dt=dt)
        summary = rep.summary
        head = {"probe": "stability", "initial_distance": rep.initial_distance,
                "max_distance": rep.max_distance, "growth_factor": rep.growth_factor}
    elif args.probe == "blowup":
        rep = dyn.blowup_probe(params, g, u, args.amp, t_end, dt=dt)
        summary, g = rep.summary, rep.grid
        head = {"probe": "blowup", "blowup_flag": rep.blowup_flag,
                "blowup_time": rep.blowup_time, "grad_growth": rep.grad_growth}
    else:
        psi0 = gridmod.Profile(g, u.values.astype(complex))
        summary = dyn.evolve(params, g, psi0, dt, t_end, reference=u)
        head = {"probe": "none", "blowup_flag": summary.blowup_flag,
                "blowup_time": summary.blowup_time}
    if args.csv:
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["t", "mass", "energy", "grad_norm", "h1_distance"])
        ds = summary.h1_distance
        for i, t in enumerate(summary.times):
            wr.writerow([repr(float(t)), repr(float(summary.mass[i])),
                         repr(float(summary.energy[i])), repr(float(summary.grad_norm[i])),
                         "" if ds is None else repr(float(ds[i]))])
        return buf.getvalue()
    doc = {**head, "times": summary.times, "mass": summary.mass, "energy": summary.energy,
           "grad_norm": summary.grad_norm}
    if summary.h1_distance is not None:
        doc["h1_distance"] = summary.h1_distance
    dr_min = _dr_min(g)
    doc["diagnostics"] = {"steps": summary.steps, "refused_steps": summary.refused_steps,
                          "grid": {"n": g.n, "r_max": g.r_max,
                                   "origin_blend": g.origin_blend, "dr_min": dr_min},
                          "dt_over_dr_min_sq": dt / dr_min ** 2}
    return doc


def _sweep_point(params, g, with_ma, with_level, tol) -> list[str]:
    """[regime, m_a, level, error] of one sweep point; m_a and level come from
    minimize_in_domain, which may solve on a grid wider than g."""
    cells = ["", "", "", ""]
    try:
        thr = cst.thresholds(params)
        cells[0] = thr.regime.value if thr.regime else ""
        if (with_ma or with_level) and thr.regime in cst.LOCAL_MIN_REGIMES:
            rep = minmod.minimize_in_domain(params, g, tol, thr)
            if not rep.converged:
                raise RuntimeError("local minimization did not converge "
                                   f"(residual {rep.grad_residual:.2e})")
            if with_ma:
                cells[1] = repr(rep.energy)
            if with_level:
                est = mp.estimate_mp_level(params, rep.final.grid, minimizer=rep,
                                           thresholds=thr)
                cells[2] = repr(est.level)
    except (ValueError, RuntimeError, ArithmeticError) as exc:   # stays in-row
        cells[3] = f"{type(exc).__name__}: {exc}"
    return cells


def _cmd_sweep(args: argparse.Namespace):
    q = cst.parse_q(args.q)
    mu_lo, mu_hi, mu_n = args.mu_range
    a_lo, a_hi, a_n = args.a_rel_range
    with_ma, with_level = args.with_ma, args.with_level
    g = _make_grid(args) if (with_ma or with_level) else None
    base = cst.ProblemParams(args.dim, q, 1.0, 1.0)
    S = cst.sobolev_constant(args.dim)
    C = cst.gn_constant(base)
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["mu", "a", "regime", "m_a", "level", "error"])
    # an a/a0 column is one dilation orbit, which keeps E, P and the level:
    # its first Omega1/Omega2 row solves, and the later ones print its cells
    solved = {}   # a/a0 column -> [m_a, level, error]
    for mu in np.linspace(mu_lo, mu_hi, mu_n):
        pm = cst.ProblemParams(args.dim, q, float(mu), 1.0)
        a0 = cst.critical_mass_a0(pm, S, C)
        for j, rel in enumerate(np.linspace(a_lo, a_hi, a_n)):
            params, first = pm.with_mass(float(rel) * a0), j not in solved
            regime, *cells = _sweep_point(params, g, with_ma and first,
                                          with_level and first, args.tol)
            if regime in [r.value for r in cst.LOCAL_MIN_REGIMES]:
                cells = solved.setdefault(j, cells)
            wr.writerow([repr(float(params.mu)), repr(float(params.a)), regime, *cells])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing

def _add_problem(p: argparse.ArgumentParser, mass: bool = True):
    """Add the problem flags; returns the --a action (None without mass flags)."""
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--q", type=str, default="2.5")
    a_flag = None
    if mass:
        p.add_argument("--mu", type=float, default=1.0)
        a_flag = p.add_argument("--a", type=str, default="auto-a0",
                                help="mass: number, 'auto-a0', or '<k>a0'")
        p.add_argument("--mass-multiple", type=float, default=None,
                       help="critical q: set mu a^(q(1-gamma)/2) = k * abar_N")
    p.add_argument("--out", type=str, default=None)
    return a_flag


def _add_grid(p: argparse.ArgumentParser, r_max: float = 50.0) -> None:
    p.add_argument("--grid-n", type=int, default=8192)
    p.add_argument("--r-max", type=_finite("--r-max"), default=r_max)
    p.add_argument("--grading", type=_finite("--grading"), default=0.0)
    p.add_argument("--origin-blend", type=float, default=0.0,
                   help="blend toward uniform spacing at the origin (evolution grids)")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_finite("--tol", positive=True), default=1e-8)


def _finite(flag: str, positive: bool = False):
    """argparse type of a float flag that must be finite (and > 0 if
    `positive`).  A bad value is a domain error of the value, like the range
    checks of the commands: it raises DomainError, which argparse passes on
    to `main`'s error document, instead of a usage message on stderr."""
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or (positive and value <= 0.0):
            rule = "positive and finite" if positive else "finite"
            raise DomainError("usage", f"{flag} must be {rule}, got {text}")
        return value
    parse.__name__ = "float"   # argparse's name for it when text is no number
    return parse


def _lattice(flag: str):
    """argparse type of a lo:hi:n range flag.  A bound that is not finite or
    a count n below 1 is a domain error of the value, raised as DomainError
    like `_finite`'s."""
    def parse(text: str):
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if not (math.isfinite(lo) and math.isfinite(hi) and n >= 1):
            raise DomainError("usage", f"{flag} must be lo:hi:n with finite lo and hi "
                                       f"and n >= 1, got {text}")
        return lo, hi, n
    parse.__name__ = "lo:hi:n"
    return parse


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlscrit")
    sub = ap.add_subparsers(dest="command", required=True)
    # no prefix matching: on `sweep`, `--mu` must not silently mean `--mu-range`
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("constants", help="exponents, sharp constants, thresholds, regime")
    _add_problem(p)
    p.set_defaults(func=_cmd_constants)

    p = add("profile", help="write a named profile as JSON")
    _add_problem(p)
    _add_grid(p)
    p.add_argument("--kind", choices=("weinstein", "bubble", "gaussian"), required=True)
    p.add_argument("--b", type=_finite("--b", positive=True), default=1.0)
    p.add_argument("--sigma", type=_finite("--sigma", positive=True), default=1.0)
    p.set_defaults(func=_cmd_profile)

    p = add("fiber", help="fiber-map critical points of a stored profile")
    _add_problem(p)
    _add_grid(p)
    p.add_argument("--profile", type=str, required=True)
    p.set_defaults(func=_cmd_fiber)

    p = add("minimize", help="local minimizer on the mass sphere")
    _add_problem(p)
    _add_grid(p)
    _add_tol(p)
    p.set_defaults(func=_cmd_minimize)

    p = add("subadd", help="subadditivity gap of the local minima")
    _add_problem(p)
    _add_grid(p)
    _add_tol(p)
    p.add_argument("--a1", type=float, default=None)
    p.set_defaults(func=_cmd_subadd)

    p = add("mountain-pass", help="upper estimate of the mountain-pass level")
    _add_problem(p)
    _add_grid(p)
    p.add_argument("--witness-out", type=str, default=None)
    p.add_argument("--trace-csv", type=str, default=None,
                   help="write the family trace (b, s, level) as CSV")
    p.set_defaults(func=_cmd_mountain_pass)

    p = add("cpo", help="vanishing-infimum sequences at critical q")
    _add_problem(p)
    _add_grid(p, r_max=200.0)
    p.add_argument("--case", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-values", type=_float_list, default=None,
                   help="comma list of cutoff radii")
    p.add_argument("--a-values", type=_float_list, default=None,
                   help="comma list of offsets A_n")
    p.add_argument("--steps", type=int, default=None,
                   help="use the first k default sequence items")
    # q = 2 + 4/N; case 1 builds the mass, case 2's defaults to 1
    p.set_defaults(func=_cmd_cpo, q="auto", a=None)

    p = add("evolve", help="time evolution / stability / blow-up probes")
    _add_problem(p).help += ("; only the probes renormalize to it: a plain run "
                             "starts from the file's own mass, reported in mass[0]")
    _add_grid(p)
    p.add_argument("--init", type=str, required=True)
    p.add_argument("--dt", type=_finite("--dt"), default=2e-3)
    p.add_argument("--t-end", type=_finite("--t-end"), default=1.0)
    p.add_argument("--probe", choices=("none", "stability", "blowup"), default="none")
    p.add_argument("--eps", type=_finite("--eps"), default=1e-2)
    p.add_argument("--amp", type=_finite("--amp"), default=1.05)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_evolve)

    p = add("sweep", help="regime atlas over (mu, a)")
    _add_problem(p, mass=False)
    _add_grid(p)
    _add_tol(p)
    p.add_argument("--mu-range", type=_lattice("--mu-range"), required=True, help="lo:hi:n")
    p.add_argument("--a-rel-range", type=_lattice("--a-rel-range"), required=True,
                   help="lo:hi:n in multiples of a0(mu)")
    p.add_argument("--with-ma", action="store_true")
    p.add_argument("--with-level", action="store_true")
    p.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    # a DomainError of a flag's type leaves parse_args with the command set
    # and --out unknown, so its error document goes to stdout
    args = argparse.Namespace(out=None)
    try:
        build_parser().parse_args(argv, args)
        result = args.func(args)
        _write(result if isinstance(result, str) else _document(result), args.out)
        return 0
    except (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError) as exc:
        error = _document({"error_kind": getattr(exc, "kind", type(exc).__name__),
                           "message": str(exc), "context": {"command": args.command}})
    try:
        _write(error, args.out)
    except OSError:   # --out itself cannot be written
        _write(error, None)
    return 1


if __name__ == "__main__":
    sys.exit(main())
