"""Command-line front end.

Every command writes exactly one JSON document (or one CSV table for
`sweep`/`evolve --csv`) to stdout or to --out.  Exit codes: 0 success,
1 domain error (reported as an error JSON), 2 usage error.  All outputs
are deterministic: the same arguments give the same bytes; no timestamps,
no machine state.

Masses can be given in the problem's natural normalizations:
`--a auto-a0`, `--a 0.5a0` (any multiple of the threshold mass), or a
plain number; at the mass-critical exponent `--mass-multiple k` sets
mu a^(q(1-gamma_q)/2) = k * abar_N.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass, field

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
    def __init__(self, kind: str, message: str, context: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.context = context or {}


@dataclass
class RunConfig:
    command: str
    dim: int = 3
    q: str = "2.5"
    mu: float = 1.0
    a_spec: str = "auto-a0"
    grid_n: int = 8192
    r_max: float = 50.0
    grading: float = 0.0
    origin_blend: float = 0.0
    tol: float = 1e-8
    out_path: str | None = None
    out_format: str = "json"
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


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


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(_jsonable(doc), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_mass(cfg: RunConfig) -> cst.ProblemParams:
    qtext = cfg.q
    if qtext == "auto":   # mass-critical exponent for this dimension
        from fractions import Fraction
        qtext = str(Fraction(2) + Fraction(4, cfg.dim))
    qval, qexact = cst.parse_q(qtext)
    probe = cst.ProblemParams(cfg.dim, qval, cfg.mu, 1.0, qexact)
    mass_text = cfg.a_spec.strip()
    mult = cfg.extra.get("mass_multiple")
    if mult is not None:
        if not cst.is_critical(probe):
            raise DomainError("usage", "--mass-multiple requires q = 2 + 4/N")
        ab = cst.abar(probe, cst.gn_constant(probe))
        ex = cst.exponents(probe)
        a = (float(mult) * ab / cfg.mu) ** (2.0 / (probe.q * (1.0 - ex.gamma_q)))
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
        S = cst.sobolev_constant(cfg.dim)
        C = cst.gn_constant(probe)
        a0 = cst.critical_mass_a0(probe, S, C)
        return probe.with_mass(k * a0)
    return probe.with_mass(float(mass_text))


def _make_grid(cfg: RunConfig) -> gridmod.RadialGrid:
    return gridmod.make_grid(cfg.dim, cfg.r_max, cfg.grid_n, cfg.grading,
                             cfg.origin_blend)


def _downsample(seq, cap: int = 256):
    seq = list(seq)
    if len(seq) <= cap:
        return seq
    idx = np.linspace(0, len(seq) - 1, cap).astype(int)
    return [seq[i] for i in idx]


# ---------------------------------------------------------------------------
# command implementations

def _cmd_constants(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    ex = cst.exponents(params)
    thr = cst.thresholds(params)
    return {
        "schema_version": SCHEMA_VERSION,
        "params": {"dim": params.dim, "q": params.q, "mu": params.mu, "a": params.a},
        "exponents": {"two_star": ex.two_star, "gamma_q": ex.gamma_q,
                      "q_gamma_q": ex.q_gamma_q, "q_class": ex.q_class},
        "S": thr.S, "C_Nq": thr.C_Nq, "K": thr.K, "a0": thr.a0,
        "rho_crit": thr.rho_crit, "rho0": thr.rho0, "abar_N": thr.abar_N,
        "regime": thr.regime,
    }


def _cmd_profile(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    g = _make_grid(cfg)
    kind = cfg.extra["kind"]
    if kind == "weinstein":
        p = profiles.weinstein_ground_state(params.dim, params.q, g)
    elif kind == "bubble":
        p = profiles.aubin_talenti(params.dim, cfg.extra.get("b", 1.0), g)
    elif kind == "gaussian":
        p = profiles.gaussian(params, cfg.extra.get("sigma", 1.0), g)
    else:
        raise DomainError("usage", f"unknown profile kind {kind!r}")
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(gridmod.profile_to_dict(p))
    return doc


def _load_profile_arg(path: str, cfg: RunConfig) -> gridmod.Profile:
    if path.endswith(".csv"):
        return gridmod.load_profile_csv(path, _make_grid(cfg))
    return gridmod.load_profile(path)


def _cmd_fiber(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    u = _load_profile_arg(cfg.extra["profile"], cfg)
    g = u.grid
    # place the loaded profile on the mass sphere before analysis
    u = gridmod.Profile(g, u.values * math.sqrt(params.a / gridmod.mass(g, u)))
    rep = fnl.fiber_critical_points(params, g, u)
    return {
        "schema_version": SCHEMA_VERSION,
        "tau_plus": rep.tau_plus, "tau_minus": rep.tau_minus,
        "e_at_tau_plus": rep.e_at_tau_plus, "e_at_tau_minus": rep.e_at_tau_minus,
        "psi_second_at_tau_minus": rep.psi_second_at_tau_minus,
        "strictly_decreasing": rep.strictly_decreasing,
        "samples": _downsample(rep.samples, 512),
    }


def _cmd_minimize(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    g = _make_grid(cfg)
    rep = minmod.minimize_local(params, g, tol=cfg.tol)
    return {
        "schema_version": SCHEMA_VERSION,
        "energy": rep.energy, "pohozaev": rep.pohozaev, "lambda": rep.lam,
        "grad_residual": rep.grad_residual, "iterations": rep.iterations,
        "boundary_hit": rep.boundary_hit, "converged": rep.converged,
        "grad_l2_sq": gridmod.grad_l2_sq(g, rep.final),
        "trace": _downsample(rep.trace),
    }


def _cmd_subadd(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    g = _make_grid(cfg)
    a1 = cfg.extra.get("a1")
    a1 = params.a / 2.0 if a1 is None else float(a1)
    rep = minmod.subadditivity_check(params, g, a1, tol=cfg.tol)
    return {"schema_version": SCHEMA_VERSION, "a1": a1,
            "m_a": rep.m_a, "m_a1": rep.m_a1, "m_rest": rep.m_rest, "gap": rep.gap}


def _cmd_mountain_pass(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    g = _make_grid(cfg)
    est = mp.estimate_mp_level(params, g)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "level": est.level, "m_a": est.m_a, "upper_bound": est.upper_bound,
        "accepted": est.accepted,
        "witness_energy": fnl.energy(params, g, est.witness),
        "witness_pohozaev": fnl.pohozaev(params, g, est.witness),
        "family_trace": _downsample(est.family_trace),
    }
    wout = cfg.extra.get("witness_out")
    if wout:
        gridmod.save_profile(wout, est.witness)
        doc["witness_path"] = wout
    tcsv = cfg.extra.get("trace_csv")
    if tcsv:
        with open(tcsv, "w", encoding="utf-8", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(["bubble_width", "amplitude", "projected_energy"])
            for (b, s), lev in est.family_trace:
                wr.writerow([repr(float(b)), repr(float(s)), repr(float(lev))])
        doc["trace_path"] = tcsv
    return doc


def _cmd_cpo(cfg: RunConfig) -> dict:
    params = _resolve_mass(cfg)
    g = _make_grid(cfg)
    case = int(cfg.extra["case"])
    if case == 1:
        n_values = cfg.extra.get("n_values") or [5.0, 10.0, 20.0, 40.0]
        rep = mp.cpo_sequence_case1(params, g, n_values)
    elif case == 2:
        a_values = cfg.extra.get("a_values") or [0.1, 0.01, 0.001]
        rep = mp.cpo_sequence_case2(params, g, a_values)
    else:
        raise DomainError("usage", "--case must be 1 or 2")
    return {
        "schema_version": SCHEMA_VERSION, "case": rep.case,
        "parameters": rep.parameters, "ratios": rep.ratios,
        "projected_energies": rep.projected_energies,
        "mass_used": rep.mass_used,
        "monotone_decreasing": rep.monotone_decreasing,
    }


def _cmd_evolve(cfg: RunConfig):
    params = _resolve_mass(cfg)
    u = _load_profile_arg(cfg.extra["init"], cfg)
    g = u.grid
    dt = cfg.extra.get("dt", 2e-3)
    t_end = cfg.extra.get("t_end", 1.0)
    probe = cfg.extra.get("probe", "none")
    if probe == "stability":
        rep = dyn.stability_probe(params, g, u, cfg.extra.get("eps", 1e-2), t_end, dt=dt)
        summary = rep.summary
        head = {"probe": "stability", "initial_distance": rep.initial_distance,
                "max_distance": rep.max_distance, "growth_factor": rep.growth_factor}
    elif probe == "blowup":
        rep = dyn.blowup_probe(params, g, u, cfg.extra.get("amp", 1.05), t_end, dt=dt)
        summary = rep.summary
        head = {"probe": "blowup", "blowup_flag": rep.blowup_flag,
                "blowup_time": rep.blowup_time, "grad_growth": rep.grad_growth}
    else:
        psi0 = gridmod.Profile(g, u.values.astype(complex))
        summary = dyn.evolve(params, g, psi0, dt, t_end, reference=u)
        head = {"probe": "none", "blowup_flag": summary.blowup_flag,
                "blowup_time": summary.blowup_time}
    if cfg.out_format == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["t", "mass", "energy", "grad_norm", "h1_distance"])
        ds = summary.h1_distance
        for i, t in enumerate(summary.times):
            wr.writerow([repr(float(t)), repr(float(summary.mass[i])),
                         repr(float(summary.energy[i])), repr(float(summary.grad_norm[i])),
                         "" if ds is None else repr(float(ds[i]))])
        return buf.getvalue()
    doc = {"schema_version": SCHEMA_VERSION, **head,
           "times": summary.times, "mass": summary.mass, "energy": summary.energy,
           "grad_norm": summary.grad_norm}
    if summary.h1_distance is not None:
        doc["h1_distance"] = summary.h1_distance
    return doc


def _sweep_point(params, g, with_ma, with_level, tol):
    row = {"mu": params.mu, "a": params.a, "m_a": "", "level": "", "error": ""}
    try:
        thr = cst.thresholds(params)
        row["regime"] = thr.regime.value if thr.regime else ""
        rep = None
        if (with_ma or with_level) and thr.regime in (cst.Regime.OMEGA1,
                                                      cst.Regime.OMEGA2):
            rep = minmod.minimize_local(params, g, tol=tol, thresholds=thr)
            if with_ma:
                row["m_a"] = repr(rep.energy)
        if with_level and rep is not None:
            est = mp.estimate_mp_level(params, g, minimizer=rep, thresholds=thr)
            row["level"] = repr(est.level)
    except Exception as exc:  # per-point failure stays in-row
        row.setdefault("regime", "")
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cmd_sweep(cfg: RunConfig):
    qval, qexact = cst.parse_q(cfg.q)
    mu_lo, mu_hi, mu_n = cfg.extra["mu_range"]
    a_lo, a_hi, a_n = cfg.extra["a_rel_range"]
    with_ma = bool(cfg.extra.get("with_ma", False))
    with_level = bool(cfg.extra.get("with_level", False))
    g = _make_grid(cfg) if (with_ma or with_level) else None
    base = cst.ProblemParams(cfg.dim, qval, 1.0, 1.0, qexact)
    S = cst.sobolev_constant(cfg.dim)
    C = cst.gn_constant(base)
    points = []
    for mu in np.linspace(mu_lo, mu_hi, int(mu_n)):
        pm = cst.ProblemParams(cfg.dim, qval, float(mu), 1.0, qexact)
        a0 = cst.critical_mass_a0(pm, S, C)
        for rel in np.linspace(a_lo, a_hi, int(a_n)):
            points.append(pm.with_mass(float(rel) * a0))
    rows = [_sweep_point(p, g, with_ma, with_level, cfg.tol) for p in points]
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["mu", "a", "regime", "m_a", "level", "error"])
    for row in rows:
        wr.writerow([repr(float(row["mu"])), repr(float(row["a"])),
                     row["regime"], row["m_a"], row["level"], row["error"]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser, grid_defaults=(8192, 50.0, 0.0)):
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--q", type=str, default="2.5")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--a", type=str, default="auto-a0",
                   help="mass: number, 'auto-a0', or '<k>a0'")
    p.add_argument("--mass-multiple", type=float, default=None,
                   help="critical q: set mu a^(q(1-gamma)/2) = k * abar_N")
    p.add_argument("--grid-n", type=int, default=grid_defaults[0])
    p.add_argument("--r-max", type=float, default=grid_defaults[1])
    p.add_argument("--grading", type=float, default=grid_defaults[2])
    p.add_argument("--origin-blend", type=float, default=0.0,
                   help="blend toward uniform spacing at the origin (evolution grids)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", type=str, default=None)


def _parse_range(text: str):
    lo, hi, n = text.split(":")
    return float(lo), float(hi), int(n)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlscrit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="exponents, sharp constants, thresholds, regime")
    _add_common(p)

    p = sub.add_parser("profile", help="write a named profile as JSON")
    _add_common(p)
    p.add_argument("--kind", choices=("weinstein", "bubble", "gaussian"), required=True)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)

    p = sub.add_parser("fiber", help="fiber-map critical points of a stored profile")
    _add_common(p)
    p.add_argument("--profile", type=str, required=True)

    p = sub.add_parser("minimize", help="local minimizer on the mass sphere")
    _add_common(p)

    p = sub.add_parser("subadd", help="subadditivity gap of the local minima")
    _add_common(p)
    p.add_argument("--a1", type=float, default=None)

    p = sub.add_parser("mountain-pass", help="upper estimate of the mountain-pass level")
    _add_common(p)
    p.add_argument("--witness-out", type=str, default=None)
    p.add_argument("--trace-csv", type=str, default=None,
                   help="write the family trace (b, s, level) as CSV")

    p = sub.add_parser("cpo", help="vanishing-infimum sequences at critical q")
    _add_common(p, grid_defaults=(8192, 200.0, 0.0))
    p.set_defaults(q="auto", a="1.0")   # q = 2 + 4/N; case 1 rebuilds the mass
    p.add_argument("--case", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-values", type=str, default=None, help="comma list of cutoff radii")
    p.add_argument("--a-values", type=str, default=None, help="comma list of offsets A_n")
    p.add_argument("--steps", type=int, default=None,
                   help="use the first k default sequence items")

    p = sub.add_parser("evolve", help="time evolution / stability / blow-up probes")
    _add_common(p)
    p.add_argument("--init", type=str, required=True)
    p.add_argument("--dt", type=float, default=2e-3)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--probe", choices=("none", "stability", "blowup"), default="none")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--amp", type=float, default=1.05)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("sweep", help="regime atlas over (mu, a)")
    _add_common(p)
    p.add_argument("--mu-range", type=str, required=True, help="lo:hi:n")
    p.add_argument("--a-rel-range", type=str, required=True,
                   help="lo:hi:n in multiples of a0(mu)")
    p.add_argument("--with-ma", action="store_true")
    p.add_argument("--with-level", action="store_true")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {}
    for key in ("kind", "b", "sigma", "profile", "a1", "witness_out",
                "trace_csv", "case", "init", "dt", "t_end", "probe", "eps",
                "amp", "with_ma", "with_level"):
        if hasattr(args, key) and getattr(args, key) is not None:
            extra[key] = getattr(args, key)
    if getattr(args, "mass_multiple", None) is not None:
        extra["mass_multiple"] = args.mass_multiple
    if getattr(args, "n_values", None):
        extra["n_values"] = [float(x) for x in args.n_values.split(",")]
    if getattr(args, "a_values", None):
        extra["a_values"] = [float(x) for x in args.a_values.split(",")]
    if getattr(args, "steps", None):
        extra["steps"] = args.steps
    if getattr(args, "mu_range", None):
        extra["mu_range"] = _parse_range(args.mu_range)
    if getattr(args, "a_rel_range", None):
        extra["a_rel_range"] = _parse_range(args.a_rel_range)
    fmt = "csv" if getattr(args, "csv", False) or args.command == "sweep" else "json"
    return RunConfig(command=args.command, dim=args.dim, q=args.q, mu=args.mu,
                     a_spec=args.a, grid_n=args.grid_n, r_max=args.r_max,
                     grading=args.grading, origin_blend=args.origin_blend,
                     tol=args.tol,
                     out_path=args.out, out_format=fmt, extra=extra)


_COMMANDS = {
    "constants": _cmd_constants,
    "profile": _cmd_profile,
    "fiber": _cmd_fiber,
    "minimize": _cmd_minimize,
    "subadd": _cmd_subadd,
    "mountain-pass": _cmd_mountain_pass,
    "cpo": _cmd_cpo,
    "evolve": _cmd_evolve,
    "sweep": _cmd_sweep,
}


def run(cfg: RunConfig) -> int:
    try:
        if cfg.command == "cpo" and cfg.extra.get("steps"):
            k = int(cfg.extra["steps"])
            if int(cfg.extra["case"]) == 1:
                cfg.extra.setdefault("n_values", [5.0, 10.0, 20.0, 40.0][:k])
            else:
                cfg.extra.setdefault("a_values", [0.1, 0.01, 0.001][:k])
        result = _COMMANDS[cfg.command](cfg)
    except (DomainError, fnl.RegimeError, fnl.StructuralAnomalyError,
            profiles.ShootingError, ValueError, RuntimeError) as exc:
        err = {"schema_version": SCHEMA_VERSION,
               "error_kind": getattr(exc, "kind", type(exc).__name__),
               "message": str(exc),
               "context": getattr(exc, "context", {"command": cfg.command})}
        _emit(err, cfg.out_path)
        return 1
    if isinstance(result, str):   # CSV payloads
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8") as fh:
                fh.write(result)
        else:
            sys.stdout.write(result)
        return 0
    _emit(result, cfg.out_path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
