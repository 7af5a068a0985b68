"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop with one client: a single process runs its
ops serially, each op starting when the previous one has finished.  An op
is one timed unit: one CLI process (`cli_cold`), one in-process
``sweep`` over a (mu, a/a0) lattice at one (N, q) pair (`atlas`), or one
trajectory (`dynamics`).  Failures are counted per CLI invocation, per
sweep row and per trajectory.

The checks use oracles that share no code with the solver: closed forms
(the sharp Sobolev constant), the regime side that the lattice itself put
a point on, the paper's energy window, and conservation bounds.  A failed
check is counted and reported; it never aborts the run.  The failures
listed in KNOWN_DEFECTS are defects of the program that the benchmark
shows on purpose; they count in ``failed`` like any other, but they do not
make the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from tracing import clear_caches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# (workload, op-key prefix, check) triples of known program defects.
#  - At (N, q) = (3, 3.2) the minimizer outgrows r_max = 50 and the sweep
#    reports m_a >= 0 on part of the lattice below a0.
# Two more defects fail no check here.  At (6, 2.2) minimize_local does not
# converge, and the sweep prints m_a without reading `converged`; only the
# traced run's minimize.converged_ratio shows it.  At isolated lattice
# points the descent runs to its 20000-iteration cap (about 17 s instead of
# 0.2 s), e.g. (N, q) = (4, 2.5), mu = 0.46875, a/a0 = 0.44921875 (seed 11),
# while lower mu and a/a0 converge quickly; such a seed shows as a slow run.
KNOWN_DEFECTS = {("atlas", "sweep N=3 q=3.2", "m_a<0")}


def sobolev_exact(dim: int) -> float:
    """S = pi N (N-2) (Gamma(N/2) / Gamma(N))^(2/N)."""
    return math.pi * dim * (dim - 2) * (math.gamma(dim / 2) / math.gamma(dim)) ** (2.0 / dim)


@dataclass
class Op:
    key: str
    spec: object
    n: int = 0            # grid size, for the per-size step rates of `dynamics`


@dataclass
class OpResult:
    key: str
    seconds: float
    attempted: int
    work: float
    traced: bool
    failures: list = field(default_factory=list)   # (message, known)
    spans: list | None = None
    import_s: float | None = None


def is_known(workload, key, check):
    return any(w == workload and key.startswith(k) and c == check
               for w, k, c in KNOWN_DEFECTS)


def import_program():
    """Import nlscrit.cli from the checkout; returns the import time."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nlscrit.cli  # noqa: F401
    return time.perf_counter() - t0


@contextlib.contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the duration of the block, if any."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


class Workload:
    """Set-up, a seeded op list, and one op run at a time (traced when a
    tracer is given).  `import_s` is the in-process import time, if any."""

    name = ""
    import_s = None

    def begin_pass(self):
        pass

    def finish(self):
        pass


# ---------------------------------------------------------------------------
# cli_cold: the README examples, each a fresh process

README = (
    ("constants", "constants --dim 3 --q 2.5 --mu 1 --a auto-a0"),
    ("profile", "profile --kind weinstein --dim 3 --q 2.5 --out Q.json"),
    ("fiber", "fiber --profile Q.json --dim 3 --q 2.5 --mu 1 --a 0.5a0"),
    ("minimize", "minimize --dim 3 --q 2.5 --mu 1 --a 0.5a0"),
    ("subadd", "subadd --dim 3 --q 2.5 --mu 1 --a 0.5a0 --a1 2.0"),
    ("mountain_pass", "mountain-pass --dim 3 --q 2.5 --mu 1 --a 0.5a0 "
                      "--trace-csv trace.csv"),
    ("cpo1", "cpo --case 1 --dim 4 --q 3 --mu 1 --r-max 200"),
    ("cpo2", "cpo --case 2 --dim 4 --q 3 --mu 1 --mass-multiple 2 --steps 3"),
    ("evolve", "evolve --init Q.json --dim 3 --q 2.5 --mu 1 --a 0.5a0 "
               "--dt 2e-3 --t-end 10 --probe stability --eps 1e-2"),
    ("sweep", "sweep --dim 3 --q 2.5 --mu-range 0.5:2:10 --a-rel-range 0.5:1.5:10 "
              "--with-ma"),
)

# A small version for the smoke test: same commands, small grids.
README_TINY = (
    ("constants", "constants --dim 3 --q 2.5 --mu 1 --a auto-a0"),
    ("profile", "profile --kind weinstein --dim 3 --q 2.5 --grid-n 1024 --out Q.json"),
    ("fiber", "fiber --profile Q.json --dim 3 --q 2.5 --mu 1 --a 0.5a0"),
)

_FILES = {"profile": ("Q.json",), "mountain_pass": ("trace.csv",)}


class CliCold(Workload):
    """Cold `python -m nlscrit.cli` processes in a scratch working directory,
    a fresh one per pass."""

    name = "cli_cold"

    def __init__(self, commands=README):
        self.commands = commands
        self.base = None
        self.workdir = None
        self.passes = 0
        self.first_output: dict = {}
        self.env = {k: v for k, v in os.environ.items() if k != "NLS_THREADS"}
        self.env["PYTHONPATH"] = SRC

    def setup(self):
        self.base = os.path.join(SCRATCH, f"cli_cold-{os.getpid()}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self.begin_pass()

    def plan(self, seed):
        return [Op(key, args.split()) for key, args in self.commands]

    def begin_pass(self):
        self.workdir = os.path.join(self.base, f"pass{self.passes}")
        os.makedirs(self.workdir)
        self.passes += 1

    def finish(self):
        if self.base:
            shutil.rmtree(self.base, ignore_errors=True)

    def run(self, op, tracer):
        spans_path = None
        if tracer is None:
            cmd = [sys.executable, "-m", "nlscrit.cli", *op.spec]
        else:
            spans_path = os.path.join(self.workdir, f"spans-{op.key}.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), spans_path, *op.spec]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              capture_output=True, timeout=170)
        seconds = time.perf_counter() - t0
        res = OpResult(op.key, seconds, 1, 1.0, tracer is not None)
        if spans_path is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                traced = json.load(fh)
            os.remove(spans_path)
            res.spans, res.import_s = traced["spans"], traced["import_s"]
        files = {}
        for name in _FILES.get(op.key, ()):
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        msgs = self.check(op.key, proc.returncode, proc.stdout, files)
        digest = hashlib.sha256(proc.stdout + b"".join(
            files[k] for k in sorted(files))).hexdigest()
        first = self.first_output.setdefault(op.key, digest)
        if first != digest:
            msgs.append("output bytes differ from the first run of this command")
        res.failures = [(f"{op.key}: " + "; ".join(msgs), False)] if msgs else []
        return res

    @staticmethod
    def check(key, code, stdout, files):
        if code != 0:
            return [f"exit code {code}: {stdout[-300:].decode(errors='replace')}"]
        if key == "sweep":
            table_error, per_row = check_sweep(stdout.decode(), 3, [
                0.5 + (1.5 - 0.5) * i / 9 for i in range(10)], 10)
            return [table_error] if table_error else \
                [m for row in per_row for _, m in row]
        text = stdout
        if key == "profile":
            if stdout or "Q.json" not in files:
                return ["profile did not write exactly its --out file"]
            text = files["Q.json"]
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"not exactly one JSON document: {exc}"]
        if not isinstance(doc, dict) or doc.get("schema_version") != 1:
            return ["schema_version is not 1"]
        msgs = []
        if key == "constants":
            s_ref = sobolev_exact(3)
            if not abs(doc["S"] - s_ref) <= 5e-3 * s_ref:
                msgs.append(f"S = {doc['S']!r}, closed form {s_ref!r}")
            if doc["regime"] != "Omega2":
                msgs.append(f"auto-a0 classified {doc['regime']!r}, not Omega2")
        elif key == "minimize":
            if not (doc["energy"] < 0 and doc["lambda"] < 0
                    and abs(doc["pohozaev"]) < 1e-6):
                msgs.append(f"minimizer E={doc['energy']!r} lambda={doc['lambda']!r} "
                            f"P={doc['pohozaev']!r}")
        elif key == "mountain_pass":
            if doc["accepted"] is not True:
                msgs.append("mountain-pass estimate not accepted")
        elif key in ("cpo1", "cpo2"):
            if doc["monotone_decreasing"] is not True:
                msgs.append("cpo energies not monotone decreasing")
        elif key == "subadd":
            if not doc["gap"] >= -1e-6:
                msgs.append(f"subadditivity gap {doc['gap']!r} < -1e-6")
        return msgs


def check_sweep(text, dim, rels, mu_n):
    """(table error or None, failed checks per row) of a sweep CSV.  Rows
    come mu-major over the lattice, so row i has a/a0 = rels[i % len(rels)]."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["mu", "a", "regime", "m_a", "level", "error"]:
        return "sweep header missing or wrong", []
    rows = rows[1:]
    if len(rows) != mu_n * len(rels):
        return f"sweep has {len(rows)} rows, lattice has {mu_n * len(rels)}", []
    return None, [_check_row(row, rels[i % len(rels)], dim)
                  for i, row in enumerate(rows)]


def _check_row(row, rel, dim):
    """Failed checks of one sweep row as (check, message) pairs."""
    mu, _, regime, m_a, level, error = row
    where = f"mu={mu} a/a0={rel!r}"
    if error:
        return [("error", f"{where}: row error {error}")]
    want = "Omega1" if rel < 1.0 else ("Omega2" if rel == 1.0 else "Omega3")
    if regime != want:
        return [("regime", f"{where}: classified {regime!r}, not {want}")]
    if want == "Omega3":
        return []
    out = []
    if not (m_a and float(m_a) < 0.0):
        out.append(("m_a<0", f"{where}: m_a = {m_a or 'missing'}, not < 0"))
    if level and m_a:
        upper = float(m_a) + sobolev_exact(dim) ** (dim / 2) / dim
        if not 0.0 < float(level) < upper:
            out.append(("level", f"{where}: level {level} outside (0, {upper!r})"))
    return out


# ---------------------------------------------------------------------------
# atlas: in-process regime sweeps with --with-ma --with-level

PAIRS = ((3, "2.5"), (3, "3.2"), (4, "2.5"), (5, "2.4"), (6, "2.2"))


class Atlas(Workload):
    """One in-process ``sweep`` per (N, q) pair over a 3 x 5 lattice: three
    mu values, and a/a0 = 1-3d, 1-2d, 1-d, 1, 1+d.  d is a multiple of 1/256,
    so every lattice value, a/a0 = 1 included, is exact in binary and the
    borderline regime Omega2 is always exercised."""

    name = "atlas"

    def __init__(self, pairs=PAIRS, mu_n=3, extra=()):
        self.pairs = pairs
        self.mu_n = mu_n
        self.extra = list(extra)

    def setup(self):
        self.import_s = import_program()

    def plan(self, seed):
        rng = random.Random(seed)
        ops = []
        for dim, q in self.pairs:
            d = rng.randint(44, 52) / 256.0
            mu_lo, mu_hi = rng.randint(28, 36) / 64.0, rng.randint(116, 140) / 64.0
            rels = [1.0 - 3 * d, 1.0 - 2 * d, 1.0 - d, 1.0, 1.0 + d]
            argv = ["sweep", "--dim", str(dim), "--q", q,
                    "--mu-range", f"{mu_lo!r}:{mu_hi!r}:{self.mu_n}",
                    "--a-rel-range", f"{rels[0]!r}:{rels[-1]!r}:5",
                    "--with-ma", "--with-level", *self.extra]
            ops.append(Op(f"sweep N={dim} q={q}", (dim, argv, rels)))
        return ops

    def run(self, op, tracer):
        import nlscrit.cli
        dim, argv, rels = op.spec
        clear_caches()
        buf = io.StringIO()
        with traced(tracer), contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = nlscrit.cli.main(argv)
            seconds = time.perf_counter() - t0
        rows = self.mu_n * len(rels)
        res = OpResult(op.key, seconds, rows, float(rows), tracer is not None,
                       spans=tracer.take() if tracer is not None else None)
        table_error, per_row = check_sweep(buf.getvalue(), dim, rels, self.mu_n)
        if code != 0 or table_error:
            res.failures = [(f"{op.key}: {table_error or f'exit code {code}'}", False)] * rows
            return res
        for checks in per_row:
            if checks:
                known = all(is_known(self.name, op.key, c) for c, _ in checks)
                res.failures.append(
                    (f"{op.key} " + "; ".join(m for _, m in checks), known))
        return res


# ---------------------------------------------------------------------------
# dynamics: relaxation Crank-Nicolson trajectories at two mesh sizes

@dataclass
class DynamicsSize:
    n_small: int = 2048
    n_large: int = 8192
    t_standing: float = 10.0
    t_stability: float = 20.0
    t_large: float = 2.0
    t_blowup: float = 10.0


class Dynamics(Workload):
    """The set-ups of the test suite's dynamics fixtures at (N, q, mu) =
    (3, 2.5, 1) and a = a0/2: a standing wave and a stability probe at
    n_small (origin_blend 0.5, dt 2e-3), one standing-wave run at n_large
    (origin_blend 0.5) and a blow-up probe from the mountain-pass witness on
    the fine-origin n_large mesh."""

    name = "dynamics"

    def __init__(self, size=DynamicsSize()):
        self.size = size
        self.ctx = None

    def setup(self):
        self.import_s = import_program()
        import nlscrit as nc
        from nlscrit import minimize as mn
        from nlscrit import mountainpass as mp

        sz = self.size
        base = nc.ProblemParams(3, 2.5, 1.0, 1.0)
        S, C = nc.sobolev_constant(3), nc.gn_constant(base)
        params = base.with_mass(nc.critical_mass_a0(base, S, C) / 2.0)
        thr = nc.thresholds(params, S, C)

        def minimizer(grid):
            rep = mn.minimize_local(params, grid, thresholds=thr)
            if not rep.converged:
                raise RuntimeError(f"set-up minimizer did not converge on n={grid.n}")
            return rep

        soliton = nc.make_grid(3, 50.0, sz.n_large)
        est = mp.estimate_mp_level(params, soliton, minimizer=minimizer(soliton),
                                   thresholds=thr)
        small = nc.make_grid(3, 30.0, sz.n_small, origin_blend=0.5)
        large = nc.make_grid(3, 30.0, sz.n_large, origin_blend=0.5)
        focus = nc.make_grid(3, 30.0, sz.n_large, origin_blend=0.002)
        w = nc.resample(est.witness, focus)
        witness = nc.Profile(focus, (params.a / nc.mass(focus, w)) ** 0.5 * w.values)
        self.ctx = {"params": params, "small": small, "large": large,
                    "focus": focus, "u_small": minimizer(small).final,
                    "u_large": minimizer(large).final, "witness": witness}

    def plan(self, seed):
        eps = random.Random(seed).uniform(0.005, 0.02)
        sz = self.size
        return [Op(f"evolve n{sz.n_small}", ("evolve", "small", sz.t_standing), sz.n_small),
                Op(f"stability n{sz.n_small}", ("stability", "small", sz.t_stability, eps),
                   sz.n_small),
                Op(f"evolve n{sz.n_large}", ("evolve", "large", sz.t_large), sz.n_large),
                Op(f"blowup n{sz.n_large}", ("blowup", "focus", sz.t_blowup), sz.n_large)]

    def run(self, op, tracer):
        import nlscrit as nc
        from nlscrit import dynamics as dyn

        c = self.ctx
        kind, mesh, t_end = op.spec[:3]
        grid, p = c[mesh], c["params"]
        with traced(tracer):
            t0 = time.perf_counter()
            if kind == "evolve":
                u = c[f"u_{mesh}"]
                out = summary = dyn.evolve(p, grid, nc.Profile(grid, u.values.astype(complex)),
                                           dt=2e-3, t_end=t_end, reference=u, stride=50)
            elif kind == "stability":
                out = dyn.stability_probe(p, grid, c["u_small"], op.spec[3], t_end, dt=2e-3)
                summary = out.summary
            else:
                out = dyn.blowup_probe(p, grid, c["witness"], 1.05, t_end,
                                       dt=1e-3, stride=10)
                summary = out.summary
            seconds = time.perf_counter() - t0
        res = OpResult(op.key, seconds, 1, float(summary.steps), tracer is not None,
                       spans=tracer.take() if tracer is not None else None)
        msgs = []
        if kind == "evolve":
            m_drift = max(abs(m - summary.mass[0]) for m in summary.mass) / t_end
            e_drift = max(abs(e - summary.energy[0]) for e in summary.energy) / t_end
            if not m_drift < 1e-8:
                msgs.append(f"mass drift {m_drift:.3e} per unit time >= 1e-8")
            if not e_drift < 1e-6:
                msgs.append(f"energy drift {e_drift:.3e} per unit time >= 1e-6")
        elif kind == "stability":
            if not (out.growth_factor < 10.0 and not summary.blowup_flag):
                msgs.append(f"stability growth {out.growth_factor!r} (blow-up flag "
                            f"{summary.blowup_flag})")
        elif not (out.blowup_flag and out.blowup_time is not None
                  and out.blowup_time < t_end):
            msgs.append(f"blow-up flag not raised before t={t_end}")
        res.failures = [(f"{op.key}: " + "; ".join(msgs), False)] if msgs else []
        return res


WORKLOADS = {
    "cli_cold": {"full": lambda: CliCold(), "tiny": lambda: CliCold(README_TINY)},
    "atlas": {"full": lambda: Atlas(),
              "tiny": lambda: Atlas(pairs=((3, "2.5"),), mu_n=1,
                                    extra=("--grid-n", "2048"))},
    "dynamics": {"full": lambda: Dynamics(),
                 "tiny": lambda: Dynamics(DynamicsSize(512, 2048, 0.2, 0.2, 0.1, 10.0))},
}
