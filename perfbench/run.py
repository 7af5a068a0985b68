"""nlscrit benchmark.

    python3 perfbench/run.py --workload {cli_cold,atlas,dynamics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.
The run keeps starting ops until the next one would end after S seconds,
but always completes one whole pass over the workload's op list.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the seed, the machine and package versions, every metric by name
with its unit and sample count, and each failed check.

End-to-end metrics are computed from per-op medians, so a run that ends in
the middle of a pass weighs every op type the same:

* ``wall_s``: one pass over the op list, the sum of the per-op medians;
* ``op_geomean_s``: the geometric mean over op types of the per-op medians
  (README commands in ``cli_cold``, (N, q) sweeps in ``atlas``,
  trajectories in ``dynamics``), which weighs a change to a short op as
  much as one to a long op;
* ``work_per_s``: work of one pass over ``wall_s`` (commands, sweep rows,
  accepted time steps);
* ``setup_s``: median over three fresh processes of the time from process
  start to the first op;
* ``peak_rss_mb``: peak resident memory of the process running the ops
  (of the child processes for ``cli_cold``).

The traced run (``--trace 1``) runs each op once untraced and once with
span wrappers installed (tracing.py), alternating which goes first.
Per-layer busy and self times and call counts are per pass; ratios and
percentiles are over every traced call.  The spans are written to
``.perfbench_out/``.  perfbench/layer_map.json names the end-to-end metric
and workload each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads as wls

BENCHMARK = os.path.join(wls.ROOT, "BENCHMARK.json")
LAYER_MAP = os.path.join(wls.HERE, "layer_map.json")
OUT_DIR = os.path.join(wls.ROOT, ".perfbench_out")
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "NLS_THREADS")


def environment(seed) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                caches[f"L{level}{kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"seed": seed, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def setup_times(workload, size) -> list:
    """Time from process start to the end of set-up, in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                                 "--setup-probe", "--workload", workload,
                                 "--size", size],
                                cwd=wls.ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        out.append(time.perf_counter() - t0)
        proc.stdout.read()
        if proc.wait(timeout=170) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
    return out


def measure(wl, plan, seconds, trace) -> list:
    """Run passes over `plan` until the next op would end after `seconds`;
    the first pass always completes."""
    tracer = tracing.Tracer() if trace else None
    records, expected = [], {}
    t0 = time.perf_counter()
    first = True
    while True:
        for op in plan:
            if not first and time.perf_counter() - t0 + expected[op.key] > seconds:
                return records
            if tracer is None:
                pair = [wl.run(op, None)]
            else:
                order = (None, tracer) if len(records) // 2 % 2 == 0 else (tracer, None)
                pair = [wl.run(op, t) for t in order]
            records += pair
            expected[op.key] = sum(r.seconds for r in pair)
        first = False
        wl.begin_pass()


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(wl, plan, records, setup) -> dict:
    med = {op.key: _median(r.seconds for r in records if r.key == op.key) for op in plan}
    work = {op.key: _median(r.work for r in records if r.key == op.key) for op in plan}
    wall = sum(med.values())
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    return {"setup_s": _median(setup), "wall_s": wall,
            "op_geomean_s": statistics.geometric_mean(med.values()),
            "work_per_s": sum(work.values()) / wall,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def per_layer(wl, plan, records) -> dict:
    traced = [(r, tracing.summarize(r.spans)) for r in records if r.traced]
    keys = [op.key for op in plan]

    def per_pass(name, field):
        total = 0.0
        for key in keys:
            vals = [s[name][field] if name in s else 0.0 for r, s in traced if r.key == key]
            total += statistics.fmean(vals) if vals else 0.0
        return total

    def every(name, field):
        return [x for _, s in traced if name in s for x in (
            s[name][field] if isinstance(s[name][field], list) else [s[name][field]])]

    def ratio(num, den):
        return sum(num) / sum(den) if sum(den) else 0.0

    out = {}
    if wl.name == "cli_cold":
        out["cli.import_s"] = _median(r.import_s for r, _ in traced if r.import_s is not None)
    else:
        out["cli.import_s"] = wl.import_s
    for key, _ in wls.README:
        vals = [s["cli.main"]["busy"] for r, s in traced
                if wl.name == "cli_cold" and r.key == key and "cli.main" in s]
        out[f"cli.cmd.{key}_s"] = statistics.fmean(vals) if vals else 0.0
    out["cli.main.self_s"] = per_pass("cli.main", "self")
    for name in ("constants.gn_constant", "constants.thresholds",
                 "profiles.weinstein_ground_state", "grid.rescale",
                 "functionals.fiber_critical_points", "minimize.minimize_local"):
        out[f"{name}.calls"] = per_pass(name, "calls")
    for name in ("constants.gn_constant", "constants.sobolev_constant",
                 "constants.thresholds", "profiles.weinstein_ground_state",
                 "grid.make_grid", "grid.rescale", "functionals.fiber_critical_points",
                 "mountainpass.project_to_pohozaev_minus", "minimize.minimize_local",
                 "mountainpass.cpo_sequence_case1", "mountainpass.cpo_sequence_case2",
                 "minimize.subadditivity_check", "dynamics.evolve",
                 "dynamics.blowup_probe"):
        out[f"{name}.busy_s"] = per_pass(name, "busy")
    out["mountainpass.estimate_mp_level.self_s"] = per_pass("mountainpass.estimate_mp_level",
                                                            "self")
    out["constants.gn_constant.miss_ratio"] = ratio(every("constants.gn_constant", "gn_miss"),
                                                    every("constants.gn_constant", "calls"))
    levels = every("mountainpass.estimate_mp_level", "facts")
    out["mountainpass.admissible_ratio"] = ratio([f["admissible"] for f in levels],
                                                 [f["family"] for f in levels])
    solves = every("minimize.minimize_local", "facts")
    out["minimize.iterations_p50"] = _median(f["iterations"] for f in solves)
    out["minimize.converged_ratio"] = ratio([f["converged"] for f in solves],
                                            [1] * len(solves))
    steps = every("dynamics.evolve", "facts")
    for n in (2048, 8192):
        at_n = [f for f in steps if f["n"] == n]
        out[f"dynamics.us_per_step.n{n}"] = 1e6 * ratio([f["seconds"] for f in at_n],
                                                        [f["steps"] for f in at_n])
    out["dynamics.dt_final_min"] = min((f["dt_final"] for f in steps), default=0.0)
    plain = sum(r.seconds for r in records if not r.traced)
    out["trace.overhead_ratio"] = sum(r.seconds for r in records if r.traced) / plain
    attempted = sum(r.attempted for r in records)
    out["error_ratio"] = sum(len(r.failures) for r in records) / attempted
    return out


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    xs = sorted(samples)
    if len(xs) < 11:
        return None
    return 100.0 * (len(xs) - 10) / len(xs), xs[-11]


def report(wl, plan, records, metrics, declared, trace) -> list:
    lines = []
    for m in declared:
        lines.append(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if trace:
        with open(LAYER_MAP, encoding="utf-8") as fh:
            moves = json.load(fh)
        lines = [f"{line}   -> {', '.join(f'{e} on {w}' for e, w in moves[m['name']])}"
                 for line, m in zip(lines, declared)]
        return lines
    for op in plan:
        xs = [r.seconds for r in records if r.key == op.key]
        lines.append(f"# op {op.key}: n={len(xs)} median={_median(xs):.4f} s "
                     f"min={min(xs):.4f} max={max(xs):.4f}")
    xs = [r.seconds for r in records]
    t = tail(xs)
    lines.append(f"# op time over all ops: n={len(xs)} p50={_median(xs):.4f} s "
                 + (f"p{t[0]:.0f}={t[1]:.4f} s" if t else
                    "(fewer than 11 samples: no percentile has ten beyond it)"))
    med = [_median(r.seconds for r in records if r.key == op.key) for op in plan]
    if wl.name in ("cli_cold", "atlas"):
        name = "cmd_p50_s" if wl.name == "cli_cold" else "sweep_p50_s"
        lines.append(f"# {wl.name} {name} = {_median(med):.6g} s "
                     f"(median over the {len(med)} per-op medians)")
    if wl.name == "atlas":
        lines.append(f"# atlas points_per_s = work_per_s = {metrics['work_per_s']:.6g} 1/s")
    if wl.name == "dynamics":
        for n in sorted({op.n for op in plan}):
            keys = [op.key for op in plan if op.n == n]
            secs = sum(_median(r.seconds for r in records if r.key == k) for k in keys)
            work = sum(_median(r.work for r in records if r.key == k) for k in keys)
            lines.append(f"# dynamics steps_per_s_n{n} = {work / secs:.6g} 1/s")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test size")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(wls.SRC, "nlscrit", "cli.py")):
        print(f"program source not found under {wls.SRC}", file=sys.stderr)
        return 2
    os.environ.pop("NLS_THREADS", None)
    wl = wls.WORKLOADS[args.workload][args.size]()
    if args.setup_probe:
        try:
            wl.setup()
            print("ready", flush=True)
        finally:
            wl.finish()
        return 0

    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    compileall.compile_dir(os.path.join(wls.SRC, "nlscrit"), quiet=1)
    print(f"# nlscrit benchmark workload={args.workload} size={args.size} "
          f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    setup = [] if args.trace else setup_times(args.workload, args.size)
    try:
        wl.setup()
        plan = wl.plan(args.seed)
        records = measure(wl, plan, args.seconds, args.trace)
    finally:
        wl.finish()

    if args.trace:
        metrics = per_layer(wl, plan, records)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"op": r.key, "seconds": r.seconds, "spans": r.spans}
                       for r in records if r.traced], fh)
    else:
        metrics = end_to_end(wl, plan, records, setup)
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    for line in report(wl, plan, records, metrics, declared, args.trace):
        print(line)

    attempted = sum(r.attempted for r in records)
    failures = [f for r in records for f in r.failures]
    unexpected = [msg for msg, known in failures if not known]
    print(f"# checks {args.workload}: attempted={attempted} failed={len(failures)} "
          f"error_ratio={len(failures) / attempted:.4g} known={len(failures) - len(unexpected)} "
          f"unexpected={len(unexpected)}")
    for msg, known in failures:
        print(f"# {'known' if known else 'FAILED'}: {msg}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
