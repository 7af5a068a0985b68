"""Property test of the CLI contract: every argv of every command exits 0,
1 or 2; exits 0 and 1 print exactly one document (a CSV table for `sweep`
and `evolve --csv`) on stdout and nothing on stderr; no argv ends in a
traceback."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import nlscrit as nc
from nlscrit import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DIMS = ["3", "4", "5", "6", "2", "0", "x"]
QS = ["2.5", "3", "auto", "2.01", "2", "6", "1e400", "nan", "q"]
FLOATS = ["1", "0.5", "2.0", "0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "z"]
MASSES = ["auto-a0", "0.5a0", "1.0", "0.2", "-1", "0", "nan", "inf", "xa0", "a0", ""]
GRID_N = ["16", "64", "256", "15", "0", "-8", "1.5"]
R_MAX = ["10", "30", "1e4", "0", "-5", "nan", "inf", "1e-300", "1e-3"]
TOLS = ["1e-8", "1e-6", "0", "-1", "nan", "inf"]
# lo:hi:n lattices of `sweep`; n <= 2 keeps a run to at most two solves
RANGES = ["0.5:1.5:2", "1:1:1", "0.9:1.1:2", "1:2:0", "1:2:-3", "nan:1:2", "1:inf:1",
          "1:2", "x:1:1"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A JSON profile on a 256-node evolution grid and the same data as CSV."""
    root = tmp_path_factory.mktemp("fuzz")
    g = nc.make_grid(3, 10.0, 256, origin_blend=0.5)
    vals = 0.4 * np.exp(-g.nodes**2 / 2.0)
    nc.save_profile(str(root / "u.json"), nc.Profile(g, vals))
    with open(root / "u.csv", "w", encoding="utf-8") as fh:
        fh.write("r,value\n")
        fh.writelines(f"{r!r},{v!r}\n" for r, v in zip(g.nodes, vals))
    return {"json": str(root / "u.json"), "csv": str(root / "u.csv"),
            "missing": str(root / "missing.json")}


def optional(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


problem = st.tuples(optional("--dim", DIMS), optional("--q", QS),
                    optional("--mu", FLOATS), optional("--a", MASSES),
                    optional("--mass-multiple", FLOATS))
# --grid-n is always given: its default, 8192, is no fuzzing size
grid_flags = st.tuples(st.sampled_from(GRID_N).map(lambda n: ["--grid-n", n]),
                       optional("--r-max", R_MAX),
                       optional("--grading", ["0", "1", "-1", "nan"]),
                       optional("--origin-blend", ["0", "0.5", "1", "2", "nan"]))
# --t-end = k * --dt with k <= 50 when both are valid, so no run takes long
time_flags = st.one_of(
    st.tuples(st.sampled_from([1e-3, 2e-3, 1e-2, 0.1]), st.integers(1, 50)).map(
        lambda p: ["--dt", repr(p[0]), "--t-end", repr(p[0] * p[1])]),
    st.tuples(st.sampled_from(["0", "-1e-3", "nan", "inf", "1e-3"]),
              st.sampled_from(["0", "-1", "nan", "inf", "1e-3"])).map(
        lambda p: ["--dt", p[0], "--t-end", p[1]]))
cpo_tail = st.tuples(
    st.sampled_from(["1", "2", "3"]).map(lambda c: ["--case", c]),
    optional("--steps", ["1", "2", "0", "-1"]),
    optional("--n-values", ["5,10", "5", "3,x", "nan", "1e300", "-5"]),
    optional("--a-values", ["0.1,0.01", "0.1", "-0.1", "0", "nan", "inf"]))
evolve_tail = st.tuples(
    st.sampled_from(["json", "csv", "missing"]), time_flags,
    optional("--probe", ["none", "stability", "blowup", "other"]),
    optional("--eps", FLOATS), optional("--amp", ["1.05", "1", "0.5"] + FLOATS),
    st.sampled_from([[], ["--csv"]]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["constants", "profile", "fiber", "minimize", "subadd",
                                    "mountain-pass", "cpo", "evolve", "sweep"]))
    if command == "sweep":   # no mass flags: the lattice sets (mu, a)
        problem_flags = draw(problem)[:2]
        argv = [command] + sum(problem_flags, []) + sum(draw(grid_flags), []) + [
            "--mu-range", draw(st.sampled_from(RANGES)),
            "--a-rel-range", draw(st.sampled_from(RANGES)),
            "--with-ma", "--with-level"] + draw(optional("--tol", TOLS))
        return argv
    argv = [command] + sum(draw(problem), [])
    if command == "mountain-pass":
        argv += sum(draw(grid_flags), [])
    elif command == "profile":
        argv += sum(draw(grid_flags), []) + [
            "--kind", draw(st.sampled_from(["weinstein", "bubble", "gaussian", "other"]))]
        argv += draw(optional("--b", FLOATS)) + draw(optional("--sigma", FLOATS))
    elif command in ("minimize", "subadd"):
        argv += sum(draw(grid_flags), []) + draw(optional("--tol", TOLS))
        if command == "subadd":
            argv += draw(optional("--a1", FLOATS))
    elif command == "cpo":
        argv += sum(draw(grid_flags), []) + sum(draw(cpo_tail), [])
    elif command == "fiber":
        argv += sum(draw(grid_flags), []) + ["--profile", draw(st.sampled_from(
            ["json", "csv", "missing"]))]
    elif command == "evolve":
        init, times, *rest = draw(evolve_tail)
        argv += sum(draw(grid_flags), []) + ["--init", init] + times + sum(rest, [])
    return argv


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(argv=argvs())
def test_cli_contract_is_total(inputs, argv):
    argv = [inputs.get(a, a) if prev in ("--profile", "--init") else a
            for prev, a in zip([None] + argv, argv)]
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        return
    assert err == ""
    if code == 0 and ("--csv" in argv or argv[0] == "sweep"):
        rows = list(csv.reader(io.StringIO(out)))
        header = (["mu", "a", "regime", "m_a", "level", "error"] if argv[0] == "sweep"
                  else ["t", "mass", "energy", "grad_norm", "h1_distance"])
        assert rows[0] == header
        assert len(rows) > 1
        return
    doc = json.loads(out)   # exactly one document: trailing text fails to parse
    assert doc["schema_version"] == 1
    assert ("error_kind" in doc) == (code == 1)
