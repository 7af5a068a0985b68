"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads as wls  # noqa: E402

with open(os.path.join(wls.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(wls.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert not trace or got["value"] >= 0
        assert trace or got["value"] > 0
        assert any(line.split("   ->")[0] == f"{m['name']} = {got['value']:.6g} {m['unit']}"
                   for line in lines[:-1])


def test_layer_map_targets_declared_metrics_and_workloads():
    with open(bench.LAYER_MAP, encoding="utf-8") as fh:
        moves = json.load(fh)
    assert set(moves) == {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    names = {w["name"] for w in BENCH["workloads"]}
    for targets in moves.values():
        assert targets and all(e in e2e and w in names for e, w in targets)


def test_failing_op_counts_in_error_ratio():
    bad = ("fiber_3a0", "fiber --profile Q.json --dim 3 --q 2.5 --mu 1 --a 3a0")
    wl = wls.CliCold(wls.README_TINY + (bad,))
    wl.setup()
    try:
        plan = wl.plan(0)
        records = bench.measure(wl, plan, 0, trace=True)
    finally:
        wl.finish()
    failures = [f for r in records for f in r.failures]
    assert len(records) == 2 * len(plan)
    assert len(failures) == 2            # the untraced and the traced run
    assert all(msg.startswith("fiber_3a0: exit code 1") and not known
               for msg, known in failures)
    assert bench.per_layer(wl, plan, records)["error_ratio"] == 2 / len(records)


def test_known_defect_rows_are_counted_not_hidden():
    row = ["0.5", "50.88", "Omega1", "0.0391", "3.2756", ""]
    checks = wls._check_row(row, 0.5, 3)
    assert [c for c, _ in checks] == ["m_a<0"]
    assert wls.is_known("atlas", "sweep N=3 q=3.2", "m_a<0")
    assert not wls.is_known("atlas", "sweep N=3 q=2.5", "m_a<0")
    assert not wls.is_known("atlas", "sweep N=3 q=3.2", "level")
    assert [c for c, _ in wls._check_row(["1", "1", "Omega3", "", "", ""], 1.0, 3)] \
        == ["regime"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(wls.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "atlas", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
