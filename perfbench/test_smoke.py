"""Smoke test of the benchmark itself, at n = p = 20 and one second per run.

    python3 -m pytest perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that the result line parses, that traced counts repeat
exactly, and that the benchmark fails without a varest source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = (".calls", ".gflop", "sorted_melems", "initial_calls", "selected_size", "csv_mb")


def run_bench(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric(workload, trace):
    metrics = result_of(run_bench(workload, trace))["metrics"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(run_bench(workload, 1))["metrics"] for _ in range(2))
    counts = [name for name in first if name.endswith(EXACT)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_absent_function_is_reported_not_fatal():
    sys.path[:0] = [str(HERE)]
    import run
    from tracer import Tracer

    run.import_varest()
    tracer = Tracer(("model.build_w", "model.no_such_function"))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["model.no_such_function"]
    tracer.absent.append("model.build_w")  # as if a refactor had removed it
    metrics = run.layer_metrics(tracer, datasets=1, overhead_pct=0.0)
    assert metrics["model.build_w.calls"]["value"] is None
    assert metrics["kernels.gram.calls"]["value"] == 0


def test_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
