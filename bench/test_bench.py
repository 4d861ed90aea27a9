"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_and_emits_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke", "--seed", "3",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for name in names:
            metric = result["metrics"][f"{workload}/{name}"]
            assert metric["value"] == metric["value"], f"{workload}/{name} is NaN"
    for name in ("eval_s", "hierarchy_s", "baseline_samples_per_s", "failed_runs",
                 "trace.overhead_s"):
        assert name in proc.stdout


def test_single_workload_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "container-sweep", "--smoke",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "container-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer("t")
    tracer.phase = "timed"
    with tracer.span("cli.frontier"):
        time.sleep(0.02)
        with tracer.span("solver.anneal_frontier"):
            time.sleep(0.05)
    own = tracer.self_times("timed")
    assert 0.015 < own["cli"] < 0.045
    assert 0.045 < own["solver"] < 0.08
    assert own["measures"] == 0.0
    assert tracer.self_times("setup") == dict.fromkeys(tracing.LAYERS, 0.0)
