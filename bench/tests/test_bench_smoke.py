"""Smoke test of the benchmark: every workload on a tiny instance.

Run with ``python -m pytest bench/tests``.  Asserts that the output checks
pass and that every metric named in BENCHMARK.json is reported; it
asserts no timing.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

TINY = dict(degree=12, queries=8, query_len=(3, 12), cli_reps=1, setup_reps=1)


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture(scope="module", autouse=True)
def library():
    assert run.load_library() is not None


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_workload_passes_checks_and_reports_every_metric(name, trace):
    spec = dataclasses.replace(run.WORKLOADS[name], **TINY)
    result, lines = run.run(spec, seed=3, seconds=0, trace=trace)
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    report = "\n".join(lines)
    for metric in declared:
        assert metric in report
    assert "failed_frac" in report


def test_layer_counts_repeat_for_the_same_seed():
    spec = dataclasses.replace(run.WORKLOADS["random_wide"], **TINY)
    first, _ = run.run(spec, seed=5, seconds=0, trace=True)
    second, _ = run.run(spec, seed=5, seconds=0, trace=True)
    counts = [k for k, unit in _declared("per_layer").items() if unit != "s"]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]


def _bench_command(cwd, *flags):
    return subprocess.run([sys.executable, *flags, os.path.join("bench", "run.py"),
                           "--workload", "check_suite", "--seconds", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench_command(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_to_run_optimized():
    proc = _bench_command(ROOT, "-O")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
