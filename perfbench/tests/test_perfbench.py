"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_DIR = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_declared_metrics(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {
        metric["name"]: metric["unit"]
        for metric in SPEC["per_layer" if trace else "end_to_end"]
    }
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in result["metrics"].values()
    )
    assert "op_failure_rate" in done.stdout


def test_recorded_seed_is_checked_against_its_digests():
    done = bench("--workload", "monitor-stream", "--seed", "1", "--seconds", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "recorded digests" in done.stdout
    assert last_json(done.stdout)["correct"]


def test_altered_op_output_fails_the_run():
    done = bench(
        "--workload", "monitor-stream", "--seed", "7", "--seconds", "1",
        "--size", "tiny", "--tamper-op", "0",
    )
    assert done.returncode == 1
    result = last_json(done.stdout)
    assert not result["correct"] and result["failed"] >= 1
    rate = next(
        line for line in done.stdout.splitlines()
        if line.strip().startswith("op_failure_rate")
    )
    assert float(rate.split()[1]) > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(
        "--workload", "heavy-campaign", "--seed", "1", "--seconds", "1",
        cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_missing_wrap_target_leaves_its_layer_absent(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import layers
    import repro.streaming.monitor as monitor

    monkeypatch.setitem(
        layers.LAYERS, "repair",
        (("repro.core.repair", "RepairController.no_such_method"),),
    )
    original = monitor.run_session
    timer = layers.LayerTimer()
    timer.install()
    try:
        assert timer.absent_layers == ["repair"]
        assert timer.absent == ["repro.core.repair:RepairController.no_such_method"]
        # Bound where the monitor looks the name up, not only where defined.
        assert monitor.run_session is not original
    finally:
        timer.uninstall()
    assert monitor.run_session is original
