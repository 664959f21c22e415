"""Tests for the benchmark measurement library behind ``repro bench``."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.bench import (
    BATCHED_REGIMES,
    ENGINE_SPEEDUP_TARGET,
    append_trajectory,
    batched_fleet_gate_failures,
    engine_gate_failures,
    git_revision,
    measure_batched_fleet,
    run_suites,
    trajectory_entry,
)
from repro.telemetry.report import TelemetryReport


class TestMeasureBatchedFleet:
    def test_tiny_configuration_reports_all_regimes(self):
        results = measure_batched_fleet(memories=4, repeats=1, warmup=False)
        assert results["config"]["memories"] == 4
        assert [row["regime"] for row in results["rows"]] == [
            regime for regime, _, _ in BATCHED_REGIMES
        ]
        for row in results["rows"]:
            assert row["bit_identical"] is True
            assert row["numpy_s"] > 0 and row["batched_s"] > 0
            assert row["speedup"] == row["numpy_s"] / row["batched_s"]
        gated = [row for row in results["rows"] if row["gated"]]
        assert {row["regime"] for row in gated} == {
            "screening",
            "diagnostic",
            "heavy-diagnostic",
        }


class TestGateFailures:
    @staticmethod
    def row(regime="diagnostic", speedup=3.0, target=2.5, gated=True):
        return {
            "regime": regime,
            "gated": gated,
            "speedup_target": target,
            "speedup": speedup,
        }

    def test_passing_rows_produce_no_failures(self):
        assert batched_fleet_gate_failures({"rows": [self.row()]}) == []

    def test_missed_target_reported(self):
        failures = batched_fleet_gate_failures({"rows": [self.row(speedup=1.1)]})
        assert len(failures) == 1
        assert "below the 2.5x target" in failures[0]

    def test_ungated_rows_never_fail(self):
        rows = [self.row(regime="heavy-diagnostic", speedup=0.5, target=None,
                         gated=False)]
        assert batched_fleet_gate_failures({"rows": rows}) == []

    def test_engine_gate_enforces_speedup_floor(self):
        passing = {"single_campaign": {"speedup": ENGINE_SPEEDUP_TARGET + 1}}
        failing = {"single_campaign": {"speedup": 2.0}}
        assert engine_gate_failures(passing) == []
        failures = engine_gate_failures(failing)
        assert len(failures) == 1 and "below the 5x target" in failures[0]


class TestRunSuites:
    def test_engine_suite_quick(self):
        payload, failures = run_suites(("engine",), quick=True)
        assert failures == []
        engine = payload["suites"]["engine"]
        assert engine["single_campaign"]["bit_identical"] is True
        assert engine["single_campaign"]["speedup"] > 1.0
        assert engine["fleet"]["campaigns"] == 4
        assert engine["fleet"]["campaigns_per_sec"] > 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suites(("nope",))


class TestBenchTelemetry:
    def test_instrumented_rows_carry_lane_attribution(self):
        collector = TelemetryReport()
        results = measure_batched_fleet(
            memories=4, repeats=1, warmup=False, telemetry=True,
            collector=collector,
        )
        for row in results["rows"]:
            attribution = row["lane_attribution"]
            assert attribution["march_time_s"] > 0
            assert set(attribution["lanes"]) == {"replay", "table", "clean"}
        # The collector accumulated all three regimes' spans.
        assert collector.span_stats["bench.regime"][0] == len(BATCHED_REGIMES)
        assert collector.counters.get("lane.replay.ns") > 0

    def test_uninstrumented_rows_have_no_attribution(self):
        results = measure_batched_fleet(memories=4, repeats=1, warmup=False)
        assert all("lane_attribution" not in row for row in results["rows"])

    def test_run_suites_attaches_telemetry_document(self):
        payload, _ = run_suites(("engine",), quick=True, telemetry=True)
        assert "telemetry" in payload
        plain, _ = run_suites(("engine",), quick=True)
        assert "telemetry" not in plain


def synthetic_payload() -> dict:
    return {
        "quick": True,
        "suites": {
            "batched-fleet": {
                "rows": [
                    {
                        "regime": "screening",
                        "speedup": 3.5,
                    },
                    {
                        "regime": "heavy-diagnostic",
                        "speedup": 1.4,
                        "lane_attribution": {
                            "march_time_s": 0.25,
                            "lanes": {
                                "replay": {"time_share": 0.62},
                                "table": {"time_share": 0.2},
                                "clean": {"time_share": 0.18},
                            },
                        },
                    },
                ]
            },
            "engine": {"single_campaign": {"speedup": 9.0}},
        },
    }


class TestTrajectory:
    def test_entry_records_speedups_and_replay_share(self):
        entry = trajectory_entry(synthetic_payload(), "2026-08-08T00:00:00")
        assert entry["timestamp"] == "2026-08-08T00:00:00"
        assert entry["quick"] is True
        assert entry["regimes"]["screening"] == {"speedup": 3.5}
        heavy = entry["regimes"]["heavy-diagnostic"]
        assert heavy["speedup"] == 1.4
        assert heavy["replay_time_share"] == 0.62
        assert heavy["march_time_s"] == 0.25
        assert entry["engine_speedup"] == 9.0

    def test_append_creates_and_extends(self, tmp_path):
        path = tmp_path / "trajectory.json"
        first = append_trajectory(path, {"timestamp": "t0"})
        assert first == [{"timestamp": "t0"}]
        second = append_trajectory(path, {"timestamp": "t1"})
        assert [e["timestamp"] for e in second] == ["t0", "t1"]
        on_disk = json.loads(path.read_text())
        assert on_disk == second

    def test_append_rejects_non_list_file(self, tmp_path):
        path = tmp_path / "trajectory.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="JSON list"):
            append_trajectory(path, {"timestamp": "t0"})

    def test_failed_replace_keeps_history_and_leaves_no_temporary(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trajectory.json"
        append_trajectory(path, {"timestamp": "t0"})

        def failing_replace(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space left"):
            append_trajectory(path, {"timestamp": "t1"})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == [{"timestamp": "t0"}]
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.json"]

    def test_interleaved_appenders_publish_one_complete_history(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trajectory.json"
        real_replace = os.replace
        interleaved = []

        def replace_after_second_writer(source, target):
            if not interleaved:
                interleaved.append(True)
                append_trajectory(path, {"timestamp": "second"})
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace_after_second_writer)
        append_trajectory(path, {"timestamp": "first"})
        # Both appenders read the empty history; the later rename wins
        # whole -- never a torn or missing file.
        assert json.loads(path.read_text()) in (
            [{"timestamp": "first"}],
            [{"timestamp": "second"}],
        )
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.json"]

    def test_git_revision_in_a_repo(self, tmp_path):
        # The repo under test is a git repository; outside one, None.
        rev = git_revision()
        assert rev is None or (isinstance(rev, str) and rev)
        assert git_revision(tmp_path) is None

    def test_entry_outside_git_checkout_records_null_rev(
        self, tmp_path, monkeypatch
    ):
        # Run from a non-git directory: the trajectory entry must degrade
        # to git_rev: null instead of failing the bench run.
        monkeypatch.chdir(tmp_path)
        entry = trajectory_entry(synthetic_payload(), "2026-08-08T00:00:00")
        assert entry["git_rev"] is None
        assert entry["regimes"]["screening"] == {"speedup": 3.5}

    def test_entry_survives_a_broken_git_binary(self, monkeypatch):
        # A git that cannot even spawn (PATH damage, sandboxes) degrades
        # the same way.
        monkeypatch.setenv("PATH", "")
        entry = trajectory_entry(synthetic_payload(), "2026-08-08T00:00:00")
        assert entry["git_rev"] is None
