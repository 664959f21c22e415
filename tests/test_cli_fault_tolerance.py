"""CLI surface of the fault-tolerance layer: retry flags, ``--chaos``,
quarantine output and the resumable-interrupt exit code."""

from __future__ import annotations

import json

import pytest

import repro.engine
import repro.streaming
from repro.cli import EXIT_INTERRUPTED, main
from repro.testing import ChaosSpec, corrupt_checkpoint_chunks

FAST = [
    "--memories", "2", "--campaigns", "6", "--no-baseline",
    "--seed", "7", "--workers", "2", "--chunk-size", "1",
]

MONITOR_FAST = [
    "--windows", "4", "--memories", "4", "--events-per-window", "2",
    "--seed", "23",
]


def _comparable(payload: dict) -> dict:
    for volatile in ("elapsed_s", "campaigns_per_sec", "plan_cache", "telemetry"):
        payload.pop(volatile, None)
    return payload


class TestChaosFlag:
    def test_chaos_run_recovers_and_matches_plain(self, capsys):
        assert main(["fleet", *FAST, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([
            "fleet", *FAST, "--json",
            "--chaos", "seed=3,crash=0.5,exception=0.5,max_faults=1",
            "--max-retries", "2",
        ]) == 0
        chaotic = json.loads(capsys.readouterr().out)
        assert _comparable(chaotic) == _comparable(plain)

    def test_quarantine_reports_failures_block(self, capsys):
        assert main([
            "fleet", *FAST, "--json",
            "--chaos", "seed=3,exception=1.0,max_faults=99",
            "--max-retries", "1", "--on-chunk-failure", "quarantine",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaigns"] == 0
        assert len(payload["failures"]) == 6
        assert payload["failures"][0]["error_kinds"] == [
            "exception", "exception"
        ]

    def test_bad_chaos_spec_exits_2(self, capsys):
        assert main(["fleet", *FAST, "--chaos", "crashes=0.5"]) == 2
        assert "bad --chaos token" in capsys.readouterr().err

    def test_metrics_out_carries_fault_tolerance_counters(
        self, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        assert main([
            "fleet", *FAST, "--json", "--metrics-out", str(metrics),
            "--chaos", "seed=3,exception=1.0",
            "--max-retries", "2",
        ]) == 0
        capsys.readouterr()
        fleet = json.loads(metrics.read_text())["fleet"]
        assert fleet["retries"] >= 6  # every chunk faulted at least once
        assert fleet["quarantined"] == 0
        assert {"respawns", "chunks_recovered"} <= set(fleet)


class TestChaosRoundTrip:
    """Crash, exception and corruption recovery end to end through the CLI.

    Chaos seed 3 kills workers and raises in others across the 12
    chunks (the plan is a pure function of the seed), all recovered
    through one retry each; the store is then corrupted and a
    quarantine-mode resume heals it.
    """

    ROUND_TRIP = [
        "--memories", "2", "--campaigns", "12", "--no-baseline",
        "--seed", "7", "--workers", "2", "--chunk-size", "1", "--json",
    ]

    def _fleet(self, capsys, *extra) -> dict:
        assert main(["fleet", *self.ROUND_TRIP, *extra]) == 0
        return _comparable(json.loads(capsys.readouterr().out))

    def test_chaos_run_and_corrupted_resume_match_plain(self, tmp_path, capsys):
        store = tmp_path / "ckpt-chaos"
        chaos_metrics = tmp_path / "chaos-metrics.json"
        resumed_metrics = tmp_path / "resumed-metrics.json"
        plain = self._fleet(capsys, "--checkpoint", str(tmp_path / "ckpt-plain"))
        assert plain["campaigns"] == 12
        chaotic = self._fleet(
            capsys,
            "--checkpoint", str(store),
            "--chaos", "seed=3,crash=0.45,exception=0.25,corrupt=0.6",
            "--max-retries", "2", "--on-chunk-failure", "quarantine",
            "--metrics-out", str(chaos_metrics),
        )
        assert chaotic == plain, "chaos run diverged from the undisturbed run"
        corrupted = corrupt_checkpoint_chunks(
            store, ChaosSpec(seed=3, corrupt_rate=0.6)
        )
        assert corrupted, "corruption stream selected no chunks"
        resumed = self._fleet(
            capsys,
            "--checkpoint", str(store), "--resume",
            "--on-chunk-failure", "quarantine",
            "--metrics-out", str(resumed_metrics),
        )
        assert resumed == plain, "corrupted-store resume diverged"

        fleet = json.loads(chaos_metrics.read_text())["fleet"]
        assert {"retries", "respawns", "quarantined", "chunks_recovered"} <= set(fleet)
        assert fleet["respawns"] >= 2, fleet  # at least two workers killed
        assert fleet["retries"] >= fleet["respawns"], fleet
        assert fleet["quarantined"] == 0, fleet
        recovered = json.loads(resumed_metrics.read_text())["fleet"]
        assert recovered["chunks_recovered"] >= 1, recovered


class TestRetryFlags:
    def test_monitor_accepts_retry_flags(self, capsys):
        assert main([
            "monitor", *MONITOR_FAST,
            "--max-retries", "1", "--on-chunk-failure", "quarantine",
        ]) == 0
        assert "stream: 4 windows" in capsys.readouterr().out

    def test_scenario_accepts_retry_flags(self, capsys):
        assert main([
            "scenario", "--campaigns", "2", "--memories", "2",
            "--seed", "5", "--workers", "1", "--no-baseline",
            "--max-retries", "1", "--chunk-timeout", "60", "--json",
        ]) == 0
        capsys.readouterr()


class TestInterruptExitCode:
    def _interrupting_run_fleet(self, monkeypatch):
        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.engine, "run_fleet", boom)

    def test_checkpointed_interrupt_reports_and_exits_130(
        self, tmp_path, capsys, monkeypatch
    ):
        self._interrupting_run_fleet(monkeypatch)
        store = tmp_path / "ckpt"
        argv = ["fleet", *FAST, "--checkpoint", str(store)]
        assert main(argv) == EXIT_INTERRUPTED
        err = capsys.readouterr().err
        assert f"chunks persisted in {store}" in err
        assert "resume with: python -m repro fleet" in err
        assert "--resume" in err

    def test_uncheckpointed_interrupt_propagates(self, capsys, monkeypatch):
        self._interrupting_run_fleet(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            main(["fleet", *FAST])

    def test_checkpointed_monitor_interrupt_exits_130(
        self, tmp_path, capsys, monkeypatch
    ):
        real = repro.streaming.StreamingMonitor

        class InterruptedMonitor(real):
            def windows(self):
                inner = super().windows()
                try:
                    yield next(inner)
                    raise KeyboardInterrupt
                finally:
                    inner.close()

        monkeypatch.setattr(
            repro.streaming, "StreamingMonitor", InterruptedMonitor
        )
        store = tmp_path / "ring"
        assert (
            main(["monitor", *MONITOR_FAST, "--checkpoint", str(store)])
            == EXIT_INTERRUPTED
        )
        err = capsys.readouterr().err
        assert "interrupted: 1 windows completed" in err
        assert f"ring checkpoint in {store}" in err
        assert "resume with: python -m repro monitor" in err
