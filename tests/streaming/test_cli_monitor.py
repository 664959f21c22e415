"""The ``repro monitor`` subcommand: output modes, resume, exit codes."""

from __future__ import annotations

import json

import pytest

import repro.streaming
from repro.cli import main
from repro.streaming import validate_window_metrics_line

FAST = [
    "--windows", "4", "--memories", "4", "--events-per-window", "2",
    "--seed", "23",
]


class TestMonitorCommand:
    def test_human_output(self, capsys):
        assert main(["monitor", *FAST]) == 0
        out = capsys.readouterr().out
        assert "monitor: 4 windows" in out
        assert "stream: 4 windows" in out

    def test_json_output(self, capsys):
        assert main(["monitor", *FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] == 4
        assert payload["spec"]["master_seed"] == 23

    def test_metrics_out_lines_validate(self, tmp_path, capsys):
        metrics = tmp_path / "windows.jsonl"
        assert main(["monitor", *FAST, "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        lines = metrics.read_text().splitlines()
        assert len(lines) == 4
        windows = [validate_window_metrics_line(line)["window"] for line in lines]
        assert windows == [0, 1, 2, 3]

    def test_total_events_sum_the_metrics_lines(self, tmp_path, capsys):
        metrics = tmp_path / "windows.jsonl"
        assert main(
            ["monitor", *FAST, "--workers", "2", "--json",
             "--metrics-out", str(metrics)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        lines = metrics.read_text().splitlines()
        assert payload["windows"] == len(lines) == 4
        events = [validate_window_metrics_line(line)["events"] for line in lines]
        assert payload["total_events"] == sum(events) > 0

    def test_resume_without_checkpoint_fails(self, capsys):
        assert main(["monitor", *FAST, "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_resume_continues(self, tmp_path, capsys):
        store = tmp_path / "ring"
        assert main(["monitor", *FAST, "--checkpoint", str(store)]) == 0
        capsys.readouterr()
        assert main(
            ["monitor", *FAST[:1], "8", *FAST[2:],
             "--checkpoint", str(store), "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resuming at window 4" in out
        assert "window      4" in out

    def test_stale_checkpoint_exits_2(self, tmp_path, capsys):
        store = tmp_path / "ring"
        assert main(["monitor", *FAST, "--checkpoint", str(store)]) == 0
        capsys.readouterr()
        assert main(
            ["monitor", *FAST[:-1], "99", "--checkpoint", str(store)]
        ) == 2
        assert "checkpoint error" in capsys.readouterr().err

    def test_forever_interrupt_stops_cleanly(self, capsys, monkeypatch):
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
        assert main(["monitor", "--forever", *FAST[2:]]) == 0
        out = capsys.readouterr().out
        assert "monitor: forever" in out
        assert "interrupted; stream stopped cleanly" in out
        assert "stream: 1 windows" in out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["monitor", *FAST, "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace written" in out
        document = json.loads(trace.read_text())
        assert any(
            entry.get("name") == "stream.window"
            for entry in document["traceEvents"]
        )
