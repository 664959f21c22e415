"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["diagnose"])
        assert args.words == 512 and args.bits == 100
        assert args.scheme == "proposed"


class TestCaseStudy:
    def test_prints_headline_numbers(self, capsys):
        assert main(["case-study"]) == 0
        out = capsys.readouterr().out
        assert "84.15" in out
        assert "T[7,8]" in out


class TestDiagnose:
    def test_proposed_small(self, capsys):
        assert main(
            ["diagnose", "--words", "32", "--bits", "8",
             "--defect-rate", "0.02", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "localization rate : 1.000" in out
        assert "March CW-NW" in out

    def test_baseline_small(self, capsys):
        assert main(
            ["diagnose", "--words", "32", "--bits", "8",
             "--defect-rate", "0.02", "--scheme", "baseline", "--include-drf"]
        ) == 0
        out = capsys.readouterr().out
        assert "iterations (k)" in out
        assert "missed faults     : 0" in out

    def test_baseline_without_drf_misses(self, capsys):
        assert main(
            ["diagnose", "--words", "64", "--bits", "16",
             "--defect-rate", "0.02", "--scheme", "baseline", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        missed = int(out.split("missed faults     : ")[1].split()[0])
        assert missed > 0  # the DRFs


class TestCoverage:
    def test_matrix_renders(self, capsys):
        assert main(["coverage", "--words", "8", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "March C-" in out and "March CW-NW" in out
        assert "DRF1" in out


class TestCampaign:
    def test_buffer_cluster_campaign(self, capsys):
        assert main(
            ["campaign", "--defect-rate", "0.003", "--seed", "7", "--no-baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "localization 100.0%" in out
        assert "verify   : PASS" in out

    def test_campaign_with_baseline(self, capsys):
        assert main(
            ["campaign", "--defect-rate", "0.003", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "reduction:" in out


class TestSweepAndArea:
    def test_sweep_analytic_only(self, capsys):
        assert main(["sweep", "--analytic-only", "--rates", "0.001,0.01"]) == 0
        out = capsys.readouterr().out
        assert "defect rate" in out and "R (DRF)" in out

    def test_sweep_analytic_only_respects_matrix(self, capsys):
        assert main(
            ["sweep", "--analytic-only", "--matrix", "geometry",
             "--shapes", "64x16", "--defect-rate", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "64 x 16" in out and "R (DRF)" in out
        assert main(
            ["sweep", "--analytic-only", "--matrix", "fault-mix"]
        ) == 0
        out = capsys.readouterr().out
        assert "paper-equal" in out and "retention-heavy" in out

    def test_sweep_bad_shapes_rejected_with_clear_error(self):
        import pytest

        with pytest.raises(ValueError, match="expected WORDSxBITS"):
            main(["sweep", "--matrix", "geometry", "--shapes", "512",
                  "--analytic-only"])

    def test_sweep_simulated_table(self, capsys):
        assert main(
            ["sweep", "--rates", "0.01", "--campaigns", "1",
             "--memories", "2", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "R meas" in out and "R model (DRF)" in out

    def test_sweep_simulated_json_has_measured_and_analytic(self, capsys):
        import json

        assert main(
            ["sweep", "--json", "--rates", "0.01", "--campaigns", "1",
             "--memories", "2", "--workers", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == "X1-defect-rate"
        row = payload["rows"][0]
        assert row["measured_r_mean"] > 1.0
        assert row["analytic_r"] > 1.0 and row["analytic_r_drf"] > 1.0
        assert row["measured_k_mean"] is not None

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "3.0" in out and "scan_en" in out


class TestBench:
    def test_quick_batched_fleet_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        assert main(
            ["bench", "--suite", "batched-fleet", "--quick", "--json",
             "--out", str(out_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["quick"] is True
        rows = payload["suites"]["batched-fleet"]["rows"]
        assert [row["regime"] for row in rows] == [
            "screening", "diagnostic", "heavy-diagnostic",
        ]
        assert all(row["bit_identical"] for row in rows)
        assert all(row["speedup"] > 0 for row in rows)
        gated = {row["regime"]: row["gated"] for row in rows}
        assert gated == {
            "screening": True, "diagnostic": True, "heavy-diagnostic": True,
        }
        assert json.loads(out_path.read_text()) == payload

    def test_quick_table_rendering(self, capsys):
        assert main(["bench", "--suite", "batched-fleet", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "suite: batched-fleet" in out
        assert "diagnostic" in out and ">=2.5x" in out

    def test_gate_failures_exit_nonzero(self, capsys, monkeypatch):
        import repro.analysis.bench as bench_module

        monkeypatch.setattr(
            bench_module,
            "measure_batched_fleet",
            lambda **kwargs: {
                "config": {},
                "rows": [
                    {
                        "regime": "diagnostic",
                        "defect_rate": 0.001,
                        "gated": True,
                        "speedup_target": 2.5,
                        "numpy_s": 1.0,
                        "batched_s": 1.0,
                        "speedup": 1.0,
                        "failing_reads": 1,
                        "bit_identical": True,
                    }
                ],
            },
        )
        assert main(["bench", "--suite", "batched-fleet", "--json"]) == 1
        captured = capsys.readouterr()
        assert "below the 2.5x target" in captured.err

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--suite", "nope"])

    def test_telemetry_lane_attribution_and_trajectory(self, capsys, tmp_path):
        import json

        trajectory = tmp_path / "trajectory.json"
        assert main(
            ["bench", "--suite", "batched-fleet", "--quick", "--telemetry",
             "--trajectory", str(trajectory),
             "--timestamp", "2026-08-08T00:00:00+00:00"]
        ) == 0
        out = capsys.readouterr().out
        assert "lane attribution" in out
        assert "replay accesses" in out
        history = json.loads(trajectory.read_text())
        assert len(history) == 1
        entry = history[0]
        assert entry["timestamp"] == "2026-08-08T00:00:00+00:00"
        assert set(entry["regimes"]) == {
            "screening", "diagnostic", "heavy-diagnostic",
        }
        assert "replay_time_share" in entry["regimes"]["heavy-diagnostic"]


class TestTelemetryFlags:
    def test_fleet_telemetry_summary_and_exports(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["fleet", "--memories", "2", "--campaigns", "2", "--workers", "1",
             "--defect-rate", "0.004", "--telemetry",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "replay lane" in out
        document = json.loads(trace.read_text())
        events = document["traceEvents"]
        assert events
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        assert begins == ends
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        flat = json.loads(metrics.read_text())
        assert "lane_attribution" in flat and "counters" in flat

    def test_pooled_fleet_trace_nests_and_attributes_lanes(
        self, capsys, tmp_path
    ):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["fleet", "--memories", "4", "--campaigns", "4", "--workers", "2",
             "--chunk-size", "1", "--telemetry", "--json",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        ) == 0
        assert "telemetry" in json.loads(capsys.readouterr().out)["run"]
        # Loadable by chrome://tracing / Perfetto: timestamps sorted and
        # every B closed by its E in strict nesting per (pid, tid) track.
        events = json.loads(trace.read_text())["traceEvents"]
        assert events
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        stacks: dict = {}
        for event in events:
            assert event["ph"] in ("B", "E"), event
            stack = stacks.setdefault((event["pid"], event["tid"]), [])
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert stack and stack.pop() == event["name"], event
        assert len(stacks) > 1, "worker spans missing from the trace"
        assert not any(stacks.values()), "unclosed spans"
        flat = json.loads(metrics.read_text())
        attribution = flat["lane_attribution"]
        assert set(attribution["lanes"]) == {"replay", "table", "clean"}
        for lane in attribution["lanes"].values():
            assert {"time_s", "words", "time_share", "word_share"} <= set(lane)
        assert attribution["march_time_s"] > 0
        assert flat["fleet"]["chunks"] > 0

    def test_trace_out_implies_telemetry_in_json_mode(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        assert main(
            ["fleet", "--memories", "2", "--campaigns", "2", "--workers", "1",
             "--defect-rate", "0.004", "--json", "--trace-out", str(trace)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" in payload["run"]
        assert "telemetry" not in payload["result"]
        assert trace.exists()

    def test_scenario_telemetry_summary(self, capsys):
        assert main(
            ["scenario", "--memories", "2", "--campaigns", "2",
             "--workers", "1", "--telemetry"]
        ) == 0
        assert "telemetry:" in capsys.readouterr().out

    def test_scenario_exports_the_session_ecc_decode(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            ["scenario", "--preset", "burn-in-soft-error", "--memories", "4",
             "--campaigns", "1", "--workers", "1", "--ecc", "secded",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        ) == 0
        flat = json.loads(metrics.read_text())
        counters = flat["counters"]
        assert counters["ecc.rows_decoded"] >= counters["ecc.rows_masked"] > 0
        assert flat["span_stats"]["ecc.decode"]["count"] > 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(event["name"] == "ecc.decode" for event in events)


def _json_keys(document) -> set:
    """Every object key anywhere in a parsed JSON document."""
    if isinstance(document, dict):
        return set(document).union(*map(_json_keys, document.values()))
    if isinstance(document, list):
        return set().union(*map(_json_keys, document))
    return set()


def _fleet_case():
    from repro.engine.fleet import FleetSpec, run_fleet

    spec = FleetSpec(memories=2, campaigns=2, defect_rate=0.004, master_seed=3)
    return (
        ["fleet", "--memories", "2", "--campaigns", "2",
         "--defect-rate", "0.004", "--seed", "3"],
        spec,
        run_fleet(spec, workers=1).deterministic_dict(),
        {"elapsed_s", "campaigns_per_sec"},
    )


def _scenario_case():
    from repro.scenarios import preset_spec, run_scenario_fleet

    spec = preset_spec(
        "clustered", memories=2, campaigns=2, master_seed=3,
        spares_per_memory=32, backend="auto", max_retest_rounds=3,
    )
    return (
        ["scenario", "--memories", "2", "--campaigns", "2", "--seed", "3"],
        spec,
        run_scenario_fleet(spec, workers=1).deterministic_dict(),
        {"elapsed_s", "campaigns_per_sec"},
    )


def _monitor_case():
    from repro.streaming import StreamingSpec, run_monitor

    spec = StreamingSpec(memories=2, master_seed=3)
    return (
        ["monitor", "--memories", "2", "--windows", "4", "--seed", "3"],
        spec,
        run_monitor(spec, windows=4, workers=1).deterministic_dict(),
        {"elapsed_s", "windows_per_sec"},
    )


class TestJsonDocumentShape:
    """``fleet``, ``scenario`` and ``monitor`` print one document shape:
    the spec, the report's deterministic ``result`` and the ``run``."""

    @pytest.mark.parametrize(
        "case", [_fleet_case, _scenario_case, _monitor_case],
        ids=["fleet", "scenario", "monitor"],
    )
    def test_spec_result_and_run(self, capsys, case):
        import json

        argv, spec, result, run_keys = case()
        assert main([*argv, "--workers", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"spec", "result", "run"}
        # The CLI ran the same inputs the library call above did.
        assert payload["spec"] == json.loads(json.dumps(spec.to_dict()))
        assert payload["result"] == json.loads(json.dumps(result))
        assert set(payload["run"]) == run_keys
        assert not any("plan_cache" in key for key in _json_keys(payload))
