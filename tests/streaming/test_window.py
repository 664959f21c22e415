"""Window reports, burst detection and bounded windowed aggregation."""

from __future__ import annotations

import json

import pytest

from repro.streaming import (
    BurstDetector,
    WindowAggregator,
    WindowReport,
    validate_window_metrics,
    validate_window_metrics_line,
)


def report(index: int = 0, events: int = 3, **overrides) -> WindowReport:
    config = dict(
        index=index,
        start_ns=index * 1000.0,
        duration_ns=1000.0,
        events=events,
        seu_events=events // 2,
        int_read_events=events - events // 2,
        affected_memories=min(events, 2),
        detected_events=events,
        escaped_events=0,
        sweep_failures=events * 4,
        sweep_time_ns=9000.0 if events else 0.0,
        elapsed_s=0.01,
    )
    config.update(overrides)
    return WindowReport(**config)


class TestWindowReport:
    def test_rates_none_on_empty_window(self):
        empty = report(events=0, seu_events=0, int_read_events=0,
                       affected_memories=0, detected_events=0,
                       sweep_failures=0)
        assert empty.detection_rate is None
        assert empty.escape_rate is None

    def test_rates_on_populated_window(self):
        mixed = report(events=4, detected_events=3, escaped_events=1)
        assert mixed.detection_rate == pytest.approx(0.75)
        assert mixed.escape_rate == pytest.approx(0.25)

    def test_deterministic_dict_drops_only_wall_clock(self):
        payload = report().to_json_dict()
        deterministic = report().deterministic_dict()
        assert payload == {"result": deterministic, "run": {"elapsed_s": 0.01}}
        assert "elapsed_s" not in deterministic
        # Burst outcome is deterministic (count-sequence function) and
        # must stay inside the byte-compared content.
        assert "burst_detected" in deterministic

    def test_digest_ignores_wall_clock(self):
        fast, slow = report(elapsed_s=0.001), report(elapsed_s=9.0)
        assert fast.digest() == slow.digest()
        assert fast.digest() != report(events=5).digest()


class TestBurstDetector:
    def test_no_flags_before_min_history(self):
        detector = BurstDetector(min_history=4)
        for count in (50, 50, 50):
            flagged, score = detector.observe(count)
            assert not flagged and score is None

    def test_clear_spike_is_flagged(self):
        detector = BurstDetector()
        for _ in range(6):
            detector.observe(2)
        flagged, score = detector.observe(30)
        assert flagged and score > BurstDetector().threshold

    def test_flat_background_fluctuation_not_flagged(self):
        detector = BurstDetector()
        for _ in range(8):
            detector.observe(3)
        # The one-event sigma floor keeps +1 on a perfectly flat
        # baseline from scoring as an infinite-z outlier.
        flagged, score = detector.observe(4)
        assert not flagged
        assert score == pytest.approx(1.0)

    def test_state_roundtrip_continues_identically(self):
        counts = [2, 3, 2, 2, 4, 2, 9, 2, 3, 12, 2, 2]
        straight = BurstDetector()
        resumed = BurstDetector()
        straight_out, resumed_out = [], []
        for position, count in enumerate(counts):
            straight_out.append(straight.observe(count))
            if position == 5:
                resumed = BurstDetector.from_state(resumed.state_dict())
            resumed_out.append(resumed.observe(count))
        assert straight_out == resumed_out

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BurstDetector(history=0)
        with pytest.raises(ValueError):
            BurstDetector(threshold=0.0)
        with pytest.raises(ValueError):
            BurstDetector().observe(-1)


class TestWindowAggregator:
    def test_empty_aggregator_rates(self):
        aggregator = WindowAggregator()
        assert aggregator.detection_rate is None
        assert aggregator.escape_rate is None
        assert aggregator.burst_recall is None
        assert aggregator.windows_per_sec == 0.0

    def test_empty_windows_counted_without_sweep_samples(self):
        aggregator = WindowAggregator()
        aggregator.add(report(events=0, seu_events=0, int_read_events=0,
                              affected_memories=0, detected_events=0,
                              sweep_failures=0, sweep_time_ns=0.0))
        aggregator.add(report(index=1))
        assert aggregator.windows == 2
        assert aggregator.empty_windows == 1
        # Empty windows contribute no sweep-time or detection samples.
        assert aggregator.sweep_time_ns.count == 1
        assert aggregator.window_detection.count == 1
        assert aggregator.events_per_window.count == 2

    def test_digest_ring_is_bounded(self):
        aggregator = WindowAggregator(retain=4)
        for index in range(20):
            aggregator.add(report(index=index))
        kept = [window for window, _ in aggregator.recent_digests]
        assert kept == [16, 17, 18, 19]

    def test_burst_recall(self):
        aggregator = WindowAggregator()
        aggregator.add(report(index=0, burst_injected=True, burst_detected=True))
        aggregator.add(report(index=1, burst_injected=True))
        assert aggregator.burst_recall == pytest.approx(0.5)

    def test_summary_lines_render(self):
        aggregator = WindowAggregator()
        for index in range(3):
            aggregator.add(report(index=index))
        text = "\n".join(aggregator.summary_lines())
        assert "3 windows" in text
        assert "detection" in text

    def test_canonical_json_excludes_wall_clock(self):
        fast, slow = WindowAggregator(), WindowAggregator()
        fast.add(report(elapsed_s=0.001))
        slow.add(report(elapsed_s=5.0))
        assert fast.canonical_json() == slow.canonical_json()
        assert fast.elapsed_s != slow.elapsed_s


class TestMetricsSchema:
    def test_real_report_line_validates(self):
        line = json.dumps(report().to_json_dict())
        payload = validate_window_metrics_line(line)
        assert payload["result"]["window"] == 0
        assert payload["run"] == {"elapsed_s": 0.01}

    def test_missing_key_rejected(self):
        payload = report().to_json_dict()
        payload["result"].pop("events")
        with pytest.raises(ValueError, match="result missing keys"):
            validate_window_metrics(payload)

    def test_missing_wall_clock_rejected(self):
        payload = {"result": report().deterministic_dict(), "run": {}}
        with pytest.raises(ValueError, match="run missing keys"):
            validate_window_metrics(payload)

    def test_line_without_run_rejected(self):
        payload = report().to_json_dict()
        payload.pop("run")
        with pytest.raises(ValueError, match="no 'run' object"):
            validate_window_metrics(payload)

    def test_bool_masquerading_as_count_rejected(self):
        payload = report().to_json_dict()
        payload["result"]["events"] = True  # bool is an int subclass; still wrong
        with pytest.raises(ValueError, match="must not be bool"):
            validate_window_metrics(payload)

    def test_mistyped_value_rejected(self):
        payload = report().to_json_dict()
        payload["result"]["detection_rate"] = "1.0"
        with pytest.raises(ValueError, match="detection_rate"):
            validate_window_metrics(payload)

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_window_metrics_line("[1, 2, 3]")
