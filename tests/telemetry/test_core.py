"""Tracer, counters and the process-global handle."""

from __future__ import annotations

import gc
import time

from repro.telemetry.core import (
    NULL_TRACER,
    Counters,
    NullTracer,
    Tracer,
    activate,
    deactivate,
    set_tracer,
    tracer,
)


class TestCounters:
    def test_add_creates_at_zero(self):
        counters = Counters()
        counters.add("a.b", 3)
        counters.add("a.b", 2)
        counters.add("a.c")
        assert counters.get("a.b") == 5
        assert counters.get("a.c") == 1
        assert counters.get("missing") == 0
        assert counters.get("missing", 42) == 42

    def test_merge_from_counters_and_dict(self):
        left = Counters()
        left.add("x", 1)
        right = Counters()
        right.add("x", 2)
        right.add("y", 5)
        left.merge(right)
        left.merge({"x": 10, "z": 1})
        assert left.to_dict() == {"x": 13, "y": 5, "z": 1}

    def test_to_dict_is_name_sorted(self):
        counters = Counters()
        counters.add("b")
        counters.add("a")
        counters.add("c")
        assert list(counters.to_dict()) == ["a", "b", "c"]


class TestTracer:
    def test_span_records_name_category_args(self):
        tr = Tracer()
        with tr.span("work", "test", item=7):
            pass
        assert len(tr.spans) == 1
        name, category, start_ns, duration_ns, depth, args = tr.spans[0]
        assert name == "work"
        assert category == "test"
        assert duration_ns >= 0
        assert depth == 0
        assert args == {"item": 7}

    def test_nested_spans_record_depth(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        # Completion order: inner closes first.
        assert [(s[0], s[4]) for s in tr.spans] == [("inner", 1), ("outer", 0)]
        outer = tr.spans[1]
        inner = tr.spans[0]
        # The inner span lies within the outer span on the timeline.
        assert outer[2] <= inner[2]
        assert inner[2] + inner[3] <= outer[2] + outer[3]

    def test_span_stats_aggregate(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("repeated"):
                pass
        count, total_ns, min_ns, max_ns = tr.span_stats["repeated"]
        assert count == 3
        assert min_ns <= max_ns
        assert total_ns >= max_ns

    def test_max_spans_degrades_to_stats_only(self):
        tr = Tracer(max_spans=2)
        for _ in range(5):
            with tr.span("s"):
                pass
        assert len(tr.spans) == 2
        assert tr.dropped_spans == 3
        assert tr.span_stats["s"][0] == 5  # aggregates stay exact

    def test_span_survives_exceptions(self):
        tr = Tracer()
        try:
            with tr.span("fails"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert len(tr.spans) == 1
        assert tr._stack == []

    def test_counter_site(self):
        tr = Tracer()
        tr.counters.add("lane.replay.ns", 100)
        assert tr.counters.get("lane.replay.ns") == 100

    def test_snapshot_is_json_friendly(self):
        import json

        tr = Tracer()
        with tr.span("a", "cat", k=1):
            tr.counters.add("c", 2)
        snapshot = tr.snapshot()
        assert json.loads(json.dumps(snapshot)) is not None
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["span_stats"]["a"][0] == 1
        assert snapshot["spans"][0][0] == "a"
        assert snapshot["dropped_spans"] == 0
        assert snapshot["pid"] == tr.pid

    def test_uses_monotonic_clock(self):
        tr = Tracer()
        before = time.perf_counter_ns()
        with tr.span("clocked"):
            pass
        after = time.perf_counter_ns()
        start_ns = tr.spans[0][2]
        assert before <= start_ns <= after


class TestNullTracer:
    def test_disabled_and_inert(self):
        null = NullTracer()
        assert null.enabled is False
        with null.span("anything", "cat", arg=1):
            pass
        snapshot = null.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["spans"] == []

    def test_span_is_shared_instance(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")

    def test_counters_are_real(self):
        # Unguarded adds must not crash (the contract is to guard, but a
        # miss degrades to a harmless accumulation, not an AttributeError).
        null = NullTracer()
        null.counters.add("oops", 1)
        assert null.counters.get("oops") == 1


class TestGlobalHandle:
    def test_default_is_the_null_tracer(self):
        assert tracer() is NULL_TRACER
        assert not tracer().enabled

    def test_activate_installs_fresh_tracer(self):
        first = activate()
        try:
            assert tracer() is first
            assert first.enabled
        finally:
            deactivate()
        second = activate()
        try:
            assert second is not first
        finally:
            deactivate()

    def test_deactivate_restores_null(self):
        activate()
        previous = deactivate()
        assert isinstance(previous, Tracer)
        assert tracer() is NULL_TRACER

    def test_set_tracer_returns_previous(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert previous is NULL_TRACER
            assert tracer() is mine
        finally:
            assert set_tracer(NULL_TRACER) is mine


class TestGcTelemetry:
    """An installed tracer counts cyclic collections; the null one does not."""

    @staticmethod
    def cyclic_garbage(count: int = 100) -> None:
        for _ in range(count):
            node: list = []
            node.append(node)

    def test_counts_collections_while_active(self):
        tr = activate()
        try:
            self.cyclic_garbage()
            assert gc.collect() >= 100
        finally:
            deactivate()
        assert tr.counters.get("gc.collections") >= 1
        assert tr.counters.get("gc.gen2.collections") >= 1
        assert tr.counters.get("gc.ns") > 0

    def test_deactivate_leaves_callbacks_as_they_were(self):
        before = list(gc.callbacks)
        activate()
        activate()
        try:
            assert len(gc.callbacks) == len(before) + 1
        finally:
            deactivate()
        assert gc.callbacks == before

    def test_inactive_tracer_counts_nothing(self):
        tr = activate()
        deactivate()
        self.cyclic_garbage()
        gc.collect()
        assert tr.counters.get("gc.collections") == 0
        assert NULL_TRACER.counters.get("gc.collections") == 0
