"""Windowed aggregation for the streaming monitor.

One :class:`WindowReport` is the deterministic outcome of one timeline
window: how many events arrived, what the periodic diagnosis sweep
detected, and whether the window carried (or tripped) a burst.  The
:class:`WindowAggregator` folds reports into cumulative statistics with
**bounded memory**: scalar counters, :class:`~repro.engine.aggregate.StreamingStats`
accumulators (Welford -- O(1) per window), and a ring of the last K
window digests.  Nothing here retains per-window objects, so a monitor
can run forever without growing.

Zero-denominator convention (documented in
:mod:`repro.engine.aggregate`): count-ratio rates (detection, escape)
are ``None`` when no events arrived; throughput over wall-clock time is
``0.0`` when no time was recorded.

Everything except ``elapsed_s`` (wall-clock run metadata) is a pure
function of the spec and the window index -- including burst *detection*,
which depends only on the ordered sequence of event counts and is
restored exactly across ring-checkpoint resumes.  Each report renders as
``{"result": deterministic_dict(), "run": {...}}``: the wall clock lives
only under ``run``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field

from repro.engine.aggregate import StreamingStats
from repro.engine.checkpoint import canonical_json
from repro.util.records import Record
from repro.util.validation import require, require_positive

#: Default number of trailing windows the burst detector baselines on.
DEFAULT_BURST_HISTORY = 16
#: Default z-score threshold for flagging a burst.
DEFAULT_BURST_THRESHOLD = 3.0
#: Windows of baseline required before the detector may flag at all.
DEFAULT_BURST_MIN_HISTORY = 4
#: Default digests retained by the aggregator's ring.
DEFAULT_DIGEST_RETAIN = 8


@dataclass
class WindowReport(Record):
    """The outcome of one monitored window."""

    index: int
    start_ns: float
    duration_ns: float
    events: int = 0
    seu_events: int = 0
    int_read_events: int = 0
    affected_memories: int = 0
    detected_events: int = 0
    escaped_events: int = 0
    sweep_failures: int = 0
    sweep_time_ns: float = 0.0
    burst_injected: bool = False
    #: Filled by the monitor (parent side): burst detection needs the
    #: trailing window history, which individual workers do not have.
    burst_detected: bool = False
    burst_score: float | None = None
    #: Worker wall-clock spent on this window (run metadata).
    elapsed_s: float = 0.0

    @property
    def detection_rate(self) -> float | None:
        """Detected fraction of this window's events (None when empty)."""
        if self.events == 0:
            return None
        return self.detected_events / self.events

    @property
    def escape_rate(self) -> float | None:
        """Escaped fraction of this window's events (None when empty)."""
        if self.events == 0:
            return None
        return self.escaped_events / self.events

    def to_json_dict(self) -> dict:
        """One ``--metrics-out`` line: ``result`` plus the wall clock."""
        return {
            "result": self.deterministic_dict(),
            "run": {"elapsed_s": self.elapsed_s},
        }

    def deterministic_dict(self) -> dict:
        """The window's *result* content, without wall-clock metadata."""
        return {
            "window": self.index,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "events": self.events,
            "seu_events": self.seu_events,
            "int_read_events": self.int_read_events,
            "affected_memories": self.affected_memories,
            "detected_events": self.detected_events,
            "escaped_events": self.escaped_events,
            "detection_rate": self.detection_rate,
            "escape_rate": self.escape_rate,
            "sweep_failures": self.sweep_failures,
            "sweep_time_ns": self.sweep_time_ns,
            "burst_injected": self.burst_injected,
            "burst_detected": self.burst_detected,
            "burst_score": self.burst_score,
        }

    def canonical_json(self) -> str:
        """Canonical byte-comparable rendering of the deterministic content."""
        return canonical_json(self.deterministic_dict())

    def digest(self) -> str:
        """Content digest of the deterministic window outcome."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


class BurstDetector:
    """Trailing-baseline burst detector over per-window event counts.

    Window ``w`` is scored against the mean/std of the previous
    ``history`` windows *excluding itself*: ``score = (count - mean) /
    max(std, 1)`` (the one-event floor keeps a flat background from
    flagging every +1 fluctuation), flagged when ``score >= threshold``
    after at least ``min_history`` baseline windows.  Pure integer/IEEE
    arithmetic over the ordered count sequence -- deterministic across
    worker layouts, and exactly restorable from :meth:`state_dict`.
    """

    def __init__(
        self,
        history: int = DEFAULT_BURST_HISTORY,
        threshold: float = DEFAULT_BURST_THRESHOLD,
        min_history: int = DEFAULT_BURST_MIN_HISTORY,
    ) -> None:
        require_positive(history, "history")
        require_positive(min_history, "min_history")
        require(threshold > 0.0, "threshold must be > 0")
        self.history = history
        self.threshold = float(threshold)
        self.min_history = min_history
        self._recent: deque[int] = deque(maxlen=history)

    def observe(self, count: int) -> tuple[bool, float | None]:
        """Score one window's event count; returns ``(flagged, score)``.

        ``score`` is ``None`` until the baseline has ``min_history``
        windows (during which nothing is flagged).
        """
        require(count >= 0, "count must be >= 0")
        flagged = False
        score = None
        if len(self._recent) >= self.min_history:
            n = len(self._recent)
            mean = sum(self._recent) / n
            variance = sum((c - mean) ** 2 for c in self._recent) / n
            sigma = max(variance**0.5, 1.0)
            score = (count - mean) / sigma
            flagged = score >= self.threshold
        self._recent.append(count)
        return flagged, score

    def state_dict(self) -> dict:
        """Exact internal state (for ring-checkpoint resume)."""
        return {
            "history": self.history,
            "threshold": self.threshold,
            "min_history": self.min_history,
            "recent": list(self._recent),
        }

    @classmethod
    def from_state(cls, state: dict) -> "BurstDetector":
        """Rebuild a detector from :meth:`state_dict` output."""
        detector = cls(
            history=int(state["history"]),
            threshold=float(state["threshold"]),
            min_history=int(state["min_history"]),
        )
        detector._recent.extend(int(c) for c in state["recent"])
        return detector


@dataclass
class WindowAggregator(Record):
    """Cumulative windowed statistics with O(1) memory.

    Only scalars, Welford accumulators and a bounded digest ring live
    here -- the aggregator's footprint is independent of how many windows
    it has consumed, which is what lets a monitor run ``--forever``.
    """

    retain: int = DEFAULT_DIGEST_RETAIN
    windows: int = 0
    empty_windows: int = 0
    total_events: int = 0
    seu_events: int = 0
    int_read_events: int = 0
    detected_events: int = 0
    escaped_events: int = 0
    sweep_failures: int = 0
    bursts_injected: int = 0
    bursts_detected: int = 0
    elapsed_s: float = 0.0
    events_per_window: StreamingStats = field(default_factory=StreamingStats)
    window_detection: StreamingStats = field(default_factory=StreamingStats)
    sweep_time_ns: StreamingStats = field(default_factory=StreamingStats)
    #: ``(window, digest)`` of the last ``retain`` windows.
    recent_digests: deque = field(default_factory=deque)

    def __post_init__(self) -> None:
        require_positive(self.retain, "retain")
        if not isinstance(self.recent_digests, deque) or (
            self.recent_digests.maxlen != self.retain
        ):
            self.recent_digests = deque(self.recent_digests, maxlen=self.retain)

    def add(self, report: WindowReport) -> None:
        """Fold one window report in."""
        self.windows += 1
        self.total_events += report.events
        self.seu_events += report.seu_events
        self.int_read_events += report.int_read_events
        self.detected_events += report.detected_events
        self.escaped_events += report.escaped_events
        self.sweep_failures += report.sweep_failures
        self.elapsed_s += report.elapsed_s
        if report.events == 0:
            self.empty_windows += 1
        if report.burst_injected:
            self.bursts_injected += 1
        if report.burst_detected:
            self.bursts_detected += 1
        self.events_per_window.add(float(report.events))
        rate = report.detection_rate
        if rate is not None:
            self.window_detection.add(rate)
        if report.events:
            self.sweep_time_ns.add(report.sweep_time_ns)
        self.recent_digests.append((report.index, report.digest()))

    # ------------------------------------------------------------------ #
    # Derived rates (see the zero-denominator convention above)          #
    # ------------------------------------------------------------------ #
    @property
    def detection_rate(self) -> float | None:
        """Overall detected fraction of all events (None before any event)."""
        if self.total_events == 0:
            return None
        return self.detected_events / self.total_events

    @property
    def escape_rate(self) -> float | None:
        """Overall escaped fraction of all events (None before any event)."""
        if self.total_events == 0:
            return None
        return self.escaped_events / self.total_events

    @property
    def burst_recall(self) -> float | None:
        """Fraction of injected bursts the detector flagged."""
        if self.bursts_injected == 0:
            return None
        return self.bursts_detected / self.bursts_injected

    @property
    def windows_per_sec(self) -> float:
        """Sweep-side throughput (0.0 when no time was recorded)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.windows / self.elapsed_s

    # ------------------------------------------------------------------ #
    # Rendering / persistence                                            #
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """The CLI's ``--json`` rendering: ``result`` plus ``run`` metadata."""
        return {
            "result": self.deterministic_dict(),
            "run": {
                "elapsed_s": self.elapsed_s,
                "windows_per_sec": self.windows_per_sec,
            },
        }

    def deterministic_dict(self) -> dict:
        """Cumulative *result* content, without wall-clock measurements."""
        return {
            "windows": self.windows,
            "empty_windows": self.empty_windows,
            "total_events": self.total_events,
            "seu_events": self.seu_events,
            "int_read_events": self.int_read_events,
            "detected_events": self.detected_events,
            "escaped_events": self.escaped_events,
            "detection_rate": self.detection_rate,
            "escape_rate": self.escape_rate,
            "sweep_failures": self.sweep_failures,
            "bursts_injected": self.bursts_injected,
            "bursts_detected": self.bursts_detected,
            "burst_recall": self.burst_recall,
            "events_per_window": self.events_per_window.to_dict(),
            "window_detection": self.window_detection.to_dict(),
            "sweep_time_ns": self.sweep_time_ns.to_dict(),
            "recent_digests": [list(entry) for entry in self.recent_digests],
        }

    def canonical_json(self) -> str:
        """Canonical byte-comparable rendering of the deterministic content."""
        return canonical_json(self.deterministic_dict())

    def state_dict(self) -> dict:
        """Exact resumable state (floats round-trip exactly via JSON)."""
        return {
            "retain": self.retain,
            "windows": self.windows,
            "empty_windows": self.empty_windows,
            "total_events": self.total_events,
            "seu_events": self.seu_events,
            "int_read_events": self.int_read_events,
            "detected_events": self.detected_events,
            "escaped_events": self.escaped_events,
            "sweep_failures": self.sweep_failures,
            "bursts_injected": self.bursts_injected,
            "bursts_detected": self.bursts_detected,
            "elapsed_s": self.elapsed_s,
            "events_per_window": self.events_per_window.state_dict(),
            "window_detection": self.window_detection.state_dict(),
            "sweep_time_ns": self.sweep_time_ns.state_dict(),
            "recent_digests": [list(entry) for entry in self.recent_digests],
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowAggregator":
        """Rebuild an aggregator from :meth:`state_dict` output."""
        aggregator = cls(
            retain=int(state["retain"]),
            windows=int(state["windows"]),
            empty_windows=int(state["empty_windows"]),
            total_events=int(state["total_events"]),
            seu_events=int(state["seu_events"]),
            int_read_events=int(state["int_read_events"]),
            detected_events=int(state["detected_events"]),
            escaped_events=int(state["escaped_events"]),
            sweep_failures=int(state["sweep_failures"]),
            bursts_injected=int(state["bursts_injected"]),
            bursts_detected=int(state["bursts_detected"]),
            elapsed_s=float(state["elapsed_s"]),
            events_per_window=StreamingStats.from_state(state["events_per_window"]),
            window_detection=StreamingStats.from_state(state["window_detection"]),
            sweep_time_ns=StreamingStats.from_state(state["sweep_time_ns"]),
        )
        aggregator.recent_digests.extend(
            (int(window), str(digest)) for window, digest in state["recent_digests"]
        )
        return aggregator

    def summary_lines(self) -> list[str]:
        """Human-readable monitor summary for the CLI."""
        lines = [
            f"stream: {self.windows} windows ({self.empty_windows} empty), "
            f"{self.total_events} events in {self.elapsed_s:.2f} s sweep time "
            f"({self.windows_per_sec:.2f} windows/s)",
            f"  events          : {self.seu_events} SEU, "
            f"{self.int_read_events} intermittent-read "
            f"(mean {self.events_per_window.mean:.2f}/window)"
            if self.windows
            else "  events          : none",
        ]
        if self.detection_rate is not None:
            lines.append(
                f"  detection       : {self.detection_rate:.1%} of events "
                f"({self.detected_events} detected, "
                f"{self.escaped_events} escaped)"
            )
        if self.bursts_injected or self.bursts_detected:
            recall = self.burst_recall
            lines.append(
                f"  bursts          : {self.bursts_injected} injected, "
                f"{self.bursts_detected} flagged"
                + (f" (recall {recall:.0%})" if recall is not None else "")
            )
        if self.sweep_time_ns.count:
            lines.append(
                f"  sweep time      : mean {self.sweep_time_ns.mean / 1e3:.1f} us "
                f"simulated (max {self.sweep_time_ns.maximum / 1e3:.1f} us)"
            )
        return lines


#: Value types of one ``--metrics-out`` line, part by part.
_METRICS_SCHEMA: dict[str, dict[str, tuple]] = {
    "result": {
        "window": (int,),
        "start_ns": (int, float),
        "duration_ns": (int, float),
        "events": (int,),
        "seu_events": (int,),
        "int_read_events": (int,),
        "affected_memories": (int,),
        "detected_events": (int,),
        "escaped_events": (int,),
        "detection_rate": (int, float, type(None)),
        "escape_rate": (int, float, type(None)),
        "sweep_failures": (int,),
        "sweep_time_ns": (int, float),
        "burst_injected": (bool,),
        "burst_detected": (bool,),
        "burst_score": (int, float, type(None)),
    },
    "run": {"elapsed_s": (int, float)},
}


def validate_window_metrics(payload: dict) -> None:
    """Schema check for one per-window metrics record (CI smoke guard).

    Raises ``ValueError`` on a missing part or key or a mistyped value;
    accepts exactly the :meth:`WindowReport.to_json_dict` shape.
    """
    for part, schema in _METRICS_SCHEMA.items():
        section = payload.get(part)
        if not isinstance(section, dict):
            raise ValueError(f"window metrics record has no {part!r} object")
        missing = sorted(set(schema) - set(section))
        if missing:
            raise ValueError(f"window metrics {part} missing keys: {missing}")
        for key, types in schema.items():
            value = section[key]
            if isinstance(value, bool) and bool not in types:
                raise ValueError(f"window metrics key {key!r} must not be bool")
            if not isinstance(value, types):
                raise ValueError(
                    f"window metrics key {key!r} has type "
                    f"{type(value).__name__}, expected one of "
                    f"{[t.__name__ for t in types]}"
                )


def validate_window_metrics_line(line: str) -> dict:
    """Parse + schema-check one ``--metrics-out`` JSONL line."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("window metrics line must be a JSON object")
    validate_window_metrics(payload)
    return payload
