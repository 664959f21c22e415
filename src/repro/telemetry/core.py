"""Zero-dependency tracing and metrics primitives.

The engine's hot paths are instrumented with *sites* -- a span around a
march element, a counter bump after a replay sweep -- that all route
through one process-global tracer handle (:func:`tracer`).  Two
implementations exist:

* :class:`Tracer` records nestable spans against the monotonic clock
  (``time.perf_counter_ns``), keeps per-name aggregate span statistics,
  and owns a :class:`Counters` registry of cheap int/float accumulators.
  A bounded raw-span buffer feeds the Chrome ``trace_event`` exporter;
  when it fills, spans degrade to aggregate statistics only (counted in
  ``dropped_spans``) so long fleets never hoard memory.
* :class:`NullTracer` is the default: every operation is a no-op and
  ``enabled`` is ``False``, so instrumentation sites reduce to one
  attribute check and the un-instrumented hot path pays (almost) nothing.

While a :class:`Tracer` is installed, a ``gc.callbacks`` entry counts
every cyclic garbage collection and its time (``gc.collections``,
``gc.gen2.collections``, ``gc.ns``); installing the null tracer removes
it again, so a disabled tracer costs nothing there either.

Workers serialize their tracer via :meth:`Tracer.snapshot` -- a plain
JSON-friendly dict shipped back inside chunk results -- and the fleet
scheduler merges snapshots into a
:class:`~repro.telemetry.report.TelemetryReport`.  Timestamps are raw
``perf_counter_ns`` values; on the platforms the engine targets that
clock is system-wide monotonic, so spans from forked workers land on the
same timeline as the parent's (the exporters re-zero to the earliest
span anyway).
"""

from __future__ import annotations

import gc
import os
import time

__all__ = [
    "Counters",
    "NullTracer",
    "Tracer",
    "activate",
    "deactivate",
    "set_tracer",
    "tracer",
    "NULL_TRACER",
]


class Counters:
    """A flat registry of named int/float accumulators.

    Names are dotted paths (``"lane.replay.ns"``); values only ever add.
    Deliberately dict-backed and method-light: one ``dict.get`` plus an
    add per bump, no dataclass or attribute machinery on the hot path.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: dict[str, int | float] = {}

    def add(self, name: str, value: int | float = 1) -> None:
        """Accumulate ``value`` into counter ``name`` (created at 0)."""
        values = self.values
        values[name] = values.get(name, 0) + value

    def get(self, name: str, default: int | float = 0) -> int | float:
        """Current value of counter ``name``."""
        return self.values.get(name, default)

    def merge(self, other: "Counters | dict[str, int | float]") -> None:
        """Fold another registry (or its dict form) into this one."""
        values = other.values if isinstance(other, Counters) else other
        for name, value in values.items():
            self.add(name, value)

    def to_dict(self) -> dict[str, int | float]:
        """Name-sorted plain dict of every counter."""
        return {name: self.values[name] for name in sorted(self.values)}


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span` (one per entry)."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str, args) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_SpanContext":
        self._depth = len(self._tracer._stack)
        self._tracer._stack.append(self._name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._stack.pop()
        tracer._finish(
            self._name,
            self._category,
            self._start_ns,
            end_ns - self._start_ns,
            self._depth,
            self._args,
        )


class _NullSpan:
    """Reusable no-op context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every site reduces to ``if tracer.enabled``.

    ``counters`` is a real (empty) registry so accidental unguarded adds
    cannot crash; the contract sites follow is to check ``enabled`` first
    so even that cost is skipped.
    """

    enabled = False

    def __init__(self) -> None:
        self.counters = Counters()

    def span(self, name: str, category: str = "engine", **args) -> _NullSpan:
        """A shared no-op context manager."""
        return _NULL_SPAN

    def snapshot(self) -> dict:
        """An empty snapshot (merging it is a no-op)."""
        return {
            "pid": os.getpid(),
            "counters": {},
            "span_stats": {},
            "spans": [],
            "dropped_spans": 0,
        }


class Tracer:
    """Records nestable spans and counters against the monotonic clock.

    Spans close in LIFO order (the context manager guarantees it), so the
    recorded depth reconstructs the tree and the Chrome exporter can emit
    properly nested B/E pairs.  Aggregate per-name statistics are always
    maintained; raw spans are kept only up to ``max_spans``.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000) -> None:
        self.counters = Counters()
        self.max_spans = max_spans
        self.dropped_spans = 0
        self.pid = os.getpid()
        #: Finished spans as (name, category, start_ns, duration_ns,
        #: depth, args) tuples, in completion order.
        self.spans: list[tuple] = []
        #: name -> [count, total_ns, min_ns, max_ns]
        self.span_stats: dict[str, list] = {}
        self._stack: list[str] = []

    def span(self, name: str, category: str = "engine", **args) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        return _SpanContext(self, name, category, args or None)

    def _finish(
        self,
        name: str,
        category: str,
        start_ns: int,
        duration_ns: int,
        depth: int,
        args,
    ) -> None:
        stats = self.span_stats.get(name)
        if stats is None:
            self.span_stats[name] = [1, duration_ns, duration_ns, duration_ns]
        else:
            stats[0] += 1
            stats[1] += duration_ns
            if duration_ns < stats[2]:
                stats[2] = duration_ns
            if duration_ns > stats[3]:
                stats[3] = duration_ns
        if len(self.spans) < self.max_spans:
            self.spans.append((name, category, start_ns, duration_ns, depth, args))
        else:
            self.dropped_spans += 1

    def snapshot(self) -> dict:
        """JSON-friendly dump for cross-process shipping.

        Open spans (a snapshot taken mid-span) are not included; the
        fleet protocol snapshots only after the chunk's top span closed.
        """
        return {
            "pid": self.pid,
            "counters": dict(self.counters.values),
            "span_stats": {
                name: list(stats) for name, stats in self.span_stats.items()
            },
            "spans": [list(span) for span in self.spans],
            "dropped_spans": self.dropped_spans,
        }


#: The process-wide default: telemetry off, hot paths unencumbered.
NULL_TRACER = NullTracer()

_current: "Tracer | NullTracer" = NULL_TRACER


def tracer() -> "Tracer | NullTracer":
    """The process-global tracer handle every instrumentation site reads."""
    return _current


def set_tracer(instance: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Install ``instance`` as the process-global tracer; returns the old one.

    An enabled tracer registers the garbage-collection counter
    (:func:`_count_collection`); the null tracer unregisters it.
    """
    global _current
    previous = _current
    _current = instance
    registered = _count_collection in gc.callbacks
    if instance.enabled and not registered:
        gc.callbacks.append(_count_collection)
    elif registered and not instance.enabled:
        gc.callbacks.remove(_count_collection)
    return previous


_gc_started_ns = 0


def _count_collection(phase: str, info: dict) -> None:
    """``gc.callbacks`` entry: one cyclic collection and its time, counted."""
    global _gc_started_ns
    if phase == "start":
        _gc_started_ns = time.perf_counter_ns()
        return
    if not _current.enabled:
        return
    counters = _current.counters
    counters.add("gc.collections")
    if info["generation"] == 2:
        counters.add("gc.gen2.collections")
    counters.add("gc.ns", time.perf_counter_ns() - _gc_started_ns)


def activate(max_spans: int = 100_000) -> Tracer:
    """Install and return a fresh active :class:`Tracer`."""
    instance = Tracer(max_spans=max_spans)
    set_tracer(instance)
    return instance


def deactivate() -> "Tracer | NullTracer":
    """Restore the null tracer; returns the tracer that was active."""
    return set_tracer(NULL_TRACER)
