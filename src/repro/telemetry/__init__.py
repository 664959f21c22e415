"""Engine telemetry: spans, counters and per-lane perf attribution.

A zero-dependency tracing/metrics subsystem threaded through the whole
execution stack (session -> kernels -> fleet scheduler -> bench):

* :mod:`repro.telemetry.core` -- the :class:`Tracer` (nestable
  monotonic-clock spans, a :class:`Counters` registry) and the no-op
  :class:`NullTracer` the hot path sees when telemetry is off;
* :mod:`repro.telemetry.report` -- :class:`TelemetryReport`, the
  cross-process merge of worker tracer snapshots with the per-lane
  (replay / table / clean) time and word attribution derived from it;
* :mod:`repro.telemetry.export` -- Chrome ``trace_event`` JSON
  (``chrome://tracing`` / Perfetto) and flat metrics JSON exporters.

Telemetry is run metadata: enabling it changes no result byte -- it
renders under a report's ``run`` part next to the wall clock, never in
``FleetReport.deterministic_dict()`` or in checkpoint chunk files.
"""

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
from repro.telemetry.export import (
    chrome_trace_events,
    write_chrome_trace,
    write_metrics_json,
)
from repro.telemetry.report import TelemetryReport

__all__ = [
    "Counters",
    "NULL_TRACER",
    "NullTracer",
    "TelemetryReport",
    "Tracer",
    "activate",
    "chrome_trace_events",
    "deactivate",
    "set_tracer",
    "tracer",
    "write_chrome_trace",
    "write_metrics_json",
]
