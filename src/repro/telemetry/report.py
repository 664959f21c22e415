"""Cross-process telemetry aggregation: the fleet's performance report.

Each worker process traces its chunks with a private
:class:`~repro.telemetry.core.Tracer` and ships
:meth:`~repro.telemetry.core.Tracer.snapshot` dicts back inside chunk
results; the scheduler folds them -- together with its own parent-side
tracer -- into one :class:`TelemetryReport` attached to
:class:`~repro.engine.aggregate.FleetReport`.

The report is *run metadata*: like ``elapsed_s`` it describes how the
run executed, never what it computed, so it renders under a report's
``run`` part, never in ``deterministic_dict()``, and never reaches
checkpoint bytes.  Its headline derived view is the **per-lane attribution** of
march time -- how much wall time the engine spent in the behavioural
replay lane vs the compiled fault-table lane vs the clean block-op lane,
and what fraction of word visits each lane carried -- the measurement the
heavy-diagnostic perf work is gated on.
"""

from __future__ import annotations

from repro.telemetry.core import Counters, Tracer

__all__ = ["TelemetryReport", "LANE_COUNTER_KEYS"]

#: Counter names the lane-attribution view is derived from (time in
#: integer nanoseconds, words in word-visits per march element).
LANE_COUNTER_KEYS = (
    "lane.replay.ns",
    "lane.table.ns",
    "lane.clean.ns",
    "lane.replay.words",
    "lane.table.words",
    "lane.clean.words",
)

#: Raw spans kept across all merged snapshots (aggregate span statistics
#: are unbounded and always exact; only the trace-viewer buffer is capped).
MAX_REPORT_SPANS = 200_000


class TelemetryReport:
    """Merged spans and counters of one fleet/scenario/bench run."""

    def __init__(self) -> None:
        self.counters = Counters()
        #: name -> [count, total_ns, min_ns, max_ns], merged across processes.
        self.span_stats: dict[str, list] = {}
        #: (pid, span-tuple) pairs feeding the Chrome trace exporter.
        self.spans: list[tuple[int, tuple]] = []
        self.dropped_spans = 0
        self.processes: set[int] = set()

    # ------------------------------------------------------------------ #
    # Merging                                                            #
    # ------------------------------------------------------------------ #
    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one worker (or parent) tracer snapshot in."""
        pid = snapshot.get("pid", 0)
        self.processes.add(pid)
        self.counters.merge(snapshot.get("counters", {}))
        for name, stats in snapshot.get("span_stats", {}).items():
            merged = self.span_stats.get(name)
            if merged is None:
                self.span_stats[name] = list(stats)
            else:
                merged[0] += stats[0]
                merged[1] += stats[1]
                merged[2] = min(merged[2], stats[2])
                merged[3] = max(merged[3], stats[3])
        self.dropped_spans += snapshot.get("dropped_spans", 0)
        for span in snapshot.get("spans", ()):
            if len(self.spans) < MAX_REPORT_SPANS:
                self.spans.append((pid, tuple(span)))
            else:
                self.dropped_spans += 1

    def merge_tracer(self, tracer: Tracer) -> None:
        """Convenience: merge a live tracer's snapshot."""
        self.merge_snapshot(tracer.snapshot())

    def merge_report(self, other: "TelemetryReport") -> None:
        """Fold another merged report in.

        The streaming monitor schedules an unbounded run as a sequence of
        bounded epochs, each producing its own report via
        :meth:`~repro.engine.fleet.FleetScheduler.stream`; this folds the
        epoch reports into the monitor's cumulative one.
        """
        self.processes |= other.processes
        self.counters.merge(other.counters.to_dict())
        for name, stats in other.span_stats.items():
            merged = self.span_stats.get(name)
            if merged is None:
                self.span_stats[name] = list(stats)
            else:
                merged[0] += stats[0]
                merged[1] += stats[1]
                merged[2] = min(merged[2], stats[2])
                merged[3] = max(merged[3], stats[3])
        self.dropped_spans += other.dropped_spans
        for pid, span in other.spans:
            if len(self.spans) < MAX_REPORT_SPANS:
                self.spans.append((pid, span))
            else:
                self.dropped_spans += 1

    # ------------------------------------------------------------------ #
    # Derived views                                                      #
    # ------------------------------------------------------------------ #
    def lane_attribution(self) -> dict:
        """Per-lane share of march execution time and word visits.

        ``march_time_s`` is the instrumented element-execution time (the
        sum of the three lanes); shares are ``None`` when nothing was
        instrumented (e.g. a reference-backend run, which has no lanes).
        """
        get = self.counters.get
        lanes = {}
        total_ns = 0
        total_words = 0
        for lane in ("replay", "table", "clean"):
            ns = get(f"lane.{lane}.ns")
            words = get(f"lane.{lane}.words")
            total_ns += ns
            total_words += words
            lanes[lane] = {"time_s": ns / 1e9, "words": words}
        for lane in lanes.values():
            lane["time_share"] = (
                lane["time_s"] * 1e9 / total_ns if total_ns else None
            )
            lane["word_share"] = (
                lane["words"] / total_words if total_words else None
            )
        return {
            "march_time_s": total_ns / 1e9,
            "total_words": total_words,
            "lanes": lanes,
            "clean_skipped_compares": get("clean.compares_skipped"),
            "replay_accesses": get("replay.accesses"),
        }

    def fleet_stats(self) -> dict:
        """Scheduler-level derived metrics (utilization, queue wait, I/O)."""
        get = self.counters.get
        workers = get("fleet.workers")
        elapsed_ns = get("fleet.elapsed.ns")
        busy_ns = get("fleet.worker_busy.ns")
        utilization = None
        if workers and elapsed_ns:
            utilization = min(1.0, busy_ns / (workers * elapsed_ns))
        return {
            "workers": int(workers) or None,
            "chunks": int(get("fleet.chunks")),
            "chunks_resumed": int(get("fleet.chunks_resumed")),
            "worker_busy_s": busy_ns / 1e9,
            "worker_utilization": utilization,
            "queue_wait_s": get("fleet.queue_wait.ns") / 1e9,
            "checkpoint_save_s": get("checkpoint.save.ns") / 1e9,
            "checkpoint_load_s": get("checkpoint.load.ns") / 1e9,
            # Fault-tolerance accounting (supervised executor).
            "retries": int(get("fleet.retries")),
            "respawns": int(get("fleet.respawns")),
            "quarantined": int(get("fleet.quarantined")),
            "chunks_recovered": int(get("fleet.chunks_recovered")),
        }

    def stream_stats(self) -> dict:
        """Streaming-monitor derived metrics (per-window attribution).

        Derived from the ``stream.window`` spans each worker emits per
        diagnosed window and the ``stream.*`` counters; all zeros/None
        for non-streaming runs.
        """
        get = self.counters.get
        sweep = self.span_stats.get("stream.window")
        windows = int(get("stream.windows"))
        return {
            "windows": windows,
            "empty_windows": int(get("stream.windows_empty")),
            "events": int(get("stream.events")),
            "detected_events": int(get("stream.detected")),
            "sweep_time_s": sweep[1] / 1e9 if sweep else 0.0,
            "mean_window_s": (
                sweep[1] / sweep[0] / 1e9 if sweep and sweep[0] else None
            ),
            "max_window_s": sweep[3] / 1e9 if sweep else None,
        }

    # ------------------------------------------------------------------ #
    # Rendering                                                          #
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        """The flat metrics document (``--metrics-out`` / ``--json``)."""
        stream = self.stream_stats()
        extra = {"stream": stream} if stream["windows"] else {}
        return {
            **extra,
            "processes": len(self.processes),
            "counters": self.counters.to_dict(),
            "span_stats": {
                name: {
                    "count": stats[0],
                    "total_s": stats[1] / 1e9,
                    "min_s": stats[2] / 1e9,
                    "max_s": stats[3] / 1e9,
                }
                for name, stats in sorted(self.span_stats.items())
            },
            "lane_attribution": self.lane_attribution(),
            "fleet": self.fleet_stats(),
            "dropped_spans": self.dropped_spans,
        }

    def summary_lines(self) -> list[str]:
        """Human-readable telemetry summary for the CLI."""

        def pct(share) -> str:
            return "n/a" if share is None else f"{share:.1%}"

        attribution = self.lane_attribution()
        fleet = self.fleet_stats()
        lines = ["telemetry:"]
        if attribution["march_time_s"] > 0:
            lines.append(
                f"  march time      : {attribution['march_time_s']:.3f} s "
                f"instrumented over {attribution['total_words']} word visits"
            )
            for lane in ("replay", "table", "clean"):
                entry = attribution["lanes"][lane]
                lines.append(
                    f"  {lane + ' lane':<16}: {pct(entry['time_share'])} of march "
                    f"time, {pct(entry['word_share'])} of words "
                    f"({entry['time_s']:.3f} s, {entry['words']} words)"
                )
            if attribution["clean_skipped_compares"]:
                lines.append(
                    f"  clean skips     : "
                    f"{attribution['clean_skipped_compares']} provably-clean "
                    f"compares skipped"
                )
        if fleet["chunks"]:
            utilization = fleet["worker_utilization"]
            lines.append(
                f"  fleet           : {fleet['chunks']} chunks "
                f"({fleet['chunks_resumed']} resumed) over "
                f"{fleet['workers'] or '?'} workers, utilization "
                f"{pct(utilization)}, queue wait {fleet['queue_wait_s']:.3f} s"
            )
            if fleet["checkpoint_save_s"] or fleet["checkpoint_load_s"]:
                lines.append(
                    f"  checkpoint I/O  : save {fleet['checkpoint_save_s']:.3f} s, "
                    f"load {fleet['checkpoint_load_s']:.3f} s"
                )
            if (
                fleet["retries"]
                or fleet["respawns"]
                or fleet["quarantined"]
                or fleet["chunks_recovered"]
            ):
                lines.append(
                    f"  fault tolerance : {fleet['retries']} retries, "
                    f"{fleet['respawns']} respawns, "
                    f"{fleet['quarantined']} quarantined, "
                    f"{fleet['chunks_recovered']} checkpoint chunks recovered"
                )
        stream = self.stream_stats()
        if stream["windows"]:
            mean = stream["mean_window_s"]
            lines.append(
                f"  stream          : {stream['windows']} windows "
                f"({stream['empty_windows']} empty), {stream['events']} events "
                f"({stream['detected_events']} detected), mean sweep "
                f"{'n/a' if mean is None else f'{mean * 1e3:.2f} ms'}"
            )
        hits = self.counters.get("plan_cache.hits")
        misses = self.counters.get("plan_cache.misses")
        if hits or misses:
            lines.append(
                f"  plan cache      : {hits} hits, {misses} misses"
            )
        if self.dropped_spans:
            lines.append(
                f"  spans dropped   : {self.dropped_spans} "
                f"(raw-span buffer full; aggregates stay exact)"
            )
        return lines
