"""The streaming online-monitoring fleet: periodic sweeps over a timeline.

A :class:`StreamingMonitor` turns the batch fleet machinery into an
online monitor: the :class:`~repro.streaming.timeline.EventTimeline`
draws SEU/intermittent arrivals window by window, each window's affected
memories get a periodic diagnosis sweep (the paper's scheme, through any
registered backend), and results stream back as an **iterator of
:class:`~repro.streaming.window.WindowReport`** -- there is no terminal
``run()`` and no end to the timeline.

Scheduling
----------
An infinite run cannot be one :class:`~repro.engine.fleet.FleetScheduler`
submission (the scheduler enumerates its chunks up front), so the monitor
schedules bounded **epochs**: each epoch is a fleet of ``epoch_windows``
window-sweep "campaigns" consumed through the scheduler's
:meth:`~repro.engine.fleet.FleetScheduler.stream` iterator, and epochs
chain for as long as the consumer keeps iterating.  Window indices are
absolute (``base_window + local index``), so results are independent of
worker count, chunk size *and* epoch length -- the partition is pure
scheduling.  Breaking out of the iterator tears the current epoch's pool
down immediately (the early-close contract of ``stream()``).

Bounded memory
--------------
Per-epoch scheduler state dies with the epoch; cumulative state is one
:class:`~repro.streaming.window.WindowAggregator` (scalars + Welford
accumulators + a digest ring) and one
:class:`~repro.streaming.window.BurstDetector` (a bounded count ring).
The CI smoke job pins this with a tracemalloc guard over a 50-window run.

Resume
------
With a :class:`~repro.engine.checkpoint.RingCheckpointStore` attached,
every finished window publishes its deterministic payload plus the
cumulative aggregator/detector state; ``resume=True`` restores the
latest record and continues at the next window, reproducing the
remaining windows' ``deterministic_dict()`` byte for byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterator

from repro.core.scheme import FastDiagnosisScheme
from repro.engine.aggregate import quarantine_line
from repro.engine.checkpoint import RingCheckpointStore
from repro.engine.fleet import FleetScheduler, plan_spec_backend
from repro.engine.supervisor import ChunkRetryPolicy
from repro.engine.session import run_session
from repro.faults.intermittent import EVENT_KIND_SEU, fault_for_event
from repro.scenarios.cluster import (
    ClusterField,
    arrival_weights,
    sample_cluster_centers,
)
from repro.soc.case_study import case_study_soc
from repro.soc.chip import SoCConfig
from repro.soc.floorplan import Floorplan
from repro.streaming.timeline import EventTimeline
from repro.streaming.window import BurstDetector, WindowAggregator, WindowReport
from repro.telemetry.core import tracer as _tracer
from repro.telemetry.report import TelemetryReport
from repro.memory.geometry import MemoryGeometry
from repro.util.records import Record
from repro.util.validation import require, require_in_range, require_positive

#: Default windows per scheduling epoch (the unit of pool submission).
DEFAULT_EPOCH_WINDOWS = 32


@dataclass(frozen=True)
class StreamingSpec(Record):
    """A reproducible infinite monitoring stream.

    Only primitives live here (like :class:`~repro.engine.fleet.FleetSpec`)
    so the spec pickles cheaply to workers and digests canonically into
    ring checkpoints.  The spec describes the *stream* -- fleet shape,
    window partition, arrival process -- never the scheduling layout
    (workers/chunks/epochs), which must not affect results.
    """

    soc: str = "case-study"
    memories: int = 8
    heterogeneous: bool = True
    period_ns: float = 10.0
    backend: str = "auto"
    master_seed: int = 0
    #: Uniform ``(words, bits)`` geometry override (as in FleetSpec).
    geometry: tuple[int, int] | None = None
    #: Window duration on the simulated timeline.
    window_ns: float = 10_000.0
    #: Poisson mean arrivals per window.
    events_per_window: float = 3.0
    #: Per-access upset probability of materialized event faults.
    upset_probability: float = 0.3
    #: Fraction of events that are SEUs (the rest intermittent reads).
    seu_fraction: float = 0.5
    #: Per-window burst chance and the arrival-mean factor it applies.
    burst_probability: float = 0.05
    burst_factor: float = 4.0
    #: Floorplan/cluster-field shape driving spatial arrival weights.
    die_size: float = 100.0
    placement_seed: int = 0
    cluster_centers: int = 3
    cluster_base_rate: float = 0.01
    cluster_peak_rate: float = 0.15
    cluster_radius: float = 25.0

    def __post_init__(self) -> None:
        require(
            self.soc in ("case-study", "buffer-cluster"),
            f"unknown SoC {self.soc!r}",
        )
        require_positive(self.window_ns, "window_ns")
        require(self.events_per_window >= 0.0, "events_per_window must be >= 0")
        require_in_range(self.upset_probability, 0.0, 1.0, "upset_probability")
        require_in_range(self.seu_fraction, 0.0, 1.0, "seu_fraction")
        require_in_range(self.burst_probability, 0.0, 1.0, "burst_probability")
        require(self.burst_factor >= 1.0, "burst_factor must be >= 1")
        require(self.cluster_centers >= 0, "cluster_centers must be >= 0")
        if self.geometry is not None:
            require(
                len(self.geometry) == 2, "geometry must be a (words, bits) pair"
            )

    def build_soc(self) -> SoCConfig:
        """Materialize the SoC configuration the monitor watches."""
        if self.geometry is not None:
            words, bits = self.geometry
            return SoCConfig(
                name=f"uniform-{words}x{bits}",
                geometries=[
                    MemoryGeometry(words, bits, f"esram_{i}")
                    for i in range(self.memories)
                ],
                period_ns=self.period_ns,
            )
        if self.soc == "buffer-cluster":
            return SoCConfig.buffer_cluster(period_ns=self.period_ns)
        return case_study_soc(
            memories=self.memories,
            heterogeneous=self.heterogeneous,
            period_ns=self.period_ns,
        )

    def build_floorplan(self, soc: SoCConfig | None = None) -> Floorplan:
        """Name-seeded floorplan (placement independent of bank order)."""
        return Floorplan.name_seeded(
            soc or self.build_soc(),
            die_size=self.die_size,
            seed=self.placement_seed,
        )

    def intensity_field(self) -> ClusterField:
        """The spatial arrival-intensity field of the stream.

        Centers derive from the master seed only (stream index 0): one
        fixed field for the whole stream, so window events stay a pure
        function of ``(spec, window)``.
        """
        return ClusterField(
            centers=sample_cluster_centers(
                self.cluster_centers, self.die_size, self.master_seed, 0
            ),
            base_rate=self.cluster_base_rate,
            peak_rate=self.cluster_peak_rate,
            radius=self.cluster_radius,
        )

    def timeline(self, soc: SoCConfig | None = None) -> EventTimeline:
        """Materialize the event timeline this spec describes."""
        soc = soc or self.build_soc()
        weights = arrival_weights(self.intensity_field(), self.build_floorplan(soc))
        return EventTimeline(
            cells_by_memory={g.name: g.cells for g in soc.geometries},
            weights=weights,
            window_ns=self.window_ns,
            events_per_window=self.events_per_window,
            master_seed=self.master_seed,
            burst_probability=self.burst_probability,
            burst_factor=self.burst_factor,
            seu_fraction=self.seu_fraction,
        )


@dataclass(frozen=True)
class _EpochSpec(Record):
    """One bounded scheduling epoch of a stream (internal).

    Looks like a fleet spec to :class:`~repro.engine.fleet.FleetScheduler`
    (``campaigns`` window sweeps, a concrete pre-planned ``backend``)
    while carrying the absolute window base so workers compute
    partition-independent results.
    """

    stream: StreamingSpec
    base_window: int
    campaigns: int
    backend: str


def _run_window(
    spec: StreamingSpec,
    backend: str,
    geometries: dict[str, MemoryGeometry],
    timeline: EventTimeline,
    window: int,
) -> WindowReport:
    """Diagnose one window: inject its events, sweep, account detection."""
    started = time.perf_counter()
    events = timeline.events_for_window(window)
    report = WindowReport(
        index=window,
        start_ns=timeline.window_start_ns(window),
        duration_ns=timeline.window_ns,
        events=len(events),
        burst_injected=timeline.burst_in_window(window),
    )
    if events:
        report.seu_events = sum(1 for e in events if e.kind == EVENT_KIND_SEU)
        report.int_read_events = len(events) - report.seu_events
        affected = sorted({event.memory for event in events})
        report.affected_memories = len(affected)
        # Sweep only the struck memories: the periodic diagnosis visits
        # everything over time, but within one window only banks with
        # arrivals can produce failures -- skipping the rest bounds
        # per-window work by the arrival rate, not the fleet size.
        window_soc = SoCConfig(
            name=f"window-{window}",
            geometries=[geometries[name] for name in affected],
            period_ns=spec.period_ns,
        )
        bank = window_soc.build_bank()
        for event in events:
            fault = fault_for_event(
                event.kind,
                geometries[event.memory].cell_at(event.cell_index),
                spec.upset_probability,
                event.seed,
            )
            fault.attach(bank.by_name(event.memory))
        scheme = FastDiagnosisScheme(bank, period_ns=spec.period_ns)
        sweep = run_session(scheme, backend=backend)
        report.sweep_failures = sweep.total_failures
        report.sweep_time_ns = sweep.time_ns
        # A geometry's linear cell index is the log's cell id.
        detected = {
            name: set(sweep.failure_log(name).cell_ids()) for name in affected
        }
        for event in events:
            if event.cell_index in detected[event.memory]:
                report.detected_events += 1
        report.escaped_events = report.events - report.detected_events
    report.elapsed_s = time.perf_counter() - started
    return report


def run_window_chunk(
    epoch: _EpochSpec, indices: tuple[int, ...]
) -> list[WindowReport]:
    """Worker entry point: sweep a chunk of windows sequentially."""
    spec = epoch.stream
    soc = spec.build_soc()
    geometries = {geometry.name: geometry for geometry in soc.geometries}
    timeline = spec.timeline(soc)
    reports = []
    tr = _tracer()
    for local in indices:
        window = epoch.base_window + local
        if tr.enabled:
            with tr.span("stream.window", "stream", window=window):
                report = _run_window(spec, epoch.backend, geometries, timeline, window)
            tr.counters.add("stream.windows")
            tr.counters.add("stream.events", report.events)
            tr.counters.add("stream.detected", report.detected_events)
            if report.events == 0:
                tr.counters.add("stream.windows_empty")
        else:
            report = _run_window(spec, epoch.backend, geometries, timeline, window)
        reports.append(report)
    return reports


class StreamingMonitor:
    """Iterate diagnosis windows over an infinite event timeline.

    Usage::

        monitor = StreamingMonitor(StreamingSpec(), windows=50, workers=4)
        for report in monitor.windows():
            ...                      # one WindowReport per window, in order
        monitor.aggregator           # cumulative windowed statistics

    ``windows=None`` streams forever; ``break`` out whenever done (the
    underlying pool terminates immediately, never orphaning workers).

    Parameters mirror :class:`~repro.engine.fleet.FleetScheduler` where
    they mean the same thing: ``workers``/``chunk_size`` shape the pool,
    ``checkpoint`` (directory path or prepared
    :class:`~repro.engine.checkpoint.RingCheckpointStore`) enables the
    windowed ring checkpoint, ``resume=True`` continues from its latest
    record, ``telemetry=True`` merges per-window spans into
    ``self.telemetry_report``.  ``retain`` bounds both the checkpoint
    ring and the aggregator's digest ring.
    """

    def __init__(
        self,
        spec: StreamingSpec,
        windows: int | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        epoch_windows: int = DEFAULT_EPOCH_WINDOWS,
        checkpoint: "RingCheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        telemetry: bool = False,
        retain: int = 8,
        retry: "ChunkRetryPolicy | None" = None,
        on_chunk_failure: str = "raise",
    ) -> None:
        # Pin an ``auto`` backend once, before any worker sees the spec
        # (and before the ring digest is computed), exactly like the
        # fleet scheduler does.
        self.spec: StreamingSpec = plan_spec_backend(spec)
        if windows is not None:
            require_positive(windows, "windows")
        require_positive(epoch_windows, "epoch_windows")
        self.total_windows = windows
        self.workers = workers
        self.chunk_size = chunk_size
        self.epoch_windows = epoch_windows
        self.telemetry = bool(telemetry)
        self.telemetry_report: TelemetryReport | None = (
            TelemetryReport() if telemetry else None
        )
        if checkpoint is None:
            require(not resume, "resume=True requires a checkpoint store")
            self.checkpoint: RingCheckpointStore | None = None
        elif isinstance(checkpoint, RingCheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = RingCheckpointStore(
                checkpoint, self.spec, retain=retain
            )
        require(
            on_chunk_failure in ("raise", "quarantine"),
            f"on_chunk_failure must be 'raise' or 'quarantine', "
            f"got {on_chunk_failure!r}",
        )
        self.retry = retry
        self.on_chunk_failure = on_chunk_failure
        #: Quarantined-window records from degraded-mode epochs: one
        #: ``{"windows", "error_kinds"}`` entry per poison chunk.
        self.failures: list[dict] = []
        self.aggregator = WindowAggregator(retain=retain)
        self.detector = BurstDetector()
        self.next_window = 0
        if resume:
            # Quarantine mode salvages a damaged ring (corrupt slots are
            # set aside) instead of refusing to resume.
            latest = self.checkpoint.latest(
                recover=on_chunk_failure == "quarantine"
            )
            if latest is not None:
                self.aggregator = WindowAggregator.from_state(
                    latest["state"]["aggregator"]
                )
                self.detector = BurstDetector.from_state(
                    latest["state"]["detector"]
                )
                self.next_window = latest["window"] + 1

    def state_dict(self) -> dict:
        """Cumulative resumable monitor state (one ring-checkpoint record)."""
        return {
            "aggregator": self.aggregator.state_dict(),
            "detector": self.detector.state_dict(),
        }

    def to_json_dict(self) -> dict:
        """The ``--json`` rendering: the aggregate's ``result`` and ``run``.

        Quarantined windows join ``result`` as a ``failures`` block, only
        when there are any (as on a fleet report); telemetry joins ``run``.
        """
        payload = self.aggregator.to_json_dict()
        if self.failures:
            payload["result"]["failures"] = [dict(entry) for entry in self.failures]
        if self.telemetry_report is not None:
            payload["run"]["telemetry"] = self.telemetry_report.to_json_dict()
        return payload

    def summary_lines(self) -> list[str]:
        """Human-readable summary: the aggregate plus quarantined windows."""
        lines = self.aggregator.summary_lines()
        if self.failures:
            lines.append(quarantine_line(self.failures, "windows"))
        return lines

    def windows(self) -> Iterator[WindowReport]:
        """Yield one :class:`WindowReport` per window, in window order.

        The generator is the monitor's only drive loop: each yielded
        report has already been burst-scored, folded into
        ``self.aggregator`` and (when checkpointing) published to the
        ring.  Closing the generator -- ``break``, ``close()``, GC --
        stops the stream cleanly mid-epoch.
        """
        while (
            self.total_windows is None or self.next_window < self.total_windows
        ):
            if self.total_windows is None:
                count = self.epoch_windows
            else:
                count = min(
                    self.epoch_windows, self.total_windows - self.next_window
                )
            epoch = _EpochSpec(
                stream=self.spec,
                base_window=self.next_window,
                campaigns=count,
                backend=self.spec.backend,
            )
            scheduler = FleetScheduler(
                epoch,
                workers=self.workers,
                chunk_size=self.chunk_size,
                chunk_runner=run_window_chunk,
                telemetry=self.telemetry,
                retry=self.retry,
                on_chunk_failure=self.on_chunk_failure,
            )
            stream = scheduler.stream()
            try:
                for chunk in stream:
                    for report in chunk:
                        flagged, score = self.detector.observe(report.events)
                        report.burst_detected = flagged
                        report.burst_score = score
                        self.aggregator.add(report)
                        if self.checkpoint is not None:
                            self.checkpoint.save(
                                report.index,
                                report.deterministic_dict(),
                                self.state_dict(),
                            )
                        self.next_window = report.index + 1
                        yield report
                # Only reached when the epoch was fully consumed: advance
                # past any *trailing* quarantined windows, which yielded
                # no reports -- otherwise the next epoch would re-cover
                # (and re-fail) the same base window forever.
                self.next_window = max(
                    self.next_window, epoch.base_window + count
                )
            finally:
                # Early close lands here via GeneratorExit: closing the
                # scheduler stream terminates the epoch's pool without
                # draining it, then its telemetry (complete or partial)
                # folds into the cumulative report.
                stream.close()
                for failure in scheduler.last_failures:
                    self.failures.append(
                        {
                            "windows": [
                                epoch.base_window + local
                                for local in failure.campaign_indices
                            ],
                            "error_kinds": list(failure.error_kinds),
                        }
                    )
                if (
                    self.telemetry_report is not None
                    and scheduler.last_telemetry is not None
                ):
                    self.telemetry_report.merge_report(scheduler.last_telemetry)


def run_monitor(
    spec: StreamingSpec,
    windows: int,
    **kwargs,
) -> WindowAggregator:
    """Convenience: consume ``windows`` windows and return the aggregates."""
    monitor = StreamingMonitor(spec, windows=windows, **kwargs)
    for _ in monitor.windows():
        pass
    return monitor.aggregator
