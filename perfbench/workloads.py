"""The benchmark's four workloads.

Each workload turns the benchmark seed into program inputs and runs them
through the entry points a user drives (``FleetScheduler``,
``scenario_scheduler``, ``StreamingMonitor``).  Work arrives in *rounds*
of ops; an op is one campaign, one scenario flow or one monitor window.
The op space of a seed is finite (``cap`` ops), so a run that outlives
it starts the sequence again, and every op position has one digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from typing import Iterator

from repro.engine.aggregate import FleetReport
from repro.engine.fleet import FleetScheduler, FleetSpec, plan_spec_backend
from repro.scenarios.runner import scenario_scheduler
from repro.scenarios.spec import preset_spec
from repro.streaming.monitor import StreamingMonitor, StreamingSpec


def digest(payload: dict) -> str:
    """Short content digest of one op's deterministic output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class Workload:
    """Inputs from a seed, rounds of ``(op position, output)`` pairs, checks."""

    name = ""
    #: Whether campaigns run in pooled worker processes.
    pooled = False
    #: Worker processes the workload pins.
    workers = 1
    #: Ops recomputed through an independent backend after the run.
    parity_ops = 1

    def __init__(self, seed: int, size: str, scratch: str, backend: str = "auto"):
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.backend = backend

    @property
    def resolved_backend(self) -> str:
        """The concrete backend ``auto`` resolves to for this workload."""
        return plan_spec_backend(self.spec).backend

    def rounds(self, sink=None) -> Iterator[list]:
        """Endless rounds from op 0; ``sink`` collects the run's telemetry."""
        raise NotImplementedError

    @staticmethod
    def payload(summary) -> dict:
        """Deterministic content of a campaign summary (no plan-cache fields)."""
        return {
            key: value
            for key, value in summary.to_dict().items()
            if not key.startswith("plan_cache")
        }

    @staticmethod
    def problem(summary) -> str | None:
        """First invariant a campaign summary violates, or ``None``."""
        if not 0.0 <= summary.localization_rate <= 1.0:
            return f"localization rate {summary.localization_rate} outside [0, 1]"
        if summary.total_failures < 0 or summary.injected_faults < 0:
            return "negative failure or fault count"
        if summary.reduction_factor is not None and summary.reduction_factor < 1.0:
            return f"reduction factor {summary.reduction_factor} < 1"
        if summary.escape_rate is not None and not 0.0 <= summary.escape_rate <= 1.0:
            return f"escape rate {summary.escape_rate} outside [0, 1]"
        return None

    @staticmethod
    def failing_reads(summary) -> int:
        """Failing reads of the op's first diagnosis session."""
        return summary.total_failures

    def paper_values(self, outputs: list) -> dict:
        """Paper-facing outputs over distinct ops (printed, not gated)."""
        report = FleetReport()
        for summary in outputs:
            report.add(summary)
        values = {"mean_localization": report.localization.mean}
        if report.reduction.count:
            values["mean_measured_R"] = report.reduction.mean
        if report.escape_rate.count:
            values["mean_escape_rate"] = report.escape_rate.mean
        if report.ecc_masked_escape.count:
            values["mean_ecc_masked_escape_rate"] = report.ecc_masked_escape.mean
        return values

    def close(self) -> None:
        """Release the workload's scratch state."""

    def _stream_rounds(self, make_scheduler, sink) -> Iterator[list]:
        """One round per chunk of a scheduler stream, one stream per op cycle."""
        report = FleetReport()
        while True:
            scheduler = make_scheduler(sink is not None)
            stream = scheduler.stream()
            try:
                for chunk in stream:
                    # The fold ``FleetScheduler.run`` performs per chunk.
                    for summary in chunk:
                        report.add(summary)
                    yield [(summary.index, summary) for summary in chunk]
            finally:
                stream.close()
                if sink is not None and scheduler.last_telemetry is not None:
                    sink.merge_report(scheduler.last_telemetry)


class HeavyCampaign(Workload):
    """256-SRAM SoC at 0.5% defects with baseline, repair and verify, inline.

    The engine does nearly all the work and the scheduler none, so bank
    build, march sessions and scoring show here.
    """

    name = "heavy-campaign"

    def __init__(self, seed, size, scratch, backend="auto"):
        super().__init__(seed, size, scratch, backend)
        self.cap = 24
        self.spec = FleetSpec(
            memories=256 if size == "full" else 16,
            campaigns=self.cap,
            defect_rate=0.005,
            master_seed=seed,
            backend=backend,
        )

    def rounds(self, sink=None):
        return self._stream_rounds(
            lambda telemetry: FleetScheduler(
                self.spec, workers=1, chunk_size=1, telemetry=telemetry
            ),
            sink,
        )


class ScreeningFleet(Workload):
    """Fleets of 32-SRAM SoCs at 0.02% defects, pooled, checkpointed.

    Campaigns are short and fault-light, so per-chunk costs dominate:
    process start, cold caches, IPC and checkpoint writes.
    """

    name = "screening-fleet"
    pooled = True
    workers = 2
    chunk_size = 4
    parity_ops = 4

    def __init__(self, seed, size, scratch, backend="auto"):
        super().__init__(seed, size, scratch, backend)
        self.round_campaigns = 32 if size == "full" else 8
        self.cap_rounds = 16
        self.cap = self.round_campaigns * self.cap_rounds
        self.spec = self._round_spec(0)
        #: Checkpoint stores written so far (removed by :meth:`close`).
        self.stores: list[str] = []
        #: On-disk bytes and chunk files of the stores of traced rounds.
        self.store_bytes = 0
        self.store_chunks = 0

    def _round_spec(self, position: int) -> FleetSpec:
        return FleetSpec(
            memories=32 if self.size == "full" else 8,
            campaigns=self.round_campaigns,
            defect_rate=0.0002,
            # One fleet per round; no two seeds share a round's fleet.
            master_seed=self.seed * 1000 + position,
            backend=self.backend,
        )

    def rounds(self, sink=None):
        count = 0
        while True:
            position = count % self.cap_rounds
            store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
            self.stores.append(store)
            scheduler = FleetScheduler(
                self._round_spec(position),
                workers=self.workers,
                chunk_size=self.chunk_size,
                checkpoint=store,
                telemetry=sink is not None,
            )
            report = FleetReport()
            ops = []
            stream = scheduler.stream()
            try:
                for chunk in stream:
                    # The fold ``FleetScheduler.run`` performs per chunk.
                    for summary in chunk:
                        report.add(summary)
                        ops.append(
                            (position * self.round_campaigns + summary.index, summary)
                        )
            finally:
                stream.close()
            if sink is not None:
                if scheduler.last_telemetry is not None:
                    sink.merge_report(scheduler.last_telemetry)
                with os.scandir(store) as entries:
                    for entry in entries:
                        self.store_bytes += entry.stat().st_size
                        self.store_chunks += entry.name.startswith("chunk_")
            count += 1
            yield ops

    def close(self):
        for store in self.stores:
            shutil.rmtree(store, ignore_errors=True)
        self.stores = []


class ScenarioFlow(Workload):
    """burn-in-soft-error flows with SEC-DED and a 4x4 BISR budget, inline.

    Sessions repeat on a bank that each repair changes, and every one runs
    through the SEC-DED decoder and the BISR allocator.
    """

    name = "scenario-flow"

    def __init__(self, seed, size, scratch, backend="auto"):
        super().__init__(seed, size, scratch, backend)
        self.cap = 48
        self.spec = preset_spec(
            "burn-in-soft-error",
            memories=32 if size == "full" else 8,
            campaigns=self.cap,
            master_seed=seed,
            ecc="secded",
            spare_rows=4,
            spare_cols=4,
            backend=backend,
        )

    def rounds(self, sink=None):
        return self._stream_rounds(
            lambda telemetry: scenario_scheduler(
                self.spec, workers=1, chunk_size=1, telemetry=telemetry
            ),
            sink,
        )


class MonitorStream(Workload):
    """StreamingMonitor over the default 8-memory stream, inline.

    The only workload that runs ``repro.streaming``: many depth-1 sweeps
    whose fixed per-session setup dominates.
    """

    name = "monitor-stream"
    parity_ops = 32
    #: Streams per op cycle and windows per stream.  A stream's master
    #: seed places its arrival clusters, which decides which memories --
    #: of very different sizes -- its sweeps visit; following many
    #: streams keeps that draw from deciding a run's cost.
    streams = 32
    stream_windows = 64

    def __init__(self, seed, size, scratch, backend="auto"):
        super().__init__(seed, size, scratch, backend)
        if size != "full":
            self.streams = 4
        self.cap = self.streams * self.stream_windows
        self.spec = self._stream_spec(0)

    def _stream_spec(self, stream: int) -> StreamingSpec:
        return StreamingSpec(
            master_seed=self.seed * self.streams + stream, backend=self.backend
        )

    def rounds(self, sink=None):
        count = 0
        while True:
            stream = count % self.streams
            monitor = StreamingMonitor(
                self._stream_spec(stream),
                windows=self.stream_windows,
                workers=1,
                telemetry=sink is not None,
            )
            windows = monitor.windows()
            try:
                for report in windows:
                    yield [(stream * self.stream_windows + report.index, report)]
            finally:
                windows.close()
                if sink is not None and monitor.telemetry_report is not None:
                    sink.merge_report(monitor.telemetry_report)
            count += 1

    @staticmethod
    def payload(report) -> dict:
        return report.deterministic_dict()

    @staticmethod
    def problem(report) -> str | None:
        if report.detected_events + report.escaped_events != report.events:
            return "detected + escaped events != events"
        if report.seu_events + report.int_read_events != report.events:
            return "event kinds do not add up to the events"
        if report.affected_memories > report.events:
            return "more affected memories than events"
        return None

    @staticmethod
    def failing_reads(report) -> int:
        return report.sweep_failures

    def paper_values(self, outputs):
        events = sum(report.events for report in outputs)
        detected = sum(report.detected_events for report in outputs)
        return {"detection_rate": detected / events if events else None}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (HeavyCampaign, ScreeningFleet, ScenarioFlow, MonitorStream)
}


def parity_workload(workload: Workload) -> Workload:
    """The same inputs through an independent backend.

    Batched results are checked against the per-memory numpy path, and
    numpy results against the reference simulator.
    """
    other = "numpy" if workload.resolved_backend == "batched" else "reference"
    return type(workload)(workload.seed, workload.size, workload.scratch, other)
