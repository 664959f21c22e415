"""Fleet scheduler: fan a campaign spec out over a worker pool.

The unit of work is one :class:`~repro.core.campaign.DiagnosisCampaign`
(inject -> diagnose -> repair -> verify on one SoC build).  A
:class:`FleetSpec` describes a whole *population* of such campaigns --
same SoC shape and defect rate, one derived seed per campaign -- and the
:class:`FleetScheduler` executes them:

* campaign seeds derive deterministically from the master seed via
  :func:`repro.util.rng.derive_seed`, so results are identical no matter
  how many workers run or which worker picks up which chunk;
* campaigns are grouped into chunks and run by a
  :class:`~repro.engine.supervisor.ChunkSupervisor`.  With several
  workers it keeps that many long-lived processes, each taking one chunk
  at a time over its own pipe, and replaces a worker only when it dies
  or overruns its chunk deadline; a chunk that raises, a worker that
  dies and a chunk past its deadline are all detected, retried with
  seeded backoff and, once exhausted, raised or quarantined.
  ``workers <= 1`` (or a single pending chunk) is the supervisor's
  zero-process case: chunks run inline through the same retry and
  quarantine loop, which then retries exceptions only.  Abandoning the
  stream terminates busy workers without draining them and joins them
  all;
* finished chunks stream into a :class:`~repro.engine.aggregate.FleetReport`
  in campaign order (out-of-order chunks are buffered briefly), keeping
  aggregation deterministic and memory bounded;
* an ``auto`` backend is resolved once per run through the
  geometry-bucketing planner (:mod:`repro.engine.batched`): SoCs where
  several memories share a geometry upgrade to the fleet-batched backend,
  everything else keeps the per-memory numpy/reference choice;
* with a :class:`~repro.engine.checkpoint.CheckpointStore` attached,
  every finished chunk is persisted immediately and ``resume=True`` skips
  chunks the store already holds, reproducing the uninterrupted run's
  deterministic report content exactly.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro.core.campaign import DiagnosisCampaign
from repro.engine.aggregate import CampaignSummary, FleetReport
from repro.engine.checkpoint import CheckpointError, CheckpointStore, spec_digest
from repro.engine.packing import HAVE_NUMPY
from repro.engine.supervisor import (
    ChunkFailure,
    ChunkRetryPolicy,
    ChunkSupervisor,
)
from repro.faults.defects import DefectProfile, DefectType
from repro.memory.geometry import MemoryGeometry
from repro.soc.case_study import case_study_soc
from repro.soc.chip import SoCConfig
from repro.telemetry.core import Tracer, activate, deactivate, set_tracer
from repro.telemetry.core import tracer as _tracer
from repro.telemetry.report import TelemetryReport
from repro.util.records import Record
from repro.util.rng import derive_seed
from repro.util.validation import require, require_positive


@dataclass(frozen=True)
class FleetSpec(Record):
    """A reproducible population of diagnosis campaigns.

    Only primitives live here so the spec pickles cheaply to workers; each
    worker materializes its own :class:`~repro.soc.chip.SoCConfig`.
    """

    soc: str = "case-study"
    memories: int = 8
    heterogeneous: bool = True
    period_ns: float = 10.0
    campaigns: int = 8
    defect_rate: float = 0.005
    master_seed: int = 0
    spares_per_memory: int = 32
    include_baseline: bool = True
    repair: bool = True
    backend: str = "auto"
    #: Optional uniform geometry override: every memory becomes a
    #: ``(words, bits)`` instance (the X2 geometry matrix axis).
    geometry: tuple[int, int] | None = None
    #: Optional defect-class mix, one weight per
    #: :class:`~repro.faults.defects.DefectType` in declaration order
    #: (node-short, access-open, cell-bridge, pullup-open); ``None`` keeps
    #: the paper's equal-likelihood profile (the X3 fault-mix axis).
    defect_weights: tuple[float, float, float, float] | None = None
    #: Run baseline sessions in bit-accurate serial-replay mode (exact but
    #: ``O(k n c)``; meant for small geometries).
    baseline_bit_accurate: bool = False

    def __post_init__(self) -> None:
        require(self.soc in ("case-study", "buffer-cluster"), f"unknown SoC {self.soc!r}")
        require_positive(self.campaigns, "campaigns")
        require(0.0 <= self.defect_rate <= 1.0, "defect_rate must be in [0, 1]")
        if self.geometry is not None:
            require(
                len(self.geometry) == 2,
                "geometry must be a (words, bits) pair",
            )
        if self.defect_weights is not None:
            require(
                len(self.defect_weights) == len(DefectType),
                f"defect_weights needs one weight per defect class "
                f"({len(DefectType)}), got {len(self.defect_weights)}",
            )

    def build_soc(self) -> SoCConfig:
        """Materialize the SoC configuration this fleet diagnoses."""
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

    def build_profile(self) -> DefectProfile | None:
        """Materialize the defect profile (``None`` = paper default)."""
        if self.defect_weights is None:
            return None
        return DefectProfile(
            weights=dict(zip(DefectType, self.defect_weights))
        )

    def campaign_seed(self, index: int) -> int:
        """Deterministic seed of campaign ``index`` (worker-independent)."""
        return derive_seed(self.master_seed, index)


def run_campaign(spec: FleetSpec, index: int) -> CampaignSummary:
    """Execute one campaign of the fleet and summarize it."""
    from repro.engine.session import plan_cache_stats

    seed = spec.campaign_seed(index)
    campaign = DiagnosisCampaign(
        spec.build_soc(),
        defect_rate=spec.defect_rate,
        seed=seed,
        spares_per_memory=spec.spares_per_memory,
        backend=spec.backend,
        profile=spec.build_profile(),
        baseline_bit_accurate=spec.baseline_bit_accurate,
    )
    hits_before, misses_before = plan_cache_stats()
    report = campaign.run(
        include_baseline=spec.include_baseline, repair=spec.repair
    )
    hits_after, misses_after = plan_cache_stats()
    return CampaignSummary.from_report(
        index,
        seed,
        report,
        plan_cache_hits=hits_after - hits_before,
        plan_cache_misses=misses_after - misses_before,
    )


def run_chunk(spec: FleetSpec, indices: tuple[int, ...]) -> list[CampaignSummary]:
    """Worker entry point: run a chunk of campaigns sequentially."""
    return [run_campaign(spec, index) for index in indices]


def chunked_indices(campaigns: int, chunk_size: int) -> list[tuple[int, ...]]:
    """Split campaign indices into contiguous chunks."""
    require_positive(chunk_size, "chunk_size")
    return [
        tuple(range(start, min(start + chunk_size, campaigns)))
        for start in range(0, campaigns, chunk_size)
    ]


def _traced_chunk(
    chunk_runner: "ChunkRunner",
    spec,
    item: tuple[int, tuple[int, ...]],
) -> tuple[int, list[CampaignSummary], None]:
    """Inline task: run one chunk as a ``fleet.chunk`` span of the active tracer.

    Inline chunks trace straight into the caller's tracer (no snapshot
    shipping), so their spans nest into the parent timeline.
    """
    chunk_index, indices = item
    tr = _tracer()
    if not tr.enabled:
        return chunk_index, chunk_runner(spec, indices), None
    started = time.perf_counter_ns()
    with tr.span("fleet.chunk", "fleet", chunk=chunk_index, campaigns=len(indices)):
        summaries = chunk_runner(spec, indices)
    tr.counters.add("fleet.worker_busy.ns", time.perf_counter_ns() - started)
    return chunk_index, summaries, None


def _run_indexed_chunk(
    chunk_runner: "ChunkRunner",
    spec,
    telemetry_enabled: bool,
    item: tuple[int, tuple[int, ...]],
) -> tuple[int, list[CampaignSummary], dict | None]:
    """Worker task: run one chunk and tag it with its submission index.

    With telemetry enabled the worker activates a *fresh* tracer for the
    chunk (fork inherits the parent's tracer object; reusing it would
    double-count the parent's spans in every snapshot), traces the chunk
    as one ``fleet.chunk`` span and ships the tracer snapshot back with
    the summaries for the scheduler to merge.
    """
    if not telemetry_enabled:
        return item[0], chunk_runner(spec, item[1]), None
    tracer = activate()
    try:
        chunk_index, summaries, _ = _traced_chunk(chunk_runner, spec, item)
        return chunk_index, summaries, tracer.snapshot()
    finally:
        deactivate()


#: A chunk runner maps ``(spec, campaign_indices)`` to summaries; it must
#: be a picklable module-level callable so worker pools can import it.
ChunkRunner = Callable[..., "list[CampaignSummary]"]


def plan_spec_backend(spec):
    """Resolve a spec's ``auto`` backend through the geometry planner.

    Returns the spec itself unless it asks for ``auto``, numpy is
    importable and the SoC has at least one geometry bucket of two or
    more memories -- in which case a copy requesting the fleet-batched
    backend is returned (bit-exact, so only throughput changes).  Spec-like
    objects without a ``backend``/``build_soc`` contract pass through
    untouched.
    """
    if (
        getattr(spec, "backend", None) != "auto"
        or not HAVE_NUMPY
        or not dataclasses.is_dataclass(spec)
        or not hasattr(spec, "build_soc")
    ):
        return spec
    from repro.engine.batched import batched_backend_pays_off

    if batched_backend_pays_off(spec.build_soc().geometries):
        return dataclasses.replace(spec, backend="batched")
    return spec


class FleetScheduler:
    """Executes a campaign population over a local worker pool.

    The default configuration runs :class:`FleetSpec` campaigns via
    :func:`run_chunk`; any spec-like object exposing ``campaigns`` can be
    scheduled by passing a custom ``chunk_runner`` (the scenario engine
    schedules :class:`~repro.scenarios.spec.ScenarioSpec` flows this way),
    so seeding, chunking, pooling, checkpointing and ordered aggregation
    exist once.

    ``checkpoint`` (a directory path or a prepared
    :class:`~repro.engine.checkpoint.CheckpointStore`) persists every
    finished chunk; ``resume=True`` additionally loads chunks the store
    already holds instead of recomputing them.  Stale or corrupt stores
    raise :class:`~repro.engine.checkpoint.CheckpointError` up front.

    ``telemetry=True`` traces the run -- engine spans and counters in
    every worker, scheduler-level utilization and queue-wait accounting
    in the parent -- and attaches the merged
    :class:`~repro.telemetry.report.TelemetryReport` to the returned
    report.  Telemetry is deliberately *not* part of the spec: it changes
    no result byte and no checkpoint byte, so a run may toggle it freely
    across interrupt/resume cycles.
    """

    def __init__(
        self,
        spec,
        workers: int | None = None,
        chunk_size: int | None = None,
        chunk_runner: ChunkRunner | None = None,
        checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
        resume: bool = False,
        telemetry: bool = False,
        retry: ChunkRetryPolicy | None = None,
        on_chunk_failure: str = "raise",
    ) -> None:
        # An ``auto`` backend is pinned here, before chunks fan out, so
        # every worker -- and the checkpoint digest -- sees one concrete
        # backend choice.
        self.spec = plan_spec_backend(spec)
        self.chunk_runner: ChunkRunner = chunk_runner or run_chunk
        self.workers = self._resolve_workers(workers)
        self.telemetry = bool(telemetry)
        require(
            on_chunk_failure in ("raise", "quarantine"),
            f"on_chunk_failure must be 'raise' or 'quarantine', "
            f"got {on_chunk_failure!r}",
        )
        self.on_chunk_failure = on_chunk_failure
        self.retry = retry if retry is not None else ChunkRetryPolicy()
        #: :class:`~repro.engine.supervisor.ChunkFailure` records of the
        #: chunks quarantined by the last run/stream (empty when strict
        #: mode is active or nothing failed).
        self.last_failures: list[ChunkFailure] = []
        self._telemetry_report: TelemetryReport | None = None
        #: Telemetry merged by the last :meth:`stream` consumption (also
        #: set on early close); ``None`` until a stream ends.
        self.last_telemetry: TelemetryReport | None = None
        if chunk_size is None and checkpoint is not None:
            # The implicit default below depends on the worker count (and
            # so on the machine); a resume must reproduce the original
            # chunk partition, so adopt the store's recorded chunk size.
            if isinstance(checkpoint, CheckpointStore):
                chunk_size = checkpoint.chunk_size
            else:
                manifest = CheckpointStore.peek_manifest(checkpoint)
                if manifest is not None and isinstance(
                    manifest.get("chunk_size"), int
                ):
                    chunk_size = manifest["chunk_size"]
        if chunk_size is None:
            # Aim for a few chunks per worker so stragglers rebalance.
            chunk_size = max(1, self.spec.campaigns // max(1, self.workers * 4))
        require_positive(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.resume = resume
        if checkpoint is None:
            require(not resume, "resume=True requires a checkpoint store")
            self.checkpoint: CheckpointStore | None = None
        elif isinstance(checkpoint, CheckpointStore):
            # A prepared store must still belong to *this* run: loading
            # another spec's chunks would silently aggregate wrong data.
            total = len(chunked_indices(self.spec.campaigns, self.chunk_size))
            expected = spec_digest(self.spec, self.chunk_size, total)
            if checkpoint.digest != expected:
                raise CheckpointError(
                    f"checkpoint store digest {checkpoint.digest!r} does not "
                    f"match this scheduler's spec/chunking digest "
                    f"{expected!r}; build the store from the same spec"
                )
            self.checkpoint = checkpoint
        else:
            total = len(chunked_indices(self.spec.campaigns, self.chunk_size))
            self.checkpoint = CheckpointStore(
                checkpoint, self.spec, self.chunk_size, total
            )

    @staticmethod
    def _resolve_workers(workers: int | None) -> int:
        if workers is None:
            return max(1, (os.cpu_count() or 2) - 1)
        require(workers >= 0, "workers must be >= 0")
        return max(1, workers)

    def run(
        self, progress: Callable[[int, int], None] | None = None
    ) -> FleetReport:
        """Run every campaign and return the aggregated fleet report.

        A fold over :meth:`stream`.  ``progress`` (optional) is called
        with ``(done, total)`` after each chunk completes.
        """
        report = FleetReport()
        started = time.perf_counter()
        stream = self.stream(progress)
        try:
            for chunk in stream:
                for summary in chunk:
                    report.add(summary)
        finally:
            # Deterministically unwind the stream (and with it the
            # workers) even when aggregation raises.
            stream.close()
        report.elapsed_s = time.perf_counter() - started
        if self.last_failures:
            report.failures = [
                failure.block_entry()
                for failure in sorted(
                    self.last_failures, key=lambda f: f.chunk_index
                )
            ]
        report.telemetry = self.last_telemetry
        return report

    def stream(
        self, progress: Callable[[int, int], None] | None = None
    ) -> Iterator[list[CampaignSummary]]:
        """Yield chunk results in submission order, one chunk at a time.

        :meth:`run` folds this stream into a report; other consumers
        (the streaming monitor) aggregate however they like and may stop
        whenever they like -- ``break``-ing out (or calling ``close()``)
        is the *normal* way to end consumption, and tears the workers
        down immediately without draining in-flight chunks and without
        orphaning any.  With ``telemetry=True`` the merged
        :class:`~repro.telemetry.report.TelemetryReport` is published on
        ``self.last_telemetry`` once the stream ends (fully consumed or
        closed early).
        """
        chunks = chunked_indices(self.spec.campaigns, self.chunk_size)
        parent_tracer: Tracer | None = None
        previous_tracer = None
        if self.telemetry:
            # The parent traces checkpoint reads, inline chunks and its
            # own queue waits; workers ship their snapshots via the chunk
            # protocol.  The previous tracer is restored on every exit so
            # nested/bench-driven runs compose.
            self._telemetry_report = TelemetryReport()
            parent_tracer = Tracer()
            previous_tracer = set_tracer(parent_tracer)
        self.last_telemetry = None
        started = time.perf_counter()
        done = 0
        inner = self._stream_chunks(chunks)
        try:
            for chunk in inner:
                yield chunk
                done += len(chunk)
                if progress is not None:
                    progress(done, self.spec.campaigns)
        finally:
            inner.close()
            if previous_tracer is not None:
                set_tracer(previous_tracer)
            if parent_tracer is not None:
                telemetry_report = self._telemetry_report
                self._telemetry_report = None
                counters = parent_tracer.counters
                counters.add("fleet.workers", self.workers)
                counters.add(
                    "fleet.elapsed.ns",
                    int((time.perf_counter() - started) * 1e9),
                )
                telemetry_report.merge_tracer(parent_tracer)
                self.last_telemetry = telemetry_report

    def _stream_chunks(
        self, chunks: list[tuple[int, ...]]
    ) -> Iterator[list[CampaignSummary]]:
        """Yield chunk results in submission order (deterministic)."""
        self.last_failures = []
        tr = _tracer()
        loaded: set[int] = set()
        recovered: list[int] = []
        if self.checkpoint is not None and self.resume:
            loaded = set(self.checkpoint.completed_chunks())
            if self.on_chunk_failure == "quarantine":
                # Recovery path: a corrupt or stale chunk file fails the
                # whole resume in strict mode; in quarantine mode the bad
                # file is set aside and just that chunk re-runs.  Chunks
                # are pure functions of (spec, indices), so the re-run
                # reproduces the lost bytes exactly.
                for index in sorted(loaded):
                    try:
                        self.checkpoint.load(index, expected_indices=chunks[index])
                    except CheckpointError:
                        self.checkpoint.quarantine_chunk(index)
                        loaded.discard(index)
                        recovered.append(index)
        pending = [
            (index, chunk)
            for index, chunk in enumerate(chunks)
            if index not in loaded
        ]
        if tr.enabled:
            tr.counters.add("fleet.chunks", len(chunks))
            tr.counters.add("fleet.chunks_resumed", len(loaded))
            # Fault-tolerance counters always exist under telemetry so
            # metrics consumers need not special-case the happy path.
            tr.counters.add("fleet.retries", 0)
            tr.counters.add("fleet.respawns", 0)
            tr.counters.add("fleet.quarantined", 0)
            tr.counters.add("fleet.chunks_recovered", len(recovered))
        executor = self._execute_pending(pending, chunks)
        # Pending results arrive in completion order and wait in
        # ``buffered`` until their chunk is the head of line; persisted
        # chunks are read only when the head of line reaches them -- so
        # the pool spins up immediately and parent-side buffering stays
        # bounded by pool skew, however the loaded and freshly-run chunks
        # interleave.  Worker telemetry snapshots merge on arrival
        # (merging is order-insensitive).
        report = self._telemetry_report
        submitted = {index for index, _ in pending}
        outstanding = set(submitted)
        buffered: dict[int, list[CampaignSummary]] = {}
        try:
            for index, chunk in enumerate(chunks):
                if index in loaded:
                    yield self.checkpoint.load(index, expected_indices=chunk)
                    continue
                # Parent time blocked on the pool (for inline runs this
                # equals execution time; with a pool it is the
                # scheduler's idle wait for the head-of-line chunk).
                wait_started = time.perf_counter_ns()
                while index not in buffered:
                    result = next(executor, None)
                    if result is None:
                        raise RuntimeError(
                            f"worker pool ended early: completed "
                            f"{len(pending) - len(outstanding)} of "
                            f"{len(pending)} expected chunk results; "
                            f"head-of-line chunk {index} (campaigns "
                            f"{chunk[0]}..{chunk[-1]}) never arrived"
                        )
                    done, summaries, snapshot = result
                    if done not in submitted:
                        raise RuntimeError(
                            f"chunk index {done} outside the "
                            f"{len(pending)} pending chunks"
                        )
                    if done not in outstanding:
                        raise RuntimeError(f"chunk {done} completed twice")
                    outstanding.remove(done)
                    buffered[done] = summaries
                    if snapshot is not None and report is not None:
                        report.merge_snapshot(snapshot)
                if tr.enabled:
                    tr.counters.add(
                        "fleet.queue_wait.ns",
                        time.perf_counter_ns() - wait_started,
                    )
                yield buffered.pop(index)
            # Only reached on full consumption: a consumer that breaks
            # out of the stream raises GeneratorExit at a ``yield`` above
            # and skips straight to ``finally`` -- early close is a
            # supported exit, never a completeness violation.
            leftover = next(executor, None)
            if leftover is not None:
                raise RuntimeError(
                    f"chunk {leftover[0]} completed after all "
                    f"{len(pending)} pending chunks were delivered"
                )
        finally:
            # Early close: GeneratorExit lands in the supervisor loop,
            # which *terminates* busy workers rather than draining their
            # results and joins every worker.  An abandoned stream
            # therefore never blocks on in-flight chunks and never
            # orphans workers.
            executor.close()

    def _execute_pending(
        self,
        pending: list[tuple[int, tuple[int, ...]]],
        chunks: list[tuple[int, ...]],
    ) -> Iterator[tuple[int, list[CampaignSummary], dict | None]]:
        """Run the not-yet-persisted chunks, saving each as it completes.

        Yields completion-order ``(chunk_index, summaries, snapshot)``
        triples; a quarantined chunk yields an empty summary list and is
        deliberately *not* persisted, so a later resume re-runs it.
        Checkpoints are written here, in completion order, so an
        interrupt loses at most the chunks still in flight.
        """
        if not pending:
            return
        if self.workers <= 1 or len(pending) <= 1:
            context, workers = None, 0
            task = partial(_traced_chunk, self.chunk_runner, self.spec)
        else:
            context = self._pool_context()
            workers = min(self.workers, len(pending))
            task = partial(
                _run_indexed_chunk, self.chunk_runner, self.spec, self.telemetry
            )
        supervisor = ChunkSupervisor(
            context=context,
            workers=workers,
            task=task,
            policy=self.retry,
            jitter_seed=getattr(self.spec, "master_seed", 0),
            quarantine=self.on_chunk_failure == "quarantine",
            failures=self.last_failures,
        )
        try:
            for index, summaries, snapshot in supervisor.results(pending):
                if summaries is None:
                    yield index, [], snapshot
                    continue
                self._persist(index, chunks[index], summaries)
                yield index, summaries, snapshot
        finally:
            tr = _tracer()
            if tr.enabled:
                tr.counters.add("fleet.retries", supervisor.retries)
                tr.counters.add("fleet.respawns", supervisor.respawns)
                tr.counters.add("fleet.quarantined", supervisor.quarantined)

    def _persist(
        self,
        index: int,
        chunk: tuple[int, ...],
        summaries: list[CampaignSummary],
    ) -> None:
        if self.checkpoint is not None:
            self.checkpoint.save(index, chunk, summaries)

    @staticmethod
    def _pool_context():
        methods = multiprocessing.get_all_start_methods()
        override = os.environ.get("REPRO_START_METHOD")
        if override:
            # Fork-unsafe environments (threaded embedders, macOS system
            # frameworks) can force spawn/forkserver without code changes.
            require(
                override in methods,
                f"REPRO_START_METHOD={override!r} is not a supported start "
                f"method on this platform (available: {', '.join(methods)})",
            )
            return multiprocessing.get_context(override)
        # fork avoids re-importing the package per worker where available.
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_fleet(
    spec: FleetSpec,
    workers: int | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    checkpoint: "CheckpointStore | str | os.PathLike | None" = None,
    resume: bool = False,
    telemetry: bool = False,
    retry: ChunkRetryPolicy | None = None,
    on_chunk_failure: str = "raise",
    chunk_runner: ChunkRunner | None = None,
) -> FleetReport:
    """Convenience wrapper: schedule ``spec`` and aggregate the results."""
    return FleetScheduler(
        spec,
        workers=workers,
        chunk_size=chunk_size,
        chunk_runner=chunk_runner,
        checkpoint=checkpoint,
        resume=resume,
        telemetry=telemetry,
        retry=retry,
        on_chunk_failure=on_chunk_failure,
    ).run(progress)
