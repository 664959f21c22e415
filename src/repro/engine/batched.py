"""Fleet-batched march execution: whole geometry buckets per vector op.

The numpy backend vectorizes *within* one SRAM; a fleet session over
hundreds of distributed small memories still pays the full Python
per-memory cost (plan construction, per-block array dispatch) once per
instance per element.  This tier removes that multiplier:

* the **geometry-bucketing planner** (:func:`geometry_buckets`,
  :func:`plan_session_buckets`) groups the vector-capable memories of a
  bank by ``(words, bits)``;
* each bucket is packed into one stacked ``(n_mem, words, lanes)`` uint64
  array (:func:`repro.engine.packing.pack_bank`) and every march element
  is applied to the whole stack as single fleet-wide ops -- one write
  assignment and one compare per operation per wrap-around block,
  regardless of how many SRAMs share the geometry;
* element plans are built once per bucket instead of once per memory
  (plans are pure functions of the widths, see
  :func:`repro.engine.session.session_step_plans`) and cached across
  campaigns sharing a (march, geometry) pair;
* *analytically evaluable* cell faults -- the deterministic kinds
  (stuck-at, transition, read/write-disturb, NWRC-weak, inter-word
  coupling) plus the stateful-but-closed-form ones (counter-based
  intermittent/soft-error upsets, retention decay with its analytic
  visit clock) -- are lowered into a compiled fault table
  (:mod:`repro.engine.fault_table`) and evaluated fleet-wide as masked
  vector ops inside the same block decomposition -- the dense-defect fast
  path;
* the remaining fault-hooked words keep the behavioural replay of
  :func:`repro.engine.kernel.replay_dirty_rows` -- exact sweep order and
  clocking per memory -- so the mechanisms with genuinely sequential
  state (intra-word coupling, legacy-stream intermittent faults behind
  the ``legacy_stream`` compat flag) observe reference-identical times.
  Session wrap-around is handled by the same block decomposition as the
  single-memory kernel.

The result is bit-exact against the reference and numpy paths (validated
by the differential fuzz matrix) while the Python overhead amortizes over
the bucket population.  ``BatchedBackend`` subclasses the numpy backend,
so raw single-memory march runs and the baseline's iterate-repair sparse
serial replay (:mod:`repro.engine.baseline_session`) run unchanged
through it; the batched win applies to full diagnosis sessions, where
:func:`repro.engine.session.run_session` dispatches here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.failure_log import FailureLog
from repro.core.report import ProposedReport
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.backends import NumpyBackend, register_backend, vector_capable
from repro.engine.fault_table import TableEvaluator, lower_bucket
from repro.engine.kernel import (
    CleanWordTracker,
    ElementPlan,
    SessionHits,
    replay_dirty_positions,
    sync_clean_rows,
)
from repro.engine.packing import np, pack_bank, word_to_lanes
from repro.engine.session import (
    _run_memory_session,
    begin_session,
    finalize_memory_counters,
    finish_session,
    session_step_plans,
)
from repro.march.algorithm import PauseStep
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer


class BatchedBackend(NumpyBackend):
    """Numpy backend whose sessions sweep geometry buckets as one array.

    For raw single-memory march runs this is exactly the numpy backend;
    selecting it for a session (``run_session`` / campaigns / fleets)
    activates the stacked execution of :func:`run_batched_session`.
    """

    name = "batched"


# --------------------------------------------------------------------- #
# Geometry-bucketing planner                                            #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GeometryBucket:
    """One same-geometry group of bank positions."""

    words: int
    bits: int
    indices: tuple[int, ...]


def geometry_buckets(geometries) -> dict[tuple[int, int], list[int]]:
    """Group indices of ``(words, bits)``-shaped entries by geometry.

    Accepts anything with ``words``/``bits`` attributes (geometries,
    SRAMs).  Bucket order follows first appearance, so planning is
    deterministic for a given bank order.
    """
    buckets: dict[tuple[int, int], list[int]] = {}
    for index, geometry in enumerate(geometries):
        buckets.setdefault((geometry.words, geometry.bits), []).append(index)
    return buckets


def plan_session_buckets(bank) -> tuple[list[GeometryBucket], list[int]]:
    """Split a bank into batched geometry buckets and fallback positions.

    Memories the vector path cannot represent (access tracing, decoder or
    column-mux faults) fall back to the per-memory session path; everyone
    else joins the bucket of its geometry, single-memory buckets included
    (a stack of one is still the vector path, just without amortization).
    """
    capable: list[int] = []
    fallback: list[int] = []
    for index, memory in enumerate(bank):
        if vector_capable(memory):
            capable.append(index)
        else:
            fallback.append(index)
    grouped = geometry_buckets([bank[index] for index in capable])
    buckets = [
        GeometryBucket(words, bits, tuple(capable[i] for i in members))
        for (words, bits), members in grouped.items()
    ]
    return buckets, fallback


def batched_backend_pays_off(geometries) -> bool:
    """Whether geometry bucketing amortizes anything for this bank shape.

    The fleet scheduler's ``auto`` planning upgrades to the batched
    backend exactly when some bucket holds at least two memories --
    otherwise every stack has depth one and the per-memory numpy path is
    the same work with less indirection.
    """
    return any(
        len(members) >= 2 for members in geometry_buckets(geometries).values()
    )


# --------------------------------------------------------------------- #
# Stacked session execution                                             #
# --------------------------------------------------------------------- #
def run_batched_session(scheme: FastDiagnosisScheme) -> ProposedReport:
    """Run one diagnosis session with geometry-bucketed stacked sweeps.

    Produces the same :class:`~repro.core.report.ProposedReport` as the
    reference and per-memory numpy paths, bit for bit (failure logs whose
    records come out in identical order, cycle and time accounting
    included).
    """
    algorithm, report, deliveries, nwrc_ops = begin_session(scheme)
    reads_per_word = algorithm.reads_per_word()
    buckets, fallback = plan_session_buckets(scheme.bank)
    for bucket in buckets:
        memories = [scheme.bank[index] for index in bucket.indices]
        for memory, failures in zip(
            memories, _run_bucket_session(scheme, memories, algorithm)
        ):
            report.failures[memory.name] = failures
    for index in fallback:
        memory = scheme.bank[index]
        report.failures[memory.name] = _run_memory_session(
            scheme, memory, algorithm
        )
    for memory in scheme.bank:
        finalize_memory_counters(
            scheme, memory, report.failures[memory.name], reads_per_word
        )
    return finish_session(scheme, report, deliveries, nwrc_ops)


class BucketSweep:
    """Per-bucket sweep geometry, resolved once for a whole session.

    Every element of a session sweeps the same controller address span,
    so the position/local-row maps (one per direction) and each memory's
    dirty sweep positions (dirty masks are static within a session) are
    computed here exactly once instead of once per element per memory.
    """

    def __init__(self, words: int, sweep: int, dirty_masks) -> None:
        self.words = words
        self.sweep = sweep
        positions = np.arange(sweep)
        self.positions = positions
        descending = (sweep - 1) - positions
        self.local_rows = {
            True: positions % words if sweep != words else positions,
            False: descending % words if sweep != words else descending,
        }
        self.dirty_positions = {
            ascending: [
                positions[dirty_masks[member][rows]].tolist()
                for member in range(dirty_masks.shape[0])
            ]
            for ascending, rows in self.local_rows.items()
        }
        # Row -> in-block offset for *full* blocks.  Full blocks all start
        # at a multiple of ``words``, so the offset of a row inside the
        # block is direction-dependent but block-independent: a row's
        # sweep position is ``block_start + offset``.
        rows = np.arange(words)
        self.full_block_offsets = {
            True: rows,
            False: (sweep - 1 - rows) % words,
        }


class _TimedEvaluator:
    """:class:`TableEvaluator` proxy attributing its time to the table lane.

    Brackets every evaluator call with the monotonic clock, accumulating
    into ``lane.table.ns`` (and counting each block's visited table rows
    into ``lane.table.words``), so the vector section's remainder is the
    clean lane's share.  Constructed only when telemetry is enabled; the
    normal path keeps the bare evaluator.
    """

    __slots__ = ("_inner", "_counters")

    def __init__(self, inner: TableEvaluator, counters) -> None:
        self._inner = inner
        self._counters = counters

    @property
    def needs_timing(self) -> bool:
        return self._inner.needs_timing

    def start_element(
        self, plan, write_lanes_per_op, base_now=None, periods=None
    ) -> None:
        started = time.perf_counter_ns()
        self._inner.start_element(plan, write_lanes_per_op, base_now, periods)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)

    def start_block(self, plan, block_start, block_len):
        started = time.perf_counter_ns()
        ctx = self._inner.start_block(plan, block_start, block_len)
        counters = self._counters
        counters.add("lane.table.ns", time.perf_counter_ns() - started)
        counters.add("lane.table.words", int(ctx.idx.size))
        return ctx

    def read_op(self, ctx, expected_lanes, op_index=0):
        started = time.perf_counter_ns()
        hits = self._inner.read_op(ctx, expected_lanes, op_index)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)
        return hits

    def prepare_write(self, ctx, write_lanes, is_nwrc, op_index=0):
        started = time.perf_counter_ns()
        corrected = self._inner.prepare_write(ctx, write_lanes, is_nwrc, op_index)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)
        return corrected

    def commit_write(self, ctx, corrected) -> None:
        started = time.perf_counter_ns()
        self._inner.commit_write(ctx, corrected)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)

    def end_block(self, ctx) -> None:
        started = time.perf_counter_ns()
        self._inner.end_block(ctx)
        self._counters.add("lane.table.ns", time.perf_counter_ns() - started)


def _run_bucket_session(
    scheme: FastDiagnosisScheme, memories: list[SRAM], algorithm
) -> list[FailureLog]:
    """Run every element of the session over one stacked geometry bucket."""
    plans = session_step_plans(scheme, memories[0], algorithm)
    states, _, _, lanes = pack_bank(memories)
    # Three-way row partition: ideal rows take the block-op path, rows
    # whose faults all lower take the compiled-table path, and the rest
    # keep the behavioural replay lane.
    lanes_split = lower_bucket(memories)
    sweep = BucketSweep(
        memories[0].words, scheme.controller_words, lanes_split.replay_masks
    )
    evaluator = (
        TableEvaluator(lanes_split.table, sweep, states)
        if lanes_split.table is not None
        else None
    )
    tr = _tracer()
    if tr.enabled:
        counters = tr.counters
        counters.add("bucket.sessions")
        counters.add("bucket.memories", len(memories))
        counters.add("bucket.replay_rows", int(lanes_split.replay_masks.sum()))
        counters.add("bucket.table_rows", int(lanes_split.table_masks.sum()))
        counters.add("bucket.clean_rows", int(lanes_split.clean_masks.sum()))
        if evaluator is not None:
            evaluator = _TimedEvaluator(evaluator, counters)
    hits = SessionHits(lanes, scheme.ecc_observers)
    tracker = CleanWordTracker()
    for plan in plans:
        if isinstance(plan, PauseStep):
            for memory in memories:
                memory.pause(plan.duration_ns)
            continue
        element_args = (
            memories,
            states,
            lanes_split.clean_masks,
            plan,
            lanes,
            sweep,
            hits,
            evaluator,
            tracker,
        )
        if tr.enabled:
            with tr.span(
                "march.element",
                "march",
                step=plan.step_label,
                memories=len(memories),
            ):
                run_element_batched(*element_args)
        else:
            run_element_batched(*element_args)
    if lanes_split.table is not None:
        # Multi-session flows (test -> repair -> retest) reuse fault
        # objects: hand the advanced draw counters / decay clocks back so
        # the next session resumes the decision sequences exactly.
        lanes_split.table.sync_fault_state()
    vector_masks = lanes_split.vector_masks
    for member, memory in enumerate(memories):
        sync_clean_rows(memory, states[member], vector_masks[member])
    return hits.logs(
        [memory.name for memory in memories], memories[0].bits, plans
    )


def run_element_batched(
    memories: list[SRAM],
    states,
    clean_masks,
    plan: ElementPlan,
    lanes: int,
    sweep_plan: BucketSweep,
    hits: SessionHits,
    evaluator: "TableEvaluator | None" = None,
    tracker: CleanWordTracker | None = None,
) -> None:
    """Execute one element over a same-geometry stack of memories.

    ``states`` is the packed ``(n_mem, words, lanes)`` array --
    authoritative for clean and fault-table rows (behavioural-replay rows
    live in the memory objects).  ``evaluator`` is the bucket's compiled
    fault table (:mod:`repro.engine.fault_table`), evaluated inside the
    same block decomposition as the clean rows; ``tracker`` (one per
    bucket session) skips clean compares that provably cannot mismatch.
    Every raw mismatch lands in ``hits`` under its bucket member --
    exactly what :func:`repro.engine.kernel.run_element` would add memory
    by memory; any on-die ECC decode runs once per session, in
    :meth:`~repro.engine.kernel.SessionHits.logs`.
    """
    words = sweep_plan.words
    sweep = sweep_plan.sweep
    ops = plan.ops
    per_address = plan.per_address_ticks
    step = plan.step_index

    positions = sweep_plan.positions
    local_rows = sweep_plan.local_rows[plan.ascending]
    dirty_positions = sweep_plan.dirty_positions[plan.ascending]

    # Retention entries need each member's element-start wall clock and
    # cycle period, captured *before* the replay loop below advances the
    # time bases to end-of-element.  The expression mirrors the replay
    # lane's ``tick(deliver_ticks)`` float arithmetic exactly.
    base_now = periods = None
    if evaluator is not None and evaluator.needs_timing:
        base_now = np.array(
            [
                memory.timebase.now_ns
                + plan.deliver_ticks * memory.timebase.period_ns
                for memory in memories
            ],
            dtype=np.float64,
        )
        periods = np.array(
            [memory.timebase.period_ns for memory in memories], dtype=np.float64
        )

    tr = _tracer()
    telem = tr.enabled
    if telem:
        counters = tr.counters
        clean_total = int(clean_masks.sum())
        replay_started = time.perf_counter_ns()

    # Replay rows: per-memory behavioural replay in exact sweep order and
    # time; every other row's share of each schedule is pure clocking.
    for member, memory in enumerate(memories):
        timebase = memory.timebase
        if plan.deliver_ticks:
            timebase.tick(plan.deliver_ticks)
        base_cycles = timebase.cycles
        if dirty_positions[member]:
            hits.add_scalar(
                member,
                step,
                replay_dirty_positions(
                    memory,
                    plan,
                    dirty_positions[member],
                    base_cycles,
                    per_address,
                ),
            )
        timebase.tick(base_cycles + sweep * per_address - timebase.cycles)

    if telem:
        vector_started = time.perf_counter_ns()
        replay_words = sum(len(member) for member in dirty_positions)
        counters.add("lane.replay.ns", vector_started - replay_started)
        counters.add("lane.replay.words", replay_words)
        table_ns_before = counters.get("lane.table.ns")
        table_words_before = counters.get("lane.table.words")

    # Clean and table rows: fleet-wide vector ops, block-wise so
    # wrap-around revisits never touch a row twice inside one
    # assignment/compare.
    write_lanes_per_op = [
        None if op_plan.op.is_read else word_to_lanes(op_plan.write_word, lanes)
        for op_plan in ops
    ]
    if evaluator is not None:
        evaluator.start_element(plan, write_lanes_per_op, base_now, periods)
    if clean_masks.any() or evaluator is not None:
        for block_start in range(0, sweep, words):
            block_end = min(block_start + words, sweep)
            wrapped = block_start >= words
            full = block_end - block_start == words
            block_rows = local_rows[block_start:block_end]
            block_positions = positions[block_start:block_end]
            # A full block visits every row exactly once, so the whole
            # slab can be addressed in natural row order; rows map back
            # to sweep positions through the precomputed offsets only
            # for mismatching rows.
            offsets = sweep_plan.full_block_offsets[plan.ascending]
            ctx = (
                evaluator.start_block(plan, block_start, block_end - block_start)
                if evaluator is not None
                else None
            )
            if telem:
                block_clean = (
                    clean_total if full else int(clean_masks[:, block_rows].sum())
                )
            for op_index, op_plan in enumerate(ops):
                if op_plan.op.is_read:
                    expected = (
                        op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                    )
                    expected_lanes = None
                    if tracker is None or tracker.value != expected:
                        expected_lanes = word_to_lanes(expected, lanes)
                        if full:
                            mismatch = (states != expected_lanes).any(axis=2)
                            mismatch &= clean_masks
                        else:
                            mismatch = (states[:, block_rows] != expected_lanes).any(
                                axis=2
                            )
                            mismatch &= clean_masks[:, block_rows]
                        if telem:
                            counters.add("clean.compares_done", block_clean)
                    else:
                        mismatch = None
                        if telem:
                            counters.add("clean.compares_skipped", block_clean)
                    if mismatch is not None and mismatch.any():
                        member_hits, row_hits = np.nonzero(mismatch)
                        if full:
                            hit_positions = block_start + offsets[row_hits]
                        else:
                            hit_positions = block_positions[row_hits]
                            row_hits = block_rows[row_hits]
                        hits.add(
                            member_hits,
                            step,
                            op_index,
                            hit_positions,
                            row_hits,
                            expected_lanes,
                            states[member_hits, row_hits],
                        )
                    if ctx is not None:
                        if expected_lanes is None:
                            expected_lanes = word_to_lanes(expected, lanes)
                        table_hits = evaluator.read_op(ctx, expected_lanes, op_index)
                        if table_hits is not None:
                            members, table_rows, table_positions, observed = table_hits
                            hits.add(
                                members,
                                step,
                                op_index,
                                table_positions,
                                table_rows,
                                expected_lanes,
                                observed,
                            )
                else:
                    # Replay rows are never read from the packed state and
                    # never synced back, so writing the whole block (or
                    # slab) is safe and avoids a mask gather per memory;
                    # table rows are re-published right after with their
                    # fault-corrected values.
                    write_lanes = write_lanes_per_op[op_index]
                    corrected = (
                        evaluator.prepare_write(
                            ctx, write_lanes, op_plan.op.is_nwrc, op_index
                        )
                        if ctx is not None
                        else None
                    )
                    if full:
                        states[:] = write_lanes
                    else:
                        states[:, block_rows] = write_lanes
                    if tracker is not None:
                        tracker.value = op_plan.write_word
                    if ctx is not None:
                        evaluator.commit_write(ctx, corrected)
            if ctx is not None:
                evaluator.end_block(ctx)

    if telem:
        # The vector section's time minus the evaluator's accumulated
        # share is the clean lane's; the word balance mirrors it.
        vector_ns = time.perf_counter_ns() - vector_started
        table_ns = counters.get("lane.table.ns") - table_ns_before
        table_words = counters.get("lane.table.words") - table_words_before
        counters.add("lane.clean.ns", max(0, vector_ns - table_ns))
        counters.add(
            "lane.clean.words",
            sweep * len(memories) - replay_words - table_words,
        )


register_backend("batched", BatchedBackend)
