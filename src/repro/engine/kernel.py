"""The engine's one vector march-element executor.

Raw ``NumpyBackend.run`` march runs, numpy diagnosis sessions and
batched diagnosis sessions all execute march elements through one stack
runner, :func:`run_stack`: a same-geometry stack of memories is packed
into one ``(n_mem, words, lanes)`` uint64 array
(:func:`repro.engine.packing.pack_bank`), its sweep geometry is resolved
once (:class:`BucketSweep`), every element runs through
:func:`run_element_batched` with one :class:`CleanWordTracker`, the
packed rows are written back (:func:`sync_clean_rows`) and the raw
mismatches come out of one :class:`SessionHits` as per-memory failure
logs.  The backends differ only in what they hand the runner: the numpy
backend one-deep stacks with every fault-hooked row on behavioural
replay, the batched tier (:mod:`repro.engine.batched`) same-geometry
stacks, plus a compiled fault table (:mod:`repro.engine.fault_table`)
for stacks with enough fault-hooked rows.  Each row of a stack takes one
of three lanes, and per element the lanes run one after another, each
over its own rows -- table, replay, clean:

* **Clean rows** -- no fault hook can fire there
  (:meth:`repro.memory.SRAM.hooked_words`) -- behave ideally, so a whole
  element is applied to all of them at once: writes are whole-slab lane
  assignments, reads are whole-slab compares (skipped when the tracker
  proves they cannot mismatch).  The sweep is split into *blocks* of at
  most ``words`` consecutive positions so that no row is touched twice
  inside one vector op (wrap-around revisits land in later blocks, which
  also fixes the wrapped-expectation flag per block).
* **Table rows** -- rows whose faults all lower, in a batched stack of
  at least :data:`repro.engine.batched.TABLE_MIN_HOOKED_ROWS` hooked
  rows -- run as a lane of their own
  (:class:`~repro.engine.fault_table.TableEvaluator`): their state lives
  in the lane's own array, each element is evaluated over them as masked
  vector ops over the same blocks, and the rows are published into the
  packed stack when the run ends.  Smaller stacks compile no table,
  since its fixed per-block cost outweighs replaying a few rows.
* **Replay rows** go through the behavioural access path
  (:meth:`~repro.memory.SRAM.replay_read` /
  :meth:`~repro.memory.SRAM.replay_write`) in exact sweep order, with
  each memory's time base fast-forwarded to the cycle the reference
  implementation would show at each visit -- so stateful faults
  (retention decay, coupling, read-destructive) observe identical times
  and orderings.

At the end of the run :class:`SessionHits` runs the on-die SEC-DED
decoder over all mismatches at once (when ECC is configured), sorts the
survivors into the reference's address-major order and hands each
memory a columnar :class:`~repro.core.failure_log.FailureLog` -- result
equality is exact down to record order, without building a record per
failing read.  Memories the vector lanes cannot represent run
:func:`run_element_slow` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.failure_log import FailureLog, unpack_columns
from repro.ecc.vector import apply_corrections, decode_session
from repro.engine.fault_table import TableEvaluator
from repro.engine.packing import np, pack_bank, pack_state, word_to_lanes
from repro.march.algorithm import PauseStep
from repro.march.ops import Operation
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer


def sync_clean_rows(memory: SRAM, state, clean_mask) -> None:
    """Write the packed clean rows back into the behavioural memory."""
    rows = np.nonzero(clean_mask)[0].tolist()
    if not rows:
        return
    values = unpack_columns(state)
    memory.force_store_rows(rows, values)


class SessionHits:
    """One session's read mismatches over a stack of memories, as columns.

    The vector lanes add whole hit arrays per (element, read op, block);
    the scalar replay and fallback lanes add ``(position, op, address,
    expected, observed)`` tuples.  Every lane adds *raw* observations:
    with ``observers`` set (memory name ->
    :class:`~repro.ecc.observer.EccObserver`), :meth:`logs` decodes the
    whole session's mismatches in one SEC-DED pass.  That is exact
    because the decoder is a pure function of ``expected ^ observed``
    and nothing inside a fast session reads the corrected word except
    the failure log.  :meth:`logs` then orders the surviving rows with
    one stable sort on (member, step, sweep position, op) -- the
    reference's record order -- and splits them into one
    :class:`~repro.core.failure_log.FailureLog` per member.  A session
    without mismatches allocates no arrays.
    """

    def __init__(self, lanes: int, observers=None) -> None:
        self.lanes = lanes
        #: ECC observer per memory name (empty or ``None``: raw, no decode).
        self.observers = observers
        #: ``(members, step, op, positions, addresses, expected_lanes,
        #: observed)`` per vector read op; expanded to columns in :meth:`logs`.
        self._chunks: list[tuple] = []
        #: ``(member, step, position, op, address, expected, observed)``.
        self._scalar: list[tuple] = []

    def add(self, members, step, op, positions, addresses, expected_lanes, observed):
        """Vector hits of one read op: parallel arrays, one expected word."""
        if positions.size:
            self._chunks.append(
                (members, step, op, positions, addresses, expected_lanes, observed)
            )

    def add_scalar(self, member: int, step: int, hits) -> None:
        """Scalar-lane hits: ``(position, op, address, expected, observed)``."""
        self._scalar.extend((member, step) + hit for hit in hits)

    def logs(self, names, bits: int, plans) -> list[FailureLog]:
        """One reference-ordered failure log per member (``names`` order)."""
        if not self._chunks and not self._scalar:
            return [FailureLog.from_records(name, bits) for name in names]
        columns = self._columns()
        if self.observers:
            columns = self._decode(
                [self.observers[name] for name in names], *columns
            )
        member, step, op, position, address, expected, observed = columns
        order = np.lexsort((op, position, step, member))
        step, op, address = step[order], op[order], address[order]
        expected, observed = expected[order], observed[order]
        counts = np.bincount(member, minlength=len(names)).tolist()
        logs = []
        start = 0
        for name, count in zip(names, counts):
            if not count:
                logs.append(FailureLog.from_records(name, bits))
                continue
            end = start + count
            logs.append(
                FailureLog(
                    name,
                    bits,
                    plans,
                    step[start:end],
                    op[start:end],
                    address[start:end],
                    expected[start:end],
                    observed[start:end],
                )
            )
            start = end
        return logs

    def _columns(self) -> tuple:
        """Every hit as ``(member, step, op, position, address, expected,
        observed)`` columns, each built with one concatenation.

        Scalar hits join as one-row pieces; the collected pieces are
        released on return, before any decode allocates.
        """
        chunks, scalar = self._chunks, self._scalar
        self._chunks, self._scalar = [], []
        members, steps, ops, positions, addresses, expected, observed = [
            list(column) for column in zip(*chunks)
        ] or [[] for _ in range(7)]
        sizes = [piece.size for piece in positions] + [1] * len(scalar)
        words = [np.stack(expected)] if expected else []
        if scalar:
            member, step, position, op, address, wanted, seen = zip(*scalar)
            members.append(np.array(member))
            steps.extend(step)
            ops.extend(op)
            positions.append(np.array(position))
            addresses.append(np.array(address))
            words.append(pack_state(wanted, self.lanes))
            observed.append(pack_state(seen, self.lanes))
        return (
            np.concatenate(members),
            np.repeat(steps, sizes),
            np.repeat(ops, sizes),
            np.concatenate(positions),
            np.concatenate(addresses),
            np.repeat(np.concatenate(words), sizes, axis=0),
            np.concatenate(observed),
        )

    @staticmethod
    def _decode(observers, member, step, op, position, address, expected, observed):
        """The session's one SEC-DED pass: account, correct, drop masked."""
        tr = _tracer()
        if tr.enabled:
            with tr.span("ecc.decode", "ecc", rows=int(member.size)):
                outcome = decode_session(
                    observers, member, address, expected ^ observed
                )
            tr.counters.add("ecc.rows_decoded", int(member.size))
            tr.counters.add("ecc.rows_masked", int(outcome.masked.sum()))
        else:
            outcome = decode_session(observers, member, address, expected ^ observed)
        observed = apply_corrections(observed, outcome.corrected_bit)
        columns = (member, step, op, position, address, expected, observed)
        if not outcome.masked.any():
            return columns
        keep = ~outcome.masked
        return tuple(column[keep] for column in columns)


@dataclass
class CleanWordTracker:
    """Tracks the single word every *clean* row holds, when provable.

    Clean rows have no fault hooks, so after any write operation they all
    hold exactly the written word -- the ideal machine's trajectory.  A
    read whose expectation equals that tracked word cannot mismatch on
    any clean row, so :func:`run_element_batched` skips the whole
    stacked-slab compare for it; that is every read of a consistent march
    under matching backgrounds.  ``None`` (pre-first-write, arbitrary packed
    contents) or a mismatching expectation (e.g. the Sec. 3.2 LSB-first
    coverage-loss scenario) falls back to the exact compare, so results
    never change.  One tracker spans a whole :func:`run_stack` call:
    blocks process sequentially over the same physical rows, so the
    tracked value carries across blocks and elements.
    """

    value: int | None = None


@dataclass(frozen=True)
class OpPlan:
    """One march operation with its concrete data and clock cost."""

    op: Operation
    operation: str
    #: Word actually written (None for reads).  Already width-adapted.
    write_word: int | None
    #: Expected read data before the sweep wraps (None for writes).
    expected_plain: int | None
    #: Expected read data once the sweep has wrapped around the memory.
    expected_wrapped: int | None
    #: Clock cycles the reference consumes per application (1 for writes;
    #: ``1 + c`` for proposed-scheme reads, 1 for raw-simulator reads).
    tick_cost: int


@dataclass(frozen=True)
class ElementPlan:
    """One march element fully resolved against one memory."""

    step_index: int
    step_label: str
    #: Background stored in failure records (raw: the algorithm background;
    #: session: the width-masked correct background).
    record_background: int
    #: Cycles consumed before the sweep (serial background delivery).
    deliver_ticks: int
    ascending: bool
    #: Number of sweep positions (controller words for sessions; the
    #: memory's own word count for raw march runs).
    sweep_length: int
    ops: tuple[OpPlan, ...]

    def __post_init__(self) -> None:
        # Flat per-op tuples so the behavioural replay's hot loop skips
        # attribute/property dispatch: (is_read, is_nwrc, write_word,
        # expected_plain, expected_wrapped, extra_ticks).
        object.__setattr__(
            self,
            "compiled_ops",
            tuple(
                (
                    op_plan.op.is_read,
                    op_plan.op.is_nwrc,
                    op_plan.write_word,
                    op_plan.expected_plain,
                    op_plan.expected_wrapped,
                    op_plan.tick_cost - 1,
                )
                for op_plan in self.ops
            ),
        )
        # Analytic clock offsets: the replay lane executes op ``j`` of
        # sweep position ``p`` on cycle ``element_base + p * per_address
        # + access_ticks[j]`` (each access ticks once *before* it fires,
        # reads then consume their extra compare ticks).  The compiled
        # fault table uses these to evaluate time-dependent faults
        # (retention decay) without replaying.
        per_address = 0
        access_ticks = []
        for op_plan in self.ops:
            access_ticks.append(per_address + 1)
            per_address += op_plan.tick_cost
        object.__setattr__(self, "per_address_ticks", per_address)
        object.__setattr__(self, "access_ticks", tuple(access_ticks))


class BucketSweep:
    """Per-stack sweep geometry, resolved once for a whole run.

    Every element of a run sweeps the same address span, so the
    position/local-row maps (one per direction) and each memory's replay
    sweep positions (the replay masks are static within a run) are
    computed here exactly once instead of once per element per memory.
    """

    def __init__(self, words: int, sweep: int, replay_masks) -> None:
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
                positions[replay_masks[member][rows]].tolist()
                for member in range(replay_masks.shape[0])
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


def replay_dirty_positions(
    memory: SRAM,
    plan: ElementPlan,
    dirty_positions: list[int],
    base_cycles: int,
    per_address: int,
) -> list[tuple[int, int, int, int, int]]:
    """Behavioural replay of one memory's replay rows in exact sweep order.

    ``dirty_positions`` are the sweep positions visiting replay rows
    (:attr:`BucketSweep.dirty_positions`); local rows fall out of the
    position arithmetically.  The memory's time base is fast-forwarded to
    the cycle the reference implementation would show at each visit, so
    stateful faults observe identical times and orderings.  Returns
    ``(position, op_index, address, expected, observed)`` hits for
    :meth:`SessionHits.add_scalar`.

    Accesses go through the memory's ideal-periphery replay lane
    (:meth:`repro.memory.sram.SRAM.replay_read` /
    :meth:`~repro.memory.sram.SRAM.replay_write`), which is exact because
    every caller of the vector path has already established the
    fault-free-decoder/mux, no-tracing preconditions.
    """
    tr = _tracer()
    if tr.enabled and dirty_positions:
        # One access per operation per replayed sweep position -- the
        # behavioural-replay traffic the lane attribution quantifies.
        tr.counters.add(
            "replay.accesses", len(dirty_positions) * len(plan.compiled_ops)
        )
    timebase = memory.timebase
    seek = timebase.seek_cycles
    tick = timebase.tick
    read = memory.replay_read
    write = memory.replay_write
    compiled = plan.compiled_ops
    words = memory.words
    ascending = plan.ascending
    last = plan.sweep_length - 1
    hits: list[tuple[int, int, int, int, int]] = []
    for position in dirty_positions:
        local = (position if ascending else last - position) % words
        wrapped = position >= words
        seek(base_cycles + position * per_address)
        for op_index, (
            is_read,
            is_nwrc,
            write_word,
            expected_plain,
            expected_wrapped,
            extra_ticks,
        ) in enumerate(compiled):
            if is_read:
                observed = read(local)
                if extra_ticks:
                    tick(extra_ticks)
                expected = expected_wrapped if wrapped else expected_plain
                if observed != expected:
                    hits.append((position, op_index, local, expected, observed))
            else:
                write(local, write_word, is_nwrc)
    return hits


def run_element_batched(
    memories: list[SRAM],
    states,
    clean_masks,
    plan: ElementPlan,
    lanes: int,
    sweep_plan: BucketSweep,
    hits: SessionHits,
    tracker: CleanWordTracker,
    evaluator: TableEvaluator | None = None,
) -> None:
    """Execute one element over a same-geometry stack of memories.

    Three lanes run one after another, each over its own rows: the
    stack's compiled fault table ``evaluator`` (its rows in its own
    state), behavioural replay (its rows in the memory objects), then the
    clean rows of the packed ``(n_mem, words, lanes)`` ``states``.  The
    table goes first because its retention entries read each member's
    element-start clock, which the replay lane advances.  ``tracker``
    (one per run) skips clean compares that provably cannot mismatch.
    Every raw mismatch lands in ``hits`` under its stack member, and
    :meth:`SessionHits.logs` sorts them into reference order, so the
    order of the lanes never reaches a log; any on-die ECC decode runs
    once per run, in :meth:`SessionHits.logs` too.
    """
    words = sweep_plan.words
    sweep = sweep_plan.sweep
    ops = plan.ops
    per_address = plan.per_address_ticks
    step = plan.step_index

    positions = sweep_plan.positions
    local_rows = sweep_plan.local_rows[plan.ascending]
    dirty_positions = sweep_plan.dirty_positions[plan.ascending]
    write_lanes_per_op = [
        None if op_plan.op.is_read else word_to_lanes(op_plan.write_word, lanes)
        for op_plan in ops
    ]

    tr = _tracer()
    telem = tr.enabled
    if telem:
        counters = tr.counters
        started = time.perf_counter_ns()

    if evaluator is not None:
        table_words = evaluator.run_element(plan, write_lanes_per_op, hits)
        if telem:
            now = time.perf_counter_ns()
            counters.add("lane.table.ns", now - started)
            counters.add("lane.table.words", table_words)
            started = now

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
        now = time.perf_counter_ns()
        counters.add("lane.replay.ns", now - started)
        counters.add(
            "lane.replay.words", sum(len(member) for member in dirty_positions)
        )
        started = now
        clean_total = int(clean_masks.sum())
        clean_words = 0

    # Clean rows: fleet-wide vector ops, block-wise so wrap-around
    # revisits never touch a row twice inside one assignment/compare.
    if clean_masks.any():
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
            if telem:
                block_clean = (
                    clean_total if full else int(clean_masks[:, block_rows].sum())
                )
                clean_words += block_clean
            for op_index, op_plan in enumerate(ops):
                if op_plan.op.is_read:
                    expected = (
                        op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                    )
                    if tracker.value == expected:
                        if telem:
                            counters.add("clean.compares_skipped", block_clean)
                        continue
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
                    if mismatch.any():
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
                else:
                    # Only clean rows are read from the packed state, and
                    # the table publishes its rows over it before the sync,
                    # so writing the whole block (or slab) is safe and
                    # avoids a mask gather per memory.
                    if full:
                        states[:] = write_lanes_per_op[op_index]
                    else:
                        states[:, block_rows] = write_lanes_per_op[op_index]
                    tracker.value = op_plan.write_word

    if telem:
        counters.add("lane.clean.ns", time.perf_counter_ns() - started)
        counters.add("lane.clean.words", clean_words)


def run_stack(
    memories: list[SRAM],
    plans: list,
    sweep_length: int,
    observers=None,
    lower=None,
) -> list[FailureLog]:
    """Run ``plans`` over one same-geometry stack: the one vector path.

    Packs the stack, resolves its sweep, runs every element through
    :func:`run_element_batched` (pauses idle every member), writes the
    packed rows back and returns one reference-ordered failure log per
    memory, decoded through ``observers`` (memory name ->
    :class:`~repro.ecc.observer.EccObserver`) when given.  Every
    fault-hooked row takes the behavioural replay lane unless
    ``lower(memories, hooked_masks)`` -- called with the packed stack's
    ``(n_mem, words)`` hooked-row masks -- returns a
    :class:`~repro.engine.fault_table.BucketLanes` partition: its table
    rows then run as a lane of their own
    (:class:`~repro.engine.fault_table.TableEvaluator`), which publishes
    its rows into the packed stack and its fault state onto the fault
    objects afterwards, so multi-session flows resume exactly.
    """
    states, clean_masks, replay_masks, lanes = pack_bank(memories)
    vector_masks = clean_masks
    table = None
    split = None if lower is None else lower(memories, replay_masks)
    if split is not None:
        replay_masks, clean_masks = split.replay_masks, split.clean_masks
        vector_masks, table = split.vector_masks, split.table
    sweep = BucketSweep(memories[0].words, sweep_length, replay_masks)
    evaluator = (
        None if table is None else TableEvaluator(table, sweep, states, memories)
    )
    tr = _tracer()
    if tr.enabled:
        counters = tr.counters
        clean_rows = int(clean_masks.sum())
        counters.add("bucket.sessions")
        counters.add("bucket.table_plans", int(split is not None))
        counters.add("bucket.memories", len(memories))
        counters.add("bucket.replay_rows", int(replay_masks.sum()))
        counters.add("bucket.table_rows", int(vector_masks.sum()) - clean_rows)
        counters.add("bucket.clean_rows", clean_rows)
    hits = SessionHits(lanes, observers)
    tracker = CleanWordTracker()
    for plan in plans:
        if isinstance(plan, PauseStep):
            for memory in memories:
                memory.pause(plan.duration_ns)
            continue
        element_args = (
            memories,
            states,
            clean_masks,
            plan,
            lanes,
            sweep,
            hits,
            tracker,
            evaluator,
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
    if evaluator is not None:
        evaluator.publish()
    for member, memory in enumerate(memories):
        sync_clean_rows(memory, states[member], vector_masks[member])
    return hits.logs([memory.name for memory in memories], memories[0].bits, plans)


def run_element_slow(
    memory: SRAM, plan: ElementPlan
) -> list[tuple[int, int, int, int, int]]:
    """Pure-Python fallback executing a plan exactly like the reference.

    Used for memories the vector path cannot represent (decoder or
    column-mux faults, access tracing); behaviour and clocking match the
    reference implementations cycle for cycle.  Returns raw ``(position,
    op_index, address, expected, observed)`` hits in sweep order.
    """
    words = memory.words
    if plan.deliver_ticks:
        memory.timebase.tick(plan.deliver_ticks)
    hits: list[tuple[int, int, int, int, int]] = []
    for position in range(plan.sweep_length):
        address = position if plan.ascending else plan.sweep_length - 1 - position
        local = address % words
        wrapped = position >= words
        for op_index, op_plan in enumerate(plan.ops):
            operation = op_plan.op
            if operation.is_read:
                observed = memory.read(local)
                if op_plan.tick_cost > 1:
                    memory.timebase.tick(op_plan.tick_cost - 1)
                expected = (
                    op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                )
                if observed != expected:
                    hits.append((position, op_index, local, expected, observed))
            elif operation.is_nwrc:
                memory.nwrc_write(local, op_plan.write_word)
            else:
                memory.write(local, op_plan.write_word)
    return hits
