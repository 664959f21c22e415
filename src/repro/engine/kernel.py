"""Bit-parallel march-element executor shared by the engine's fast paths.

Both the raw march backend (:mod:`repro.engine.backends`) and the fast
proposed-scheme session (:mod:`repro.engine.session`) execute the same
inner structure: one march element swept over a memory, with per-operation
write data, expected read data (possibly different after the element's
address sweep wraps around a smaller memory) and a per-operation clock
cost.  This module runs that structure *bit-exactly* but vectorized:

* **Clean words** -- words whose accesses can trigger no fault hook
  (:meth:`repro.memory.SRAM.hooked_words`) -- behave ideally, so a whole
  element is applied to all of them at once: writes are whole-array lane
  assignments, reads are whole-array lane compares.  The sweep is split
  into *blocks* of at most ``memory.words`` consecutive positions so that
  no word is touched twice inside one vector op (wrap-around revisits land
  in later blocks, which also fixes the wrapped-expectation flag per
  block).
* **Dirty words** are replayed through the behavioural access path
  (``memory.read`` / ``memory.write`` / ``memory.nwrc_write``) in exact
  sweep order, with the shared time base fast-forwarded to the cycle the
  reference implementation would show at each visit -- so stateful faults
  (retention decay, coupling, read-destructive) observe identical times
  and orderings.

Raw mismatches from both populations land in one :class:`SessionHits`
accumulator per session.  At the end of the session it runs the on-die
SEC-DED decoder over all of them at once (when ECC is configured), sorts
the survivors into the reference's address-major order and hands each
memory a columnar :class:`~repro.core.failure_log.FailureLog` -- result
equality is exact down to record order, without building a record per
failing read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.failure_log import FailureLog, unpack_columns
from repro.ecc.vector import apply_corrections, decode_session
from repro.engine.packing import lanes_for, np, pack_state, word_to_lanes
from repro.march.ops import Operation
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer


def pack_memory(memory: SRAM):
    """Pack a memory for vector execution.

    Returns ``(state, clean_mask, dirty_mask, lanes)``: the ``(words,
    lanes)`` uint64 state array, the complementary clean/dirty row masks
    (dirty = any fault hook can fire there) and the lane count.  The state
    array is authoritative for clean rows only; hand it back through
    :func:`sync_clean_rows` when the run finishes.
    """
    lanes = lanes_for(memory.bits)
    state = pack_state(memory.dump(), lanes)
    dirty_mask = np.zeros(memory.words, dtype=bool)
    for word in memory.hooked_words():
        dirty_mask[word] = True
    return state, ~dirty_mask, dirty_mask, lanes


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
    any clean row, so the fleet-batched tier skips the whole stacked-slab
    compare for it; that is every read of a consistent march under
    matching backgrounds.  ``None`` (pre-first-write, arbitrary packed
    contents) or a mismatching expectation (e.g. the Sec. 3.2 LSB-first
    coverage-loss scenario) falls back to the exact compare, so results
    never change.  One tracker spans a whole bucket session: blocks
    process sequentially over the same physical rows, so the tracked
    value carries across blocks and elements.
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


def replay_dirty_rows(
    memory: SRAM,
    dirty_mask,
    plan: ElementPlan,
    positions,
    local_rows,
    base_cycles: int,
    per_address: int,
) -> list[tuple[int, int, int, int, int]]:
    """Behavioural replay of fault-hooked rows in exact sweep order.

    The shared time base is fast-forwarded to the cycle the reference
    implementation would show at each visit, so stateful faults observe
    identical times and orderings.  Returns ``(position, op_index,
    address, expected, observed)`` hits for :meth:`SessionHits.add_scalar`.
    """
    return replay_dirty_positions(
        memory,
        plan,
        positions[dirty_mask[local_rows]].tolist(),
        base_cycles,
        per_address,
    )


def replay_dirty_positions(
    memory: SRAM,
    plan: ElementPlan,
    dirty_positions: list[int],
    base_cycles: int,
    per_address: int,
) -> list[tuple[int, int, int, int, int]]:
    """:func:`replay_dirty_rows` with the sweep positions pre-resolved.

    The batched tier precomputes each memory's dirty positions once per
    session (they depend only on the static dirty mask and the sweep
    direction) instead of re-masking the whole sweep per element; local
    rows fall out of the position arithmetically.

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


def run_element(
    memory: SRAM,
    state,
    clean_mask,
    dirty_mask,
    plan: ElementPlan,
    lanes: int,
    hits: SessionHits,
) -> None:
    """Execute one element, adding its raw mismatches to ``hits`` (member 0).

    ``state`` is the packed ``(words, lanes)`` array -- authoritative for
    clean rows only (dirty rows live in the memory's behavioural state).
    Any on-die ECC decode happens once per session, in
    :meth:`SessionHits.logs`.
    """
    words = memory.words
    sweep = plan.sweep_length
    ops = plan.ops
    per_address = sum(op.tick_cost for op in ops)
    timebase = memory.timebase
    if plan.deliver_ticks:
        timebase.tick(plan.deliver_ticks)
    base_cycles = timebase.cycles
    step = plan.step_index

    positions = np.arange(sweep)
    addresses = positions if plan.ascending else (sweep - 1) - positions
    local_rows = addresses % words if sweep != words else addresses

    tr = _tracer()
    telem = tr.enabled
    if telem:
        replay_started = time.perf_counter_ns()

    # Dirty rows: behavioural replay in exact sweep order and time.
    replay_words = 0
    if dirty_mask.any():
        if telem:
            replay_words = int(dirty_mask[local_rows].sum())
        hits.add_scalar(
            0,
            step,
            replay_dirty_rows(
                memory, dirty_mask, plan, positions, local_rows, base_cycles,
                per_address,
            ),
        )

    # The clean rows' share of the schedule is pure clocking.
    timebase.tick(base_cycles + sweep * per_address - timebase.cycles)

    if telem:
        clean_started = time.perf_counter_ns()
        counters = tr.counters
        counters.add("lane.replay.ns", clean_started - replay_started)
        counters.add("lane.replay.words", replay_words)
        counters.add("lane.clean.words", sweep - replay_words)

    # Clean rows: block-wise vector ops (a block never revisits a row).
    if clean_mask.any():
        for block_start in range(0, sweep, words):
            block_end = min(block_start + words, sweep)
            wrapped = block_start >= words
            block_rows = local_rows[block_start:block_end]
            visited = clean_mask[block_rows]
            rows = block_rows[visited]
            if rows.size == 0:
                continue
            block_positions = positions[block_start:block_end][visited]
            for op_index, op_plan in enumerate(ops):
                if op_plan.op.is_read:
                    expected = (
                        op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                    )
                    expected_lanes = word_to_lanes(expected, lanes)
                    mismatch = (state[rows] != expected_lanes).any(axis=1)
                    if mismatch.any():
                        index = np.nonzero(mismatch)[0]
                        hit_rows = rows[index]
                        hits.add(
                            np.zeros(hit_rows.size, dtype=np.int64),
                            step,
                            op_index,
                            block_positions[index],
                            hit_rows,
                            expected_lanes,
                            state[hit_rows],
                        )
                else:
                    state[rows] = word_to_lanes(op_plan.write_word, lanes)

    if telem:
        counters.add("lane.clean.ns", time.perf_counter_ns() - clean_started)


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
