"""Compiled fault tables: vectorized evaluation of deterministic cell faults.

The behavioural replay lane (:func:`repro.engine.kernel.replay_dirty_positions`)
is exact for *every* fault class but costs one Python dispatch per hooked
access.  This module evaluates the *deterministic* majority of the fault
library as array operations instead: a geometry bucket's lowerable faults
compile into per-row bit planes and per-entry columns, and
:class:`TableEvaluator` runs them as a lane of its own.  It keeps the
bucket's table rows in a state array of its own and evaluates each march
element over all of them at once, a few vector ops per operation.  The
batched plan compiles a table only for buckets with enough fault-hooked
rows to amortize those ops
(:data:`repro.engine.batched.TABLE_MIN_HOOKED_ROWS`).

At session-plan time each memory's cell faults are partitioned by the
lowering protocol (:meth:`repro.faults.base.Fault.vector_lowerable` /
:meth:`~repro.faults.base.Fault.lower`):

* **Static faults** (:class:`~repro.faults.base.StaticCellFault`:
  stuck-at, transition, incorrect/destructive/deceptive reads, write
  disturbs, NWRC-weak cells) lower to flip masks tabulated from their own
  hooks and compile into composed planes: per write kind (normal, NWRC)
  one table of stored bits indexed by (written, old) bit, and ``(keep,
  set)`` pairs for a read's observed and after-read bits.  Every access
  applies one plane pair, ``(old & keep) | (~old & set)``, over *all*
  table rows of a geometry bucket, block by block over the same
  wrap-around blocks the clean lane sweeps.
* **Inter-word coupling** keeps per-entry columns (the aux aggressor cell
  breaks the one-mask-per-row shape).
* **Stateful-but-analytic faults** also lower: intermittent/soft-error
  upsets key their Bernoulli decisions on a *counter-based* hash (draw
  ``k`` of fault ``f`` is a pure function of ``(f.seed, k)``,
  :func:`repro.util.rng.counter_hash`), so the per-visit upset masks are
  computed directly from the plan's per-cell access counts -- SEU
  persistence falls out of committing each visit's flips to the lane's
  rows before the next access, the XOR-prefix over visit masks.
  Retention decay is evaluated by computing the elapsed time between the
  last fragile write and each read analytically from the element plan's
  visit clock offsets (:attr:`~repro.engine.kernel.ElementPlan.access_ticks`)
  and the time base's cycle model; the final draw counters / decay
  clocks are published back to the fault objects after the session.
* **Non-lowerable faults** (intra-word coupling with its intra-visit
  transition interleaving, and any cell shared by two faults) keep the
  exact behavioural replay lane.

Lane cohesion makes the split sound: coupling links its victim and
aggressor words, so a word with any behavioural hook *taints* every word
reachable through coupling edges, and any cell touched by two faults
(whose hooks would chain in attachment order) keeps all involved faults
behavioural.  The result is bit-exact against the reference by
construction and validated by the round-trip property suite and the
three-way differential fuzz matrix.

Inter-word coupling is expressible because the aggressor word and the
victim word sit at *different* sweep positions: within one block every
row is visited exactly once, so the victim observes either the
aggressor's pre-block state or its post-element trajectory, decided by a
static visit-order bit, and inversion/idempotent flips collapse to a
parity/any aggregate applied before or after the block's op loop.  The
aggressor cell is the only cell outside its rows the lane reads, and
cell uniqueness leaves it fault-free, so its bit follows the written
words: the lane reads it from the packed stack once and carries it from
block to block, which is why the table needs no other lane's state.
Address-decoder and column-mux faults are not expressible (they rewire
whole access paths); memories carrying them keep the reference fallback,
exactly as before.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.packing import lanes_for, np, word_to_lanes
from repro.telemetry.core import tracer as _tracer
from repro.faults.base import (
    KIND_CF_ID,
    KIND_CF_IN,
    KIND_CF_ST,
    KIND_DRF,
    KIND_INT_READ,
    KIND_SEU,
    KIND_STATIC,
    LoweredFault,
)
from repro.faults.defects import row_representative
from repro.faults.population import ROW_COLUMNS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.kernel import ElementPlan
    from repro.memory.sram import SRAM

# splitmix64 constants, mirrored from repro.util.rng for the vectorized
# counter hash below (kept as Python ints so importing this module does
# not require numpy to be usable at definition time).
_GAMMA64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FLOAT_SCALE = 1.0 / float(1 << 53)


def _mix64(z):
    """Vectorized splitmix64 finalizer over uint64 arrays (mod-2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _counter_bernoulli_mask(seeds, counters, probabilities):
    """Vectorized :func:`repro.util.rng.counter_bernoulli` over parallel arrays.

    Bit-identical to the scalar helper: numpy uint64 arithmetic wraps
    mod 2^64 exactly like the masked Python-int version, and scaling the
    53-bit draw by ``2**-53`` is an exact power-of-two operation, so the
    float compared against ``probabilities`` matches the scalar division.
    """
    gamma = np.uint64(_GAMMA64)
    state = (seeds ^ (counters * gamma)) + gamma
    draw = _mix64(_mix64(state) + gamma)
    return (draw >> np.uint64(11)).astype(np.float64) * _FLOAT_SCALE < probabilities


#: The lowered-fault kinds a compiled table evaluates; a kind code
#: indexes this tuple.
_TABLE_KINDS = (
    KIND_STATIC, KIND_CF_IN, KIND_CF_ID, KIND_CF_ST, KIND_INT_READ, KIND_SEU, KIND_DRF
)
_KIND_CODE = {kind: code for code, kind in enumerate(_TABLE_KINDS)}

#: The :class:`LoweredFault` fields a compiled table reads, bar the cells.
_PARAMETERS = (
    "value",
    "rising",
    "aggressor_state",
    "affects_write",
    "probability",
    "seed",
    "counter_base",
    "retention_ns",
    "write_flips",
    "nwrc_flips",
    "read_flips",
    "after_read_flips",
)


@functools.cache
def _row_lowering():
    """Lowering votes and parameters per row key, as arrays.

    Key ``((kind * 2 + value) * 2 + forced) * 2 + inter_word`` names a
    row's :func:`~repro.faults.defects.row_representative`; its own
    ``vector_lowerable()`` and ``lower()`` give the vote, kind code and
    parameters of every row with that key.
    """
    votes, kinds = [], []
    parameters = {name: [] for name in _PARAMETERS}
    for key in range(6 * 8):
        kind, rest = divmod(key, 8)
        value, rest = divmod(rest, 4)
        forced, inter_word = divmod(rest, 2)
        fault = row_representative(kind, value, forced, bool(inter_word))
        votes.append(fault.vector_lowerable())
        spec = fault.lower()
        kinds.append(_KIND_CODE[spec.kind])
        for name in _PARAMETERS:
            parameters[name].append(getattr(spec, name))
    columns = {name: np.array(values) for name, values in parameters.items()}
    columns["seed"] = columns["seed"].astype(np.uint64)
    columns["counter_base"] = columns["counter_base"].astype(np.uint64)
    arrays = (np.array(votes), np.array(kinds), *columns.values())
    for array in arrays:
        array.setflags(write=False)  # shared by every caller of the cache
    return arrays[0], arrays[1], columns


def _ints(values) -> "np.ndarray":
    return np.array(values, dtype=np.int64)


class _BucketFaults:
    """Every cell fault attached to a same-geometry bucket, as entries.

    Entries ``0 .. n_rows - 1`` are the live rows of the bucket's attached
    populations, read from their columns; the rest are fault objects,
    read through ``cells``, ``vector_lowerable()`` and ``lower()``.
    ``cell_fault``/``cell_row``/``cell_key`` list every cell an entry
    touches (victims and aggressors) and ``edge_a``/``edge_b`` the word
    pairs coupling ties together, so the one partition rule
    (:meth:`partition`) treats both alike.  Rows are ``member * words +
    word`` flat indices of the bucket.
    """

    def __init__(self, memories: "list[SRAM]") -> None:
        self.words = words = memories[0].words
        self.bits = bits = memories[0].bits
        self.populations: list = []
        self.objects: list = []
        pop_member: list[int] = []
        obj_member: list[int] = []
        for member, memory in enumerate(memories):
            objects, populations = memory.fault_records()
            self.objects += objects
            obj_member += [member] * len(objects)
            self.populations += populations
            pop_member += [member] * len(populations)

        pops = self.populations
        sizes = [p.size for p in pops]
        live = np.concatenate([p.live for p in pops] + [np.zeros(0, dtype=bool)])
        columns = np.concatenate(
            [p.columns for p in pops]
            + [np.zeros((len(ROW_COLUMNS), 0), dtype=np.int64)],
            axis=1,
        )[:, live]
        kind, victim_word, victim_bit, aggressor_word, aggressor_bit, value, forced = columns
        self.victim_word, self.victim_bit = victim_word, victim_bit
        self.aggressor_word, self.aggressor_bit = aggressor_word, aggressor_bit
        self.row_key = ((kind * 2 + value) * 2 + forced) * 2 + (
            aggressor_word != victim_word
        )
        self.pop_index = np.repeat(np.arange(len(pops)), sizes)[live]
        self.pop_row = np.concatenate([np.arange(n) for n in sizes] + [_ints([])])[live]
        self.n_rows = n_rows = len(victim_word)
        self.member = np.concatenate(
            [np.repeat(_ints(pop_member), sizes)[live], _ints(obj_member)]
        )
        self.vote = np.concatenate(
            [
                _row_lowering()[0][self.row_key],
                np.array([f.vector_lowerable() for f in self.objects], dtype=bool),
            ]
        )

        # Cells: row victims, row aggressors, then every object cell.
        coupled = np.flatnonzero(aggressor_word >= 0)
        obj_fault, obj_word, obj_bit = _ints(
            [
                (n_rows + index, cell.word, cell.bit)
                for index, fault in enumerate(self.objects)
                for cell in fault.cells
            ]
        ).reshape(-1, 3).T
        self.cell_fault = np.concatenate([np.arange(n_rows), coupled, obj_fault])
        self.cell_row = self.member[self.cell_fault] * words + np.concatenate(
            [victim_word, aggressor_word[coupled], obj_word]
        )
        self.cell_key = self.cell_row * bits + np.concatenate(
            [victim_bit, aggressor_bit[coupled], obj_bit]
        )

        # Coupling ties a row's victim and aggressor words, and an
        # object's first cell's word to each other cell's.
        entry, word_a, word_b = _ints(
            [
                (n_rows + index, fault.cells[0].word, cell.word)
                for index, fault in enumerate(self.objects)
                if fault.aggressors
                for cell in fault.cells[1:]
            ]
        ).reshape(-1, 3).T
        base = self.member * words
        self.edge_a = np.concatenate(
            [base[coupled] + victim_word[coupled], base[entry] + word_a]
        )
        self.edge_b = np.concatenate(
            [base[coupled] + aggressor_word[coupled], base[entry] + word_b]
        )

    @property
    def size(self) -> int:
        """Number of entries (rows and objects)."""
        return len(self.member)

    def partition(self, n_members: int) -> tuple["np.ndarray", "np.ndarray"]:
        """The one partition rule: ``(lowered entries, tainted flat rows)``.

        Beyond each entry's own lowering vote, two structural constraints
        apply:

        * **cell uniqueness** -- a cell touched by two faults keeps every
          involved fault behavioural, because their hooks chain
          sequentially in attachment order;
        * **lane cohesion** -- coupling ties its victim word to its
          aggressor word (transitions on one mutate the other), so taint
          propagates across coupling edges until both endpoints share a
          lane.
        """
        size = self.size
        _, inverse, counts = np.unique(
            self.cell_key, return_inverse=True, return_counts=True
        )
        shared = np.bincount(
            self.cell_fault, weights=counts[inverse] > 1, minlength=size
        )
        candidate = self.vote & (shared == 0)
        tainted = np.zeros(n_members * self.words, dtype=bool)
        tainted[self.cell_row[~candidate[self.cell_fault]]] = True
        a, b = self.edge_a, self.edge_b
        while True:
            either = tainted[a] | tainted[b]
            if not (either & ~(tainted[a] & tainted[b])).any():
                break
            tainted[a[either]] = True
            tainted[b[either]] = True
        touched = np.bincount(
            self.cell_fault, weights=tainted[self.cell_row], minlength=size
        )
        return candidate & (touched == 0), tainted

    def lowered_columns(self, lowered) -> "_LoweredColumns":
        """The table columns of the ``lowered`` entries.

        Rows take their kind and parameters from their key's
        representative; objects lower themselves.
        """
        n_rows = self.n_rows
        rows = np.flatnonzero(lowered[:n_rows])
        objects = np.flatnonzero(lowered[n_rows:])
        specs = [self.objects[index].lower() for index in objects.tolist()]
        _, kinds, parameters = _row_lowering()
        keys = self.row_key[rows]

        def join(row_values, spec_values):
            return np.concatenate(
                [row_values, np.array(spec_values, dtype=row_values.dtype)]
            )

        return _LoweredColumns(
            member=join(self.member[rows], self.member[n_rows + objects]),
            victim_word=join(self.victim_word[rows], [s.victim.word for s in specs]),
            victim_bit=join(self.victim_bit[rows], [s.victim.bit for s in specs]),
            aggressor_word=join(
                self.aggressor_word[rows],
                [-1 if s.aggressor is None else s.aggressor.word for s in specs],
            ),
            aggressor_bit=join(
                self.aggressor_bit[rows],
                [-1 if s.aggressor is None else s.aggressor.bit for s in specs],
            ),
            kind=join(kinds[keys], [_kind_code(s.kind) for s in specs]),
            populations=self.populations,
            pop_index=join(self.pop_index[rows], [-1] * len(specs)),
            pop_row=join(self.pop_row[rows], [-1] * len(specs)),
            sources=[None] * len(rows) + [s.source for s in specs],
            written_at=join(
                np.full(len(rows), math.nan),
                [math.nan if s.written_at_ns is None else s.written_at_ns for s in specs],
            ),
            parameters={
                name: join(parameters[name][keys], [getattr(s, name) for s in specs])
                for name in _PARAMETERS
            },
        )

    def lowered_records(self, lowered) -> list[LoweredFault]:
        """The ``lowered`` entries' :class:`LoweredFault` records.

        Rows build their objects for this (an inspection path).
        """
        records = []
        for index in np.flatnonzero(lowered).tolist():
            if index < self.n_rows:
                population = self.populations[int(self.pop_index[index])]
                fault = population.fault(int(self.pop_row[index]))
            else:
                fault = self.objects[index - self.n_rows]
            records.append(fault.lower())
        return records


def _kind_code(kind: str) -> int:
    if kind not in _KIND_CODE:
        raise ValueError(f"unknown lowered-fault kind {kind!r}")
    return _KIND_CODE[kind]


@dataclass
class _LoweredColumns:
    """The lowered entries of a bucket: cells, kind codes, parameters.

    Row entries keep their state's home as ``(populations[pop_index],
    pop_row)``; object entries have ``pop_index`` -1 and their source
    object in ``sources`` (``None`` for rows).  ``written_at`` holds the
    objects' decay clocks; the retention group reads the rows' from their
    homes (:class:`_StatelessGroup`).
    """

    member: "np.ndarray"
    victim_word: "np.ndarray"
    victim_bit: "np.ndarray"
    aggressor_word: "np.ndarray"
    aggressor_bit: "np.ndarray"
    kind: "np.ndarray"
    populations: list
    pop_index: "np.ndarray"
    pop_row: "np.ndarray"
    sources: list
    written_at: "np.ndarray"
    parameters: dict = field(default_factory=dict)


def partition_faults(memory: "SRAM") -> tuple[list[LoweredFault], set[int]]:
    """Split one memory's cell faults into table and replay populations.

    Returns ``(lowered, replay_words)``: the lowered records of every
    fault the table may evaluate, and the word indices that must stay on
    the behavioural replay lane -- :func:`lower_bucket`'s rule
    (:meth:`_BucketFaults.partition`) on a bucket of one.
    """
    faults = _BucketFaults([memory])
    lowered, tainted = faults.partition(1)
    return faults.lowered_records(lowered), set(np.flatnonzero(tainted).tolist())


@dataclass
class BucketLanes:
    """Three-way row partition of one geometry bucket.

    ``replay_masks`` rows take the behavioural replay lane (authoritative
    state in the memory objects), ``clean_masks`` rows (including
    untainted aggressor-only rows, whose accesses are ideal) take the
    plain block-op path, and every other row is one of ``table``'s rows.
    Table and clean rows are synced back from the packed state after the
    session.
    """

    replay_masks: "np.ndarray"
    clean_masks: "np.ndarray"
    table: "CompiledFaultTable | None"

    @property
    def vector_masks(self) -> "np.ndarray":
        """Rows whose packed state is authoritative (clean + table)."""
        return ~self.replay_masks


def lower_bucket(memories: "list[SRAM]") -> BucketLanes:
    """Partition a same-geometry bucket and compile its fault table.

    The batched plan calls this only for buckets of at least
    :data:`repro.engine.batched.TABLE_MIN_HOOKED_ROWS` fault-hooked rows;
    smaller buckets replay every hooked row instead, as the numpy plan
    does, since the table lane costs fixed numpy work per block whatever
    the row count.  Population rows are partitioned and compiled from
    their columns, so no fault object is built here.
    """
    tr = _tracer()
    if tr.enabled:
        started = time.perf_counter_ns()
    n_mem = len(memories)
    words = memories[0].words
    bits = memories[0].bits
    faults = _BucketFaults(memories)
    lowered, tainted = faults.partition(n_mem)
    replay = tainted.reshape(n_mem, words)
    columns = faults.lowered_columns(lowered)
    table_rows = np.zeros(n_mem * words, dtype=bool)
    table_rows[columns.member * words + columns.victim_word] = True
    table = None
    if columns.member.size:
        table = CompiledFaultTable(columns, n_mem, words, bits)
    if tr.enabled:
        counters = tr.counters
        counters.add("table.compile.ns", time.perf_counter_ns() - started)
        counters.add("table.lowered_faults", int(columns.member.size))
    return BucketLanes(replay, ~(replay | table_rows.reshape(n_mem, words)), table)


class _Group:
    """Structure-of-arrays over one kind's lowered entries: the victims.

    ``vic_row`` (the victim's table row) is filled in by
    :class:`CompiledFaultTable` once every group's rows are known.  The
    flat row indexes the bucket state flattened to ``(n_mem * words,
    lanes)`` -- one gather/scatter index instead of a (member, word) pair.
    """

    def __init__(self, columns: _LoweredColumns, sel, words: int) -> None:
        self.sel = sel
        self.size = len(sel)
        self.member = columns.member[sel]
        self.vic_word = columns.victim_word[sel]
        self.vic_flat = self.member * words + self.vic_word
        bit = columns.victim_bit[sel]
        self.vic_lane = bit // 64
        self.vic_mask = np.uint64(1) << (bit % 64).astype(np.uint64)
        self.vic_row = None


class _CouplingGroup(_Group):
    """One coupling kind's entries: victim and aggressor cells, triggers."""

    def __init__(self, columns: _LoweredColumns, sel, words: int) -> None:
        super().__init__(columns, sel, words)
        self.agg_word = columns.aggressor_word[sel]
        self.agg_flat = self.member * words + self.agg_word
        bit = columns.aggressor_bit[sel]
        self.agg_lane = bit // 64
        self.agg_mask = np.uint64(1) << (bit % 64).astype(np.uint64)
        parameters = columns.parameters
        self.rising = parameters["rising"][sel].astype(bool)
        self.forced = parameters["value"][sel] == 1
        self.state = parameters["aggressor_state"][sel] == 1
        self.affects_write = parameters["affects_write"][sel].astype(bool)


class _StatelessGroup(_Group):
    """One stateful-but-analytic fault kind's entries.

    Beyond the victim coordinates this carries the analytic state the
    evaluator advances in place -- Bernoulli draw counters for the
    intermittent kinds, decay clocks (``written_at``, NaN = no pending
    fragile write) for retention -- read from each entry's home (a
    population row or a source object), so
    :meth:`CompiledFaultTable.sync_fault_state` can publish the final
    state back there after the session.
    """

    def __init__(self, columns: _LoweredColumns, sel, words: int) -> None:
        super().__init__(columns, sel, words)
        parameters = columns.parameters
        self.seed = parameters["seed"][sel].astype(np.uint64)
        self.probability = parameters["probability"][sel].astype(np.float64)
        self.counter = parameters["counter_base"][sel].astype(np.uint64)
        self.fragile = parameters["value"][sel] == 1
        self.retention_ns = parameters["retention_ns"][sel].astype(np.float64)
        self.written_at = columns.written_at[sel]
        self.sources = [columns.sources[i] for i in sel.tolist()]
        # Row entries by population: (population, its rows, positions).
        runs: dict[int, list[int]] = {}
        for position, index in enumerate(columns.pop_index[sel].tolist()):
            if index >= 0:
                runs.setdefault(index, []).append(position)
        pop_row = columns.pop_row[sel]
        self.row_homes = [
            (columns.populations[index], pop_row[positions], np.array(positions))
            for index, positions in runs.items()
        ]
        for population, rows, positions in self.row_homes:
            self.written_at[positions] = population.drf_clocks(rows)


def _or_flips(planes, codes, group: _Group) -> None:
    """OR each entry's victim mask into the planes its flip code selects.

    Bit ``slot`` of an entry's code selects ``planes[slot]``.
    """
    for slot, plane in enumerate(planes):
        sel = ((codes >> slot) & 1) == 1
        np.bitwise_or.at(
            plane, (group.vic_row[sel], group.vic_lane[sel]), group.vic_mask[sel]
        )


@dataclass
class _BlockContext:
    """Per-block scratch: row subset, positions and coupling schedules.

    ``idx`` are the block's table rows; ``sub`` selects them from the
    lane's rows and the table's planes (``None`` on full blocks, which
    visit every row and use both as they are).
    """

    idx: "np.ndarray"
    positions: "np.ndarray"
    sub: "np.ndarray | None"
    cf_in_deferred: "np.ndarray | None" = None
    cf_id_deferred: "np.ndarray | None" = None
    cfst_active: "np.ndarray | None" = None
    cfst_vic_in: "np.ndarray | None" = None
    cfst_vic_sub: "np.ndarray | None" = None
    int_in: "np.ndarray | None" = None
    int_sub: "np.ndarray | None" = None
    seu_in: "np.ndarray | None" = None
    ret_in: "np.ndarray | None" = None
    ret_pos: "np.ndarray | None" = None


class CompiledFaultTable:
    """Per-bucket structured arrays for the lowerable fault population.

    Rows (distinct ``(member, word)`` pairs carrying at least one lowered
    victim fault) index the static faults' composed uint64 planes, while
    the coupling and stateful kinds keep per-entry columns.
    """

    def __init__(self, columns: _LoweredColumns, n_members: int, words: int, bits: int) -> None:
        self.words = words
        self.lanes = lanes_for(bits)

        def select(kind):
            return np.flatnonzero(columns.kind == _KIND_CODE[kind])

        static = _Group(columns, select(KIND_STATIC), words)
        self.cf_in = _CouplingGroup(columns, select(KIND_CF_IN), words)
        self.cf_id = _CouplingGroup(columns, select(KIND_CF_ID), words)
        self.cf_st = _CouplingGroup(columns, select(KIND_CF_ST), words)
        self.int_read = _StatelessGroup(columns, select(KIND_INT_READ), words)
        self.seu = _StatelessGroup(columns, select(KIND_SEU), words)
        self.retention = _StatelessGroup(columns, select(KIND_DRF), words)
        groups = (
            static,
            self.cf_in,
            self.cf_id,
            self.cf_st,
            self.int_read,
            self.seu,
            self.retention,
        )
        # Rows in (member, word) order, which flat indices sort in too.
        hooked = np.zeros(n_members * words, dtype=bool)
        for group in groups:
            hooked[group.vic_flat] = True
        self.rows_flat = np.flatnonzero(hooked)
        self.n_rows = len(self.rows_flat)
        self.rows_member = self.rows_flat // words
        self.rows_word = self.rows_flat % words
        self._all_idx = np.arange(self.n_rows, dtype=np.int64)
        row_of = np.cumsum(hooked) - 1
        for group in groups:
            group.vic_row = row_of[group.vic_flat]

        # Static faults as flip planes, [write kind][written][old] and
        # [observed, after-read][stored]: a set bit stores or reads the
        # complement of the input bit.  Cell uniqueness leaves each bit at
        # most one lowered fault, so OR-ing masks composes nothing.
        shape = (self.n_rows, self.lanes)
        writes = np.zeros((2, 2, 2) + shape, dtype=np.uint64)
        reads = np.zeros((2, 2) + shape, dtype=np.uint64)
        for planes, name in (
            (writes[0].reshape((4,) + shape), "write_flips"),
            (writes[1].reshape((4,) + shape), "nwrc_flips"),
            (reads[0], "read_flips"),
            (reads[1], "after_read_flips"),
        ):
            codes = columns.parameters[name][static.sel].astype(np.int64)
            _or_flips(planes, codes, static)
        # A DRF cell's NWRC write cannot flip it toward the fragile value
        # (written = fragile over old = not fragile); its decay clock
        # lives in the retention group.
        fragile = self.retention.fragile.astype(np.int64)
        _or_flips(writes[1].reshape((4,) + shape), 1 << (1 + fragile), self.retention)
        rewrites = bool(reads[1].any())
        # Complemented where the input bit is 1, the flips become resulting
        # bits, twelve planes in all: per write kind the stored bit after
        # writing ``written`` over ``old``, and per read the plane pairs
        # (:meth:`TableEvaluator._apply`) of the observed and the
        # after-read bit (``None`` when no read rewrites its cell).
        np.invert(writes[:, 1], out=writes[:, 1])
        np.invert(reads[:, 1], out=reads[:, 1])
        self.write_tables = writes
        self.observed_pair = reads[0]
        self.after_read_pair = reads[1] if rewrites else None

    def write_pair(self, written, nwrc: bool):
        """The plane pair of a write of the known lanes ``written``."""
        table = self.write_tables[int(nwrc)]
        return (written & table[1]) | (~written & table[0])

    def sync_fault_state(self) -> None:
        """Publish the advanced analytic state back to its homes.

        Scenario flows reuse fault state across sessions, so the draw
        counters the evaluator consumed and the decay clocks it moved
        must land back on the source objects and population rows once
        the batched session ends -- a later session (batched *or*
        reference) then resumes the decision sequence exactly where this
        one left off.
        """
        for group in (self.int_read, self.seu):
            if not group.size:
                continue
            for i, fault in enumerate(group.sources):
                if fault is not None:
                    fault._draws = int(group.counter[i])
        group = self.retention
        if group.size:
            for i, fault in enumerate(group.sources):
                if fault is None:
                    continue
                written = float(group.written_at[i])
                fault._written_at_ns = None if math.isnan(written) else written
            for population, rows, positions in group.row_homes:
                population.store_drf_clocks(rows, group.written_at[positions])


class TableEvaluator:
    """Runs a compiled table as a lane of its own over one stack session.

    The lane owns its rows: it gathers the stack's table rows once into a
    ``(n_rows, lanes)`` state array, evaluates each whole march element
    over them (:meth:`run_element`) and writes them back into the packed
    stack when the session ends (:meth:`publish`), so the clean lane's
    slab writes never reach them.  The only cells outside its rows it
    reads are coupling aggressors, and cell uniqueness leaves those
    fault-free: their bits follow the written words, so the lane reads
    them once and carries them from block to block.
    """

    def __init__(
        self, table: CompiledFaultTable, sweep_plan, states, memories
    ) -> None:
        self.table = table
        self.words = table.words
        self.sweep = sweep_plan.sweep
        self._flat = states.reshape(-1, states.shape[2])
        self._rows = self._flat[table.rows_flat]
        # Per-direction sweep offsets of every table row and coupling
        # endpoint (block-independent for the blocks of one sweep; see
        # BucketSweep.full_block_offsets).
        self.row_off = {
            asc: offsets[table.rows_word]
            for asc, offsets in sweep_plan.full_block_offsets.items()
        }
        self._group_off = {}
        # Each coupling group's current aggressor bits.
        self._agg = {}
        for name in ("cf_in", "cf_id", "cf_st"):
            group = getattr(table, name)
            if not group.size:
                continue
            self._group_off[name] = {
                asc: (
                    offsets[group.agg_word],
                    offsets[group.vic_word],
                    offsets[group.agg_word] < offsets[group.vic_word],
                )
                for asc, offsets in sweep_plan.full_block_offsets.items()
            }
            lanes = self._flat[group.agg_flat, group.agg_lane]
            self._agg[name] = (lanes & group.agg_mask) != 0
        # Per-direction sweep offsets of the stateless stateful groups.
        self._stateless_off = {}
        for name in ("int_read", "seu", "retention"):
            group = getattr(table, name)
            if not group.size:
                continue
            self._stateless_off[name] = {
                asc: offsets[group.vic_word]
                for asc, offsets in sweep_plan.full_block_offsets.items()
            }
        # Retention clocks: each member's time base, each entry's period.
        self._timebases = [memory.timebase for memory in memories]
        self._ret_period = np.array(
            [timebase.period_ns for timebase in self._timebases], dtype=np.float64
        )[table.retention.member]
        self._ret_base_now = None
        self._plan = None
        self._element_write_lanes: list = []
        self._write_pairs: list = []

    def run_element(self, plan: "ElementPlan", write_lanes_per_op, hits) -> int:
        """Evaluate one march element over the table rows.

        Sweeps the wrap-around blocks of
        :class:`~repro.engine.kernel.BucketSweep` in order.  Each block
        fires the coupling flips the reference fires *before* the
        victim's visit (aggressor earlier in the sweep), applies every op,
        then fires the rest.  Raw read mismatches go to ``hits``
        (:class:`~repro.engine.kernel.SessionHits`).  Retention entries
        read each member's element-start clock, so this runs before the
        replay lane ticks the element.  Returns the number of table-row
        visits, the lane's word count.
        """
        table = self.table
        lanes = table.lanes
        words, sweep = self.words, self.sweep
        self._plan = plan
        self._element_write_lanes = write_lanes_per_op
        self._write_pairs = [
            None if written is None else table.write_pair(written, op_plan.op.is_nwrc)
            for written, op_plan in zip(write_lanes_per_op, plan.ops)
        ]
        ret = table.retention
        if ret.size:
            # The replay lane's ``tick(deliver_ticks)`` as one float expression.
            self._ret_base_now = np.array(
                [
                    timebase.now_ns + plan.deliver_ticks * timebase.period_ns
                    for timebase in self._timebases
                ],
                dtype=np.float64,
            )[ret.member]
        step = plan.step_index
        visits = 0
        for block_start in range(0, sweep, words):
            wrapped = block_start >= words
            ctx = self._start_block(
                plan.ascending, block_start, min(words, sweep - block_start)
            )
            visits += ctx.idx.size
            for op_index, op_plan in enumerate(plan.ops):
                operation = op_plan.op
                if operation.is_read:
                    expected = (
                        op_plan.expected_wrapped if wrapped else op_plan.expected_plain
                    )
                    expected_lanes = word_to_lanes(expected, lanes)
                    self._read(ctx, expected_lanes, step, op_index, hits)
                else:
                    written = write_lanes_per_op[op_index]
                    self._write(ctx, written, operation.is_nwrc, op_index)
            # Coupling flips the reference fires after the victim visit.
            if ctx.cf_in_deferred is not None:
                self._flip(table.cf_in, ctx.cf_in_deferred)
            if ctx.cf_id_deferred is not None:
                group = table.cf_id
                self._force(self._rows, group.vic_row, group, ctx.cf_id_deferred)
        return visits

    def publish(self) -> None:
        """Write the lane's rows into the packed stack after the last element.

        The stack's table rows then sync back with its clean rows, and
        :meth:`CompiledFaultTable.sync_fault_state` hands the advanced
        draw counters and decay clocks to the fault objects.
        """
        self._flat[self.table.rows_flat] = self._rows
        self.table.sync_fault_state()

    # ------------------------------------------------------------------ #
    # Blocks and operations                                              #
    # ------------------------------------------------------------------ #
    def _start_block(self, asc: bool, block_start: int, block_len: int):
        """Resolve the block's row subset and coupling schedules.

        Applies the coupling flips that the reference would fire *before*
        the victim's visit and returns the rest as deferred selections.
        """
        table = self.table
        off = self.row_off[asc]
        full = block_len == self.words
        if full:
            idx = table._all_idx
            ctx = _BlockContext(idx, block_start + off, None)
        else:
            sel = off < block_len
            idx = table._all_idx[sel]
            ctx = _BlockContext(idx, block_start + off[sel], idx)

        if not self._group_off and not self._stateless_off:
            return ctx
        if full:
            sub_map = idx
        else:
            sub_map = np.full(table.n_rows, -1, dtype=np.int64)
            sub_map[idx] = np.arange(idx.size, dtype=np.int64)

        if "int_read" in self._stateless_off:
            ctx.int_in = self._stateless_off["int_read"][asc] < block_len
            ctx.int_sub = sub_map[table.int_read.vic_row]
        if "seu" in self._stateless_off:
            ctx.seu_in = self._stateless_off["seu"][asc] < block_len
        if "retention" in self._stateless_off:
            ret_off = self._stateless_off["retention"][asc]
            ctx.ret_in = ret_off < block_len
            # Sweep positions are only meaningful where ret_in holds; the
            # consumers mask with it before using the analytic clock.
            ctx.ret_pos = block_start + ret_off

        if not self._group_off:
            return ctx

        for name, mode in (("cf_in", "xor"), ("cf_id", "or")):
            group = getattr(table, name)
            if not group.size:
                continue
            agg_off, vic_off, before = self._group_off[name][asc]
            agg_in = agg_off < block_len
            vic_in = vic_off < block_len
            events, self._agg[name] = self._schedule(
                group, self._agg[name], agg_in, mode
            )
            immediate = events & agg_in & vic_in & before
            deferred = events & agg_in & ~(vic_in & before)
            if name == "cf_in":
                self._flip(group, immediate)
                ctx.cf_in_deferred = deferred
            else:
                self._force(self._rows, group.vic_row, group, immediate)
                ctx.cf_id_deferred = deferred

        group = table.cf_st
        if group.size:
            agg_off, vic_off, before = self._group_off["cf_st"][asc]
            agg_in = agg_off < block_len
            vic_in = vic_off < block_len
            agg_pre = self._agg["cf_st"]
            _, agg_post = self._schedule(group, agg_pre, agg_in, None)
            self._agg["cf_st"] = agg_post
            use_post = agg_in & vic_in & before
            effective = np.where(use_post, agg_post, agg_pre)
            ctx.cfst_active = effective == group.state
            ctx.cfst_vic_in = vic_in
            ctx.cfst_vic_sub = sub_map[group.vic_row]
        return ctx

    def _write(self, ctx: _BlockContext, write_lanes, is_nwrc, op_index) -> None:
        """Write ``write_lanes`` over the block's table rows.

        Applies the write's plane pair and any state coupling, and moves
        the retention decay clocks.
        """
        table = self.table
        if not ctx.idx.size:
            return
        old = self._rows if ctx.sub is None else self._rows[ctx.idx]
        new = self._apply(ctx, self._write_pairs[op_index], old)
        group = table.cf_st
        if ctx.cfst_active is not None:
            sel = ctx.cfst_active & group.affects_write & ctx.cfst_vic_in
            self._force(new, ctx.cfst_vic_sub, group, sel)
        self._store(ctx, new)
        ret = table.retention
        if ctx.ret_in is not None:
            new_bits = (write_lanes[ret.vic_lane] & ret.vic_mask) != 0
            to_fragile = new_bits == ret.fragile
            if is_nwrc:
                # The floating-bitline NWRC write cannot recharge the
                # leaking node: a fragile-value write leaves the clock
                # untouched; a successful flip away clears it.
                ret.written_at[ctx.ret_in & ~to_fragile] = math.nan
            else:
                now = self._op_now(ctx, op_index)
                start = ctx.ret_in & to_fragile
                ret.written_at[start] = now[start]
                ret.written_at[ctx.ret_in & ~to_fragile] = math.nan

    def _read(self, ctx: _BlockContext, expected_lanes, step, op_index, hits) -> None:
        """Read the block's table rows, adding raw mismatches to ``hits``.

        Order mirrors the reference hook chain: retention decay and SEU
        strikes commit to the lane's rows *before* the stored bits are
        taken (so every downstream plane sees the flipped cell, and
        destructive reads preserve the flip), intermittent read upsets
        perturb only the observed word, and a destructive read's
        after-read bits commit last.
        """
        table = self.table
        idx = ctx.idx
        if not idx.size:
            return
        ret = table.retention
        if ctx.ret_in is not None:
            live = ctx.ret_in & np.isfinite(ret.written_at)
            if live.any():
                now = self._op_now(ctx, op_index)
                stored_bits = (
                    self._rows[ret.vic_row, ret.vic_lane] & ret.vic_mask
                ) != 0
                decayed = (
                    live
                    & (stored_bits == ret.fragile)
                    & (now - ret.written_at >= ret.retention_ns)
                )
                self._flip(ret, decayed)
                ret.written_at[decayed] = math.nan
        seu = table.seu
        if ctx.seu_in is not None:
            upset = (
                _counter_bernoulli_mask(seu.seed, seu.counter, seu.probability)
                & ctx.seu_in
            )
            seu.counter[ctx.seu_in] += np.uint64(1)
            self._flip(seu, upset)
        stored = self._rows if ctx.sub is None else self._rows[idx]
        observed = self._apply(ctx, table.observed_pair, stored)
        group = table.cf_st
        if ctx.cfst_active is not None:
            sel = ctx.cfst_active & ctx.cfst_vic_in
            self._force(observed, ctx.cfst_vic_sub, group, sel)
        intg = table.int_read
        if ctx.int_in is not None:
            upset = (
                _counter_bernoulli_mask(intg.seed, intg.counter, intg.probability)
                & ctx.int_in
            )
            intg.counter[ctx.int_in] += np.uint64(1)
            if upset.any():
                np.bitwise_xor.at(
                    observed,
                    (ctx.int_sub[upset], intg.vic_lane[upset]),
                    intg.vic_mask[upset],
                )
        if table.after_read_pair is not None:
            self._store(ctx, self._apply(ctx, table.after_read_pair, stored))
        mismatch = (observed != expected_lanes).any(axis=1)
        if not mismatch.any():
            return
        hit_idx = np.nonzero(mismatch)[0]
        rows = idx[hit_idx]
        hits.add(
            table.rows_member[rows],
            step,
            op_index,
            ctx.positions[hit_idx],
            table.rows_word[rows],
            expected_lanes,
            observed[hit_idx],
        )

    @staticmethod
    def _apply(ctx: _BlockContext, pair, old):
        """Each bit of the block's rows after one access, from its ``old`` bit.

        A plane pair stacks the resulting bit for each value of the old
        bit: ``set`` where it is 0, ``keep`` where it is 1.
        """
        if ctx.sub is not None:
            pair = pair[:, ctx.sub]
        set_, keep = pair
        return (old & keep) | (~old & set_)

    def _store(self, ctx: _BlockContext, new) -> None:
        """Commit the block's rows."""
        if ctx.sub is None:
            self._rows = new
        else:
            self._rows[ctx.idx] = new

    def _op_now(self, ctx: _BlockContext, op_index: int):
        """Analytic wall clock of op ``op_index`` at each retention entry.

        Replay ticks the time base *before* each access, so op ``j`` at
        sweep position ``p`` lands at ``element_base + p * per_address +
        access_ticks[j]`` cycles; ``base_now`` is each member's wall
        clock at element start (including delivery ticks), taken before
        the replay lane advances it.  For the power-of-two-scaled
        periods the configurations use, the single multiply-add below
        reproduces the replay lane's accumulated float bit-for-bit.
        """
        plan = self._plan
        ticks = ctx.ret_pos * plan.per_address_ticks + plan.access_ticks[op_index]
        return self._ret_base_now + ticks.astype(np.float64) * self._ret_period

    # ------------------------------------------------------------------ #
    # Coupling internals                                                 #
    # ------------------------------------------------------------------ #
    def _schedule(self, group: _CouplingGroup, agg_pre, agg_in, mode):
        """Analytic aggressor trajectory over the element's write ops.

        Sound because a lowered coupling's aggressor cell carries no
        fault of its own (cell uniqueness): its bit simply tracks each
        write word.  Returns the aggregated trigger events (parity for
        ``"xor"``, any-fired for ``"or"``, ``None`` otherwise) and the
        post-block bits.
        """
        current = agg_pre.copy()
        events = None if mode is None else np.zeros(group.size, dtype=bool)
        for write_lanes in self._element_write_lanes:
            if write_lanes is None:
                continue
            new = (write_lanes[group.agg_lane] & group.agg_mask) != 0
            if mode is not None:
                match = np.where(group.rising, ~current & new, current & ~new)
                match &= agg_in
                if mode == "xor":
                    events ^= match
                else:
                    events |= match
            current = np.where(agg_in, new, current)
        return events, current

    def _flip(self, group: _Group, sel) -> None:
        """Invert the selected entries' victim bits in the lane's rows."""
        if not sel.any():
            return
        np.bitwise_xor.at(
            self._rows,
            (group.vic_row[sel], group.vic_lane[sel]),
            group.vic_mask[sel],
        )

    @staticmethod
    def _force(target, rows, group: _CouplingGroup, sel) -> None:
        """Force the selected entries' victim bits to their coupled value.

        ``rows`` holds each entry's victim row in ``target``.
        """
        if not sel.any():
            return
        index = (rows[sel], group.vic_lane[sel])
        masks = group.vic_mask[sel]
        forced = group.forced[sel]
        np.bitwise_or.at(target, index, np.where(forced, masks, np.uint64(0)))
        np.bitwise_and.at(target, index, ~np.where(forced, np.uint64(0), masks))
