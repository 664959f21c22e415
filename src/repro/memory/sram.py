"""Behavioural SRAM with fault hooks.

The memory stores each word as a Python integer, so the fault-free access
path is a single list operation regardless of word width.  Faults attach
sparsely: only accesses that touch a word containing a faulty cell (or a
coupling aggressor) take the per-bit slow path.

Fault objects are duck-typed (see :class:`repro.faults.base.CellFault`); the
memory calls, when present:

* ``on_write(memory, word, bit, old_bit, new_bit) -> int`` -- effective bit
  stored by a normal write,
* ``on_nwrc_write(memory, word, bit, old_bit, new_bit) -> int`` -- effective
  bit stored by a No-Write-Recovery cycle (NWRTM, Sec. 3.4),
* ``on_read(memory, word, bit, stored_bit) -> int`` -- value observed by a
  read,
* ``on_aggressor_transition(memory, word, bit, old_bit, new_bit)`` -- called
  when a watched aggressor cell transitions (coupling faults).

A sampled population (:class:`repro.faults.population.FaultPopulation`)
attaches as one record of rows instead
(:meth:`SRAM.attach_population`).  Its live rows count as hooked words
and the vector engine reads them as columns; the memory builds them into
the object index above -- in row order, before anything attached later --
only when an operation needs the objects.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.memory.column_mux import ColumnMux
from repro.memory.decoder import AddressDecoder
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.ports import AccessKind, AccessRecord
from repro.memory.timebase import TimeBase
from repro.util.bitops import mask
from repro.util.rng import np
from repro.util.validation import require


def _unindex(
    faults_by_cell: dict[tuple[int, int], list[Any]],
    bits_by_word: dict[int, set[int]],
    key: tuple[int, int],
    doomed: set[int],
) -> bool:
    """Drop the faults whose ids are ``doomed`` from one cell's entry.

    The cell leaves both indexes once no fault is left on it; returns
    whether it did.
    """
    remaining = [f for f in faults_by_cell[key] if id(f) not in doomed]
    if remaining:
        faults_by_cell[key] = remaining
        return False
    del faults_by_cell[key]
    word, bit = key
    bits = bits_by_word[word]
    bits.discard(bit)
    if not bits:
        del bits_by_word[word]
    return True


def _mask(size: int, members: set[int]):
    """A boolean lookup table of ``size`` entries, true at ``members``."""
    table = np.zeros(size, dtype=bool)
    table[list(members)] = True
    return table


class SRAM:
    """One embedded SRAM under diagnosis.

    Parameters
    ----------
    geometry:
        Word/bit organization.
    period_ns:
        Clock period of the shared time base (only relevant for DRFs).
    has_idle_mode:
        Whether the memory supports an idle/no-op cycle.  When absent, the
        PSC keeps the memory in a read-with-data-ignored mode during shifts
        (Sec. 3.3 of the paper).
    trace:
        When true, every access is appended to :attr:`accesses` (used by
        interface tests; disabled by default for speed).
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        period_ns: float = 10.0,
        has_idle_mode: bool = True,
        trace: bool = False,
    ) -> None:
        self.geometry = geometry
        self.timebase = TimeBase(period_ns)
        self.has_idle_mode = has_idle_mode
        self.decoder = AddressDecoder(geometry.words)
        self.column_mux = ColumnMux(geometry.bits)
        self.trace = trace
        self.accesses: list[AccessRecord] = []
        self._state: list[int] = [0] * geometry.words
        self._word_mask = mask(geometry.bits)
        # Sparse fault indexes.
        self._victim_faults: dict[tuple[int, int], list[Any]] = {}
        self._aggressor_faults: dict[tuple[int, int], list[Any]] = {}
        self._faulty_bits_by_word: dict[int, set[int]] = {}
        self._watched_bits_by_word: dict[int, set[int]] = {}
        self._cell_faults: list[Any] = []
        # Pre-bound hook lists per victim cell, maintained alongside
        # ``_victim_faults`` (same attachment order).  The replay lane
        # walks these directly, saving a getattr per fault per access.
        self._read_hooks: dict[tuple[int, int], list[Any]] = {}
        self._write_hooks: dict[tuple[int, int], list[Any]] = {}
        self._nwrc_hooks: dict[tuple[int, int], list[Any]] = {}
        #: Populations attached as rows and not yet built into the index.
        self._populations: list[Any] = []

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Instance name from the geometry."""
        return self.geometry.name

    @property
    def words(self) -> int:
        """Number of addressable words (n)."""
        return self.geometry.words

    @property
    def bits(self) -> int:
        """Word width in bits (c)."""
        return self.geometry.bits

    @property
    def now_ns(self) -> float:
        """Current simulated time."""
        return self.timebase.now_ns

    @property
    def cell_faults(self) -> list[Any]:
        """All attached cell-level fault objects."""
        self._index_populations()
        return list(self._cell_faults)

    def fault_records(self) -> tuple[list[Any], list[Any]]:
        """The attached cell faults as they are held, without building any.

        ``(objects, populations)``: the indexed fault objects in
        attachment order, and the populations still attached as rows
        (their ``live`` rows are attached).
        """
        return list(self._cell_faults), list(self._populations)

    def dump(self) -> list[int]:
        """Snapshot of the raw stored words (fault-model free)."""
        return list(self._state)

    # ------------------------------------------------------------------ #
    # Fault attachment                                                   #
    # ------------------------------------------------------------------ #
    def attach_population(self, population: Any) -> None:
        """Attach a sampled population as one record of rows.

        Nothing is built: the live rows count in :meth:`hooked_words`
        and the vector engine lowers them from their columns.  The first
        operation that acts on fault objects -- attaching or removing a
        single fault, :attr:`cell_faults`, or any read or write -- builds
        them into the index in row order.  An empty population attaches
        nothing.
        """
        if not population.size:
            return
        words, bits = self.geometry.words, self.geometry.bits
        # Rows 1-4 of the columns: victim and aggressor words and bits.
        top = population.columns[1:5].max(axis=1).tolist()
        require(
            max(top[0], top[2]) < words and max(top[1], top[3]) < bits,
            f"{self.name}: population cells outside {words}x{bits}",
        )
        self._populations.append(population)

    def _index_populations(self) -> None:
        """Build the live rows of pending populations into the index."""
        if not self._populations:
            return
        populations, self._populations = self._populations, []
        for population in populations:
            for row in population.live.nonzero()[0].tolist():
                self._index_fault(population.fault(row))

    def add_cell_fault(self, fault: Any) -> None:
        """Attach a cell-level fault.

        The fault exposes ``victims`` (cells whose read/write behaviour it
        alters) and ``aggressors`` (cells whose transitions it watches);
        either may be empty.
        """
        self._index_populations()
        self._index_fault(fault)

    def _index_fault(self, fault: Any) -> None:
        for cell in getattr(fault, "victims", ()):
            self.geometry.check_cell(cell)
            key = (cell.word, cell.bit)
            self._victim_faults.setdefault(key, []).append(fault)
            self._faulty_bits_by_word.setdefault(cell.word, set()).add(cell.bit)
            for hook, hooks in (
                ("on_read", self._read_hooks),
                ("on_write", self._write_hooks),
                ("on_nwrc_write", self._nwrc_hooks),
            ):
                handler = getattr(fault, hook, None)
                if handler is not None:
                    hooks.setdefault(key, []).append(handler)
        for cell in getattr(fault, "aggressors", ()):
            self.geometry.check_cell(cell)
            key = (cell.word, cell.bit)
            self._aggressor_faults.setdefault(key, []).append(fault)
            self._watched_bits_by_word.setdefault(cell.word, set()).add(cell.bit)
        self._cell_faults.append(fault)

    def remove_cell_fault(self, fault: Any) -> None:
        """Detach one cell-level fault (models a perfect spare-cell repair).

        The [7, 8] baseline replaces each localized defective cell with a
        spare before the next diagnosis iteration; removing the fault from
        the access path is the behavioural equivalent.
        """
        self.remove_cell_faults((fault,))

    def remove_cell_faults(self, faults: Iterable[Any]) -> None:
        """Detach several cell-level faults in one pass.

        Faults are matched by identity and unknown ones are ignored.  The
        fault list is rebuilt once, and only the index entries of the
        removed faults' cells are touched; :attr:`cell_faults` and every
        per-cell hook list keep the attachment order of what stays.
        """
        self._index_populations()
        self._unindex_faults(faults)

    def remove_covered_faults(
        self, words: Iterable[int] = (), bits: Iterable[int] = ()
    ) -> int:
        """Detach every cell fault whose victims all sit in ``words`` or ``bits``.

        The model of a spare-row/column (or spare-word) repair.  Live
        population rows leave by clearing their ``live`` flag, without
        building anything; indexed objects leave as in
        :meth:`remove_cell_faults`.  Returns the number detached.
        """
        words, bits = set(words), set(bits)
        detached = 0
        if self._populations:
            word_covered = _mask(self.geometry.words, words)
            bit_covered = _mask(self.geometry.bits, bits)
        for population in self._populations:
            covered = word_covered[population.victim_word]
            covered |= bit_covered[population.victim_bit]
            covered &= population.live
            detached += int(covered.sum())
            population.live[covered] = False
        doomed = [
            fault
            for fault in self._cell_faults
            if fault.victims
            and all(cell.word in words or cell.bit in bits for cell in fault.victims)
        ]
        self._unindex_faults(doomed)
        return detached + len(doomed)

    def _unindex_faults(self, faults: Iterable[Any]) -> None:
        doomed = {id(fault) for fault in faults}
        kept: list[Any] = []
        removed: list[Any] = []
        for fault in self._cell_faults:
            (removed if id(fault) in doomed else kept).append(fault)
        if not removed:
            return
        self._cell_faults = kept
        for fault in removed:
            for cell in getattr(fault, "victims", ()):
                key = (cell.word, cell.bit)
                if key not in self._victim_faults:
                    continue  # already cleaned for an earlier removed fault
                emptied = _unindex(
                    self._victim_faults, self._faulty_bits_by_word, key, doomed
                )
                for hooks in (self._read_hooks, self._write_hooks, self._nwrc_hooks):
                    if emptied:
                        # Hooks are registered only for the cell's own
                        # faults, so none outlives them.
                        hooks.pop(key, None)
                    elif key in hooks:
                        handlers = [
                            h
                            for h in hooks[key]
                            if id(getattr(h, "__self__", None)) not in doomed
                        ]
                        if handlers:
                            hooks[key] = handlers
                        else:
                            del hooks[key]
            for cell in getattr(fault, "aggressors", ()):
                key = (cell.word, cell.bit)
                if key in self._aggressor_faults:
                    _unindex(
                        self._aggressor_faults,
                        self._watched_bits_by_word,
                        key,
                        doomed,
                    )

    def clear_faults(self) -> None:
        """Detach all faults (cell, decoder and column faults)."""
        self._victim_faults.clear()
        self._aggressor_faults.clear()
        self._faulty_bits_by_word.clear()
        self._watched_bits_by_word.clear()
        self._cell_faults.clear()
        self._read_hooks.clear()
        self._write_hooks.clear()
        self._nwrc_hooks.clear()
        self._populations.clear()
        self.decoder.reset()
        self.column_mux.reset()

    # ------------------------------------------------------------------ #
    # Raw cell access (bypasses fault hooks; used by fault models/tests) #
    # ------------------------------------------------------------------ #
    def stored_bit(self, word: int, bit: int) -> int:
        """Raw stored value of one cell, without read-fault effects."""
        self.geometry.check_cell(CellRef(word, bit))
        return (self._state[word] >> bit) & 1

    def force_stored_bit(self, word: int, bit: int, value: int) -> None:
        """Overwrite one cell's stored value, bypassing write-fault hooks.

        Coupling faults use this to flip their victim cell; tests use it to
        set up scenarios.
        """
        self.geometry.check_cell(CellRef(word, bit))
        require(value in (0, 1), f"value must be 0 or 1, got {value!r}")
        if value:
            self._state[word] |= 1 << bit
        else:
            self._state[word] &= ~(1 << bit)

    def fill(self, value: int) -> None:
        """Directly initialize every word to ``value`` (test helper)."""
        require(0 <= value <= self._word_mask, f"value {value:#x} too wide")
        self._state = [value] * self.geometry.words

    def force_store_word(self, word: int, value: int) -> None:
        """Overwrite one stored word, bypassing fault hooks and timing.

        Used by the vectorized diagnosis backends
        (:mod:`repro.engine.backends`) to sync their bit-parallel state for
        fault-free words back into the behavioural model after a run.
        """
        self.geometry.check_address(word)
        require(0 <= value <= self._word_mask, f"value {value:#x} too wide")
        self._state[word] = value

    def hooked_words(self) -> set[int]:
        """Word indices whose accesses can trigger any fault hook.

        The union of words containing victim cells and words containing
        watched aggressor cells: accesses to every *other* word behave
        ideally, which is the invariant the bit-parallel backend exploits.
        Live population rows count without being built.
        """
        words = set(self._faulty_bits_by_word) | set(self._watched_bits_by_word)
        for population in self._populations:
            words |= population.live_words()
        return words

    # ------------------------------------------------------------------ #
    # Functional access path                                             #
    # ------------------------------------------------------------------ #
    def read(self, address: int) -> int:
        """Execute one read cycle and return the observed word."""
        self.geometry.check_address(address)
        self._index_populations()
        self.timebase.tick()
        observed = self._read_bus(address)
        if self.trace:
            self.accesses.append(
                AccessRecord(AccessKind.READ, address, observed, self.now_ns)
            )
        return observed

    def write(self, address: int, value: int) -> None:
        """Execute one normal write cycle."""
        self._write_common(address, value, nwrc=False)
        if self.trace:
            self.accesses.append(
                AccessRecord(AccessKind.WRITE, address, value, self.now_ns)
            )

    def nwrc_write(self, address: int, value: int) -> None:
        """Execute one No-Write-Recovery write cycle (NWRTM, Sec. 3.4).

        On a good cell this behaves exactly like a normal write; cells with
        open pull-up defects (DRFs, weak cells) fail to flip because the
        floating-GND bitline cannot pull the storage node up.
        """
        self._write_common(address, value, nwrc=True)
        if self.trace:
            self.accesses.append(
                AccessRecord(AccessKind.NWRC_WRITE, address, value, self.now_ns)
            )

    # ------------------------------------------------------------------ #
    # Ideal-periphery replay path (vectorized-engine fast lane)          #
    # ------------------------------------------------------------------ #
    def replay_read(self, address: int) -> int:
        """One read cycle assuming an ideal periphery.

        Semantically identical to :meth:`read` when the decoder and the
        column mux are fault-free and tracing is off -- exactly the
        preconditions under which the vectorized backends
        (:mod:`repro.engine`) replay fault-hooked words behaviourally.
        Cell-fault hooks fire exactly as in :meth:`read`; only the ideal
        decoder/mux indirection (an identity on a fault-free mux), the
        address checks and the trace check are skipped.  Callers must
        guarantee the preconditions (the engine's ``supports`` checks
        do).
        """
        if self._populations:
            self._index_populations()
        self.timebase.tick_one()
        physical = self._state[address]
        faulty_bits = self._faulty_bits_by_word.get(address)
        if faulty_bits:
            read_hooks = self._read_hooks
            for bit in faulty_bits:
                stored = (physical >> bit) & 1
                observed = stored
                for handler in read_hooks.get((address, bit), ()):
                    observed = handler(self, address, bit, observed)
                if observed != stored:
                    physical = (physical & ~(1 << bit)) | (observed << bit)
        return physical

    def replay_write(self, address: int, value: int, nwrc: bool = False) -> None:
        """One write cycle assuming an ideal periphery (see :meth:`replay_read`)."""
        if self._populations:
            self._index_populations()
        self.timebase.tick_one()
        old_physical = self._state[address]
        faulty_bits = self._faulty_bits_by_word.get(address)
        watched_bits = self._watched_bits_by_word.get(address)
        if not faulty_bits and not watched_bits:
            self._state[address] = value
            return

        write_hooks = self._nwrc_hooks if nwrc else self._write_hooks
        effective = value
        if faulty_bits:
            for bit in faulty_bits:
                old_bit = (old_physical >> bit) & 1
                new_bit = (value >> bit) & 1
                for handler in write_hooks.get((address, bit), ()):
                    new_bit = handler(self, address, bit, old_bit, new_bit)
                effective = (effective & ~(1 << bit)) | (new_bit << bit)
        self._state[address] = effective

        if watched_bits:
            for bit in watched_bits:
                old_bit = (old_physical >> bit) & 1
                new_bit = (effective >> bit) & 1
                if old_bit == new_bit:
                    continue
                for fault in self._aggressor_faults[(address, bit)]:
                    handler = getattr(fault, "on_aggressor_transition", None)
                    if handler is not None:
                        handler(self, address, bit, old_bit, new_bit)

    def force_store_rows(self, rows: Iterable[int], values: list[int]) -> None:
        """Bulk :meth:`force_store_word`: ``rows[i]`` takes ``values[row]``.

        ``values`` is indexed *by row*, so callers hand over a full packed
        column and the row subset to publish.  Rows must be valid
        addresses (the engine derives them from mask indices); values are
        width-checked like any store.
        """
        state = self._state
        word_mask = self._word_mask
        for row in rows:
            value = values[row]
            if not 0 <= value <= word_mask:
                raise ValueError(f"value {value:#x} too wide for {self.bits} bits")
            state[row] = value

    def idle(self) -> None:
        """Execute one idle/no-op cycle (or a read-ignored cycle).

        Used while the PSC serializes captured responses.  Memories without
        an idle mode burn a read cycle whose data is discarded; either way
        the stored contents are untouched.
        """
        self.timebase.tick()
        if self.trace:
            kind = AccessKind.IDLE if self.has_idle_mode else AccessKind.NOOP_READ
            self.accesses.append(AccessRecord(kind, 0, None, self.now_ns))

    def pause(self, duration_ns: float) -> None:
        """Let simulated time pass without clocking (retention pause)."""
        self.timebase.pause(duration_ns)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _read_bus(self, address: int) -> int:
        targets = self.decoder.targets(address)
        if not targets:
            return AddressDecoder.FLOATING_BUS_VALUE
        values = [self._read_word(word) for word in targets]
        combined = values[0]
        for value in values[1:]:
            combined |= value  # multi-select reads resolve wired-OR
        return combined

    def _read_word(self, word: int) -> int:
        physical = self._state[word]
        faulty_bits = self._faulty_bits_by_word.get(word)
        if faulty_bits:
            for bit in faulty_bits:
                stored = (physical >> bit) & 1
                observed = stored
                for fault in self._victim_faults[(word, bit)]:
                    handler = getattr(fault, "on_read", None)
                    if handler is not None:
                        observed = handler(self, word, bit, observed)
                if observed != stored:
                    physical = (physical & ~(1 << bit)) | (observed << bit)
        return self.column_mux.read_columns(physical)

    def _write_common(self, address: int, value: int, nwrc: bool) -> None:
        self.geometry.check_address(address)
        require(0 <= value <= self._word_mask, f"value {value:#x} too wide")
        self._index_populations()
        self.timebase.tick()
        for word in self.decoder.targets(address):
            self._write_word(word, value, nwrc)

    def _write_word(self, word: int, value: int, nwrc: bool) -> None:
        old_physical = self._state[word]
        new_physical = self.column_mux.write_columns(old_physical, value)
        faulty_bits = self._faulty_bits_by_word.get(word)
        watched_bits = self._watched_bits_by_word.get(word)
        if not faulty_bits and not watched_bits:
            self._state[word] = new_physical
            return

        hook_name = "on_nwrc_write" if nwrc else "on_write"
        effective = new_physical
        if faulty_bits:
            for bit in faulty_bits:
                old_bit = (old_physical >> bit) & 1
                new_bit = (new_physical >> bit) & 1
                for fault in self._victim_faults[(word, bit)]:
                    handler = getattr(fault, hook_name, None)
                    if handler is not None:
                        new_bit = handler(self, word, bit, old_bit, new_bit)
                effective = (effective & ~(1 << bit)) | (new_bit << bit)
        self._state[word] = effective

        if watched_bits:
            for bit in watched_bits:
                old_bit = (old_physical >> bit) & 1
                new_bit = (effective >> bit) & 1
                if old_bit == new_bit:
                    continue
                for fault in self._aggressor_faults[(word, bit)]:
                    handler = getattr(fault, "on_aggressor_transition", None)
                    if handler is not None:
                        handler(self, word, bit, old_bit, new_bit)

    def faulty_cells(self) -> set[CellRef]:
        """All cells that appear as a victim of some attached fault."""
        self._index_populations()
        return {CellRef(w, b) for (w, b) in self._victim_faults}

    def words_with_faults(self) -> Iterable[int]:
        """Word indices containing at least one faulty (victim) cell."""
        self._index_populations()
        return sorted(self._faulty_bits_by_word)

    def __repr__(self) -> str:
        pending = sum(int(p.live.sum()) for p in self._populations)
        return (
            f"SRAM(name={self.name!r}, words={self.words}, bits={self.bits}, "
            f"faults={len(self._cell_faults) + pending})"
        )
