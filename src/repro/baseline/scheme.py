"""The Huang-Jone [7, 8] diagnosis scheme (Fig. 1 of the paper).

A single shared BISD controller drives every memory in parallel through its
bi-directional serial interface.  Detection runs the 9 auxiliary sweeps;
localization iterates the 17-sweep M1 kernel, and each iteration pinpoints
at most two defective cells per memory -- the first mismatch of the
right-shift observation stream and the first of the left-shift stream --
which are repaired with spare cells before the next iteration.

Two execution modes:

* **effective** (default): the localization outcome of each iteration is
  computed from the ground-truth fault list using the closed-form stream
  semantics (lowest failing address, extremal bit per direction).  This is
  exact for the iteration count and scales to the 512x100 case study.
  Each memory's ground truth is sorted once per capture direction and
  consumed from the front, so a session costs ``O(k log k)`` per memory.
  The mode reads only the injector's ground truth -- population rows as
  class codes and primary cells, building objects only for the faults it
  reports missed -- and the bank's names and dimensions, never the
  memories' attached faults, so it can run on the very bank the proposed
  scheme diagnosed.
* **bit-accurate** (``bit_accurate=True``): every serial cycle is actually
  shifted through the faulty memory and a fault-free twin; localization
  uses the first observed stream mismatch.  Used by the test suite to
  validate the effective mode on small memories.

DRF handling follows the paper's accounting: when ``include_drf`` is set,
each iteration additionally runs the 8 DRF sweeps (with two 100 ms pauses
charged once), and DRFs join the two-per-iteration localization budget of
those sweeps.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.baseline.diag_rsmarch import DiagRSMarch
from repro.baseline.timing import (
    DRF_PAUSE_TOTAL_NS,
    baseline_diagnosis_time_ns,
    baseline_drf_extra_ns,
)
from repro.faults.base import Fault, M1_LOCALIZABLE_CLASSES
from repro.faults.injector import FaultInjector
from repro.faults.population import FAULT_CLASSES, FaultPopulation
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef
from repro.memory.sram import SRAM
from repro.serial.bidirectional import BidirectionalSerialInterface
from repro.serial.shift_register import ShiftDirection
from repro.util.bitops import checkerboard, mask
from repro.util.records import Record
from repro.util.rng import np
from repro.util.validation import require_positive


@dataclass(frozen=True)
class LocalizedFault(Record):
    """One cell pinpointed by the baseline's iterate-repair loop."""

    memory_name: str
    cell: CellRef
    iteration: int
    direction: str  # "right" or "left"
    fault_class: str


@dataclass
class BaselineReport(Record):
    """Outcome of one full baseline diagnosis session."""

    iterations: int
    localized: list[LocalizedFault] = field(default_factory=list)
    #: Ground-truth faults the scheme never localized (DRFs when DRF mode is
    #: off, weak cells always, peripheral faults outside M1's reach).
    missed: list[tuple[str, Fault]] = field(default_factory=list)
    include_drf: bool = False
    controller_words: int = 0
    controller_bits: int = 0
    period_ns: float = 10.0

    @property
    def cycles(self) -> int:
        """Serial cycles consumed, per the Eq. (1)/(4) accounting."""
        march = DiagRSMarch()
        base = march.total_cycles(
            self.controller_words, self.controller_bits, self.iterations
        )
        if self.include_drf:
            base += 8 * self.iterations * self.controller_words * self.controller_bits
        return base

    @property
    def pause_ns(self) -> float:
        """Retention pauses incurred (200 ms when DRF testing is on)."""
        return DRF_PAUSE_TOTAL_NS if self.include_drf else 0.0

    @property
    def time_ns(self) -> float:
        """Total diagnosis time in nanoseconds."""
        if self.include_drf:
            return (
                baseline_diagnosis_time_ns(
                    self.controller_words,
                    self.controller_bits,
                    self.period_ns,
                    self.iterations,
                )
                + baseline_drf_extra_ns(
                    self.controller_words,
                    self.controller_bits,
                    self.period_ns,
                    self.iterations,
                )
            )
        return baseline_diagnosis_time_ns(
            self.controller_words, self.controller_bits, self.period_ns, self.iterations
        )

    def localized_cells(self, memory_name: str) -> set[CellRef]:
        """Cells localized in ``memory_name``."""
        return {f.cell for f in self.localized if f.memory_name == memory_name}


def _stable_order(words: list[int], bits: list[int]) -> list[int]:
    """Indices sorted by ``(word, bit)``, ties in index order."""
    if np is None:  # numpy-free installs hold single faults only
        return sorted(range(len(words)), key=lambda i: (words[i], bits[i]))
    return np.lexsort((bits, words)).tolist()


class _GroundTruth:
    """One memory's injected faults as columns, in injection order.

    ``codes`` are class codes (:data:`~repro.faults.population.FAULT_CLASSES`
    indices) and ``words``/``bits`` each fault's primary cell, its first
    victim, the cell a localization event maps to (-1 for a fault without
    victims, which no capture takes).  Population rows enter as their
    columns, single faults one by one.
    """

    __slots__ = ("entries", "codes", "words", "bits", "_starts")

    def __init__(self, entries: list) -> None:
        self.entries = entries
        self.codes: list[int] = []
        self.words: list[int] = []
        self.bits: list[int] = []
        self._starts: list[int] = []
        for entry in entries:
            self._starts.append(len(self.codes))
            if isinstance(entry, FaultPopulation):
                self.codes += entry.class_codes.tolist()
                self.words += entry.victim_word.tolist()
                self.bits += entry.victim_bit.tolist()
            else:
                self.codes.append(FAULT_CLASSES.index(entry.fault_class))
                self.words.append(entry.victims[0].word if entry.victims else -1)
                self.bits.append(entry.victims[0].bit if entry.victims else -1)

    def fault(self, index: int) -> Fault:
        """Fault ``index``'s object (population rows build theirs here)."""
        slot = bisect.bisect_right(self._starts, index) - 1
        entry = self.entries[slot]
        if isinstance(entry, FaultPopulation):
            return entry.fault(index - self._starts[slot])
        return entry


def _capture_records(
    name: str, truth: _GroundTruth, members: list[int], limit: int
) -> list[LocalizedFault]:
    """One memory's localization records, in the order captures take them.

    The right-shift capture takes the lowest ``(word, -bit)`` primary cell
    and the left-shift capture the lowest ``(word, bit)``.  Both orders are
    stable sorts of the injector's order, so among faults sharing a
    primary cell the earlier one comes first -- the fault a ``min`` over
    the remaining list would pick.  A fault taken in one order is skipped
    when the other order reaches it.  Iteration ``k`` takes the right
    capture ``records[2k - 2]`` and the left capture ``records[2k - 1]``,
    so the whole sequence is fixed up front (at most ``limit`` iterations
    of it).
    """
    if not members:
        return []
    words = [truth.words[i] for i in members]
    bits = [truth.bits[i] for i in members]
    orders = (
        _stable_order(words, [-bit for bit in bits]),
        _stable_order(words, bits),
    )
    cursors = [0, 0]
    done = bytearray(len(members))
    records: list[LocalizedFault] = []
    for turn in range(min(len(members), 2 * limit)):
        side = turn & 1
        order, cursor = orders[side], cursors[side]
        while done[order[cursor]]:
            cursor += 1
        cursors[side] = cursor
        index = order[cursor]
        done[index] = 1
        records.append(
            LocalizedFault(
                name,
                CellRef(words[index], bits[index]),
                turn // 2 + 1,
                _DIRECTIONS[side],
                _CLASS_VALUES[truth.codes[members[index]]],
            )
        )
    return records


_DIRECTIONS = ("right", "left")
_CLASS_VALUES = tuple(fault_class.value for fault_class in FAULT_CLASSES)


class HuangJoneScheme:
    """Baseline parallel BISD over a bank of memories."""

    def __init__(self, bank: MemoryBank, period_ns: float = 10.0) -> None:
        require_positive(period_ns, "period_ns")
        self.bank = bank
        self.period_ns = period_ns
        self.march = DiagRSMarch()

    # ------------------------------------------------------------------ #
    # Public API                                                         #
    # ------------------------------------------------------------------ #
    def diagnose(
        self,
        injector: FaultInjector,
        include_drf: bool = False,
        bit_accurate: bool = False,
        max_iterations: int | None = None,
        early_abort: bool = False,
        localize=None,
    ) -> BaselineReport:
        """Run the full iterate-repair diagnosis over the bank.

        ``early_abort`` (bit-accurate mode) skips the trailing
        no-progress iterations once every pending fault is serially
        invisible -- weak cells never misbehave logically and DRFs only
        decay across retention pauses, which the probes never take -- so
        it can lower the reported iteration count (and therefore cycles
        and time) but never changes the localized fault set.

        ``localize`` (bit-accurate mode) overrides the per-(memory,
        direction) localization probe; it is the hook the engine's sparse
        serial replay (:mod:`repro.engine.baseline_session`) plugs in, so
        report assembly and iterate-repair bookkeeping exist only here.
        """
        report = BaselineReport(
            iterations=0,
            include_drf=include_drf,
            controller_words=self.bank.max_words,
            controller_bits=self.bank.max_bits,
            period_ns=self.period_ns,
        )
        if bit_accurate:
            self._diagnose_bit_accurate(
                injector,
                report,
                max_iterations,
                localize=localize,
                early_abort=early_abort,
            )
        else:
            self._diagnose_effective(injector, report, max_iterations)
        return report

    # ------------------------------------------------------------------ #
    # Effective mode                                                     #
    # ------------------------------------------------------------------ #
    def _diagnose_effective(
        self,
        injector: FaultInjector,
        report: BaselineReport,
        max_iterations: int | None,
    ) -> None:
        m1: list[list[LocalizedFault]] = []
        drf: list[list[LocalizedFault]] = []
        limit = max_iterations if max_iterations is not None else 10_000_000
        localizable = [c in M1_LOCALIZABLE_CLASSES for c in FAULT_CLASSES]
        retains = [c.is_retention for c in FAULT_CLASSES]
        for memory in self.bank:
            name = memory.name
            truth = _GroundTruth(injector.entries(name))
            codes = truth.codes
            m1.append(
                _capture_records(
                    name,
                    truth,
                    [i for i, code in enumerate(codes) if localizable[code]],
                    limit,
                )
            )
            retention = [i for i, code in enumerate(codes) if retains[code]]
            if report.include_drf:
                drf.append(_capture_records(name, truth, retention, limit))
            else:
                report.missed.extend((name, truth.fault(i)) for i in retention)
            report.missed.extend(
                (name, truth.fault(i))
                for i, code in enumerate(codes)
                if not localizable[code] and not retains[code]
            )

        # Each iteration visits the M1 queues, then the DRF queues, in bank
        # order, localizing up to two faults per queue: the first mismatch
        # of the right-shift stream (lowest failing address, highest
        # defective bit) and of the left-shift stream.  A drained queue is
        # never visited again.
        active = [records for records in m1 + drf if records]
        while active and report.iterations < limit:
            report.iterations += 1
            first = 2 * report.iterations - 2
            for records in active:
                report.localized += records[first : first + 2]
            active = [records for records in active if len(records) > first + 2]

    # ------------------------------------------------------------------ #
    # Bit-accurate mode                                                  #
    # ------------------------------------------------------------------ #
    def _diagnose_bit_accurate(
        self,
        injector: FaultInjector,
        report: BaselineReport,
        max_iterations: int | None,
        localize=None,
        early_abort: bool = False,
    ) -> None:
        """Shift every cycle through the real memories and a good twin.

        ``localize`` overrides the per-(memory, direction) probe -- the
        engine's sparse serial replay
        (:mod:`repro.engine.baseline_session`) hooks in here so the
        iterate-repair bookkeeping exists in exactly one place.
        """
        if localize is None:
            localize = self._localize_stream_mismatch
        limit = max_iterations if max_iterations is not None else 4 * (
            self.bank.max_words * self.bank.max_bits
        )
        pending = {
            memory.name: list(injector.faults_for(memory.name)) for memory in self.bank
        }
        # Peripheral faults (decoder/column) cannot be repaired by spare
        # cells; once their mismatch re-localizes an already-seen cell we
        # stop attributing, otherwise the loop would spin forever.
        seen: dict[str, set[CellRef]] = {memory.name: set() for memory in self.bank}
        progress = True
        while progress and report.iterations < limit:
            if not any(pending.values()):
                break
            # Serially invisible faults can never produce a stream
            # mismatch, so once only they remain, further iterations are
            # provably unproductive and may be skipped without changing
            # the localized set.
            if early_abort and all(
                fault.fault_class.is_retention
                or fault.fault_class.is_reliability_only
                for faults in pending.values()
                for fault in faults
            ):
                break
            progress = False
            report.iterations += 1
            for memory in self.bank:
                for direction in (ShiftDirection.RIGHT, ShiftDirection.LEFT):
                    cell = localize(memory, direction)
                    if cell is None or cell in seen[memory.name]:
                        continue
                    seen[memory.name].add(cell)
                    progress = True
                    fault_class = self._repair_cell(memory, pending[memory.name], cell)
                    report.localized.append(
                        LocalizedFault(
                            memory.name,
                            cell,
                            report.iterations,
                            direction.value,
                            fault_class,
                        )
                    )
        for name, faults in pending.items():
            report.missed.extend((name, f) for f in faults)

    def _localize_stream_mismatch(
        self, memory: SRAM, read_direction: ShiftDirection
    ) -> CellRef | None:
        """First stream mismatch for one read direction over the M1 sweeps.

        Each probe fills the array in the *opposite* direction (so the fill
        data reaches every cell on the far side of any defect) and then
        observes the array while refilling it with the complementary
        pattern.  Both solid polarities and a checkerboard pair are probed,
        mirroring the kernel's pattern mix; the capture register keeps the
        first mismatch only.
        """
        bits = memory.bits
        ones = mask(bits)
        checker = checkerboard(bits, phase=1)
        checker_inv = checkerboard(bits, phase=0)
        write_direction = (
            ShiftDirection.LEFT
            if read_direction is ShiftDirection.RIGHT
            else ShiftDirection.RIGHT
        )
        probes = [(ones, 0), (0, ones), (checker, checker_inv)]
        for fill_pattern, read_refill in probes:
            twin = SRAM(memory.geometry, period_ns=self.period_ns)
            snapshot = memory.dump()
            for address in range(memory.words):
                twin.write(address, snapshot[address])

            iface = BidirectionalSerialInterface(memory)
            good = BidirectionalSerialInterface(twin)
            iface.fill_all(fill_pattern, write_direction)
            good.fill_all(fill_pattern, write_direction)
            observed = iface.read_sweep(read_refill, read_direction)
            expected = good.read_sweep(read_refill, read_direction)
            for address in range(memory.words):
                for cycle, (got, want) in enumerate(
                    zip(observed[address], expected[address])
                ):
                    if got != want:
                        if read_direction is ShiftDirection.RIGHT:
                            return CellRef(address, bits - 1 - cycle)
                        return CellRef(address, cycle)
        return None

    def _repair_cell(
        self, memory: SRAM, pending: list[Fault], cell: CellRef
    ) -> str:
        """Spare-replace ``cell``: detach every fault touching it."""
        matched = [f for f in pending if cell in f.victims or cell in f.aggressors]
        memory.remove_cell_faults(matched)
        for fault in matched:
            pending.remove(fault)
        if matched:
            return matched[0].fault_class.value
        return "unattributed"
