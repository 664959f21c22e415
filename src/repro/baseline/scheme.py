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
  Each memory's fault lists are sorted once per capture direction and
  consumed from the front, so a session costs ``O(k log k)`` per memory.
  The mode reads only the injector's lists and the bank's names and
  dimensions -- never the memories' attached faults -- so it can run on
  the very bank the proposed scheme diagnosed.
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

from dataclasses import dataclass, field

from repro.baseline.diag_rsmarch import DiagRSMarch, min_iterations
from repro.baseline.timing import (
    DRF_PAUSE_TOTAL_NS,
    baseline_diagnosis_time_ns,
    baseline_drf_extra_ns,
)
from repro.faults.base import Fault, M1_LOCALIZABLE_CLASSES
from repro.faults.injector import FaultInjector
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef
from repro.memory.sram import SRAM
from repro.serial.bidirectional import BidirectionalSerialInterface
from repro.serial.shift_register import ShiftDirection
from repro.util.bitops import checkerboard, mask
from repro.util.records import Record
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


def _primary_cell(fault: Fault) -> CellRef:
    """The cell a localization event maps to (the fault's first victim)."""
    return fault.victims[0]


class _CaptureQueue:
    """One memory's pending faults, ordered once per capture direction.

    The right-shift capture takes the lowest ``(word, -bit)`` primary cell
    and the left-shift capture the lowest ``(word, bit)``.  Both orders are
    stable sorts of the injector's list, so among faults sharing a primary
    cell the earlier one comes first -- the fault a ``min`` over the
    remaining list would pick.  A fault taken in one order is skipped when
    the other order reaches it.
    """

    __slots__ = ("name", "faults", "right", "left", "taken", "pending")

    def __init__(self, name: str, faults: list[Fault]) -> None:
        self.name = name
        self.faults = faults
        cells = [_primary_cell(fault) for fault in faults]
        indices = range(len(faults))
        self.right = iter(
            sorted(indices, key=lambda i: (cells[i].word, -cells[i].bit))
        )
        self.left = iter(sorted(indices, key=lambda i: (cells[i].word, cells[i].bit)))
        self.taken = [False] * len(faults)
        self.pending = len(faults)

    def take(self, order) -> Fault:
        """The first pending fault of ``order``, now taken."""
        index = next(i for i in order if not self.taken[i])
        self.taken[index] = True
        self.pending -= 1
        return self.faults[index]


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

    def expected_iterations(self, injector: FaultInjector) -> int:
        """The paper's minimum-k for the injected population."""
        per_memory = []
        for memory in self.bank:
            faults = injector.faults_for(memory.name)
            localizable = sum(
                1 for f in faults if f.fault_class in M1_LOCALIZABLE_CLASSES
            )
            per_memory.append(min_iterations(localizable, kernel_share=1.0))
        return max(per_memory, default=0)

    # ------------------------------------------------------------------ #
    # Effective mode                                                     #
    # ------------------------------------------------------------------ #
    def _diagnose_effective(
        self,
        injector: FaultInjector,
        report: BaselineReport,
        max_iterations: int | None,
    ) -> None:
        m1: list[_CaptureQueue] = []
        drf: list[_CaptureQueue] = []
        for memory in self.bank:
            faults = injector.faults_for(memory.name)
            m1.append(
                _CaptureQueue(
                    memory.name,
                    [f for f in faults if f.fault_class in M1_LOCALIZABLE_CLASSES],
                )
            )
            retention = [f for f in faults if f.fault_class.is_retention]
            if report.include_drf:
                drf.append(_CaptureQueue(memory.name, retention))
            else:
                report.missed.extend((memory.name, f) for f in retention)
            report.missed.extend(
                (memory.name, f)
                for f in faults
                if f.fault_class not in M1_LOCALIZABLE_CLASSES
                and not f.fault_class.is_retention
            )

        # Each iteration visits the M1 queues, then the DRF queues, in bank
        # order; a drained queue is never visited again.
        active = [queue for queue in m1 + drf if queue.pending]
        limit = max_iterations if max_iterations is not None else 10_000_000
        while active and report.iterations < limit:
            report.iterations += 1
            for queue in active:
                self._localize_pair(report, queue)
            active = [queue for queue in active if queue.pending]

    def _localize_pair(self, report: BaselineReport, queue: _CaptureQueue) -> None:
        """Localize up to two faults: first-per-direction stream captures.

        The right-shift stream's first mismatch is at the lowest failing
        address and, within that word, the highest defective bit; the
        left-shift stream mirrors it.
        """
        for direction, order in (("right", queue.right), ("left", queue.left)):
            if not queue.pending:
                return
            fault = queue.take(order)
            report.localized.append(
                LocalizedFault(
                    queue.name,
                    _primary_cell(fault),
                    report.iterations,
                    direction,
                    fault.fault_class.value,
                )
            )

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
