"""Built-in self-repair (BISR) hook: spare allocation from diagnosis.

Figure 1/3 of the paper: "once a defective cell is found, the diagnosis
information ... will be either registered for on-chip repair or scanned out
for off-line analysis".  This module implements the on-chip path at word
granularity: failing addresses are remapped onto each memory's backup
(spare) words, and the faults touching a repaired word are detached from
the access path -- after which a verification re-run must come back clean
(unless the spare pool ran dry or the defect sits in the periphery).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.redundancy import RedundancyBudget, allocate_redundancy
from repro.core.report import ProposedReport
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef
from repro.memory.spare import SpareBank
from repro.util.records import Record
from repro.util.validation import require


@dataclass
class RepairResult(Record):
    """Outcome of one repair pass."""

    repaired: dict[str, set[int]] = field(default_factory=dict)
    out_of_spares: dict[str, set[int]] = field(default_factory=dict)
    detached_faults: int = 0

    @property
    def fully_repaired(self) -> bool:
        """True when every failing address got a spare."""
        return not any(self.out_of_spares.values())

    @property
    def total_repaired_words(self) -> int:
        """Number of words remapped onto spares."""
        return sum(len(v) for v in self.repaired.values())


class RepairController:
    """Allocates backup-memory spares based on a diagnosis report."""

    def __init__(self, bank: MemoryBank, spares_per_memory: int = 8) -> None:
        require(spares_per_memory >= 0, "spares_per_memory must be >= 0")
        self.bank = bank
        self.spares = {
            m.name: SpareBank(spares_per_memory, m.bits) for m in bank
        }

    def apply(self, report: ProposedReport) -> RepairResult:
        """Remap every failing address onto a spare word where possible.

        Repairing a word detaches the cell faults whose victims *all*
        live in repaired words.  Address-decoder and column faults are
        peripheral and cannot be repaired by word spares; they remain and
        will fail verification.
        """
        result = RepairResult()
        for memory in self.bank:
            spare_bank = self.spares[memory.name]
            repaired: set[int] = set()
            exhausted: set[int] = set()
            for address in report.failure_log(memory.name).addresses():
                if spare_bank.allocate(address):
                    repaired.add(address)
                else:
                    exhausted.add(address)
            if repaired:
                result.detached_faults += self._detach_word_faults(memory, repaired)
            result.repaired[memory.name] = repaired
            result.out_of_spares[memory.name] = exhausted
        return result

    def _detach_word_faults(self, memory, repaired_words: set[int]) -> int:
        # Detach only when *every* victim word has been remapped: a fault
        # with a victim in an unrepaired word still corrupts that word, so
        # detaching it wholesale (as any-involved-word matching would)
        # silently erases live defects and deflates the escape rate.
        # Repairing only an aggressor word is treated conservatively: the
        # remap may break just that coupling edge, but the victim cell
        # stays in the array, so the fault stays attached.
        return memory.remove_covered_faults(words=repaired_words)

    def spare_usage(self) -> dict[str, tuple[int, int]]:
        """Per-memory (used, total) spare counts."""
        return {
            name: (bank.used, bank.spare_words)
            for name, bank in self.spares.items()
        }


@dataclass
class BisrResult(Record):
    """Outcome of one BISR (row/column) allocation pass."""

    #: Spare rows newly committed this pass, per memory.
    new_rows: dict[str, set[int]] = field(default_factory=dict)
    #: Spare columns newly committed this pass, per memory.
    new_cols: dict[str, set[int]] = field(default_factory=dict)
    detached_faults: int = 0

    @property
    def total_new_rows(self) -> int:
        """Spare rows committed across the bank this pass."""
        return sum(len(v) for v in self.new_rows.values())

    @property
    def total_new_cols(self) -> int:
        """Spare columns committed across the bank this pass."""
        return sum(len(v) for v in self.new_cols.values())

    @property
    def total_new_spares(self) -> int:
        """Total spares (rows + columns) committed this pass."""
        return self.total_new_rows + self.total_new_cols


class BisrController:
    """Row/column built-in self-repair driven by diagnosis reports.

    The word-spare :class:`RepairController` models the paper's simple
    backup memory; real macros ship spare *rows and columns*, and
    deciding which failing cells take which is the classical
    repair-allocation problem solved by
    :func:`repro.core.redundancy.allocate_redundancy` (must-repair fixed
    point + exact final-repair with a greedy fallback).  The controller
    keeps each memory's committed allocation across retest rounds,
    re-solving only the *residual* cells each pass with whatever budget
    remains, and detaches a fault once every one of its victim cells is
    covered by a committed row or column.
    """

    def __init__(self, bank: MemoryBank, budget: RedundancyBudget) -> None:
        self.bank = bank
        self.budget = budget
        self.rows: dict[str, set[int]] = {m.name: set() for m in bank}
        self.cols: dict[str, set[int]] = {m.name: set() for m in bank}
        #: Memories that ever presented failing cells to the allocator.
        self.needing: set[str] = set()
        #: Memories whose failure pattern exceeded the remaining budget.
        self.infeasible: set[str] = set()

    def covered(self, memory_name: str, cell: CellRef) -> bool:
        """Whether a committed spare row/column repairs ``cell``."""
        return (
            cell.word in self.rows[memory_name]
            or cell.bit in self.cols[memory_name]
        )

    def apply(self, report: ProposedReport) -> BisrResult:
        """Allocate spares for every memory's uncovered failing cells.

        Cells already covered by committed spares are excluded before
        solving, so repeated passes converge: a pass that commits no new
        spare means the remaining failures are unrepairable (budget
        exhausted or peripheral) and the flow should stop retesting.
        """
        result = BisrResult()
        for memory in self.bank:
            name = memory.name
            result.new_rows[name] = set()
            result.new_cols[name] = set()
            residual = {
                cell
                for cell in report.detected_cells(name)
                if not self.covered(name, cell)
            }
            if not residual:
                continue
            self.needing.add(name)
            remaining_budget = RedundancyBudget(
                self.budget.spare_rows - len(self.rows[name]),
                self.budget.spare_cols - len(self.cols[name]),
            )
            plan = allocate_redundancy(residual, remaining_budget)
            result.new_rows[name] = set(plan.repair_rows)
            result.new_cols[name] = set(plan.repair_cols)
            self.rows[name] |= plan.repair_rows
            self.cols[name] |= plan.repair_cols
            if not plan.feasible:
                self.infeasible.add(name)
            if plan.repair_rows or plan.repair_cols:
                result.detached_faults += self._detach_covered_faults(memory)
        return result

    def _detach_covered_faults(self, memory) -> int:
        # Same conservative rule as the word controller, at cell
        # granularity: a fault leaves the access path only when every
        # victim cell sits in a replaced row or column.
        name = memory.name
        return memory.remove_covered_faults(self.rows[name], self.cols[name])

    def repair_yield(self) -> float | None:
        """Fraction of repair-needing memories whose cells are all covered.

        ``None`` when no memory ever needed repair (yield is undefined,
        not perfect, on a clean bank).
        """
        if not self.needing:
            return None
        covered = len(self.needing) - len(self.infeasible & self.needing)
        return covered / len(self.needing)

    def spare_usage(self) -> dict[str, tuple[int, int]]:
        """Per-memory (rows used, columns used) counts."""
        return {
            name: (len(self.rows[name]), len(self.cols[name]))
            for name in self.rows
        }
