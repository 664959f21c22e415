"""Diagnosis reports for the proposed scheme.

A report collects every failure the comparator array registered, exposes
the localized cells, and -- given the ground-truth injector -- scores
detection and localization per fault, which is what the evaluation
experiments (E5, E6) consume.  Scoring reads each memory's
:class:`~repro.core.failure_log.FailureLog` cell ids, never the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.failure_log import FailureLog
from repro.ecc.observer import EccMemorySummary
from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.faults.population import FaultPopulation
from repro.march.simulator import FailureRecord
from repro.memory.geometry import CellRef
from repro.util.records import Record
from repro.util.units import format_duration_ns


@dataclass(frozen=True)
class FaultScore(Record):
    """Ground-truth outcome for one injected fault."""

    memory_name: str
    description: str
    fault_class: str
    detected: bool
    localized: bool


@dataclass
class ProposedReport(Record):
    """Outcome of one proposed-scheme diagnosis session."""

    algorithm_name: str
    controller_words: int
    controller_bits: int
    period_ns: float
    cycles: int = 0
    pause_ns: float = 0.0
    #: Per-memory failing reads: a :class:`FailureLog` from every session
    #: path (a plain record list is accepted too).
    failures: dict[str, FailureLog | list[FailureRecord]] = field(
        default_factory=dict
    )
    deliveries: int = 0
    nwrc_ops: int = 0
    #: True when a go/no-go session stopped before running every element.
    aborted_early: bool = False
    #: Per-memory ECC decoder summaries; ``None`` when the session ran
    #: without an on-die ECC layer (failures are then raw observations).
    ecc: dict[str, EccMemorySummary] | None = None

    @property
    def time_ns(self) -> float:
        """Total diagnosis time (cycles x period + pauses)."""
        return self.cycles * self.period_ns + self.pause_ns

    @property
    def total_failures(self) -> int:
        """Mismatching reads across all memories."""
        return sum(len(f) for f in self.failures.values())

    @property
    def passed(self) -> bool:
        """True when no memory produced a mismatch."""
        return self.total_failures == 0

    @property
    def ecc_masked_reads(self) -> int:
        """Mismatching reads the ECC layer hid from the comparator."""
        if not self.ecc:
            return 0
        return sum(s.masked_reads for s in self.ecc.values())

    @property
    def ecc_corrected_reads(self) -> int:
        """Reads where the ECC decoder asserted its corrected flag."""
        if not self.ecc:
            return 0
        return sum(s.corrected_reads for s in self.ecc.values())

    @property
    def ecc_uncorrectable_reads(self) -> int:
        """Reads the ECC decoder flagged uncorrectable."""
        if not self.ecc:
            return 0
        return sum(s.uncorrectable_reads for s in self.ecc.values())

    def failure_log(self, memory_name: str) -> FailureLog:
        """One memory's failures as a log (record lists get wrapped).

        A wrapped record list strides its cell ids by the controller
        width, which is at least every memory's own width.
        """
        failures = self.failures.get(memory_name, [])
        if isinstance(failures, FailureLog):
            return failures
        return FailureLog.from_records(memory_name, self.controller_bits, failures)

    def detected_cells(self, memory_name: str) -> set[CellRef]:
        """Cells implicated by failures in one memory."""
        log = self.failure_log(memory_name)
        bits = log.bits
        return {CellRef(*divmod(cell, bits)) for cell in log.cell_ids()}

    def failing_memories(self) -> list[str]:
        """Names of memories with at least one failure."""
        return sorted(name for name, f in self.failures.items() if f)

    def score_against(self, injector: FaultInjector) -> list[FaultScore]:
        """Score every injected fault: detected? victim localized?

        A fault is *detected* when its memory produced any failure
        involving one of its victim cells, and *localized* under the same
        condition -- the proposed scheme's failure records carry exact
        (address, bit) coordinates, so detection and localization coincide
        (unlike the serial baselines).
        """
        return [
            FaultScore(
                memory_name=name,
                description=fault.describe(),
                fault_class=fault.fault_class.value,
                detected=hit,
                localized=hit,
            )
            for name, fault, hit in self._victim_hits(injector)
        ]

    def localization_rate(self, injector: FaultInjector, fault_filter=None) -> float:
        """Fraction of injected faults whose victims were localized.

        Without a filter, population rows are tested as arrays: their
        victim cell ids against the log's (no fault object is built).
        """
        if fault_filter is None:
            hits = total = 0
            for name in injector.memories():
                log = self.failure_log(name)
                cells = log.cell_ids()
                cell_set = None
                for entry in injector.entries(name):
                    if isinstance(entry, FaultPopulation):
                        hits += entry.victims_hit(cells, log.bits)
                        total += entry.size
                        continue
                    if cell_set is None:
                        cell_set = set(cells)
                    hits += _any_victim_in(entry, cell_set, log.bits)
                    total += 1
        else:
            scores = [s for s in self.score_against(injector) if fault_filter(s)]
            hits = sum(score.localized for score in scores)
            total = len(scores)
        if not total:
            return 1.0
        return hits / total

    def _victim_hits(
        self, injector: FaultInjector
    ) -> Iterator[tuple[str, Fault, bool]]:
        """``(memory, fault, any victim cell failed)`` per injected fault."""
        for name in injector.memories():
            log = self.failure_log(name)
            cells = set(log.cell_ids())
            for fault in injector.faults_for(name):
                yield name, fault, _any_victim_in(fault, cells, log.bits)

    def localized_cells(self, memory_name: str) -> list["LocalizedCell"]:
        """Per-cell localization evidence, strongest first.

        Aggregates the failure records of one memory into one entry per
        implicated cell with the count of failing reads and the first March
        element that exposed it -- the per-cell view repair and off-line
        analysis consume.
        """
        evidence: dict[CellRef, list[FailureRecord]] = {}
        for failure in self.failures.get(memory_name, []):
            for cell in failure.failing_cells():
                evidence.setdefault(cell, []).append(failure)
        cells = [
            LocalizedCell(
                memory_name=memory_name,
                cell=cell,
                failing_reads=len(records),
                first_step=records[0].step_label,
            )
            for cell, records in evidence.items()
        ]
        return sorted(cells, key=lambda c: (-c.failing_reads, c.cell))

    def summary_lines(self) -> list[str]:
        """Human-readable session summary for examples and logs."""
        lines = [
            f"algorithm        : {self.algorithm_name}",
            f"controller       : {self.controller_words} words x "
            f"{self.controller_bits} bits @ {self.period_ns} ns",
            f"cycles           : {self.cycles}",
            f"diagnosis time   : {format_duration_ns(self.time_ns)}",
            f"pattern deliveries: {self.deliveries}",
            f"NWRC operations  : {self.nwrc_ops}",
            f"total failures   : {self.total_failures}",
        ]
        for name in sorted(self.failures):
            cells = self.detected_cells(name)
            lines.append(f"  {name}: {len(self.failures[name])} failing reads, "
                         f"{len(cells)} distinct cells")
        return lines


def _any_victim_in(fault: Fault, cells: set[int], bits: int) -> bool:
    """Whether a victim of ``fault`` is among ``cells`` (``word * bits + bit``)."""
    # ``bit < bits``: an out-of-width victim must not alias the next
    # word's cell id.
    return any(
        victim.bit < bits and victim.word * bits + victim.bit in cells
        for victim in fault.victims
    )


@dataclass(frozen=True)
class LocalizedCell(Record):
    """One cell pinpointed by diagnosis, with its failing evidence."""

    memory_name: str
    cell: CellRef
    failing_reads: int
    first_step: str
