"""Per-session ECC bookkeeping shared by every engine backend.

Each diagnosis session gets one :class:`EccObserver` per memory.  The
observer funnels every mismatching read through the SEC-DED decoder,
counts corrections / masked mismatches / uncorrectable reads, and records
which (word, bit) cells the decoder silently repaired -- the evidence the
scenario flow needs to attribute escapes to ECC masking.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecc.code import SecDedCode
from repro.memory.geometry import CellRef
from repro.util.records import Record
from repro.util.validation import require

#: ECC schemes the observation layer implements.
ECC_SCHEMES = ("secded",)


@dataclass(frozen=True)
class EccConfig(Record):
    """Selects the on-die ECC scheme applied to word reads."""

    scheme: str = "secded"

    def __post_init__(self) -> None:
        require(
            self.scheme in ECC_SCHEMES,
            f"unknown ECC scheme {self.scheme!r}; expected one of {ECC_SCHEMES}",
        )


@dataclass(frozen=True)
class EccMemorySummary(Record):
    """Decoder statistics for one memory over one session."""

    memory_name: str
    #: Reads where the decoder asserted its corrected flag (data or check).
    corrected_reads: int
    #: Corrections that fully hid a real mismatch from the comparator.
    masked_reads: int
    #: Reads flagged uncorrectable (double-error detection or alias).
    uncorrectable_reads: int
    #: Sorted ``(word, bit, count)`` triples of data-bit corrections.
    corrected_cells: tuple[tuple[int, int, int], ...]

    def corrected_cellrefs(self) -> set[CellRef]:
        """Cells the decoder corrected, as :class:`CellRef` instances."""
        return {CellRef(word, bit) for word, bit, _ in self.corrected_cells}


class EccObserver:
    """Accumulates decoder events for one memory within one session."""

    def __init__(self, memory_name: str, code: SecDedCode) -> None:
        self.memory_name = memory_name
        self.code = code
        self.corrected_reads = 0
        self.masked_reads = 0
        self.uncorrectable_reads = 0
        self._corrected_cells: dict[tuple[int, int], int] = {}

    def observe(self, address: int, expected: int, observed: int) -> int:
        """Decode one read; returns the post-correction word."""
        outcome = self.code.observe(expected, observed)
        self.record(
            address,
            outcome.corrected_bit,
            outcome.masked,
            outcome.uncorrectable,
            outcome.check_corrected,
        )
        return outcome.word

    def record(
        self,
        address: int,
        corrected_bit: int | None,
        masked: bool,
        uncorrectable: bool,
        check_corrected: bool,
    ) -> None:
        """Fold one scalar decoder outcome into the counters.

        The fast engine tiers decode a whole session in bulk
        (:func:`repro.ecc.vector.decode_session`) and fold the sums
        through :meth:`record_totals` instead.
        """
        if corrected_bit is not None:
            self.corrected_reads += 1
            key = (address, corrected_bit)
            self._corrected_cells[key] = self._corrected_cells.get(key, 0) + 1
            if masked:
                self.masked_reads += 1
        elif check_corrected:
            self.corrected_reads += 1
        elif uncorrectable:
            self.uncorrectable_reads += 1

    def record_totals(
        self,
        corrected_reads: int,
        masked_reads: int,
        uncorrectable_reads: int,
        cells,
    ) -> None:
        """Fold pre-summed decoder outcomes into the counters.

        ``cells`` holds ``(word, bit, count)`` corrected-cell runs.  Every
        counter is an order-free sum, so reads folded in bulk account
        exactly like the same reads passed to :meth:`record` one by one.
        """
        self.corrected_reads += corrected_reads
        self.masked_reads += masked_reads
        self.uncorrectable_reads += uncorrectable_reads
        histogram = self._corrected_cells
        for word, bit, count in cells:
            key = (word, bit)
            histogram[key] = histogram.get(key, 0) + count

    def summary(self) -> EccMemorySummary:
        """Freeze the counters into an :class:`EccMemorySummary`."""
        return EccMemorySummary(
            memory_name=self.memory_name,
            corrected_reads=self.corrected_reads,
            masked_reads=self.masked_reads,
            uncorrectable_reads=self.uncorrectable_reads,
            corrected_cells=tuple(
                (word, bit, count)
                for (word, bit), count in sorted(self._corrected_cells.items())
            ),
        )
