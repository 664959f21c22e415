"""Memory geometry: word/bit organization and cell addressing.

The paper's benchmark e-SRAM (case study from [16]) has ``n = 512`` words and
``c = 100`` IO bits.  Geometry objects carry that shape plus derived
quantities (cell count, address width) and the physical-adjacency relation
used when sampling coupling faults between neighbouring cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.records import Record
from repro.util.validation import require_positive


@dataclass(frozen=True, order=True)
class CellRef:
    """A single SRAM cell, identified by word (row) and bit (column)."""

    word: int
    bit: int

    def __post_init__(self) -> None:
        # Messages are formatted only on failure: cells are built in bulk
        # while populations are sampled and injected.
        if not self.word >= 0:
            raise ValueError(f"word must be non-negative, got {self.word}")
        if not self.bit >= 0:
            raise ValueError(f"bit must be non-negative, got {self.bit}")

    def __str__(self) -> str:
        return f"[w{self.word}.b{self.bit}]"


@dataclass(frozen=True)
class MemoryGeometry(Record):
    """Logical organization of one embedded SRAM.

    Parameters
    ----------
    words:
        Number of addressable words (``n`` in the paper).
    bits:
        Word width / number of IO pins (``c`` in the paper).
    name:
        Optional instance name used in reports.
    """

    words: int
    bits: int
    name: str = "esram"

    def __post_init__(self) -> None:
        require_positive(self.words, "words")
        require_positive(self.bits, "bits")

    @property
    def cells(self) -> int:
        """Total number of storage cells (n * c)."""
        return self.words * self.bits

    @property
    def address_bits(self) -> int:
        """Width of the address bus (1 for a single-word memory)."""
        return max(1, math.ceil(math.log2(self.words)))

    def cell_index(self, cell: CellRef) -> int:
        """Linear index of ``cell`` in word-major order."""
        self.check_cell(cell)
        return cell.word * self.bits + cell.bit

    def cell_at(self, index: int) -> CellRef:
        """Inverse of :meth:`cell_index`."""
        if not 0 <= index < self.cells:
            raise ValueError(f"cell index {index} out of range")
        return CellRef(index // self.bits, index % self.bits)

    def check_address(self, address: int) -> None:
        """Raise if ``address`` is outside this memory."""
        if not 0 <= address < self.words:
            raise ValueError(
                f"{self.name}: address {address} out of range [0, {self.words})"
            )

    def check_cell(self, cell: CellRef) -> None:
        """Raise if ``cell`` is outside this memory."""
        if not (cell.word < self.words and cell.bit < self.bits):
            raise ValueError(
                f"{self.name}: cell {cell} outside {self.words}x{self.bits}"
            )

    def all_cells(self):
        """Iterate every cell in word-major order."""
        for word in range(self.words):
            for bit in range(self.bits):
                yield CellRef(word, bit)

    def neighbors(self, cell: CellRef) -> list[CellRef]:
        """Physically adjacent cells (same column +/-1 word, same word +/-1 bit).

        Coupling-fault populations sample aggressor/victim pairs from this
        relation because real bridging defects join neighbouring cells.
        """
        return [self.cell_at(i) for i in self.neighbor_indices(self.cell_index(cell))]

    def neighbor_indices(self, index: int) -> list[int]:
        """:meth:`neighbors` as linear cell indices, in the same order."""
        bits = self.bits
        word, bit = divmod(index, bits)
        neighbors = []
        if word > 0:
            neighbors.append(index - bits)
        if word + 1 < self.words:
            neighbors.append(index + bits)
        if bit > 0:
            neighbors.append(index - 1)
        if bit + 1 < bits:
            neighbors.append(index + 1)
        return neighbors
