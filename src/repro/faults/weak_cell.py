"""Weak cells: reliability defects with no logical misbehaviour.

Section 4.1 of the paper credits NWRTM with covering "other defects not
causing faulty logical behaviors but possibly causing reliability problems".
A resistive (rather than open) pull-up is the canonical example: the cell
reads, writes and *retains* correctly under every logical test, but the
weakened device cannot flip the cell within an NWRC cycle, where the
floating-GND bitline leaves the pull-up as the only driver.

Such cells are invisible to March tests and to delay-based retention tests;
only the NWRTM screen catches them, which is precisely the coverage increase
claimed by the proposed scheme.
"""

from __future__ import annotations

from repro.faults.base import FaultClass, StaticCellFault
from repro.memory.geometry import CellRef
from repro.util.validation import require


class WeakCellDefect(StaticCellFault):
    """A cell whose ``weak_value`` side pull-up is resistive.

    Normal writes, reads and retention are unaffected.  An NWRC write *to*
    ``weak_value`` fails to flip the cell.
    """

    def __init__(self, cell: CellRef, weak_value: int = 1) -> None:
        require(weak_value in (0, 1), "weak_value must be 0 or 1")
        self.weak_value = weak_value
        self.fault_class = FaultClass.WEAK
        self.victims = (cell,)

    def on_nwrc_write(self, memory, word, bit, old_bit, new_bit):
        if new_bit == self.weak_value and old_bit != new_bit:
            return old_bit
        return new_bit
