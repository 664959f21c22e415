"""Stuck-at faults (SAF0/SAF1)."""

from __future__ import annotations

from repro.faults.base import FaultClass, StaticCellFault
from repro.memory.geometry import CellRef
from repro.util.validation import require


class StuckAtFault(StaticCellFault):
    """A cell permanently stuck at ``value`` (0 or 1).

    Both reads and writes observe the stuck value: writes of the opposite
    value are silently lost, and the NWRC write behaves identically (the
    defect dominates the cell node regardless of bitline conditioning).
    """

    def __init__(self, cell: CellRef, value: int) -> None:
        require(value in (0, 1), f"stuck value must be 0 or 1, got {value!r}")
        self.value = value
        self.fault_class = FaultClass.SAF1 if value else FaultClass.SAF0
        self.victims = (cell,)

    def on_read(self, memory, word, bit, stored_bit):
        return self.value

    def on_write(self, memory, word, bit, old_bit, new_bit):
        return self.value
