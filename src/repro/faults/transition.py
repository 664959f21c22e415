"""Transition faults (TF): a cell that fails one write-transition direction."""

from __future__ import annotations

from repro.faults.base import FaultClass, StaticCellFault
from repro.memory.geometry import CellRef
from repro.util.validation import require


class TransitionFault(StaticCellFault):
    """A cell that cannot make a ``0 -> 1`` (rising) or ``1 -> 0`` transition.

    Writes of the same value are unaffected; only the faulty transition is
    lost.  The NWRC write fails in the same direction -- a cell that cannot
    flip under a full-strength write certainly cannot flip under the weaker
    no-write-recovery cycle.
    """

    def __init__(self, cell: CellRef, rising: bool) -> None:
        require(isinstance(rising, bool), "rising must be a bool")
        self.rising = rising
        self.fault_class = FaultClass.TF_UP if rising else FaultClass.TF_DOWN
        self.victims = (cell,)

    def on_write(self, memory, word, bit, old_bit, new_bit):
        if self.rising and old_bit == 0 and new_bit == 1:
            return 0
        if not self.rising and old_bit == 1 and new_bit == 0:
            return 1
        return new_bit
