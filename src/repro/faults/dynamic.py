"""Read/write-disturb fault models (the "dynamic" extensions).

These classes complete the static fault space of the classical taxonomy
with the read- and write-disturb mechanisms that later March work (e.g.
March SS) was designed for.  They matter here because they stress the
*algorithm* dimension of the reproduction: March C-/CW catch some of them
for free, while the deceptive read-destructive fault escapes any March
whose elements read each cell only once -- a differentiation the extended
algorithm library (:func:`repro.march.library.march_ss`) demonstrates.

* **IRF** -- incorrect read fault: the read returns the complement but the
  cell keeps its value;
* **RDF** -- read destructive fault: the read flips the cell *and* returns
  the flipped value;
* **DRDF** -- deceptive read destructive fault: the read returns the
  correct value but flips the cell (detectable only by a second read);
* **WDF** -- write disturb fault: a non-transition write (writing the value
  already stored) flips the cell.
"""

from __future__ import annotations

from repro.faults.base import FaultClass, StaticCellFault
from repro.memory.geometry import CellRef
from repro.util.validation import require


class IncorrectReadFault(StaticCellFault):
    """IRF: reads return the complement; the stored value is untouched."""

    def __init__(self, cell: CellRef) -> None:
        self.fault_class = FaultClass.IRF
        self.victims = (cell,)

    def on_read(self, memory, word, bit, stored_bit):
        return 1 - stored_bit


class ReadDestructiveFault(StaticCellFault):
    """RDF: the read flips the cell and returns the flipped value."""

    def __init__(self, cell: CellRef) -> None:
        self.fault_class = FaultClass.RDF
        self.victims = (cell,)

    def on_read(self, memory, word, bit, stored_bit):
        flipped = 1 - stored_bit
        memory.force_stored_bit(word, bit, flipped)
        return flipped


class DeceptiveReadDestructiveFault(StaticCellFault):
    """DRDF: the read returns the *correct* value but flips the cell.

    The canonical single-read escape: the corrupted state is only
    observable by re-reading before any write refreshes the cell, which
    March C-/CW never do -- and March SS does.
    """

    def __init__(self, cell: CellRef) -> None:
        self.fault_class = FaultClass.DRDF
        self.victims = (cell,)

    def on_read(self, memory, word, bit, stored_bit):
        memory.force_stored_bit(word, bit, 1 - stored_bit)
        return stored_bit


class WriteDisturbFault(StaticCellFault):
    """WDF: writing the already-stored value flips the cell.

    ``polarity`` restricts the disturb to non-transition writes of 0 or 1;
    ``None`` disturbs both.
    """

    def __init__(self, cell: CellRef, polarity: int | None = None) -> None:
        require(polarity in (None, 0, 1), "polarity must be None, 0 or 1")
        self.fault_class = FaultClass.WDF
        self.polarity = polarity
        self.victims = (cell,)

    def on_write(self, memory, word, bit, old_bit, new_bit):
        if old_bit == new_bit and (self.polarity is None or new_bit == self.polarity):
            return 1 - new_bit
        return new_bit
