"""Random fault populations for a given defect rate.

``sample_population`` converts a manufacturing defect rate into a concrete,
seeded set of functional faults following the defect statistics of [8] as
used by the paper's case study: ``faults = cells * rate / cells_per_fault``
distinguishable faults, classes drawn from a :class:`DefectProfile`.

A population is columnar, one row per fault (:class:`FaultPopulation`).
Ground truth, the vector engine and repair read the rows; fault objects
are built from them only when a behavioural path first needs one.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from repro.faults.base import Fault, FaultClass, M1_LOCALIZABLE_CLASSES
from repro.faults.defects import (
    DefectProfile,
    ROW_DRF,
    defect_row,
    fault_from_row,
    row_representative,
)
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.util.rng import make_rng, np
from repro.util.rounding import round_half_up
from repro.util.validation import require, require_in_range

#: Fault classes in code order: a class code indexes this tuple.
FAULT_CLASSES = tuple(FaultClass)


@functools.cache
def _row_class_codes():
    """Class code of each ``(kind, value)`` pair, as ``table[kind * 2 + value]``."""
    table = np.array(
        [
            FAULT_CLASSES.index(row_representative(kind, value, 0, True).fault_class)
            for kind in range(6)
            for value in (0, 1)
        ],
        dtype=np.int64,
    )
    table.setflags(write=False)  # shared by every caller of the cache
    return table


def _class_code_mask(classes) -> "np.ndarray":
    """A boolean table over class codes: which codes belong to ``classes``."""
    return np.array([c in classes for c in FAULT_CLASSES], dtype=bool)


#: The integer columns of a population row, in :attr:`FaultPopulation.columns` order.
ROW_COLUMNS = (
    "kind",
    "victim_word",
    "victim_bit",
    "aggressor_word",
    "aggressor_bit",
    "value",
    "forced",
)


class FaultPopulation:
    """A sampled set of faults for one memory, one row per fault.

    :attr:`columns` stacks the integer columns (:data:`ROW_COLUMNS`),
    each also an attribute:

    * ``kind`` -- a :data:`~repro.faults.defects.ROW_SAF`-style row kind,
      ``value``/``forced`` its parameters (see
      :func:`~repro.faults.defects.fault_from_row`);
    * ``victim_word``/``victim_bit`` and ``aggressor_word``/
      ``aggressor_bit`` (-1 for single-cell faults).

    They are read-only.  Two more columns are state: ``written_at``, the
    DRF decay clock (NaN: no fragile write pending), and ``live``, the
    rows still attached to the memory this population is attached to as
    one record (:meth:`repro.memory.sram.SRAM.attach_population`);
    repair clears the rows it detaches.

    :meth:`fault` builds a row's object on first use and keeps it, and
    :attr:`faults` builds them all.  Each row's decay clock has one home:
    the ``written_at`` column until the row's object is built, the object
    after (:meth:`drf_clocks`, :meth:`store_drf_clocks`).
    """

    def __init__(
        self,
        geometry: MemoryGeometry,
        defect_rate: float,
        columns,
        written_at=None,
        live=None,
    ) -> None:
        self.geometry = geometry
        self.defect_rate = defect_rate
        self.columns = columns
        columns.setflags(write=False)
        (
            self.kind,
            self.victim_word,
            self.victim_bit,
            self.aggressor_word,
            self.aggressor_bit,
            self.value,
            self.forced,
        ) = columns
        size = columns.shape[1]
        self.written_at = (
            np.full(size, math.nan) if written_at is None else written_at
        )
        self.live = np.ones(size, dtype=bool) if live is None else live
        self._objects: list[Fault | None] | None = None
        self._class_codes = None

    @property
    def size(self) -> int:
        """Number of distinguishable faults."""
        return len(self.kind)

    # ------------------------------------------------------------------ #
    # Objects                                                            #
    # ------------------------------------------------------------------ #
    def fault(self, row: int) -> Fault:
        """Row ``row``'s fault object, built on first use."""
        objects = self._objects
        if objects is None:
            objects = self._objects = [None] * self.size
        fault = objects[row]
        if fault is None:
            kind, word, bit, aggressor_word, aggressor_bit, value, forced = (
                self.columns[:, row].tolist()
            )
            aggressor = (
                None if aggressor_word < 0 else CellRef(aggressor_word, aggressor_bit)
            )
            fault = fault_from_row(kind, CellRef(word, bit), aggressor, value, forced)
            written = float(self.written_at[row])
            if kind == ROW_DRF and not math.isnan(written):
                fault._written_at_ns = written
            objects[row] = fault
        return fault

    @property
    def faults(self) -> list[Fault]:
        """Every row's fault object, in row order."""
        return [self.fault(row) for row in range(self.size)]

    def built_rows(self) -> list[int]:
        """Rows whose objects exist."""
        if self._objects is None:
            return []
        return [row for row, fault in enumerate(self._objects) if fault is not None]

    def drf_clocks(self, rows) -> "np.ndarray":
        """The decay clocks of DRF ``rows``, each read from its home."""
        clocks = self.written_at[rows]
        if self._objects is not None:
            for index, row in enumerate(np.asarray(rows).tolist()):
                fault = self._objects[row]
                if fault is not None:
                    written = fault._written_at_ns
                    clocks[index] = math.nan if written is None else written
        return clocks

    def store_drf_clocks(self, rows, clocks) -> None:
        """Write the decay clocks of DRF ``rows`` to their homes."""
        objects = self._objects
        if objects is None:
            self.written_at[rows] = clocks
            return
        for row, written in zip(np.asarray(rows).tolist(), clocks.tolist()):
            fault = objects[row]
            if fault is None:
                self.written_at[row] = written
            else:
                fault._written_at_ns = None if math.isnan(written) else written

    def copy(self) -> "FaultPopulation":
        """An independent twin carrying each row's current state.

        The read-only :attr:`columns` (and the class codes derived from
        them) are shared; clocks and the live mask are copied, and no
        object is built.
        """
        twin = object.__new__(FaultPopulation)
        twin.__dict__.update(self.__dict__)
        twin.written_at = self.drf_clocks(np.arange(self.size))
        twin.live = self.live.copy()
        twin._objects = None
        return twin

    # ------------------------------------------------------------------ #
    # Columnar views                                                     #
    # ------------------------------------------------------------------ #
    @property
    def class_codes(self) -> "np.ndarray":
        """Each row's class, as an index into :data:`FAULT_CLASSES`."""
        if self._class_codes is None:
            self._class_codes = _row_class_codes()[self.kind * 2 + self.value]
        return self._class_codes

    def class_histogram(self) -> dict[FaultClass, int]:
        """Count of faults per fault class."""
        codes = Counter(self.class_codes.tolist())
        return {FAULT_CLASSES[code]: count for code, count in codes.items()}

    @property
    def m1_localizable(self) -> int:
        """Faults the baseline M1 kernel can localize (its 75 % share)."""
        return int(_class_code_mask(M1_LOCALIZABLE_CLASSES)[self.class_codes].sum())

    @property
    def retention_faults(self) -> int:
        """Number of DRFs (the class [7, 8] neglects)."""
        retention = {c for c in FAULT_CLASSES if c.is_retention}
        return int(_class_code_mask(retention)[self.class_codes].sum())

    def live_words(self) -> set[int]:
        """Words holding a live row's victim or aggressor cell."""
        live = self.live
        words = set(self.victim_word[live].tolist())
        aggressors = self.aggressor_word[live]
        words.update(aggressors[aggressors >= 0].tolist())
        return words

    def victims_hit(self, cell_ids, bits: int) -> int:
        """Rows whose victim is among the sorted ``cell_ids`` (``word * bits + bit``)."""
        if not self.size or not cell_ids:
            return 0
        cells = np.asarray(cell_ids, dtype=np.int64)
        ids = self.victim_word * bits + self.victim_bit
        found = cells[np.minimum(np.searchsorted(cells, ids), cells.size - 1)] == ids
        # ``bit < bits``: an out-of-width victim must not alias the next
        # word's cell id.
        return int(np.count_nonzero(found & (self.victim_bit < bits)))

    def attach_all(self, memory) -> None:
        """Install every fault into ``memory`` as an object."""
        for fault in self.faults:
            fault.attach(memory)

    def __repr__(self) -> str:
        return (
            f"FaultPopulation({self.geometry.name!r}, rate={self.defect_rate}, "
            f"size={self.size})"
        )


def expected_fault_count(
    geometry: MemoryGeometry,
    defect_rate: float,
    cells_per_fault: float = 2.0,
) -> int:
    """Closed-form fault count for a defect rate (case study: 256).

    Counts round **half up** (:func:`repro.util.rounding.round_half_up`),
    the explicit convention shared with the intermittent-population
    sampler -- built-in ``round`` would send exact-``.5`` populations to
    the nearest even count instead.

    >>> from repro.memory.geometry import MemoryGeometry
    >>> expected_fault_count(MemoryGeometry(512, 100), 0.01)
    256
    """
    require_in_range(defect_rate, 0.0, 1.0, "defect_rate")
    return round_half_up(geometry.cells * defect_rate / cells_per_fault)


def sample_population(
    geometry: MemoryGeometry,
    defect_rate: float,
    profile: DefectProfile | None = None,
    rng: int | np.random.Generator | None = 0,
) -> FaultPopulation:
    """Sample a seeded fault population for one memory.

    Victim cells are drawn without replacement so the faults are independent
    (no cell carries two defects); coupling aggressors are drawn from the
    victim's physical neighbours, preferring cells not already defective.
    """
    require_in_range(defect_rate, 0.0, 1.0, "defect_rate")
    profile = profile or DefectProfile()
    generator = make_rng(rng)
    count = expected_fault_count(geometry, defect_rate, profile.cells_per_fault)
    require(
        count <= geometry.cells,
        f"defect rate {defect_rate} implies more faults than cells",
    )
    if count == 0:
        empty = np.zeros((len(ROW_COLUMNS), 0), dtype=np.int64)
        return FaultPopulation(geometry, defect_rate, empty)

    victims = generator.choice(geometry.cells, size=count, replace=False).tolist()
    used = set(victims)
    bits = geometry.bits
    rows: list[tuple[int, ...]] = []
    for victim in victims:
        defect = profile.sample_type(generator)
        kind, aggressor, value, forced = defect_row(defect, victim, geometry, generator)
        # Prefer an aggressor that is not itself defective so fault effects
        # do not overlap; fall back to whatever neighbour was drawn.
        if aggressor >= 0:
            if aggressor in used:
                free = [
                    n for n in geometry.neighbor_indices(victim) if n not in used
                ]
                if free:
                    aggressor = free[int(generator.integers(len(free)))]
            used.add(aggressor)
            aggressor_cell = divmod(aggressor, bits)
        else:
            aggressor_cell = (-1, -1)
        rows.append((kind, *divmod(victim, bits), *aggressor_cell, value, forced))
    # One row per fault in ROW_COLUMNS order, stored column by column.
    columns = np.array(rows, dtype=np.int64).T.copy()
    return FaultPopulation(geometry, defect_rate, columns)
