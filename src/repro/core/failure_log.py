"""Columnar failure log: one memory's mismatching reads of one session.

The paper's diagnosis record (Sec. 3.1) -- failing address, applied
background, expected vs observed word -- is a fixed-width row, so the
vector engine paths keep a session's failures as parallel columns instead
of one :class:`~repro.march.simulator.FailureRecord` object per read:

* ``step`` / ``op`` -- the March step index and the operation index inside
  that element; labels, operation strings and backgrounds come from the
  session's plan list, indexed by step;
* ``address`` -- the memory-local failing word;
* ``expected`` / ``observed`` -- ``(n, lanes)`` uint64 planes (lane ``i``
  holds word bits ``64 * i`` .. ``64 * i + 63``).

Consumers that only need *which cells failed* -- localization scoring,
word repair and BISR allocation, scenario escape accounting, monitor
window detection -- read :meth:`FailureLog.cell_ids` (sorted unique
``address * bits + bit`` ids, the memory's linear cell index) and
:meth:`FailureLog.addresses`, each derived once per log.  The
``FailureRecord`` view is materialized lazily, on first iteration or
indexing, so a log still compares equal to the reference simulator's
record list.

The reference paths build records (they are the oracle); they wrap them
with :meth:`FailureLog.from_records`, which derives the same ids in pure
Python, so none of this needs numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.march.simulator import FailureRecord
from repro.util.rng import np


def unpack_columns(planes) -> list[int]:
    """Reassemble ``(rows, lanes)`` uint64 planes into Python-int words.

    One C-level ``tolist`` per lane instead of one array slice per row.
    """
    lanes = planes.shape[1]
    values = planes[:, 0].tolist()
    for lane in range(1, lanes):
        shift = 64 * lane
        column = planes[:, lane].tolist()
        values = [value | (high << shift) for value, high in zip(values, column)]
    return values


class FailureLog(Sequence):
    """Failing reads of one memory over one session, stored as columns.

    Behaves as a read-only sequence of :class:`FailureRecord` (``len``,
    iteration, indexing, ``==`` a list) whose records are built on first
    access.  ``bits`` is the memory's word width, the stride of the cell
    ids.
    """

    __slots__ = (
        "memory_name",
        "bits",
        "plans",
        "step",
        "op",
        "address",
        "expected",
        "observed",
        "_records",
        "_cells",
        "_addresses",
    )

    def __init__(
        self, memory_name: str, bits: int, plans, step, op, address, expected, observed
    ) -> None:
        self.memory_name = memory_name
        self.bits = bits
        #: The session's step plans, indexed by ``step`` (pause steps
        #: included), supplying labels, operation strings and backgrounds.
        self.plans = plans
        self.step = step
        self.op = op
        self.address = address
        self.expected = expected
        self.observed = observed
        self._records: list[FailureRecord] | None = None
        self._cells: list[int] | None = None
        self._addresses: list[int] | None = None

    @classmethod
    def from_records(
        cls, memory_name: str, bits: int, records=()
    ) -> "FailureLog":
        """Wrap already-built records (reference paths, empty logs).

        No arrays are allocated: the ids derive from the records.
        """
        log = cls(memory_name, bits, (), None, None, None, None, None)
        log._records = list(records)
        return log

    # ------------------------------------------------------------------ #
    # Derived views                                                      #
    # ------------------------------------------------------------------ #
    def cell_ids(self) -> list[int]:
        """Sorted unique ``address * bits + bit`` ids of the failing cells."""
        if self._cells is None:
            if self.address is None:
                bits = self.bits
                self._cells = sorted(
                    {
                        record.address * bits + bit
                        for record in self._records
                        for bit in record.failing_bits()
                    }
                )
            else:
                self._cells = self._plane_cell_ids()
        return self._cells

    def addresses(self) -> list[int]:
        """Sorted addresses with at least one failing read."""
        if self._addresses is None:
            if self.address is None:
                self._addresses = sorted({record.address for record in self._records})
            else:
                self._addresses = sorted(set(self.address.tolist()))
        return self._addresses

    def records(self) -> list[FailureRecord]:
        """The failures as records, in reference order (built once)."""
        if self._records is None:
            self._records = self._materialize()
        return self._records

    def _plane_cell_ids(self) -> list[int]:
        # OR the syndromes of each distinct address, then explode the
        # merged planes into one flag per bit position: little-endian
        # bytes of each lane, little bit order within a byte.  Addresses
        # come out ascending, bits ascending within each, and no syndrome
        # bit reaches ``bits``, so the ids are already sorted and unique.
        if not self.address.size:
            return []
        order = np.argsort(self.address)
        address = self.address[order]
        starts = np.flatnonzero(
            np.concatenate(([True], address[1:] != address[:-1]))
        )
        syndrome = np.bitwise_or.reduceat(
            (self.expected ^ self.observed)[order], starts, axis=0
        ).astype("<u8", copy=False)
        flags = np.unpackbits(
            syndrome.view(np.uint8).reshape(starts.size, -1),
            axis=1,
            bitorder="little",
        )
        hit_rows, bit = np.nonzero(flags)
        return (address[starts][hit_rows] * self.bits + bit).tolist()

    def _materialize(self) -> list[FailureRecord]:
        name = self.memory_name
        plans = self.plans
        records = []
        for step, op, address, expected, observed in zip(
            self.step.tolist(),
            self.op.tolist(),
            self.address.tolist(),
            unpack_columns(self.expected),
            unpack_columns(self.observed),
        ):
            plan = plans[step]
            records.append(
                FailureRecord(
                    name,
                    step,
                    plan.step_label,
                    op,
                    plan.ops[op].operation,
                    address,
                    plan.record_background,
                    expected,
                    observed,
                )
            )
        return records

    # ------------------------------------------------------------------ #
    # Sequence protocol                                                  #
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return len(self.address)

    def __getitem__(self, index):
        return self.records()[index]

    def __iter__(self):
        return iter(self.records())

    def __eq__(self, other) -> bool:
        if isinstance(other, FailureLog):
            return self.records() == other.records()
        if isinstance(other, list):
            return self.records() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FailureLog({self.memory_name!r}, {len(self)} failing reads)"
