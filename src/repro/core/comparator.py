"""Comparator array with wrap-around-tolerant expected values.

The controller compares every serialized response bit by bit against the
expected value (Sec. 3.1).  For memories smaller than the controller's
address span, the expected value *changes after the first wrap-around*:
March elements are read-modify-write, so the second visit to a local
address reads the element's final data, not the data the element started
from.  The comparator stores each memory's size (as the paper chooses to)
and switches expectation accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.failure_log import FailureLog
from repro.march.element import MarchElement
from repro.march.simulator import FailureRecord
from repro.util.bitops import mask
from repro.util.validation import require


@dataclass
class ComparatorArray:
    """Per-memory bit-by-bit response comparison."""

    memory_name: str
    memory_bits: int
    #: Mismatches of the current session: the records :meth:`compare`
    #: appended (reference path), or the session's shared
    #: :class:`~repro.core.failure_log.FailureLog` (vector paths).
    failures: list[FailureRecord] | FailureLog = field(default_factory=list)
    comparisons: int = 0

    def expected_word(
        self,
        element: MarchElement,
        op_index: int,
        background: int,
        wrapped: bool,
    ) -> int | None:
        """Expected read data for one op, given wrap state.

        ``background`` must already be width-adapted to this memory.  On a
        wrapped visit the expectation is the element's *final* write data
        (the previous visit's read-modify-write result); a read-only
        element is unaffected by wrap.  Returns None when the operation is
        not a read.
        """
        op = element.operations[op_index]
        if not op.is_read:
            return None
        require(
            0 <= background <= mask(self.memory_bits),
            f"background {background:#x} too wide for {self.memory_bits} bits",
        )
        if wrapped:
            data = None
            for previous in reversed(element.operations[:op_index]):
                if previous.is_write:
                    # A write earlier in *this* visit already refreshed the
                    # word; the read sees that, wrap or no wrap.
                    data = previous.data
                    break
            if data is None:
                final = element.final_data()
                data = final if final is not None else op.data
        else:
            data = op.data
        if data == 1:
            return background
        return background ^ mask(self.memory_bits)

    def compare(
        self,
        observed: int,
        expected: int,
        *,
        step_index: int,
        step_label: str,
        op_index: int,
        operation: str,
        local_address: int,
        background: int,
    ) -> bool:
        """Compare one response; record and return whether it failed."""
        self.comparisons += 1
        if observed == expected:
            return False
        self.failures.append(
            FailureRecord(
                memory_name=self.memory_name,
                step_index=step_index,
                step_label=step_label,
                op_index=op_index,
                operation=operation,
                address=local_address,
                background=background,
                expected=expected,
                observed=observed,
            )
        )
        return True

    def reset(self) -> None:
        """Clear recorded failures (new diagnosis session)."""
        self.failures = []
        self.comparisons = 0
