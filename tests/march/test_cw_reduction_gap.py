"""The reduced March CW extension's intra-word CFid polarity gap.

A reproduction finding (see also :func:`repro.march.library.march_cw`): the
paper's Eq. (2) charges 3 writes + 2 reads per address per extension
background, so each per-background set necessarily leaves its final write
unverified.  For a bit pair that differs in exactly one background (e.g.
logically adjacent even/odd bits, which only background 0 separates), one
polarity of intra-word idempotent coupling is activated only by that
unverified write and escapes.

The full-March-C--per-background variant (``march_cw_full``) closes the
gap at roughly twice the extension cost -- the trade-off quantified in the
X3 ablation benchmark.
"""

import pytest

from repro.core.timing import proposed_cycles
from repro.faults.coupling import IdempotentCouplingFault
from repro.march.library import march_cw, march_cw_full, march_cw_nw
from repro.march.simulator import MarchSimulator
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM

GEOMETRY = MemoryGeometry(8, 4, "gap")


def _run(algorithm, fault):
    memory = SRAM(GEOMETRY)
    fault.attach(memory)
    return MarchSimulator().run(memory, algorithm)


def _intra_cfid(trigger_rising, forced):
    """Victim at odd bit 3, aggressor at even bit 2 (differ in bg0 only).

    With the victim on the odd (background-1) column, the only write that
    both activates a falling aggressor and leaves the forced-0 victim
    observable is each set's final, unverified one -- the escape parity.
    """
    return IdempotentCouplingFault(
        CellRef(4, 2), CellRef(4, 3), trigger_rising=trigger_rising,
        forced_value=forced,
    )


class TestTheGap:
    def test_three_polarities_caught_by_reduced_cw(self):
        for trigger_rising, forced in [(True, 0), (False, 1), (True, 1)]:
            result = _run(march_cw(4), _intra_cfid(trigger_rising, forced))
            assert not result.passed, (trigger_rising, forced)

    def test_falling_forced0_escapes_reduced_cw(self):
        """The one polarity the Eq. (2) budget cannot verify."""
        result = _run(march_cw(4), _intra_cfid(False, 0))
        assert result.passed

    def test_full_backgrounds_close_the_gap(self):
        result = _run(march_cw_full(4), _intra_cfid(False, 0))
        assert not result.passed
        assert CellRef(4, 3) in result.detected_cells()  # the victim cell

    def test_all_four_polarities_caught_by_full_cw(self):
        for trigger_rising in (True, False):
            for forced in (0, 1):
                result = _run(
                    march_cw_full(4), _intra_cfid(trigger_rising, forced)
                )
                assert not result.passed, (trigger_rising, forced)


class TestTheCost:
    def test_full_variant_costs_more(self):
        n, c = 512, 100
        reduced = proposed_cycles(march_cw(c), n, c)
        full = proposed_cycles(march_cw_full(c), n, c)
        assert full > reduced
        # The extension part roughly doubles; the total stays same order.
        assert full < 3 * reduced

    def test_full_variant_keeps_everything_reduced_catches(self):
        for trigger_rising, forced in [(True, 0), (False, 1), (True, 1)]:
            result = _run(march_cw_full(4), _intra_cfid(trigger_rising, forced))
            assert not result.passed
