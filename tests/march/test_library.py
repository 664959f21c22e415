"""Unit tests for the March algorithm library: structure and op counts."""

import pytest

from repro.march.complexity import operation_counts
from repro.march.library import (
    march_c_minus,
    march_c_nw,
    march_cw,
    march_cw_nw,
    march_with_retention_pauses,
    mats_plus,
)


class TestMatsPlus:
    def test_5n_complexity(self):
        counts = operation_counts(mats_plus(4), 10)
        assert counts.operations == 5 * 10


class TestMarchCMinus:
    def test_10n_complexity(self):
        counts = operation_counts(march_c_minus(4), 10)
        assert counts.operations == 10 * 10
        assert counts.reads == 5 * 10
        assert counts.writes == 5 * 10
        assert counts.nwrc_writes == 0

    def test_six_elements(self):
        assert len(march_c_minus(4).march_steps) == 6

    def test_five_writing_elements(self):
        assert march_c_minus(4).writing_elements() == 5

    def test_single_solid_background(self):
        assert march_c_minus(4).backgrounds_used() == [0b1111]


class TestMarchCNW:
    def test_same_cost_as_march_c_minus(self):
        """The replacement merge adds zero operations (see repro.march.library)."""
        base = operation_counts(march_c_minus(4), 10)
        merged = operation_counts(march_c_nw(4), 10)
        assert merged.operations == base.operations
        assert merged.reads == base.reads
        assert merged.writes + merged.nwrc_writes == base.writes

    def test_has_two_nwrc_passes(self):
        counts = operation_counts(march_c_nw(4), 10)
        assert counts.nwrc_writes == 2 * 10

    def test_element_structure_preserved(self):
        """Every March C- element survives with its order and read ops."""
        base = [s.element.order for s in march_c_minus(4).march_steps]
        merged = [s.element.order for s in march_c_nw(4).march_steps]
        assert merged == base


class TestMarchCW:
    def test_element_count(self):
        algorithm = march_cw(4)  # log2(4) = 2 extra backgrounds
        assert len(algorithm.march_steps) == 6 + 3 * 2

    def test_backgrounds(self):
        algorithm = march_cw(4)
        assert algorithm.backgrounds_used() == [0b1111, 0b1010, 0b1100]

    def test_extension_cost_per_background(self):
        """Each extension set: 3n writes + 2n reads (Eq. (2) term 2)."""
        cw = operation_counts(march_cw(4), 10)
        base = operation_counts(march_c_minus(4), 10)
        extra_writes = cw.writes - base.writes
        extra_reads = cw.reads - base.reads
        assert extra_writes == 3 * 10 * 2  # 2 backgrounds for c=4
        assert extra_reads == 2 * 10 * 2


class TestMarchCWNW:
    def test_combines_nw_and_cw(self):
        counts = operation_counts(march_cw_nw(8), 10)
        cw = operation_counts(march_cw(8), 10)
        assert counts.operations == cw.operations
        assert counts.nwrc_writes == 2 * 10

    def test_wide_width(self):
        algorithm = march_cw_nw(100)
        assert len(algorithm.march_steps) == 6 + 3 * 7


class TestRetentionVariant:
    def test_contains_two_pauses(self):
        algorithm = march_with_retention_pauses(4)
        assert len(algorithm.pause_steps) == 2
        assert algorithm.total_pause_ns == 200.0 * 1e6

    def test_custom_pause(self):
        algorithm = march_with_retention_pauses(4, pause_ns=5.0)
        assert algorithm.total_pause_ns == 10.0


class TestAlgorithmAccessors:
    def test_repr_mentions_name(self):
        assert "March CW" in repr(march_cw(4))

    def test_notation_lines(self):
        text = march_c_minus(4).notation()
        assert "up(r0,w1)" in text
        assert len(text.splitlines()) == 6

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            march_c_minus(0)
