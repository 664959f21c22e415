"""Unit tests for repro.memory.sram: the behavioural SRAM fast/slow paths."""

import pytest

from repro.faults.coupling import InversionCouplingFault
from repro.faults.stuck_at import StuckAtFault
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.ports import AccessKind
from repro.memory.sram import SRAM


class TestFaultFreeAccess:
    def test_initial_state_zero(self, small_memory):
        for address in range(small_memory.words):
            assert small_memory.read(address) == 0

    def test_write_read_roundtrip(self, small_memory):
        small_memory.write(3, 0b1010)
        assert small_memory.read(3) == 0b1010

    def test_writes_are_word_isolated(self, small_memory):
        small_memory.write(1, 0b1111)
        assert small_memory.read(0) == 0
        assert small_memory.read(2) == 0

    def test_nwrc_write_equals_write_on_good_cells(self, small_memory):
        small_memory.nwrc_write(5, 0b0110)
        assert small_memory.read(5) == 0b0110

    def test_fill(self, small_memory):
        small_memory.fill(0b1001)
        assert all(small_memory.read(a) == 0b1001 for a in range(16))

    def test_out_of_range_address_rejected(self, small_memory):
        with pytest.raises(ValueError):
            small_memory.read(16)
        with pytest.raises(ValueError):
            small_memory.write(16, 0)

    def test_too_wide_value_rejected(self, small_memory):
        with pytest.raises(ValueError):
            small_memory.write(0, 0b10000)


class TestTimebase:
    def test_each_access_ticks_once(self, small_memory):
        small_memory.write(0, 1)
        small_memory.read(0)
        small_memory.idle()
        assert small_memory.timebase.cycles == 3

    def test_pause_advances_time_not_cycles(self, small_memory):
        small_memory.pause(1_000_000.0)
        assert small_memory.now_ns == 1_000_000.0
        assert small_memory.timebase.cycles == 0

    def test_period_scales_time(self):
        memory = SRAM(MemoryGeometry(4, 4), period_ns=5.0)
        memory.read(0)
        assert memory.now_ns == 5.0


class TestRawCellAccess:
    def test_force_and_read_stored_bit(self, small_memory):
        small_memory.force_stored_bit(2, 3, 1)
        assert small_memory.stored_bit(2, 3) == 1
        assert small_memory.read(2) == 0b1000

    def test_force_clear(self, small_memory):
        small_memory.write(2, 0b1111)
        small_memory.force_stored_bit(2, 0, 0)
        assert small_memory.read(2) == 0b1110

    def test_force_bypasses_fault_hooks(self, small_memory):
        StuckAtFault(CellRef(2, 0), 0).attach(small_memory)
        small_memory.force_stored_bit(2, 0, 1)
        assert small_memory.stored_bit(2, 0) == 1


class TestFaultAttachment:
    def test_faulty_word_slow_path_only_affects_victim(self, small_memory):
        StuckAtFault(CellRef(4, 1), 1).attach(small_memory)
        small_memory.write(4, 0b0000)
        assert small_memory.read(4) == 0b0010

    def test_other_words_unaffected(self, small_memory):
        StuckAtFault(CellRef(4, 1), 1).attach(small_memory)
        small_memory.write(5, 0)
        assert small_memory.read(5) == 0

    def test_faulty_cells_listing(self, small_memory):
        fault = StuckAtFault(CellRef(4, 1), 1)
        fault.attach(small_memory)
        assert small_memory.faulty_cells() == {CellRef(4, 1)}
        assert list(small_memory.words_with_faults()) == [4]

    def test_remove_cell_fault_restores_behaviour(self, small_memory):
        fault = StuckAtFault(CellRef(4, 1), 1)
        fault.attach(small_memory)
        small_memory.remove_cell_fault(fault)
        small_memory.write(4, 0)
        assert small_memory.read(4) == 0
        assert small_memory.faulty_cells() == set()

    def test_remove_unknown_fault_is_noop(self, small_memory):
        small_memory.remove_cell_fault(StuckAtFault(CellRef(0, 0), 1))

    def test_remove_coupling_fault_clears_aggressor_watch(self, small_memory):
        fault = InversionCouplingFault(CellRef(1, 0), CellRef(2, 0))
        fault.attach(small_memory)
        small_memory.remove_cell_fault(fault)
        small_memory.write(1, 1)  # aggressor rises; victim must not flip
        assert small_memory.stored_bit(2, 0) == 0

    def test_batch_removal_keeps_attachment_order(self, small_memory):
        stuck = [StuckAtFault(CellRef(4, 1), value) for value in (1, 0, 1)]
        coupling = [
            InversionCouplingFault(CellRef(2, 0), CellRef(3, 0)),
            InversionCouplingFault(CellRef(2, 0), CellRef(4, 1)),
        ]
        faults = [stuck[0], coupling[0], stuck[1], coupling[1], stuck[2]]
        for fault in faults:
            fault.attach(small_memory)
        small_memory.remove_cell_faults([stuck[1], coupling[0]])
        kept = [stuck[0], coupling[1], stuck[2]]
        assert small_memory.cell_faults == kept
        assert small_memory._victim_faults[(4, 1)] == kept
        assert small_memory._aggressor_faults == {(2, 0): [coupling[1]]}
        assert (3, 0) not in small_memory._victim_faults
        for hooks, name in (
            (small_memory._read_hooks, "on_read"),
            (small_memory._write_hooks, "on_write"),
            (small_memory._nwrc_hooks, "on_nwrc_write"),
        ):
            assert hooks[(4, 1)] == [getattr(fault, name) for fault in kept]
            assert (3, 0) not in hooks

    def test_batch_removal_leaves_only_the_kept_attachments(self, small_memory):
        faults = [
            StuckAtFault(CellRef(1, 1), 1),
            InversionCouplingFault(CellRef(5, 2), CellRef(6, 2)),
            StuckAtFault(CellRef(1, 1), 0),
            StuckAtFault(CellRef(7, 3), 1),
        ]
        for fault in faults:
            fault.attach(small_memory)
        doomed = [faults[3], faults[1], faults[2], StuckAtFault(CellRef(0, 0), 1)]
        small_memory.remove_cell_faults(doomed)
        # The same memory as if only the kept fault had ever been attached.
        twin = SRAM(small_memory.geometry)
        faults[0].attach(twin)
        for attribute in (
            "_cell_faults",
            "_victim_faults",
            "_aggressor_faults",
            "_faulty_bits_by_word",
            "_watched_bits_by_word",
            "_read_hooks",
            "_write_hooks",
            "_nwrc_hooks",
        ):
            assert getattr(small_memory, attribute) == getattr(twin, attribute)
        assert small_memory.hooked_words() == {1}

    def test_clear_faults(self, small_memory):
        StuckAtFault(CellRef(4, 1), 1).attach(small_memory)
        small_memory.decoder.break_address(2)
        small_memory.clear_faults()
        assert not small_memory.decoder.is_faulty
        small_memory.write(4, 0)
        assert small_memory.read(4) == 0


class TestDecoderIntegration:
    def test_open_address_reads_floating_bus(self, small_memory):
        small_memory.fill(0b1111)
        small_memory.decoder.break_address(3)
        assert small_memory.read(3) == 0

    def test_open_address_drops_writes(self, small_memory):
        small_memory.decoder.break_address(3)
        small_memory.write(3, 0b1111)
        assert small_memory.stored_bit(3, 0) == 0

    def test_multi_access_writes_both_words(self, small_memory):
        small_memory.decoder.add_extra_target(2, 7)
        small_memory.write(2, 0b1111)
        assert small_memory.stored_bit(7, 0) == 1

    def test_multi_access_reads_wired_or(self, small_memory):
        small_memory.decoder.add_extra_target(2, 7)
        small_memory.force_stored_bit(7, 3, 1)
        assert small_memory.read(2) == 0b1000


class TestTrace:
    def test_trace_records_accesses(self):
        memory = SRAM(MemoryGeometry(4, 4), trace=True)
        memory.write(1, 0b0101)
        memory.read(1)
        memory.nwrc_write(1, 0)
        memory.idle()
        kinds = [record.kind for record in memory.accesses]
        assert kinds == [
            AccessKind.WRITE,
            AccessKind.READ,
            AccessKind.NWRC_WRITE,
            AccessKind.IDLE,
        ]

    def test_no_idle_mode_traces_noop_read(self):
        memory = SRAM(MemoryGeometry(4, 4), has_idle_mode=False, trace=True)
        memory.idle()
        assert memory.accesses[0].kind is AccessKind.NOOP_READ

    def test_trace_disabled_by_default(self, small_memory):
        small_memory.read(0)
        assert small_memory.accesses == []
