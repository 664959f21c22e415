"""Unit tests for repro.memory.geometry."""

import pytest

from repro.memory.geometry import CellRef, MemoryGeometry


class TestCellRef:
    def test_ordering(self):
        assert CellRef(0, 1) < CellRef(1, 0)

    def test_str(self):
        assert str(CellRef(3, 7)) == "[w3.b7]"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CellRef(-1, 0)


class TestMemoryGeometry:
    def test_cells(self):
        assert MemoryGeometry(512, 100).cells == 51_200

    def test_address_bits(self):
        assert MemoryGeometry(512, 100).address_bits == 9
        assert MemoryGeometry(1, 4).address_bits == 1
        assert MemoryGeometry(5, 4).address_bits == 3

    def test_cell_index_roundtrip(self):
        geometry = MemoryGeometry(7, 5)
        for index in range(geometry.cells):
            assert geometry.cell_index(geometry.cell_at(index)) == index

    def test_cell_index_word_major(self):
        geometry = MemoryGeometry(4, 3)
        assert geometry.cell_index(CellRef(1, 0)) == 3

    def test_check_address_bounds(self):
        geometry = MemoryGeometry(4, 3)
        geometry.check_address(3)
        with pytest.raises(ValueError):
            geometry.check_address(4)

    def test_check_cell_bounds(self):
        geometry = MemoryGeometry(4, 3)
        with pytest.raises(ValueError):
            geometry.check_cell(CellRef(0, 3))

    def test_all_cells_count(self):
        geometry = MemoryGeometry(3, 2)
        assert len(list(geometry.all_cells())) == 6

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            MemoryGeometry(0, 4)
        with pytest.raises(ValueError):
            MemoryGeometry(4, 0)


class TestValidationMessages:
    """Every check still fires, with its message text unchanged."""

    @pytest.mark.parametrize(
        "word, bit, message",
        [
            (-1, 0, "word must be non-negative, got -1"),
            (0, -2, "bit must be non-negative, got -2"),
        ],
    )
    def test_cell_ref(self, word, bit, message):
        with pytest.raises(ValueError) as excinfo:
            CellRef(word, bit)
        assert str(excinfo.value) == message

    def test_check_cell(self):
        geometry = MemoryGeometry(4, 3, "buf")
        geometry.check_cell(CellRef(3, 2))
        with pytest.raises(ValueError) as excinfo:
            geometry.check_cell(CellRef(4, 0))
        assert str(excinfo.value) == "buf: cell [w4.b0] outside 4x3"

    @pytest.mark.parametrize("address", [-1, 4])
    def test_check_address(self, address):
        with pytest.raises(ValueError) as excinfo:
            MemoryGeometry(4, 3, "buf").check_address(address)
        assert str(excinfo.value) == (
            f"buf: address {address} out of range [0, 4)"
        )

    @pytest.mark.parametrize("index", [-1, 12])
    def test_cell_at(self, index):
        with pytest.raises(ValueError) as excinfo:
            MemoryGeometry(4, 3).cell_at(index)
        assert str(excinfo.value) == f"cell index {index} out of range"


class TestNeighbors:
    def test_interior_cell_has_four(self):
        geometry = MemoryGeometry(4, 4)
        assert len(geometry.neighbors(CellRef(1, 1))) == 4

    def test_corner_cell_has_two(self):
        geometry = MemoryGeometry(4, 4)
        assert len(geometry.neighbors(CellRef(0, 0))) == 2

    def test_neighbors_are_adjacent(self):
        geometry = MemoryGeometry(5, 5)
        cell = CellRef(2, 2)
        for neighbor in geometry.neighbors(cell):
            distance = abs(neighbor.word - cell.word) + abs(neighbor.bit - cell.bit)
            assert distance == 1

    def test_symmetric(self):
        geometry = MemoryGeometry(4, 4)
        for cell in geometry.all_cells():
            for neighbor in geometry.neighbors(cell):
                assert cell in geometry.neighbors(neighbor)
