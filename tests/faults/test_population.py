"""Unit tests for defect profiles, populations and the injector."""

import numpy as np
import pytest

from repro.faults.base import FaultClass, M1_LOCALIZABLE_CLASSES
from repro.faults.defects import (
    ROW_CF_IN,
    DefectProfile,
    DefectType,
    fault_for_defect,
)
from repro.faults.injector import FaultInjector
from repro.faults.population import (
    ROW_COLUMNS,
    FaultPopulation,
    expected_fault_count,
    sample_population,
)
from repro.faults.stuck_at import StuckAtFault
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.rng import make_rng


class TestExpectedFaultCount:
    def test_case_study_arithmetic(self):
        assert expected_fault_count(MemoryGeometry(512, 100), 0.01) == 256

    def test_zero_rate(self):
        assert expected_fault_count(MemoryGeometry(512, 100), 0.0) == 0

    def test_scales_linearly(self):
        geometry = MemoryGeometry(512, 100)
        assert expected_fault_count(geometry, 0.02) == 512

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            expected_fault_count(MemoryGeometry(4, 4), 1.5)


class TestDefectProfile:
    def test_default_is_uniform(self):
        profile = DefectProfile()
        probabilities = dict(profile.normalized())
        assert all(abs(p - 0.25) < 1e-12 for p in probabilities.values())

    def test_zero_weight_excluded(self):
        profile = DefectProfile(weights={DefectType.NODE_SHORT: 1.0, DefectType.PULLUP_OPEN: 0.0})
        types = [t for t, _ in profile.normalized()]
        assert types == [DefectType.NODE_SHORT]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            DefectProfile(weights={DefectType.NODE_SHORT: 0.0})

    def test_sampling_respects_support(self):
        profile = DefectProfile(weights={DefectType.CELL_BRIDGE: 1.0})
        rng = make_rng(0)
        assert all(profile.sample_type(rng) is DefectType.CELL_BRIDGE for _ in range(16))


class TestFaultForDefect:
    def test_mapping_classes(self):
        geometry = MemoryGeometry(8, 8)
        rng = make_rng(0)
        cell = CellRef(3, 3)
        assert fault_for_defect(DefectType.NODE_SHORT, cell, geometry, rng).fault_class in (
            FaultClass.SAF0,
            FaultClass.SAF1,
        )
        assert fault_for_defect(DefectType.ACCESS_OPEN, cell, geometry, rng).fault_class in (
            FaultClass.TF_UP,
            FaultClass.TF_DOWN,
        )
        assert fault_for_defect(DefectType.PULLUP_OPEN, cell, geometry, rng).fault_class in (
            FaultClass.DRF0,
            FaultClass.DRF1,
        )
        assert fault_for_defect(DefectType.CELL_BRIDGE, cell, geometry, rng).fault_class in (
            FaultClass.CF_IN,
            FaultClass.CF_ID,
            FaultClass.CF_ST,
        )

    def test_bridge_aggressor_is_neighbor(self):
        geometry = MemoryGeometry(8, 8)
        rng = make_rng(1)
        cell = CellRef(3, 3)
        fault = fault_for_defect(DefectType.CELL_BRIDGE, cell, geometry, rng)
        assert fault.aggressors[0] in geometry.neighbors(cell)


class TestSamplePopulation:
    def test_case_study_size(self):
        population = sample_population(MemoryGeometry(512, 100), 0.01, rng=7)
        assert population.size == 256

    def test_deterministic_with_seed(self):
        a = sample_population(MemoryGeometry(64, 16), 0.02, rng=3)
        b = sample_population(MemoryGeometry(64, 16), 0.02, rng=3)
        assert [f.describe() for f in a.faults] == [f.describe() for f in b.faults]

    def test_victims_are_distinct(self):
        population = sample_population(MemoryGeometry(64, 16), 0.05, rng=5)
        victims = [f.victims[0] for f in population.faults]
        assert len(victims) == len(set(victims))

    def test_m1_share_near_75_percent(self):
        population = sample_population(MemoryGeometry(512, 100), 0.01, rng=11)
        share = population.m1_localizable / population.size
        assert 0.6 < share < 0.9

    def test_retention_share_near_25_percent(self):
        population = sample_population(MemoryGeometry(512, 100), 0.01, rng=11)
        share = population.retention_faults / population.size
        assert 0.1 < share < 0.4

    def test_zero_rate_empty(self):
        population = sample_population(MemoryGeometry(64, 16), 0.0)
        assert population.size == 0

    def test_class_histogram_sums_to_size(self):
        population = sample_population(MemoryGeometry(64, 16), 0.05, rng=9)
        assert sum(population.class_histogram().values()) == population.size


class TestMalformedRows:
    """A row the reference could not build is rejected when it attaches.

    Forty stuck-at rows on distinct words give a batched bucket enough
    hooked rows to compile a fault table, which would otherwise run a
    malformed row silently.
    """

    GEOMETRY = MemoryGeometry(64, 8, "m")

    def rows(self, **fields) -> FaultPopulation:
        """Forty stuck-at-0 rows, with ``fields`` replacing row 0's values."""
        columns = np.zeros((len(ROW_COLUMNS), 40), dtype=np.int64)
        columns[ROW_COLUMNS.index("victim_word")] = np.arange(40)
        columns[ROW_COLUMNS.index("aggressor_word")] = -1
        columns[ROW_COLUMNS.index("aggressor_bit")] = -1
        for name, value in fields.items():
            columns[ROW_COLUMNS.index(name), 0] = value
        return FaultPopulation(self.GEOMETRY, 0.0, columns)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"victim_word": -3}, "cells outside 64x8"),
            ({"victim_bit": 8}, "cells outside 64x8"),
            (
                {"kind": ROW_CF_IN, "aggressor_word": 64, "aggressor_bit": 0},
                "cells outside 64x8",
            ),
            ({"kind": -1}, "row kinds outside"),
            ({"kind": 6}, "row kinds outside"),
            ({"value": 2}, "row values outside 0..1"),
            ({"forced": -1}, "row values outside 0..1"),
            ({"kind": ROW_CF_IN}, "aggressors must be set on coupling rows only"),
            (
                {"aggressor_word": 1, "aggressor_bit": 0},
                "aggressors must be set on coupling rows only",
            ),
        ],
        ids=[
            "negative-word",
            "bit-too-wide",
            "aggressor-outside",
            "negative-kind",
            "unknown-kind",
            "value-2",
            "negative-forced",
            "coupling-without-aggressor",
            "single-cell-with-aggressor",
        ],
    )
    def test_malformed_row_raises_at_attach(self, fields, message):
        memory = SRAM(self.GEOMETRY)
        with pytest.raises(ValueError, match=f"^m: population {message}"):
            FaultInjector().inject(memory, self.rows(**fields))
        assert memory.fault_records() == ([], [])


class TestInjector:
    def test_registry(self):
        memory = SRAM(MemoryGeometry(8, 4, "m0"))
        injector = FaultInjector()
        fault = StuckAtFault(CellRef(1, 1), 0)
        injector.inject(memory, fault)
        assert injector.faults_for("m0") == [fault]
        assert injector.total == 1
        assert injector.memories() == ["m0"]

    def test_inject_list(self):
        memory = SRAM(MemoryGeometry(8, 4, "m0"))
        injector = FaultInjector()
        injector.inject(memory, [StuckAtFault(CellRef(1, 1), 0), StuckAtFault(CellRef(2, 2), 1)])
        assert injector.total == 2

    def test_histogram(self):
        memory = SRAM(MemoryGeometry(8, 4, "m0"))
        injector = FaultInjector()
        injector.inject(memory, [StuckAtFault(CellRef(1, 1), 0), StuckAtFault(CellRef(2, 2), 0)])
        assert injector.class_histogram() == {FaultClass.SAF0: 2}

    def test_unknown_memory_empty(self):
        assert FaultInjector().faults_for("nope") == []


class TestM1LocalizableClasses:
    def test_logical_classes_included(self):
        assert FaultClass.SAF0 in M1_LOCALIZABLE_CLASSES
        assert FaultClass.TF_UP in M1_LOCALIZABLE_CLASSES
        assert FaultClass.CF_ID in M1_LOCALIZABLE_CLASSES

    def test_retention_excluded(self):
        assert FaultClass.DRF0 not in M1_LOCALIZABLE_CLASSES
        assert FaultClass.DRF1 not in M1_LOCALIZABLE_CLASSES

    def test_peripheral_excluded(self):
        assert FaultClass.AF not in M1_LOCALIZABLE_CLASSES
        assert FaultClass.WEAK not in M1_LOCALIZABLE_CLASSES
