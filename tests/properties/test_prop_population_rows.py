"""The columnar population sampler against the object sampler it replaced.

``reference_population`` below is the object loop rows replaced, kept
here verbatim as the reference: same generator calls in the same order,
one fault object per draw.  The row sampler must build the very same
objects and leave a shared generator in the very same state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.defects import DefectProfile, DefectType
from repro.faults.injector import FaultInjector
from repro.faults.population import expected_fault_count, sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM


def reference_fault(defect, cell, geometry, rng):
    if defect is DefectType.NODE_SHORT:
        return StuckAtFault(cell, value=int(rng.integers(2)))
    if defect is DefectType.ACCESS_OPEN:
        return TransitionFault(cell, rising=bool(rng.integers(2)))
    if defect is DefectType.PULLUP_OPEN:
        return DataRetentionFault(cell, fragile_value=int(rng.integers(2)))
    neighbors = [
        n for n in geometry.neighbors(cell) if n.word != cell.word
    ] or geometry.neighbors(cell)
    aggressor = neighbors[int(rng.integers(len(neighbors)))]
    subtype = int(rng.integers(3))
    if subtype == 0:
        return InversionCouplingFault(aggressor, cell, trigger_rising=bool(rng.integers(2)))
    if subtype == 1:
        return IdempotentCouplingFault(
            aggressor,
            cell,
            trigger_rising=bool(rng.integers(2)),
            forced_value=int(rng.integers(2)),
        )
    return StateCouplingFault(
        aggressor,
        cell,
        aggressor_state=int(rng.integers(2)),
        forced_value=int(rng.integers(2)),
    )


def reference_retarget(fault, aggressor):
    victim = fault.victims[0]
    if isinstance(fault, InversionCouplingFault):
        return InversionCouplingFault(aggressor, victim, fault.trigger_rising)
    if isinstance(fault, IdempotentCouplingFault):
        return IdempotentCouplingFault(
            aggressor, victim, fault.trigger_rising, fault.forced_value
        )
    return StateCouplingFault(
        aggressor, victim, fault.aggressor_state, fault.forced_value
    )


def reference_population(geometry, defect_rate, profile, generator):
    count = expected_fault_count(geometry, defect_rate, profile.cells_per_fault)
    if count == 0:
        return []
    victim_indices = generator.choice(geometry.cells, size=count, replace=False)
    used = {int(i) for i in victim_indices}
    faults = []
    for index in victim_indices:
        cell = geometry.cell_at(int(index))
        defect = profile.sample_type(generator)
        fault = reference_fault(defect, cell, geometry, generator)
        if fault.aggressors:
            aggressor = fault.aggressors[0]
            if geometry.cell_index(aggressor) in used:
                free = [
                    n
                    for n in geometry.neighbors(cell)
                    if geometry.cell_index(n) not in used
                ]
                if free:
                    replacement = free[int(generator.integers(len(free)))]
                    fault = reference_retarget(fault, replacement)
            used.add(geometry.cell_index(fault.aggressors[0]))
        faults.append(fault)
    return faults


def fingerprint(fault):
    """Type, cells and every parameter of a fault object."""
    return type(fault), sorted(vars(fault).items())


# 1-word memories fall back to same-word coupling neighbours; 1-bit ones
# have only other-word neighbours.  A single cell has no neighbour at all.
geometries = st.tuples(st.integers(1, 24), st.integers(1, 12)).filter(
    lambda shape: shape[0] * shape[1] > 1
).map(lambda shape: MemoryGeometry(*shape, "rows"))

profiles = st.one_of(
    st.none(),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=4, max_size=4)
    .filter(any)
    .map(lambda weights: DefectProfile(weights=dict(zip(DefectType, weights)))),
)


@settings(max_examples=120, deadline=None)
@given(geometries, st.floats(0.0, 1.0), profiles, st.integers(0, 2**32 - 1))
def test_rows_build_the_reference_objects(geometry, rate, profile, seed):
    profile = profile or DefectProfile()
    reference_rng = np.random.default_rng(seed)
    rows_rng = np.random.default_rng(seed)
    expected = reference_population(geometry, rate, profile, reference_rng)
    population = sample_population(geometry, rate, profile=profile, rng=rows_rng)
    assert [fingerprint(f) for f in population.faults] == [
        fingerprint(f) for f in expected
    ]
    assert rows_rng.bit_generator.state == reference_rng.bit_generator.state
    assert population.class_histogram() == {
        fault_class: sum(f.fault_class is fault_class for f in expected)
        for fault_class in {f.fault_class for f in expected}
    }


class TestPopulationRecord:
    @staticmethod
    def population():
        return sample_population(MemoryGeometry(32, 8), 0.2, rng=5)

    def test_objects_are_built_once(self):
        population = self.population()
        assert population.built_rows() == []
        first = population.fault(3)
        assert population.fault(3) is first
        assert population.built_rows() == [3]
        assert population.faults[3] is first

    def test_copy_shares_no_state(self):
        population = self.population()
        twin = population.copy()
        twin.live[0] = False
        twin.written_at[:] = 1.0
        assert population.live.all()
        assert np.isnan(population.written_at).all()
        assert twin.built_rows() == []
        with pytest.raises(ValueError):
            twin.victim_word[0] = 0

    def test_copy_after_building_every_row(self):
        # Only DRF objects keep a clock: the other built rows copy as NaN.
        population = self.population()
        population.faults
        assert np.isnan(population.copy().written_at).all()

    def test_drf_clock_has_one_home(self):
        population = self.population()
        drf = np.flatnonzero(
            [isinstance(f, DataRetentionFault) for f in population.copy().faults]
        )
        row = int(drf[0])
        population.store_drf_clocks(np.array([row]), np.array([40.0]))
        fault = population.fault(row)
        assert fault._written_at_ns == 40.0
        population.store_drf_clocks(np.array([row]), np.array([math.nan]))
        assert fault._written_at_ns is None
        fault._written_at_ns = 70.0
        assert population.drf_clocks(np.array([row])).tolist() == [70.0]
        assert population.copy().fault(row)._written_at_ns == 70.0

    def test_memory_builds_rows_only_when_objects_are_needed(self):
        population = self.population()
        memory = SRAM(population.geometry)
        FaultInjector().inject(memory, population)
        assert population.built_rows() == []
        assert memory.hooked_words() == population.live_words()
        objects, pending = memory.fault_records()
        assert objects == [] and pending == [population]
        assert memory.cell_faults == population.faults
        assert memory.fault_records() == (population.faults, [])

    def test_covered_rows_leave_without_objects(self):
        population = self.population()
        memory = SRAM(population.geometry)
        FaultInjector().inject(memory, population)
        words = {int(population.victim_word[0])}
        covered = population.victim_word == population.victim_word[0]
        assert memory.remove_covered_faults(words=words) == int(covered.sum())
        assert population.built_rows() == []
        assert population.live.tolist() == (~covered).tolist()
        # A second pass over the same spares detaches nothing new.
        assert memory.remove_covered_faults(words=words) == 0
        bits = {int(population.victim_bit[~covered][0])}
        also = ~covered & (population.victim_bit == min(bits))
        assert memory.remove_covered_faults(words=words, bits=bits) == int(also.sum())
        assert [f.victims[0].word for f in memory.cell_faults].count(
            min(words)
        ) == 0
        assert memory.remove_covered_faults(bits=bits) == 0
