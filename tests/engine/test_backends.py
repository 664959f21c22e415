"""Backend equivalence: the numpy backend is bit-exact vs the reference.

Every assertion here compares *complete* results -- the failure-record
lists (order included), cycle/time accounting and the final stored memory
state -- between the pure-Python reference backend and the numpy
bit-parallel backend on identically built memories.
"""

from __future__ import annotations

import pytest

from repro.engine.backends import (
    MarchBackend,
    NumpyBackend,
    ReferenceBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.dynamic import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
    WriteDisturbFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.weak_cell import WeakCellDefect
from repro.march.library import (
    march_c_minus,
    march_cw_nw,
    march_ss,
    march_with_retention_pauses,
)
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM

GEOMETRY = MemoryGeometry(16, 6, "eq")

#: One representative of every cell-fault class in the library.
FAULT_LIBRARY = [
    ("saf0", lambda: StuckAtFault(CellRef(3, 1), value=0)),
    ("saf1", lambda: StuckAtFault(CellRef(0, 5), value=1)),
    ("tf-up", lambda: TransitionFault(CellRef(7, 2), rising=True)),
    ("tf-down", lambda: TransitionFault(CellRef(15, 0), rising=False)),
    ("cf-in-interword", lambda: InversionCouplingFault(CellRef(2, 3), CellRef(9, 3))),
    ("cf-in-falling", lambda: InversionCouplingFault(CellRef(4, 0), CellRef(5, 1), trigger_rising=False)),
    ("cf-id-intraword", lambda: IdempotentCouplingFault(CellRef(6, 1), CellRef(6, 4), forced_value=1)),
    ("cf-st", lambda: StateCouplingFault(CellRef(8, 2), CellRef(12, 2), aggressor_state=1, forced_value=0)),
    ("cf-st-read-disturb", lambda: StateCouplingFault(CellRef(1, 0), CellRef(1, 1), affects_write=False)),
    ("irf", lambda: IncorrectReadFault(CellRef(10, 3))),
    ("rdf", lambda: ReadDestructiveFault(CellRef(11, 5))),
    ("drdf", lambda: DeceptiveReadDestructiveFault(CellRef(13, 2))),
    ("wdf", lambda: WriteDisturbFault(CellRef(14, 4))),
    ("drf0", lambda: DataRetentionFault(CellRef(5, 5), fragile_value=0)),
    ("drf1", lambda: DataRetentionFault(CellRef(12, 1), fragile_value=1)),
    ("weak", lambda: WeakCellDefect(CellRef(9, 0), weak_value=1)),
]

ALGORITHMS = [march_c_minus, march_cw_nw, march_ss, march_with_retention_pauses]


def assert_equivalent(make_memory, algorithm_factory):
    """Run both backends on twin memories and compare everything."""
    reference_memory = make_memory()
    numpy_memory = make_memory()
    reference = ReferenceBackend().run(
        reference_memory, algorithm_factory(reference_memory.bits)
    )
    vectorized = get_backend("numpy").run(
        numpy_memory, algorithm_factory(numpy_memory.bits)
    )
    assert vectorized.failures == reference.failures
    assert vectorized.cycles == reference.cycles
    assert vectorized.elapsed_ns == reference.elapsed_ns
    assert numpy_memory.dump() == reference_memory.dump()
    assert numpy_memory.timebase.cycles == reference_memory.timebase.cycles
    return reference


class TestFaultLibraryEquivalence:
    @pytest.mark.parametrize("label,factory", FAULT_LIBRARY, ids=[f[0] for f in FAULT_LIBRARY])
    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=[a.__name__ for a in ALGORITHMS])
    def test_single_fault(self, label, factory, algorithm):
        def build():
            memory = SRAM(GEOMETRY)
            factory().attach(memory)
            return memory

        assert_equivalent(build, algorithm)

    def test_fault_free_memory_passes_on_both(self):
        result = assert_equivalent(lambda: SRAM(GEOMETRY), march_cw_nw)
        assert result.passed

    def test_faults_actually_fire(self):
        # Guard against vacuous equivalence: the library must produce
        # failures under the paper's algorithm for the logical classes.
        def build():
            memory = SRAM(GEOMETRY)
            StuckAtFault(CellRef(3, 1), value=0).attach(memory)
            StuckAtFault(CellRef(4, 2), value=1).attach(memory)
            return memory

        result = assert_equivalent(build, march_cw_nw)
        assert result.failure_count > 0


class TestPopulationEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_population(self, seed):
        geometry = MemoryGeometry(32, 9, "pop")

        def build():
            memory = SRAM(geometry)
            population = sample_population(geometry, 0.04, rng=seed)
            FaultInjector().inject(memory, population.faults)
            return memory

        assert_equivalent(build, march_cw_nw)

    def test_dense_population(self):
        # Every word dirty: the vector path degenerates to the behavioural
        # path and must still agree.
        geometry = MemoryGeometry(8, 4, "dense")

        def build():
            memory = SRAM(geometry)
            for word in range(8):
                StuckAtFault(CellRef(word, word % 4), value=word % 2).attach(memory)
            return memory

        assert_equivalent(build, march_cw_nw)


class TestFallbacks:
    def test_decoder_fault_falls_back_and_matches(self):
        def build():
            memory = SRAM(GEOMETRY)
            memory.decoder.remap_address(3, 5)
            return memory

        assert not NumpyBackend().supports(build())
        assert_equivalent(build, march_c_minus)

    def test_column_fault_falls_back_and_matches(self):
        def build():
            memory = SRAM(GEOMETRY)
            memory.column_mux.swap_bits(0, 1, path="write")
            return memory

        assert_equivalent(build, march_cw_nw)

    def test_stop_on_first_failure_delegates(self):
        memory = SRAM(GEOMETRY)
        StuckAtFault(CellRef(2, 2), value=1).attach(memory)
        backend = NumpyBackend(stop_on_first_failure=True)
        assert not backend.supports(memory)
        result = backend.run(memory, march_c_minus(memory.bits))
        assert result.failure_count == 1


class TestRegistry:
    def test_known_backends(self):
        availability = available_backends()
        assert availability["reference"] is True
        assert "numpy" in availability

    def test_get_backend_auto(self):
        assert isinstance(get_backend("auto"), MarchBackend)
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("no-such-backend")

    def test_resolve_backend_passthrough(self):
        backend = ReferenceBackend()
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend("numpy"), NumpyBackend)
        assert isinstance(resolve_backend(None), MarchBackend)

    def test_register_backend_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_backend("reference", ReferenceBackend)
