"""Intermittent/soft-error fault models and their deterministic streams."""

from __future__ import annotations

import pytest

from repro.faults.base import FaultClass
from repro.faults.intermittent import (
    IntermittentReadFault,
    SoftErrorUpsetFault,
    sample_intermittent_population,
)
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.rng import SplitMix64Stream, counter_bernoulli, mix_seed


class TestStreams:
    def test_stream_is_deterministic(self):
        a = SplitMix64Stream(42)
        b = SplitMix64Stream(42)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_distinct_seeds_diverge(self):
        a = SplitMix64Stream(1)
        b = SplitMix64Stream(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_floats_in_unit_interval(self):
        stream = SplitMix64Stream(7)
        values = [stream.next_float() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 190  # essentially no collisions

    def test_mix_seed_stable_and_path_sensitive(self):
        assert mix_seed(3, 1, 2) == mix_seed(3, 1, 2)
        assert mix_seed(3, 1, 2) != mix_seed(3, 2, 1)
        assert mix_seed(3, 1) != mix_seed(4, 1)


class TestIntermittentReadFault:
    def test_always_upsets_at_probability_one(self):
        memory = SRAM(MemoryGeometry(4, 4, "ir"))
        IntermittentReadFault(CellRef(2, 1), 1.0, seed=5).attach(memory)
        for _ in range(6):
            assert memory.read(2) == 0b0010
        # Transient: the stored value was never corrupted.
        assert memory.stored_bit(2, 1) == 0

    def test_never_upsets_at_probability_zero(self):
        memory = SRAM(MemoryGeometry(4, 4, "ir0"))
        IntermittentReadFault(CellRef(2, 1), 0.0, seed=5).attach(memory)
        assert all(memory.read(2) == 0 for _ in range(6))

    def test_upset_sequence_is_reproducible(self):
        def observe():
            memory = SRAM(MemoryGeometry(4, 4, "irr"))
            IntermittentReadFault(CellRef(1, 0), 0.5, seed=77).attach(memory)
            return [memory.read(1) for _ in range(32)]

        assert observe() == observe()

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            IntermittentReadFault(CellRef(0, 0), 1.5)

    def test_describe_mentions_probability(self):
        fault = IntermittentReadFault(CellRef(0, 0), 0.25)
        assert "p=0.25" in fault.describe()
        assert fault.fault_class is FaultClass.INT_READ
        assert fault.fault_class.is_intermittent


class TestCounterStream:
    def test_draws_match_the_scalar_helper(self):
        # The k-th decision is the pure function counter_bernoulli(seed,
        # k, p) -- the contract the compiled fault table's vectorized
        # evaluation relies on.
        memory = SRAM(MemoryGeometry(4, 4, "ctr"))
        fault = IntermittentReadFault(CellRef(1, 0), 0.5, seed=123)
        fault.attach(memory)
        observed = [memory.read(1) & 1 for _ in range(64)]
        expected = [
            int(counter_bernoulli(123, k, 0.5)) for k in range(64)
        ]
        assert observed == expected

    def test_counter_resumes_after_partial_consumption(self):
        # A fresh fault fast-forwarded to draw k agrees with a fault that
        # consumed k draws live -- the property that lets the table lane
        # hand counters back to the behavioural objects between sessions.
        a = SoftErrorUpsetFault(CellRef(0, 0), 0.5, seed=9)
        for _ in range(10):
            a._upset()
        b = SoftErrorUpsetFault(CellRef(0, 0), 0.5, seed=9)
        b._draws = 10
        assert [a._upset() for _ in range(20)] == [b._upset() for _ in range(20)]


class TestSoftErrorUpsetFault:
    def test_upset_corrupts_stored_state(self):
        memory = SRAM(MemoryGeometry(4, 4, "seu"))
        SoftErrorUpsetFault(CellRef(2, 1), 1.0, seed=5).attach(memory)
        assert memory.read(2) == 0b0010
        # Persistent until rewritten: the stored bit really flipped.
        assert memory.stored_bit(2, 1) == 1
        # A write refreshes the cell...
        memory.write(2, 0)
        assert memory.stored_bit(2, 1) == 0
        # ...and the next read strikes again.
        assert memory.read(2) == 0b0010

    def test_no_upset_reads_clean(self):
        memory = SRAM(MemoryGeometry(4, 4, "seu0"))
        SoftErrorUpsetFault(CellRef(2, 1), 0.0, seed=5).attach(memory)
        assert memory.read(2) == 0
        assert memory.stored_bit(2, 1) == 0
        assert FaultClass.SEU.is_intermittent


class TestSampling:
    GEOMETRY = MemoryGeometry(16, 8, "pop")

    def test_count_follows_rate(self):
        population = sample_intermittent_population(self.GEOMETRY, 0.05, 0.3, seed=1)
        assert len(population) == round(self.GEOMETRY.cells * 0.05)

    def test_zero_rate_is_empty(self):
        assert sample_intermittent_population(self.GEOMETRY, 0.0, 0.3) == []

    def test_victims_are_distinct_and_in_range(self):
        population = sample_intermittent_population(self.GEOMETRY, 0.2, 0.3, seed=3)
        victims = [fault.victims[0] for fault in population]
        assert len(set(victims)) == len(victims)
        for cell in victims:
            assert 0 <= cell.word < self.GEOMETRY.words
            assert 0 <= cell.bit < self.GEOMETRY.bits

    def test_deterministic_per_seed(self):
        def fingerprint(seed):
            return [
                (type(f).__name__, f.victims[0], f.seed)
                for f in sample_intermittent_population(
                    self.GEOMETRY, 0.1, 0.3, seed=seed
                )
            ]

        assert fingerprint(9) == fingerprint(9)
        assert fingerprint(9) != fingerprint(10)

    def test_mixes_both_classes(self):
        population = sample_intermittent_population(self.GEOMETRY, 0.5, 0.3, seed=2)
        classes = {type(fault).__name__ for fault in population}
        assert classes == {"IntermittentReadFault", "SoftErrorUpsetFault"}

    def test_class_mix_is_roughly_balanced(self):
        # The class of each fault is a seeded per-cell selection
        # (mix_seed(seed, 0x5E0, cell_index) % 2), which over a large
        # population lands roughly half-and-half -- the distribution the
        # docstring promises.
        geometry = MemoryGeometry(128, 8, "dist")  # 1024 cells
        population = sample_intermittent_population(geometry, 1.0, 0.3, seed=11)
        assert len(population) == geometry.cells
        seu = sum(
            1 for f in population if type(f).__name__ == "SoftErrorUpsetFault"
        )
        share = seu / len(population)
        assert 0.4 < share < 0.6

    def test_class_choice_depends_only_on_seed_and_cell(self):
        # Same seed, different rates: the faults present in both
        # populations carry the same class and per-fault seed (selection
        # is per cell index, not per list position).
        small = {
            f.victims[0]: (type(f).__name__, f.seed)
            for f in sample_intermittent_population(self.GEOMETRY, 0.1, 0.3, seed=5)
        }
        large = {
            f.victims[0]: (type(f).__name__, f.seed)
            for f in sample_intermittent_population(self.GEOMETRY, 0.3, 0.3, seed=5)
        }
        for cell, identity in small.items():
            assert large[cell] == identity

    def test_exact_half_population_rounds_up(self):
        # 16*8 cells * rate -> 2.5 faults: banker's rounding would give 2,
        # the explicit shared half-up rule gives 3.
        assert round(2.5) == 2  # the trap this pins against
        population = sample_intermittent_population(
            self.GEOMETRY, 2.5 / self.GEOMETRY.cells, 0.3, seed=1
        )
        assert len(population) == 3

    def test_sampled_population_is_lowerable(self):
        default = sample_intermittent_population(self.GEOMETRY, 0.1, 0.3, seed=3)
        assert default
        assert all(f.vector_lowerable() for f in default)

    def test_works_without_numpy(self):
        # The intermittent layer must not require the [fast] extra.
        from tests.test_optional_numpy import run_without_numpy

        result = run_without_numpy(
            "from repro.faults.intermittent import sample_intermittent_population\n"
            "from repro.memory.geometry import MemoryGeometry\n"
            "population = sample_intermittent_population("
            "MemoryGeometry(8, 4, 'np_free'), 0.25, 0.5, seed=3)\n"
            "print(len(population))\n"
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.strip()) == 8

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            sample_intermittent_population(self.GEOMETRY, 2.0, 0.5)
