"""Populations attached as rows: attach order, lazy objects, backends.

A sampled population attaches to a memory as one record of rows; the
memory builds fault objects from them only when an operation needs
objects.  These tests pin that the build keeps today's hook order, that
all three backends agree on a bank mixing rows with later single faults,
and that a batched campaign builds objects only where a hook fires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.engine import batched, kernel
from repro.engine.fleet import FleetSpec
from repro.engine.session import run_session
from repro.faults.defects import ROW_DRF
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import IntermittentReadFault
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.march.library import march_with_retention_pauses
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM


def drf_then_intermittent_bank():
    """Two stacked memories whose populations attach as rows, then an
    intermittent read fault on the first DRF's cell of each."""
    bank = MemoryBank(
        [SRAM(MemoryGeometry(16, 8, f"m{index}")) for index in range(2)]
    )
    injector = FaultInjector()
    shared = []
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, 0.25, rng=40 + index)
        injector.inject(memory, population)
        row = int(np.flatnonzero(population.kind == ROW_DRF)[0])
        cell = CellRef(int(population.victim_word[row]), int(population.victim_bit[row]))
        injector.inject(memory, IntermittentReadFault(cell, 0.5, seed=index))
        shared.append((population.fault(row), cell))
    return bank, shared


class TestAttachOrder:
    def test_hook_chain_follows_attach_order(self):
        bank, shared = drf_then_intermittent_bank()
        for memory, (drf, cell) in zip(bank, shared):
            assert isinstance(drf, DataRetentionFault)
            later = memory.cell_faults[-1]
            assert isinstance(later, IntermittentReadFault)
            key = (cell.word, cell.bit)
            assert [hook.__self__ for hook in memory._read_hooks[key]] == [drf, later]

    @pytest.mark.parametrize("threshold", [0, batched.TABLE_MIN_HOOKED_ROWS])
    def test_backends_agree(self, threshold, monkeypatch):
        monkeypatch.setattr(batched, "TABLE_MIN_HOOKED_ROWS", threshold)
        banks = {name: drf_then_intermittent_bank()[0] for name in ("ref", "np", "bat")}
        reference = FastDiagnosisScheme(
            banks["ref"], algorithm_factory=march_with_retention_pauses
        ).diagnose()
        for name, backend in (("np", "numpy"), ("bat", "batched")):
            fast = run_session(
                FastDiagnosisScheme(
                    banks[name], algorithm_factory=march_with_retention_pauses
                ),
                backend=backend,
            )
            assert fast.failures == reference.failures, backend
            assert fast.time_ns == reference.time_ns, backend
            for ref_memory, fast_memory in zip(banks["ref"], banks[name]):
                assert fast_memory.dump() == ref_memory.dump(), backend
                assert fast_memory.cell_faults and all(
                    type(a) is type(b) and vars(a) == vars(b)
                    for a, b in zip(fast_memory.cell_faults, ref_memory.cell_faults)
                ), backend


def run_tracking(spec: FleetSpec, monkeypatch):
    """Run campaign 0 of ``spec``: its bank, injector and replayed memories."""
    replayed: set[str] = set()
    replay = kernel.replay_dirty_positions

    def spy(memory, *args):
        replayed.add(memory.name)
        return replay(memory, *args)

    monkeypatch.setattr(kernel, "replay_dirty_positions", spy)
    campaign = DiagnosisCampaign(
        spec.build_soc(),
        defect_rate=spec.defect_rate,
        seed=spec.campaign_seed(0),
        backend=spec.backend,
    )
    built_banks = []
    build = campaign.faulty_bank

    def faulty_bank():
        built_banks.append(build())
        return built_banks[-1]

    monkeypatch.setattr(campaign, "faulty_bank", faulty_bank)
    campaign.run()
    (bank, injector), = built_banks
    built = {
        name
        for name in injector.memories()
        if any(entry.built_rows() for entry in injector.entries(name))
    }
    return bank, built, replayed


class TestObjectsOnlyWhereHooksFire:
    def test_batched_heavy_campaign(self, monkeypatch):
        """The heavy-campaign shape: 256 SRAMs at 0.5 % defects, seed 1."""
        spec = FleetSpec(memories=256, defect_rate=0.005, master_seed=1, backend="batched")
        bank, built, replayed = run_tracking(spec, monkeypatch)
        assert built == replayed
        assert 0 < len(built) <= 8 < len(bank)

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_per_memory_backends_build_every_population(self, backend, monkeypatch):
        spec = FleetSpec(memories=4, defect_rate=0.004, master_seed=11, backend=backend)
        bank, built, _ = run_tracking(spec, monkeypatch)
        assert built == {memory.name for memory in bank}
