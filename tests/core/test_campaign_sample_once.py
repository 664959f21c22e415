"""Sample-once populations: one draw per memory, independent bank clones."""

from __future__ import annotations

import enum

import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.faults.address_fault import AddressOpenFault
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
from repro.faults.intermittent import IntermittentReadFault, SoftErrorUpsetFault
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.weak_cell import WeakCellDefect
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.soc.chip import SoCConfig

#: Types whose instances are immutable values a clone may share.
IMMUTABLE = (int, float, str, bool, tuple, type(None), enum.Enum, CellRef)


def library(memory) -> list:
    """One fault of every library class."""
    cell = CellRef

    return [
        StuckAtFault(cell(0, 0), value=1),
        TransitionFault(cell(1, 0), rising=True),
        InversionCouplingFault(cell(2, 1), cell(3, 1), trigger_rising=True),
        IdempotentCouplingFault(cell(4, 1), cell(5, 1), True, 1),
        StateCouplingFault(cell(6, 1), cell(7, 1), 1, 0),
        DataRetentionFault(cell(8, 0), fragile_value=1),
        IncorrectReadFault(cell(9, 0)),
        ReadDestructiveFault(cell(10, 0)),
        DeceptiveReadDestructiveFault(cell(11, 0)),
        WriteDisturbFault(cell(12, 0)),
        WeakCellDefect(cell(13, 0), weak_value=1),
        IntermittentReadFault(cell(14, 0), 0.5, seed=7),
        SoftErrorUpsetFault(cell(15, 0), 0.5, seed=8),
        AddressOpenFault(memory.words - 1, memory.bits),
    ]


def shared_mutable_state(one, other) -> list[str]:
    """Attributes through which two faults could influence each other."""
    assert one is not other and type(one) is type(other)
    return [
        name
        for name, value in vars(one).items()
        if not isinstance(value, IMMUTABLE) and vars(other)[name] is value
    ]


@pytest.fixture
def campaign():
    calls = []

    def sampler(index, memory):
        calls.append(memory.name)
        return library(memory)

    soc = SoCConfig(
        name="two-buffers",
        geometries=[MemoryGeometry(32, 8, "a"), MemoryGeometry(16, 4, "b")],
    )
    campaign = DiagnosisCampaign(
        soc,
        seed=5,
        backend="reference",
        sampler=sampler,
    )
    campaign.sampler_calls = calls
    return campaign


class TestSampleOnce:
    def test_sampler_runs_once_per_memory(self, campaign):
        campaign.faulty_bank()
        campaign.faulty_bank()
        bank, _ = campaign.faulty_bank()
        assert campaign.sampler_calls == [memory.name for memory in bank]

    def test_full_campaign_samples_once(self, campaign):
        campaign.run(include_baseline=True, repair=True)
        assert len(campaign.sampler_calls) == len(campaign.soc.geometries)

    def test_banks_share_no_mutable_fault_state(self, campaign):
        first_bank, first = campaign.faulty_bank()
        second_bank, second = campaign.faulty_bank()
        for memory in first_bank:
            pairs = list(
                zip(first.faults_for(memory.name), second.faults_for(memory.name))
            )
            assert len(pairs) == len(library(memory))
            for one, other in pairs:
                assert shared_mutable_state(one, other) == []
                assert one.describe() == other.describe()

    def test_sessions_on_one_bank_leave_the_other_pristine(self, campaign):
        first_bank, first = campaign.faulty_bank()
        FastDiagnosisScheme(first_bank).diagnose()
        second_bank, second = campaign.faulty_bank()
        name = first_bank[0].name
        used = first.faults_for(name)
        fresh = second.faults_for(name)
        # The first bank's stateful faults moved; the clone starts over.
        assert any(fault._draws for fault in used if hasattr(fault, "_draws"))
        assert all(
            fault._draws == 0 for fault in fresh if hasattr(fault, "_draws")
        )
        # Twin sessions agree: the clones behave like the sampled faults.
        assert (
            FastDiagnosisScheme(second_bank).diagnose().failures
            == FastDiagnosisScheme(campaign.faulty_bank()[0]).diagnose().failures
        )

    def test_pristine_faults_are_never_attached(self, campaign):
        bank, _ = campaign.faulty_bank()
        attached = {id(fault) for memory in bank for fault in memory.cell_faults}
        pristine = {id(fault) for faults in campaign._pristine for fault in faults}
        assert attached and not attached & pristine
