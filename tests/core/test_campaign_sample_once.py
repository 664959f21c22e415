"""Sample-once populations: one draw per memory, independent row copies per bank."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.repair import RepairController
from repro.core.scheme import FastDiagnosisScheme
from repro.faults.population import sample_population
from repro.faults.stuck_at import StuckAtFault
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.soc.chip import SoCConfig


def make_campaign(sampler) -> DiagnosisCampaign:
    soc = SoCConfig(
        name="two-buffers",
        geometries=[MemoryGeometry(32, 8, "a"), MemoryGeometry(32, 8, "b")],
    )
    # The batched backend compiles the bucket's rows into a fault table
    # without building them, so a session moves the rows' own DRF clocks
    # and repair clears their live flags.
    return DiagnosisCampaign(soc, seed=5, backend="batched", sampler=sampler)


@pytest.fixture
def campaign():
    calls = []

    def sampler(index, memory):
        calls.append(memory.name)
        return sample_population(memory.geometry, 0.2, rng=index)

    campaign = make_campaign(sampler)
    campaign.sampler_calls = calls
    return campaign


def populations(bank, injector) -> list:
    """Each memory's one injected population, in bank order."""
    found = []
    for memory in bank:
        (population,) = injector.entries(memory.name)
        found.append(population)
    return found


def clocks(population) -> np.ndarray:
    return population.drf_clocks(np.arange(population.size))


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
        first = populations(*campaign.faulty_bank())
        second = populations(*campaign.faulty_bank())
        for one, other, pristine in zip(first, second, campaign._pristine):
            assert one.size == other.size > 0
            # The read-only rows are shared; the row state is not.
            assert one.columns is other.columns is pristine.columns
            for state in ("written_at", "live"):
                arrays = [getattr(p, state) for p in (one, other, pristine)]
                assert not any(
                    np.shares_memory(a, b)
                    for i, a in enumerate(arrays)
                    for b in arrays[i + 1 :]
                )
            for row in range(one.size):
                assert one.fault(row) is not other.fault(row)
                assert one.fault(row).describe() == other.fault(row).describe()

    def test_sessions_on_one_bank_leave_the_other_pristine(self, campaign):
        bank, injector = campaign.faulty_bank()
        scheme = FastDiagnosisScheme(bank)
        report = campaign.diagnose_proposed(scheme)
        RepairController(bank, campaign.spares_per_memory).apply(report)
        used = populations(bank, injector)
        fresh_bank, fresh_injector = campaign.faulty_bank()
        fresh = populations(fresh_bank, fresh_injector)
        # The first bank's DRF clocks and live flags moved; the copy
        # starts over.
        assert any(not np.isnan(clocks(p)).all() for p in used)
        assert not all(p.live.all() for p in used)
        for population in fresh:
            assert np.isnan(clocks(population)).all()
            assert population.live.all()
            assert population.built_rows() == []
        # Twin sessions agree: the copies behave like the sampled rows.
        twin_bank, _ = campaign.faulty_bank()
        assert (
            FastDiagnosisScheme(fresh_bank).diagnose().failures
            == FastDiagnosisScheme(twin_bank).diagnose().failures
        )

    def test_pristine_faults_are_never_attached(self, campaign):
        bank, _ = campaign.faulty_bank()
        attached = [p for memory in bank for p in memory.fault_records()[1]]
        assert len(attached) == len(bank)
        assert not any(p is q for p in attached for q in campaign._pristine)
        # Sessions and repair on the campaign's banks never reach the
        # pristine rows.
        campaign.run(include_baseline=True, repair=True)
        FastDiagnosisScheme(bank).diagnose()
        for population in campaign._pristine:
            assert population.built_rows() == []
            assert np.isnan(population.written_at).all()
            assert population.live.all()


class TestSamplerContract:
    def test_a_fault_list_is_rejected(self):
        def sampler(index, memory):
            return [StuckAtFault(CellRef(0, 0), value=1)]

        campaign = make_campaign(sampler)
        with pytest.raises(ValueError, match="must return a FaultPopulation"):
            campaign.faulty_bank()
