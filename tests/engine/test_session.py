"""Fast-session equivalence: run_session == FastDiagnosisScheme.diagnose.

The fast session must reproduce the reference session *exactly* -- report
fields, per-memory failure-record lists (order included), memory end
state and clocking -- across heterogeneous banks (wrap-around), both
serial delivery orders and peripheral-fault fallbacks.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.session import run_session
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.faults.stuck_at import StuckAtFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.soc.case_study import case_study_soc

GEOMETRIES = [
    MemoryGeometry(16, 8, "wide"),
    MemoryGeometry(8, 5, "narrow"),
    MemoryGeometry(5, 3, "tiny"),  # 16 % 5 != 0: exercises partial wrap blocks
]


def build_bank(seed: int, defect_rate: float = 0.04) -> MemoryBank:
    bank = MemoryBank([SRAM(geometry) for geometry in GEOMETRIES])
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, defect_rate, rng=seed + index)
        injector.inject(memory, population.faults)
    return bank


def assert_sessions_equal(reference, fast, reference_bank, fast_bank):
    assert fast.failures == reference.failures
    assert fast.cycles == reference.cycles
    assert fast.pause_ns == reference.pause_ns
    assert fast.deliveries == reference.deliveries
    assert fast.nwrc_ops == reference.nwrc_ops
    assert fast.aborted_early == reference.aborted_early
    assert fast.time_ns == reference.time_ns
    for reference_memory, fast_memory in zip(reference_bank, fast_bank):
        assert fast_memory.dump() == reference_memory.dump()
        assert fast_memory.timebase.cycles == reference_memory.timebase.cycles


class TestSessionEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_heterogeneous_bank(self, seed):
        reference_bank = build_bank(seed)
        fast_bank = build_bank(seed)
        reference = FastDiagnosisScheme(reference_bank).diagnose()
        fast = run_session(FastDiagnosisScheme(fast_bank), backend="numpy")
        assert_sessions_equal(reference, fast, reference_bank, fast_bank)

    @pytest.mark.parametrize("backend", ["numpy", "batched"])
    def test_lsb_first_coverage_loss_scenario(self, backend):
        # The flawed LSB-first delivery makes fault-free narrow memories
        # mis-compare; the vector compare paths must reproduce every
        # record -- including the batched tier, whose clean-word tracker
        # may only skip compares whose expectation matches the delivered
        # (not the correct) pattern.
        reference_bank = build_bank(1)
        fast_bank = build_bank(1)
        reference = FastDiagnosisScheme(reference_bank, msb_first=False).diagnose()
        fast = run_session(
            FastDiagnosisScheme(fast_bank, msb_first=False), backend=backend
        )
        assert_sessions_equal(reference, fast, reference_bank, fast_bank)

    def test_decoder_faulty_memory_uses_slow_path(self):
        def build():
            bank = build_bank(2)
            bank[0].decoder.break_address(3)
            return bank

        reference_bank, fast_bank = build(), build()
        reference = FastDiagnosisScheme(reference_bank).diagnose()
        fast = run_session(FastDiagnosisScheme(fast_bank), backend="numpy")
        assert_sessions_equal(reference, fast, reference_bank, fast_bank)

    def test_reference_backend_delegates_to_diagnose(self):
        bank = build_bank(3)
        report = run_session(FastDiagnosisScheme(bank), backend="reference")
        twin = build_bank(3)
        assert report.failures == FastDiagnosisScheme(twin).diagnose().failures

    def test_trigger_handshake_counter_matches_reference(self):
        reference_scheme = FastDiagnosisScheme(build_bank(7))
        fast_scheme = FastDiagnosisScheme(build_bank(7))
        reference_scheme.diagnose()
        run_session(fast_scheme, backend="numpy")
        assert (
            fast_scheme.trigger.triggers_issued
            == reference_scheme.trigger.triggers_issued
        )
        assert not fast_scheme.trigger.busy

    def test_unrouted_nwrtm_raises_like_reference(self):
        # drf_screening=False with an NWRC algorithm is an invalid config
        # the reference rejects; the fast path must not mask it.
        def fresh():
            return FastDiagnosisScheme(build_bank(5), drf_screening=False)

        with pytest.raises(ValueError, match="NWRTM"):
            fresh().diagnose()
        with pytest.raises(ValueError, match="NWRTM"):
            run_session(fresh(), backend="numpy")

    def test_custom_backend_rejected_explicitly(self):
        from repro.engine.backends import MarchBackend

        class Custom(MarchBackend):
            name = "custom"

        with pytest.raises(ValueError, match="run_session supports"):
            run_session(FastDiagnosisScheme(build_bank(6)), backend=Custom())

    def test_repeated_sessions_accumulate_counters_identically(self):
        # deliveries/nwrc_ops are cumulative scheme counters in the
        # reference; the fast path must preserve that quirk.
        reference_scheme = FastDiagnosisScheme(build_bank(4))
        fast_scheme = FastDiagnosisScheme(build_bank(4))
        reference_scheme.diagnose()
        second_reference = reference_scheme.diagnose()
        run_session(fast_scheme, backend="numpy")
        second_fast = run_session(fast_scheme, backend="numpy")
        assert second_fast.deliveries == second_reference.deliveries
        assert second_fast.nwrc_ops == second_reference.nwrc_ops
        assert second_fast.failures == second_reference.failures


class TestCampaignBackendParity:
    @pytest.mark.parametrize("seed", range(2))
    def test_campaign_results_identical(self, seed):
        soc = case_study_soc(memories=3)
        reference = DiagnosisCampaign(
            soc, defect_rate=0.004, seed=seed, backend="reference"
        ).run()
        fast = DiagnosisCampaign(
            soc, defect_rate=0.004, seed=seed, backend="numpy"
        ).run()
        assert fast.proposed.failures == reference.proposed.failures
        assert fast.localization_rate == reference.localization_rate
        assert fast.reduction_factor == reference.reduction_factor
        assert fast.verification_passed == reference.verification_passed
        assert fast.repair.to_dict() == reference.repair.to_dict()

    def test_auto_backend_runs(self):
        soc = case_study_soc(memories=2)
        report = DiagnosisCampaign(
            soc, defect_rate=0.004, seed=0, backend="auto"
        ).run(include_baseline=False, repair=False)
        assert report.proposed is not None
        assert report.localization_rate == 1.0

    def test_single_localized_fault_repairs_cleanly(self):
        soc = case_study_soc(memories=2)
        campaign = DiagnosisCampaign(soc, defect_rate=0.0, seed=0, backend="numpy")
        bank, injector = campaign.faulty_bank()
        assert injector.total == 0

        # End-to-end with one hand-placed fault through the public path.
        scheme = FastDiagnosisScheme(bank)
        StuckAtFault(CellRef(7, 3), value=1).attach(bank[0])
        report = run_session(scheme, backend="numpy")
        assert report.failing_memories() == [bank[0].name]
        assert CellRef(7, 3) in report.detected_cells(bank[0].name)
