"""Go/no-go verification: ``session_passes`` == ``run_session(...).passed``.

The vector paths stop at the first bucket, or fallback memory, whose
ECC-decoded failure log is not empty.  The verdict must still be the one
a full session gives, whether the failure sits in the last bucket, in a
decoder-fault fallback memory, behind an ECC layer that corrects it, or
nowhere at all.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.ecc.observer import EccConfig
from repro.engine.fleet import FleetSpec
from repro.engine.session import run_session, session_passes
from repro.faults.address_fault import AddressOpenFault
from repro.faults.stuck_at import StuckAtFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.telemetry.core import activate, deactivate

BACKENDS = ["reference", "numpy", "batched"]

#: Three geometry buckets on the batched plan, four on numpy's; ``tiny``
#: is last on both.
GEOMETRIES = [
    MemoryGeometry(16, 8, "wide"),
    MemoryGeometry(16, 8, "wide2"),
    MemoryGeometry(8, 5, "narrow"),
    MemoryGeometry(5, 3, "tiny"),
]


def clean_bank() -> MemoryBank:
    return MemoryBank([SRAM(geometry) for geometry in GEOMETRIES])


def last_bucket_failure() -> MemoryBank:
    bank = clean_bank()
    StuckAtFault(CellRef(2, 1), value=1).attach(bank[3])
    return bank


def fallback_failure() -> MemoryBank:
    bank = clean_bank()
    AddressOpenFault(3, bank[0].bits).attach(bank[0])
    return bank


def corrected_failure() -> MemoryBank:
    # One stuck cell per word: every raw mismatch is a single-bit error
    # SEC-DED corrects.
    bank = clean_bank()
    StuckAtFault(CellRef(4, 0), value=1).attach(bank[0])
    StuckAtFault(CellRef(1, 2), value=0).attach(bank[2])
    return bank


CASES = {
    "passing": (clean_bank, None, True),
    "last-bucket": (last_bucket_failure, None, False),
    "fallback": (fallback_failure, None, False),
    "ecc-corrected": (corrected_failure, EccConfig("secded"), True),
}


@pytest.fixture
def counters():
    tracer = activate()
    try:
        yield tracer.counters.values
    finally:
        deactivate()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_equals_the_full_session(backend, case):
    make_bank, ecc, verdict = CASES[case]
    full = run_session(FastDiagnosisScheme(make_bank(), ecc=ecc), backend=backend)
    if ecc is not None:
        assert full.ecc_corrected_reads > 0, "vacuous: nothing to correct"
    assert full.passed is verdict
    assert session_passes(FastDiagnosisScheme(make_bank(), ecc=ecc), backend) is verdict


@pytest.mark.parametrize("backend, buckets", [("numpy", 4), ("batched", 3)])
def test_passing_bank_runs_every_bucket(counters, backend, buckets):
    assert session_passes(FastDiagnosisScheme(clean_bank()), backend)
    assert counters["verify.buckets_run"] == buckets
    assert counters["verify.buckets_skipped"] == 0


def test_failure_in_the_first_bucket_skips_the_rest(counters):
    bank = clean_bank()
    StuckAtFault(CellRef(0, 0), value=1).attach(bank[0])
    assert not session_passes(FastDiagnosisScheme(bank), "batched")
    assert counters["verify.buckets_run"] == 1
    assert counters["verify.buckets_skipped"] == 2


def test_failing_case_study_campaign_skips_buckets(counters):
    spec = FleetSpec(memories=256, defect_rate=0.005, master_seed=1)
    report = DiagnosisCampaign(
        spec.build_soc(), defect_rate=0.005, seed=spec.campaign_seed(0),
        backend="batched",
    ).run(include_baseline=False, repair=True)
    assert report.verification_passed is False
    assert counters["verify.buckets_skipped"] > 0


def test_verification_is_one_span():
    tracer = activate()
    try:
        session_passes(FastDiagnosisScheme(clean_bank()), "reference")
    finally:
        deactivate()
    assert tracer.span_stats["session.verify"][0] == 1


def test_unknown_backend_type_rejected():
    from repro.engine.backends import MarchBackend

    class Custom(MarchBackend):
        name = "custom"

    with pytest.raises(ValueError, match="run_session supports"):
        session_passes(FastDiagnosisScheme(clean_bank()), Custom())
