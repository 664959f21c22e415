"""repro: a reproduction of "A Fast Diagnosis Scheme for Distributed Small
Embedded SRAMs" (Wang, Wu, Ivanov -- DATE 2005).

The package rebuilds the paper's complete system in pure Python:

* behavioural SRAMs with a functional fault universe
  (:mod:`repro.memory`, :mod:`repro.faults`),
* a switch-level 6T cell validating the NWRTM argument
  (:mod:`repro.electrical`),
* March algorithms and a RAMSES-style fault simulator (:mod:`repro.march`),
* the serial-interface baselines of [9, 10] and [7, 8]
  (:mod:`repro.serial`, :mod:`repro.baseline`),
* the proposed SPC/PSC + NWRTM diagnosis scheme (:mod:`repro.core`),
* the Section-4 evaluations (:mod:`repro.analysis`) and SoC context
  (:mod:`repro.soc`).

Quickstart::

    from repro import (
        FastDiagnosisScheme, FaultInjector, MemoryBank, SRAM,
        MemoryGeometry, sample_population,
    )

    memory = SRAM(MemoryGeometry(512, 100, "esram_0"))
    injector = FaultInjector()
    injector.inject(memory, sample_population(memory.geometry, 0.01))
    report = FastDiagnosisScheme(MemoryBank([memory])).diagnose()
    print("\\n".join(report.summary_lines()))
"""

from repro.baseline import HuangJoneScheme
from repro.core import (
    FastDiagnosisScheme,
    ParallelToSerialConverter,
    ProtocolMonitor,
    RepairController,
    SerialToParallelConverter,
    proposed_diagnosis_time_ns,
    reduction_factor,
    reduction_factor_with_drf,
)
from repro.core.campaign import CampaignReport, DiagnosisCampaign
from repro.core.redundancy import RedundancyBudget, allocate_redundancy
from repro.engine import (
    FleetReport,
    FleetSpec,
    get_backend,
    run_fleet,
    run_session,
)
from repro.faults import (
    DataRetentionFault,
    FaultClass,
    FaultInjector,
    StuckAtFault,
    TransitionFault,
    WeakCellDefect,
    sample_population,
)
from repro.march import (
    MarchSimulator,
    march_c_minus,
    march_c_nw,
    march_cw,
    march_cw_nw,
)
from repro.memory import MemoryBank, MemoryGeometry, SRAM
from repro.scenarios import ScenarioSpec, run_scenario_fleet
from repro.soc import SoCConfig, case_study_bank, case_study_population

__version__ = "1.2.0"

__all__ = [
    "CampaignReport",
    "FleetReport",
    "FleetSpec",
    "get_backend",
    "run_fleet",
    "run_session",
    "DataRetentionFault",
    "DiagnosisCampaign",
    "FastDiagnosisScheme",
    "FaultClass",
    "FaultInjector",
    "HuangJoneScheme",
    "MarchSimulator",
    "ProtocolMonitor",
    "RedundancyBudget",
    "allocate_redundancy",
    "MemoryBank",
    "MemoryGeometry",
    "ParallelToSerialConverter",
    "RepairController",
    "SRAM",
    "ScenarioSpec",
    "SerialToParallelConverter",
    "SoCConfig",
    "StuckAtFault",
    "TransitionFault",
    "WeakCellDefect",
    "__version__",
    "case_study_bank",
    "case_study_population",
    "march_c_minus",
    "march_c_nw",
    "march_cw",
    "march_cw_nw",
    "proposed_diagnosis_time_ns",
    "reduction_factor",
    "reduction_factor_with_drf",
    "run_scenario_fleet",
]
