"""Functional fault models for embedded SRAM diagnosis.

The fault universe follows the classical memory-test taxonomy used by the
paper and its references (March C- [12], RAMSES/March CW [13], NWRTM [11]):

* stuck-at faults (SAF0/SAF1),
* transition faults (TF up/down),
* coupling faults (inversion, idempotent, state; inter- or intra-word),
* address-decoder faults (types A-D) and column-decoder faults,
* data-retention faults (DRFs -- open pull-up PMOS, polarity-aware),
* weak cells (reliability-only defects detectable *only* by NWRTM).

Faults attach to a :class:`repro.memory.SRAM` through ``fault.attach(sram)``;
cell-level faults hook the read/write/NWRC path, decoder faults mutate the
address decoder or column mux.
"""

from repro.faults.address_fault import (
    AddressMultiFault,
    AddressOpenFault,
    AddressRemapFault,
    ColumnBridgeFault,
    ColumnOpenFault,
    ColumnSwapFault,
)
from repro.faults.base import CellFault, Fault, FaultClass, LoweredFault, StaticCellFault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.defects import DefectProfile, DefectType
from repro.faults.dynamic import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
    WriteDisturbFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import (
    IntermittentReadFault,
    SoftErrorUpsetFault,
    sample_intermittent_population,
)
from repro.faults.population import FaultPopulation, sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.weak_cell import WeakCellDefect

__all__ = [
    "AddressMultiFault",
    "AddressOpenFault",
    "AddressRemapFault",
    "CellFault",
    "ColumnBridgeFault",
    "ColumnOpenFault",
    "ColumnSwapFault",
    "DataRetentionFault",
    "DeceptiveReadDestructiveFault",
    "DefectProfile",
    "DefectType",
    "Fault",
    "IncorrectReadFault",
    "ReadDestructiveFault",
    "WriteDisturbFault",
    "FaultClass",
    "FaultInjector",
    "FaultPopulation",
    "IdempotentCouplingFault",
    "IntermittentReadFault",
    "InversionCouplingFault",
    "LoweredFault",
    "SoftErrorUpsetFault",
    "StateCouplingFault",
    "StaticCellFault",
    "StuckAtFault",
    "TransitionFault",
    "WeakCellDefect",
    "sample_intermittent_population",
    "sample_population",
]
