"""March test algorithms and the word-level memory fault simulator.

This subpackage provides the test-algorithm substrate the paper builds on:

* March operations (including the NWRC writes ``Nw0``/``Nw1`` of NWRTM),
* March elements and algorithms (MATS+, March C- [12], March CW [13], and
  the NWRTM-merged variants :mod:`repro.march.library` reconstructs),
* multi-background generation (solid, checkerboard, log2-c column stripes),
* a RAMSES-style simulator that runs an algorithm against a faulty
  :class:`repro.memory.SRAM` and records every mismatching read,
* an exhaustive per-fault-class coverage evaluator.
"""

from repro.march.algorithm import MarchAlgorithm, MarchStep, PauseStep
from repro.march.backgrounds import (
    all_backgrounds_cw,
    checkerboard_background,
    log2_backgrounds,
    solid_background,
)
from repro.march.complexity import operation_counts
from repro.march.coverage import CoverageRow, evaluate_coverage
from repro.march.element import AddressOrder, MarchElement
from repro.march.library import (
    march_c_minus,
    march_c_nw,
    march_cw,
    march_cw_full,
    march_cw_nw,
    march_ss,
    march_with_retention_pauses,
    march_x,
    march_y,
    mats_plus,
    mats_plus_plus,
)
from repro.march.ops import OpKind, Operation
from repro.march.simulator import FailureRecord, MarchResult, MarchSimulator

__all__ = [
    "AddressOrder",
    "CoverageRow",
    "FailureRecord",
    "MarchAlgorithm",
    "MarchElement",
    "MarchResult",
    "MarchSimulator",
    "MarchStep",
    "OpKind",
    "Operation",
    "PauseStep",
    "all_backgrounds_cw",
    "checkerboard_background",
    "evaluate_coverage",
    "log2_backgrounds",
    "march_c_minus",
    "march_c_nw",
    "march_cw",
    "march_cw_full",
    "march_cw_nw",
    "march_ss",
    "march_with_retention_pauses",
    "march_x",
    "march_y",
    "mats_plus",
    "mats_plus_plus",
    "operation_counts",
    "solid_background",
]
