"""The [16] case-study benchmark behind every Sec. 4.2 number.

Parameters as stated in the paper: ``n = 512`` words, ``c = 100`` IOs,
``t = 10`` ns, 1 % defective cells, the four defect classes of [8] equally
likely.  The paper's arithmetic: 256 faults maximum, M1 localizes 75 % of
them at two per iteration, so ``k = 96``; the claimed results are
``R >= 84`` (no DRF), ``R >= 145`` (with DRF), ~1.8 % area and +1 wire.
"""

from __future__ import annotations

from repro.baseline.diag_rsmarch import min_iterations
from repro.faults.defects import DefectProfile
from repro.faults.population import FaultPopulation, expected_fault_count, sample_population
from repro.memory.bank import MemoryBank
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.validation import require_positive

#: Case-study parameters (Sec. 4.2, quoting [16]).
CASE_STUDY_WORDS = 512
CASE_STUDY_BITS = 100
CASE_STUDY_PERIOD_NS = 10.0
CASE_STUDY_DEFECT_RATE = 0.01

#: Derived by the paper: 1 % of 51,200 cells at ~2 cells/fault.
CASE_STUDY_FAULTS = 256
#: ceil(256 * 0.75 / 2)
CASE_STUDY_ITERATIONS = 96

#: The paper's claims, which the benches and tests compare measurements to.
PAPER_REDUCTION_NO_DRF = 84.0
PAPER_REDUCTION_WITH_DRF = 145.0
PAPER_AREA_OVERHEAD = 0.018
PAPER_EXTRA_CELLS_PER_BIT = 3.0
PAPER_EXTRA_GLOBAL_WIRES = 1


def case_study_geometry(name: str = "esram_16") -> MemoryGeometry:
    """One benchmark e-SRAM (512 x 100)."""
    return MemoryGeometry(CASE_STUDY_WORDS, CASE_STUDY_BITS, name)


def case_study_bank(
    memories: int = 3, period_ns: float = CASE_STUDY_PERIOD_NS
) -> MemoryBank:
    """A bank of identical benchmark e-SRAMs (3 as drawn in Figs. 1/3)."""
    require_positive(memories, "memories")
    return MemoryBank(
        [
            SRAM(case_study_geometry(f"esram_{i}"), period_ns=period_ns)
            for i in range(memories)
        ]
    )


def case_study_population(rng=0) -> FaultPopulation:
    """A seeded 1 %-defect-rate population for one benchmark memory.

    Sanity properties (asserted in tests): 256 faults, ~75 % of them
    M1-localizable, ~25 % data-retention faults.
    """
    return sample_population(
        case_study_geometry(),
        CASE_STUDY_DEFECT_RATE,
        profile=DefectProfile(),
        rng=rng,
    )


def case_study_soc(
    memories: int = 8,
    heterogeneous: bool = True,
    period_ns: float = CASE_STUDY_PERIOD_NS,
):
    """A distributed-SRAM SoC anchored by the [16] benchmark memory.

    The largest/widest instance is the 512x100 benchmark (it sizes the
    shared controller); the remaining instances are smaller buffers in a
    plausible mix, exercising the wrap-around machinery.  With
    ``heterogeneous=False`` every instance is the benchmark memory (the
    configuration the [4] scheme is limited to).
    """
    from repro.soc.chip import SoCConfig

    require_positive(memories, "memories")
    geometries = [case_study_geometry("esram_0")]
    smaller_shapes = [(256, 64), (128, 32), (256, 100), (64, 16), (512, 50)]
    for index in range(1, memories):
        if heterogeneous:
            words, bits = smaller_shapes[(index - 1) % len(smaller_shapes)]
        else:
            words, bits = CASE_STUDY_WORDS, CASE_STUDY_BITS
        geometries.append(MemoryGeometry(words, bits, f"esram_{index}"))
    return SoCConfig(
        name="case-study-soc", geometries=geometries, period_ns=period_ns
    )


def check_paper_arithmetic() -> dict[str, int]:
    """Re-derive the paper's fault-count and k from first principles."""
    geometry = case_study_geometry()
    faults = expected_fault_count(geometry, CASE_STUDY_DEFECT_RATE)
    return {
        "cells": geometry.cells,
        "faults": faults,
        "iterations": min_iterations(faults),
    }
