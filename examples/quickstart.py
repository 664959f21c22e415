#!/usr/bin/env python3
"""Quickstart: diagnose one embedded SRAM with the proposed scheme.

Builds the paper's case-study memory (512 words x 100 bits), injects a
seeded 1%-defect-rate fault population, runs one full diagnosis session
through the SPC/PSC architecture with March CW + NWRTM, and prints what
was found -- in about ten lines of API.

Run:  python examples/quickstart.py
"""

from repro import (
    FastDiagnosisScheme,
    FaultInjector,
    MemoryBank,
    MemoryGeometry,
    SRAM,
    sample_population,
)


def main() -> None:
    # The device under diagnosis: one small embedded SRAM.
    memory = SRAM(MemoryGeometry(512, 100, "esram_0"), period_ns=10.0)

    # Ground truth: a manufacturing fault population at a 1% defect rate
    # (stuck-at, transition, coupling and data-retention faults).
    injector = FaultInjector()
    population = sample_population(memory.geometry, defect_rate=0.01, rng=1)
    injector.inject(memory, population)
    print(f"injected {population.size} faults "
          f"({population.retention_faults} of them data-retention)")

    # One shared BISD controller, one session, zero retention pauses.
    scheme = FastDiagnosisScheme(MemoryBank([memory]))
    report = scheme.diagnose()

    print()
    print("\n".join(report.summary_lines()))
    print()

    # Score against the ground truth: every fault localized in one run.
    rate = report.localization_rate(injector)
    print(f"localization rate vs ground truth: {rate:.1%}")
    cells = report.detected_cells("esram_0")
    print(f"first five localized cells: "
          f"{', '.join(str(c) for c in sorted(cells)[:5])} ...")


if __name__ == "__main__":
    main()
