#!/usr/bin/env python3
"""A full SoC diagnosis campaign: baseline vs proposed, then repair.

The scenario the paper's introduction motivates: a networking SoC with
several small heterogeneous buffers [1].  We run both diagnosis
architectures over the same fault populations and compare diagnosis time,
coverage and localization, then repair with the backup memories and verify.

Run:  python examples/soc_diagnosis_campaign.py
"""

from repro import FastDiagnosisScheme, FaultInjector, HuangJoneScheme, RepairController
from repro.faults.population import sample_population
from repro.soc.chip import SoCConfig
from repro.util.records import format_table
from repro.util.units import format_duration_ns


def build_faulty_bank(soc, seed):
    bank = soc.build_bank()
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        population = sample_population(memory.geometry, 0.005, rng=seed + index)
        injector.inject(memory, population)
    return bank, injector


def main() -> None:
    soc = SoCConfig.buffer_cluster()
    print(f"SoC: {soc!r}")
    print(f"total cells: {soc.total_cells}, heterogeneous: {soc.is_heterogeneous()}")
    print()

    # --- Baseline: Huang-Jone bi-directional serial scheme [7, 8] -------
    bank_b, injector_b = build_faulty_bank(soc, seed=500)
    baseline = HuangJoneScheme(bank_b, period_ns=soc.period_ns)
    baseline_report = baseline.diagnose(injector_b, include_drf=True)

    # --- Proposed: SPC/PSC + March CW + NWRTM ---------------------------
    bank_p, injector_p = build_faulty_bank(soc, seed=500)
    proposed = FastDiagnosisScheme(bank_p, period_ns=soc.period_ns)
    proposed_report = proposed.diagnose()

    rows = [
        {
            "scheme": "baseline [7,8] + DRF pauses",
            "time": format_duration_ns(baseline_report.time_ns),
            "pauses": format_duration_ns(baseline_report.pause_ns),
            "iterations": baseline_report.iterations,
            "localized": len(baseline_report.localized),
            "missed": len(baseline_report.missed),
        },
        {
            "scheme": "proposed (March CW-NW)",
            "time": format_duration_ns(proposed_report.time_ns),
            "pauses": format_duration_ns(proposed_report.pause_ns),
            "iterations": 1,
            "localized": sum(
                len(proposed_report.detected_cells(m.name)) for m in bank_p
            ),
            "missed": injector_p.total
            - sum(
                1
                for score in proposed_report.score_against(injector_p)
                if score.localized
            ),
        },
    ]
    print(format_table(rows))
    speedup = baseline_report.time_ns / proposed_report.time_ns
    print(f"\ndiagnosis-time reduction factor: {speedup:.1f}x")

    # --- Repair and verify ----------------------------------------------
    repair = RepairController(bank_p, spares_per_memory=32)
    result = repair.apply(proposed_report)
    print(f"\nrepair: {result.total_repaired_words} words remapped to spares, "
          f"{result.detached_faults} faults removed, "
          f"fully repaired: {result.fully_repaired}")
    verification = proposed.diagnose()
    print(f"verification session after repair: "
          f"{'PASS' if verification.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
