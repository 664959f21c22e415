"""X3 -- ablations over the scheme's design choices.

Four knobs, each isolated:

1. NWRTM on/off (March CW-NW vs March CW): DRF coverage vs zero cost;
2. delay-based DRF testing vs NWRTM: same DRF coverage, 200 ms vs 0 pause;
3. reduced vs full CW extension backgrounds: the intra-word CFid polarity
   gap vs ~2x extension cost;
4. MSB- vs LSB-first delivery: heterogeneous correctness (see also F4).
"""

import pytest

from repro.core.scheme import FastDiagnosisScheme
from repro.core.timing import proposed_cycles
from repro.faults.coupling import IdempotentCouplingFault
from repro.faults.injector import FaultInjector
from repro.faults.retention_fault import DataRetentionFault
from repro.march.library import (
    march_cw,
    march_cw_full,
    march_cw_nw,
    march_with_retention_pauses,
)
from repro.march.simulator import MarchSimulator
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.records import format_table
from repro.util.units import format_duration_ns

from conftest import emit

GEOMETRY = MemoryGeometry(16, 4, "x3")


def _drf_ablation():
    """Rows for knobs 1 and 2: who sees a DRF, and at what pause cost."""
    rows = []
    for factory, label in (
        (march_cw, "March CW (no NWRTM)"),
        (march_cw_nw, "March CW-NW (NWRTM)"),
        (march_with_retention_pauses, "March C- + 2x100ms pauses"),
    ):
        memory = SRAM(GEOMETRY)
        DataRetentionFault(CellRef(5, 2), 1).attach(memory)
        result = MarchSimulator().run(memory, factory(GEOMETRY.bits))
        rows.append(
            {
                "algorithm": label,
                "DRF detected": not result.passed,
                "pause time": format_duration_ns(
                    factory(GEOMETRY.bits).total_pause_ns
                ),
                "ops/word": factory(GEOMETRY.bits).operations_per_word(),
            }
        )
    return rows


def _background_ablation():
    """Rows for knob 3: reduced vs full extension sets."""
    rows = []
    for factory, label in (
        (march_cw, "reduced extension (Eq. 2 budget)"),
        (march_cw_full, "full March C- per background"),
    ):
        memory = SRAM(GEOMETRY)
        # The escape parity: victim on an odd bit, aggressor even.
        IdempotentCouplingFault(
            CellRef(4, 2), CellRef(4, 3), trigger_rising=False, forced_value=0
        ).attach(memory)
        result = MarchSimulator().run(memory, factory(GEOMETRY.bits))
        rows.append(
            {
                "extension": label,
                "escape CFid caught": not result.passed,
                "cycles (512x100)": proposed_cycles(factory(100), 512, 100),
            }
        )
    return rows


@pytest.mark.benchmark(group="X3-ablations")
def test_x3_drf_ablation(benchmark):
    rows = benchmark(_drf_ablation)
    emit("X3a  NWRTM vs no-NWRTM vs delay testing", format_table(rows))
    by_label = {r["algorithm"]: r for r in rows}
    assert not by_label["March CW (no NWRTM)"]["DRF detected"]
    assert by_label["March CW-NW (NWRTM)"]["DRF detected"]
    assert by_label["March C- + 2x100ms pauses"]["DRF detected"]
    assert by_label["March CW-NW (NWRTM)"]["pause time"] == "0.000 ns"
    # NWRTM merge is free: same op count as plain March CW.
    assert (
        by_label["March CW-NW (NWRTM)"]["ops/word"]
        == by_label["March CW (no NWRTM)"]["ops/word"]
    )


@pytest.mark.benchmark(group="X3-ablations")
def test_x3_background_ablation(benchmark):
    rows = benchmark(_background_ablation)
    emit("X3b  Reduced vs full CW extension backgrounds", format_table(rows))
    reduced, full = rows
    assert not reduced["escape CFid caught"]
    assert full["escape CFid caught"]
    assert full["cycles (512x100)"] > reduced["cycles (512x100)"]


@pytest.mark.benchmark(group="X3-ablations")
def test_x3_delivery_ablation(benchmark):
    def run(msb_first):
        bank = MemoryBank(
            [SRAM(MemoryGeometry(16, 8, "wide")), SRAM(MemoryGeometry(8, 5, "narrow"))]
        )
        injector = FaultInjector()
        from repro.faults.stuck_at import StuckAtFault

        injector.inject(bank.by_name("narrow"), StuckAtFault(CellRef(3, 2), 1))
        report = FastDiagnosisScheme(bank, msb_first=msb_first).diagnose()
        true_hits = report.detected_cells("narrow") & {CellRef(3, 2)}
        false_cells = report.detected_cells("narrow") - {CellRef(3, 2)}
        return bool(true_hits), len(false_cells)

    results = benchmark(lambda: {m: run(m) for m in (True, False)})
    rows = [
        {
            "delivery": "MSB-first" if m else "LSB-first",
            "real fault localized": results[m][0],
            "false cells flagged": results[m][1],
        }
        for m in (True, False)
    ]
    emit("X3c  Delivery order with a real fault present", format_table(rows))
    assert results[True] == (True, 0)
    assert results[False][1] > 0  # LSB-first floods the narrow memory
