"""Fleet-batched tier throughput: stacked sweeps vs the per-memory numpy path.

Thin wrapper over :mod:`repro.analysis.bench` (the measurement library
behind ``repro bench``).  Emits one JSON document (save it as
``BENCH_fault_tables.json`` to track the performance trajectory)::

    PYTHONPATH=src python benchmarks/bench_batched_fleet.py [--quick] [--out PATH]

The headline measurement times the proposed-scheme diagnosis session of a
**256-SRAM mixed-geometry campaign** (the case-study SoC scaled to fleet
size) with the per-memory numpy backend and with the batched backend on
identical seeds, asserting the reports bit-identical before reporting the
ratio.  Repeats are interleaved between the backends so shared-machine
drift hits both sides alike; bank construction and fault injection are
outside the timed region.

Regimes
-------
The batched tier amortizes the per-memory Python cost of the vector path
across every memory of a geometry bucket *and* -- since the compiled
fault table (:mod:`repro.engine.fault_table`) -- evaluates deterministic
fault populations as masked vector ops instead of per-access behavioural
replay; the counter-based RNG and analytic retention-decay lanes extend
that to intermittent, soft-error, and data-retention populations.  All
three regimes are therefore gated: **screening** (mostly clean words;
>= 3x target, the amortization win), **diagnostic** (dense failing
populations; >= 2.5x target, the fault-table win), and
**heavy-diagnostic** (>= 3x target, the stateless-lane win: the
behavioural replay share of march time drops from ~41% to under 2%).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.bench import (
    batched_fleet_gate_failures,
    measure_batched_fleet,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small configuration for CI smoke runs (32 SRAMs, 1 repeat, "
        "parity asserted but the speedup targets not enforced)",
    )
    parser.add_argument("--out", help="also write the JSON to this path")
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="also run one instrumented session per regime (outside the "
        "timed loop) and record per-lane time/word attribution",
    )
    args = parser.parse_args(argv)

    if args.quick:
        results = measure_batched_fleet(
            memories=32, repeats=1, warmup=False, telemetry=args.telemetry
        )
    else:
        results = measure_batched_fleet(telemetry=args.telemetry)
    payload = json.dumps(results, indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    if not args.quick:
        failures = batched_fleet_gate_failures(results)
        for failure in failures:
            print(f"WARNING: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
