#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--write-baseline]

For every workload, ``run.py`` runs with seeds 1, 2, ... ``--runs``.
Each end-to-end metric is then summarized by its median and its spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, shown
beside the metric's bound from ``BENCHMARK.json``.  A spread should stay
below a third of its bound (``setup_s`` is exempt).  Runs whose machine
fingerprints differ are flagged.  ``--write-baseline`` records the
medians and the fingerprint in ``baseline.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MACHINE_FIELDS = ("cpu_model", "nproc", "python", "numpy")


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=200,
    )
    lines = done.stdout.strip().splitlines()
    fingerprint = next(
        json.loads(line.split(" ", 1)[1]) for line in lines
        if line.startswith("fingerprint ")
    )
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return result, fingerprint


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    machines = set()
    medians: dict[str, dict[str, float]] = {}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            result, fingerprint = run_once(workload, seed, spec["run_seconds"])
            machines.add(tuple(fingerprint[field] for field in MACHINE_FIELDS))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        medians[workload] = {}
        print(f"{workload} ({args.runs} runs, backend {fingerprint['backend']})")
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            medians[workload][name] = median
            print(f"  {name:<14} median {median:<12.6g} spread {spread:6.2%} "
                  f"bound {bounds[name]:.0%} {'ok' if ok else 'TOO WIDE'}")
    if len(machines) > 1:
        print(f"FINGERPRINTS DIFFER between runs: {sorted(machines)}")
        steady = False
    if args.write_baseline:
        baseline = {
            "fingerprint": {k: v for k, v in fingerprint.items() if k != "backend"},
            "runs": args.runs,
            "workloads": medians,
        }
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
