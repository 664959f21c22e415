#!/usr/bin/env python3
"""Record the per-op digests the benchmark checks outputs against.

Run from the root of a checkout, at a commit whose goldens and
three-way backend parity tests pass::

    PYTHONPATH=src python3 perfbench/record.py

For every workload, the default seed and a held-out seed each run their
whole op cycle at full size.  Every op must satisfy its invariants and
the first ops must match an independent backend; the digest of each op
position then goes to ``digests.json`` next to this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from child import drive, parity_digests
from workloads import WORKLOADS, digest

HERE = os.path.dirname(os.path.abspath(__file__))
#: The seed the benchmark is tuned on, and one kept out of tuning.
DEFAULT_SEED = 1
HELDOUT_SEED = 2


def record(cls, seed: int, scratch: str) -> list[str]:
    workload = cls(seed, "full", scratch)
    try:
        ops, _, _, error = drive(workload, ops_target=workload.cap)
        parity = parity_digests(workload)
    finally:
        workload.close()
    if error is not None:
        raise SystemExit(f"{cls.name} seed {seed}: {error}")
    digests: dict[int, str] = {}
    for position, output in ops:
        problem = workload.problem(output)
        if problem is not None:
            raise SystemExit(f"{cls.name} seed {seed} op {position}: {problem}")
        digests.setdefault(position, digest(workload.payload(output)))
    for position, expected in parity.items():
        if digests[position] != expected:
            raise SystemExit(
                f"{cls.name} seed {seed} op {position}: backends disagree"
            )
    return [digests[position] for position in range(workload.cap)]


def main() -> int:
    os.makedirs(".perfbench_tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=".perfbench_tmp")
    table = {
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "size": "full",
        "workloads": {},
    }
    try:
        for name, cls in WORKLOADS.items():
            for seed in (DEFAULT_SEED, HELDOUT_SEED):
                digests = record(cls, seed, scratch)
                table["workloads"].setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {len(digests)} op digests", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
