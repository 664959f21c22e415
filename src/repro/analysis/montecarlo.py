"""Monte-Carlo experiments over seeded fault populations.

The paper's case study uses the *expected* defect-class mix (exactly 75 %
M1-localizable -> k = 96).  Real populations fluctuate; these experiments
quantify how tightly the emergent quantities concentrate around the
paper's arithmetic:

* the distribution of the baseline's emergent iteration count k,
* the distribution of the reduction factor R,
* the proposed scheme's localization rate (always 1.0 for populations
  drawn from the four defect classes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baseline.scheme import HuangJoneScheme
from repro.baseline.timing import baseline_diagnosis_time_ns
from repro.core.timing import proposed_diagnosis_time_ns
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.memory.bank import MemoryBank
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.records import Record
from repro.util.validation import require


@dataclass(frozen=True)
class Distribution(Record):
    """Summary statistics of one Monte-Carlo quantity."""

    samples: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, values) -> "Distribution":
        """Summarize a sequence of numbers."""
        array = np.asarray(list(values), dtype=float)
        require(array.size > 0, "need at least one sample")
        return cls(
            samples=int(array.size),
            mean=float(array.mean()),
            std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
            minimum=float(array.min()),
            maximum=float(array.max()),
        )


def emergent_k_distribution(
    seeds: range | list[int],
    geometry: MemoryGeometry | None = None,
    defect_rate: float = 0.01,
) -> Distribution:
    """Distribution of the baseline's emergent iteration count.

    Each seed samples a fresh fault population, runs the effective-mode
    iterate-repair loop, and records the iterations needed.
    """
    geometry = geometry or MemoryGeometry(512, 100, "mc")
    iterations = []
    for seed in seeds:
        memory = SRAM(geometry)
        injector = FaultInjector()
        injector.inject(memory, sample_population(geometry, defect_rate, rng=seed))
        report = HuangJoneScheme(MemoryBank([memory])).diagnose(injector)
        iterations.append(report.iterations)
    return Distribution.of(iterations)


def reduction_distribution(
    seeds: range | list[int],
    geometry: MemoryGeometry | None = None,
    defect_rate: float = 0.01,
    period_ns: float = 10.0,
) -> Distribution:
    """Distribution of the no-DRF reduction factor over sampled populations."""
    geometry = geometry or MemoryGeometry(512, 100, "mc")
    proposed_ns = proposed_diagnosis_time_ns(geometry.words, geometry.bits, period_ns)
    reductions = []
    for seed in seeds:
        memory = SRAM(geometry)
        injector = FaultInjector()
        injector.inject(memory, sample_population(geometry, defect_rate, rng=seed))
        report = HuangJoneScheme(MemoryBank([memory])).diagnose(injector)
        baseline_ns = baseline_diagnosis_time_ns(
            geometry.words, geometry.bits, period_ns, report.iterations
        )
        reductions.append(baseline_ns / proposed_ns)
    return Distribution.of(reductions)
