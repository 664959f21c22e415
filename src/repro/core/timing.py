"""Closed-form diagnosis-time model for the proposed scheme.

Equations (2)-(4) of the paper, plus a generic cycle counter that maps any
March algorithm onto the scheme's cost model:

* background delivery: ``c`` cycles per element that writes (the pattern is
  broadcast serially to all SPCs at once);
* write operation: 1 cycle (applied in parallel through the SPC);
* read operation: 1 capture cycle + ``c`` PSC shift cycles = ``c + 1``.

March C- under this model costs ``5n + 5c + 5n(c+1)`` and each March CW
extension background adds ``3n + 3c + 2n(c+1)`` -- exactly Eq. (2).
"""

from __future__ import annotations

import math

from repro.baseline.timing import (
    DRF_PAUSE_TOTAL_NS,
    baseline_diagnosis_time_ns,
    baseline_drf_extra_ns,
)
from repro.march.algorithm import MarchAlgorithm
from repro.util.validation import require, require_positive


def proposed_operation_cycles(words: int, bits: int) -> int:
    """Eq. (2) in cycles: March CW under the SPC/PSC cost model.

    ``(5n + 5c + 5n(c+1)) + (3n + 3c + 2n(c+1)) * ceil(log2 c)``

    >>> proposed_operation_cycles(512, 100)
    998440
    """
    require_positive(words, "words")
    require_positive(bits, "bits")
    n, c = words, bits
    backgrounds = math.ceil(math.log2(c)) if c > 1 else 0
    march_c_part = 5 * n + 5 * c + 5 * n * (c + 1)
    extension_part = (3 * n + 3 * c + 2 * n * (c + 1)) * backgrounds
    return march_c_part + extension_part


def proposed_diagnosis_time_ns(words: int, bits: int, period_ns: float) -> float:
    """Eq. (2): ``T_proposed`` in nanoseconds (March CW, no DRF increment).

    >>> proposed_diagnosis_time_ns(512, 100, 10.0)
    9984400.0
    """
    require_positive(period_ns, "period_ns")
    return proposed_operation_cycles(words, bits) * period_ns


def proposed_drf_extra_ns(words: int, bits: int, period_ns: float) -> float:
    """The paper's DRF increment for the proposed scheme: ``(2n + 2c) t``.

    Zero pause time -- the whole point of NWRTM.  (Our executable merge
    costs nothing at all; this is the paper's own, slightly conservative,
    accounting.  :mod:`repro.march.library` explains the merge.)
    """
    require_positive(period_ns, "period_ns")
    return (2 * words + 2 * bits) * period_ns


def proposed_cycles(algorithm: MarchAlgorithm, words: int, bits: int) -> int:
    """Cycle count of running ``algorithm`` on the proposed scheme.

    Generic form of Eq. (2): writes cost 1 cycle, reads cost ``c + 1``,
    and each writing element costs one ``c``-cycle background delivery.
    """
    require_positive(words, "words")
    require(
        algorithm.bits == bits,
        f"algorithm width {algorithm.bits} != controller width {bits}",
    )
    cycles = 0
    for step in algorithm.march_steps:
        element = step.element
        if element.writes_anything:
            cycles += bits  # SPC pattern delivery
        cycles += element.write_count * words
        cycles += element.read_count * words * (bits + 1)
    return cycles


def reduction_factor(
    words: int, bits: int, period_ns: float, iterations: int
) -> float:
    """Eq. (3): ``R = T[7,8] / T_proposed`` without DRF diagnosis.

    >>> round(reduction_factor(512, 100, 10.0, 96), 2)
    84.15
    """
    baseline = baseline_diagnosis_time_ns(words, bits, period_ns, iterations)
    proposed = proposed_diagnosis_time_ns(words, bits, period_ns)
    return baseline / proposed


def reduction_factor_with_drf(
    words: int, bits: int, period_ns: float, iterations: int
) -> float:
    """Eq. (4): the reduction factor with DRF diagnosis included.

    Baseline pays ``8k`` extra sweeps plus 200 ms of retention pauses;
    the proposed scheme pays the paper's ``(2n + 2c) t`` NWRTM increment.

    >>> round(reduction_factor_with_drf(512, 100, 10.0, 96), 1)
    143.4
    """
    baseline = baseline_diagnosis_time_ns(
        words, bits, period_ns, iterations
    ) + baseline_drf_extra_ns(words, bits, period_ns, iterations)
    proposed = proposed_diagnosis_time_ns(
        words, bits, period_ns
    ) + proposed_drf_extra_ns(words, bits, period_ns)
    return baseline / proposed


def drf_pause_budget_ns() -> float:
    """The 200 ms retention-pause budget NWRTM eliminates."""
    return DRF_PAUSE_TOTAL_NS
