"""Physical-defect statistics and the defect -> fault mapping of [8].

The paper's case study (Sec. 4.2) assumes "all four different defect types in
[8] occur with equal likelihood".  We model those four classes and their
functional-fault consequences:

========================  =============================================
Defect class              Functional fault produced
========================  =============================================
``NODE_SHORT``            stuck-at fault (SAF0/SAF1)
``ACCESS_OPEN``           transition fault (TF up/down)
``CELL_BRIDGE``           coupling fault between neighbouring cells
``PULLUP_OPEN``           data-retention fault (DRF0/DRF1)
========================  =============================================

The first three are *logical* faults, diagnosable by any complete March; the
fourth is the time-dependent class that only retention pauses or NWRTM can
expose.  With the default equal likelihoods, exactly 75 % of a population is
localizable by the baseline's M1 kernel -- reproducing the paper's "M1
covers 75 % of those faults" assumption.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.base import Fault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only (numpy is the [fast] extra)
    import numpy as np


class DefectType(enum.Enum):
    """The four cell-level defect classes of [8]."""

    NODE_SHORT = "node-short"
    ACCESS_OPEN = "access-open"
    CELL_BRIDGE = "cell-bridge"
    PULLUP_OPEN = "pullup-open"


@dataclass(frozen=True)
class DefectProfile:
    """Relative likelihoods of the four defect classes.

    The default is the paper's equal-likelihood assumption.  Weights need not
    sum to one; they are normalized when sampling.
    """

    weights: dict[DefectType, float] = field(
        default_factory=lambda: {t: 1.0 for t in DefectType}
    )
    #: Average number of defective cells consumed per distinguishable fault.
    #: The paper's arithmetic (1 % of 512x100 cells -> 256 faults) implies 2.
    cells_per_fault: float = 2.0

    def __post_init__(self) -> None:
        require(self.weights, "profile needs at least one defect type")
        require(
            all(w >= 0 for w in self.weights.values()),
            "defect weights must be non-negative",
        )
        require(
            any(w > 0 for w in self.weights.values()),
            "at least one defect weight must be positive",
        )
        require(self.cells_per_fault > 0, "cells_per_fault must be positive")
        # The sampling CDF exactly as ``Generator.choice(p=...)`` builds
        # it: a running float64 sum of the normalized probabilities,
        # divided through by its last entry.
        types, probs = zip(*self.normalized())
        cumulative = list(itertools.accumulate(probs))
        object.__setattr__(self, "_types", types)
        object.__setattr__(
            self, "_cdf", [value / cumulative[-1] for value in cumulative]
        )

    def normalized(self) -> list[tuple[DefectType, float]]:
        """Defect types with probabilities summing to one."""
        total = sum(self.weights.values())
        return [(t, w / total) for t, w in self.weights.items() if w > 0]

    def sample_type(self, rng: np.random.Generator) -> DefectType:
        """Draw one defect class according to the profile.

        Bisects the profile's CDF with one uniform double -- the same
        draw, index and generator state as ``rng.choice(len(types),
        p=probs)``, without its per-call validation.
        """
        return self._types[bisect.bisect_right(self._cdf, rng.random())]


#: Row kinds of a sampled population, one per fault class the defect
#: map produces.  A row is ``(kind, victim, aggressor, value, forced)``;
#: :func:`fault_from_row` gives each kind's meaning of ``value`` and
#: ``forced``.
ROW_SAF, ROW_TF, ROW_DRF, ROW_CF_IN, ROW_CF_ID, ROW_CF_ST = range(6)


def defect_row(
    defect: DefectType,
    victim: int,
    geometry: MemoryGeometry,
    rng: np.random.Generator,
) -> tuple[int, int, int, int]:
    """The row ``(kind, aggressor, value, forced)`` a ``defect`` produces.

    ``victim`` and the aggressor are linear cell indices; the aggressor
    is -1 for single-cell faults.
    """
    if defect is DefectType.NODE_SHORT:
        return ROW_SAF, -1, int(rng.integers(2)), 0
    if defect is DefectType.ACCESS_OPEN:
        return ROW_TF, -1, int(rng.integers(2)), 0
    if defect is DefectType.PULLUP_OPEN:
        return ROW_DRF, -1, int(rng.integers(2)), 0
    if defect is DefectType.CELL_BRIDGE:
        # Bridges form between *physically* adjacent cells.  Column
        # multiplexing places logically adjacent bits of a word several
        # physical columns apart, so manufacturing bridges overwhelmingly
        # couple same-column cells in neighbouring words; intra-word
        # coupling is injected explicitly in the coverage suite instead.
        bits = geometry.bits
        neighbors = geometry.neighbor_indices(victim)
        word = victim // bits
        neighbors = [n for n in neighbors if n // bits != word] or neighbors
        aggressor = neighbors[int(rng.integers(len(neighbors)))]
        subtype = int(rng.integers(3))
        if subtype == 0:
            return ROW_CF_IN, aggressor, int(rng.integers(2)), 0
        kind = ROW_CF_ID if subtype == 1 else ROW_CF_ST
        # The trigger (CFid) or aggressor state (CFst) is drawn before
        # the forced value.
        value = int(rng.integers(2))
        return kind, aggressor, value, int(rng.integers(2))
    raise ValueError(f"unknown defect type: {defect!r}")


def fault_from_row(
    kind: int, victim: CellRef, aggressor: CellRef | None, value: int, forced: int
) -> Fault:
    """The fault object of one population row.

    ``value`` is the stuck value, the rising flag of a transition, the
    fragile value of a DRF, the rising trigger of a CFin/CFid or the
    aggressor state of a CFst; ``forced`` is the forced victim value of
    a CFid/CFst.
    """
    if kind == ROW_SAF:
        return StuckAtFault(victim, value=value)
    if kind == ROW_TF:
        return TransitionFault(victim, rising=bool(value))
    if kind == ROW_DRF:
        return DataRetentionFault(victim, fragile_value=value)
    if kind == ROW_CF_IN:
        return InversionCouplingFault(aggressor, victim, trigger_rising=bool(value))
    if kind == ROW_CF_ID:
        return IdempotentCouplingFault(
            aggressor, victim, trigger_rising=bool(value), forced_value=forced
        )
    if kind == ROW_CF_ST:
        return StateCouplingFault(
            aggressor, victim, aggressor_state=value, forced_value=forced
        )
    raise ValueError(f"unknown row kind: {kind!r}")


@functools.cache
def row_representative(kind: int, value: int, forced: int, inter_word: bool) -> Fault:
    """One fault object standing for every row of these parameters.

    Row columns hold cells and parameters, not behaviour: the class,
    lowering vote and lowered parameters of a row are read off this
    object (victim at word 0, any aggressor in word 1 or, for an
    intra-word arrangement, at bit 1 of word 0), so each class keeps its
    one definition.
    """
    aggressor = CellRef(1, 0) if inter_word else CellRef(0, 1)
    return fault_from_row(kind, CellRef(0, 0), aggressor, value, forced)


def fault_for_defect(
    defect: DefectType,
    cell: CellRef,
    geometry: MemoryGeometry,
    rng: np.random.Generator,
) -> Fault:
    """Instantiate the functional fault a ``defect`` at ``cell`` produces."""
    kind, aggressor, value, forced = defect_row(
        defect, geometry.cell_index(cell), geometry, rng
    )
    return fault_from_row(
        kind,
        cell,
        None if aggressor < 0 else geometry.cell_at(aggressor),
        value,
        forced,
    )
