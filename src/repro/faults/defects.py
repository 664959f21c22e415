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


def fault_for_defect(
    defect: DefectType,
    cell: CellRef,
    geometry: MemoryGeometry,
    rng: np.random.Generator,
) -> Fault:
    """Instantiate the functional fault a ``defect`` at ``cell`` produces."""
    if defect is DefectType.NODE_SHORT:
        return StuckAtFault(cell, value=int(rng.integers(2)))
    if defect is DefectType.ACCESS_OPEN:
        return TransitionFault(cell, rising=bool(rng.integers(2)))
    if defect is DefectType.PULLUP_OPEN:
        return DataRetentionFault(cell, fragile_value=int(rng.integers(2)))
    if defect is DefectType.CELL_BRIDGE:
        # Bridges form between *physically* adjacent cells.  Column
        # multiplexing places logically adjacent bits of a word several
        # physical columns apart, so manufacturing bridges overwhelmingly
        # couple same-column cells in neighbouring words; intra-word
        # coupling is injected explicitly in the coverage suite instead.
        neighbors = [
            n for n in geometry.neighbors(cell) if n.word != cell.word
        ] or geometry.neighbors(cell)
        aggressor = neighbors[int(rng.integers(len(neighbors)))]
        subtype = int(rng.integers(3))
        if subtype == 0:
            return InversionCouplingFault(aggressor, cell, trigger_rising=bool(rng.integers(2)))
        if subtype == 1:
            return IdempotentCouplingFault(
                aggressor,
                cell,
                trigger_rising=bool(rng.integers(2)),
                forced_value=int(rng.integers(2)),
            )
        return StateCouplingFault(
            aggressor,
            cell,
            aggressor_state=int(rng.integers(2)),
            forced_value=int(rng.integers(2)),
        )
    raise ValueError(f"unknown defect type: {defect!r}")
