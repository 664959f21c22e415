"""Intermittent and soft-error fault models (per-access upsets).

Manufacturing defects are permanent: the existing fault library perturbs
every access the same way.  Field behaviour adds a *transient* regime --
alpha/neutron-induced single-event upsets and marginal cells whose sense
amplifier loses races intermittently (the event-wise soft-error
characterization of Gomi et al. observed one scanning error every ~125 ns
in a 55-nm SRAM).  These classes extend the library with per-access
Bernoulli behaviour:

* **INT_READ** (:class:`IntermittentReadFault`) -- each read of the victim
  returns the complement with probability ``upset_probability``; the
  stored value is untouched (a transient sense failure);
* **SEU** (:class:`SoftErrorUpsetFault`) -- each read of the victim flips
  the *stored* bit with probability ``upset_probability`` and observes the
  flipped value (a particle strike during the access window; persistent
  until the next write refreshes the cell).

Determinism contract
--------------------
The upset decision for the ``k``-th read of a fault is the *counter-based*
draw ``counter_bernoulli(fault_seed, k, p)`` (:mod:`repro.util.rng`) -- a
pure function of the fault's seed and its access index, never of global
state, worker layout or numpy availability.  Every engine path agrees on
how many times each cell has been read and in what order, so the decision
sequence is identical whether the hooks fire behaviourally (reference,
replay lane) or the compiled fault table computes whole visit schedules
analytically from the march plan (:mod:`repro.engine.fault_table`); the
differential fuzz harness asserts this bit-exactly over random
intermittent populations.  The hash helpers are pure Python, so the
fault library keeps working without the ``[fast]`` numpy extra.
"""

from __future__ import annotations

from repro.faults.base import (
    KIND_INT_READ,
    KIND_SEU,
    CellFault,
    FaultClass,
    LoweredFault,
)
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.util.rng import SplitMix64Stream, counter_bernoulli, mix_seed
from repro.util.rounding import round_half_up
from repro.util.validation import require, require_in_range


class _PerAccessUpset(CellFault):
    """Shared plumbing: a victim cell plus a counter-based Bernoulli stream."""

    def __init__(
        self, cell: CellRef, upset_probability: float, seed: int = 0
    ) -> None:
        require_in_range(upset_probability, 0.0, 1.0, "upset_probability")
        self.victims = (cell,)
        self.upset_probability = upset_probability
        self.seed = int(seed)
        #: Number of Bernoulli decisions consumed so far (the counter of
        #: the next draw).  The compiled fault table advances this
        #: analytically and publishes the final value back after each
        #: batched session, so mixed table/replay flows stay in step.
        self._draws = 0

    def _upset(self) -> bool:
        """Draw the next per-access Bernoulli outcome."""
        counter = self._draws
        self._draws = counter + 1
        return counter_bernoulli(self.seed, counter, self.upset_probability)

    def vector_lowerable(self) -> bool:
        """Counter-based draws lower to the fault table.

        A counter-based decision is a pure function of ``(seed, k)``, so
        the table evaluator computes each visit's draw directly from the
        march plan's per-cell access counts.
        """
        return True

    def lower(self) -> LoweredFault:
        return LoweredFault(
            self._LOWERED_KIND,
            self.victims[0],
            probability=self.upset_probability,
            seed=self.seed,
            counter_base=self._draws,
            source=self,
        )

    def describe(self) -> str:
        return (
            f"{self.fault_class.value} @ {self.victims[0]} "
            f"(p={self.upset_probability:g})"
        )


class IntermittentReadFault(_PerAccessUpset):
    """Transient read upset: the observed bit flips, the cell does not."""

    _LOWERED_KIND = KIND_INT_READ

    def __init__(
        self, cell: CellRef, upset_probability: float, seed: int = 0
    ) -> None:
        self.fault_class = FaultClass.INT_READ
        super().__init__(cell, upset_probability, seed)

    def on_read(self, memory, word, bit, stored_bit):
        if self._upset():
            return 1 - stored_bit
        return stored_bit


class SoftErrorUpsetFault(_PerAccessUpset):
    """SEU: the stored bit flips during the access and is read flipped."""

    _LOWERED_KIND = KIND_SEU

    def __init__(
        self, cell: CellRef, upset_probability: float, seed: int = 0
    ) -> None:
        self.fault_class = FaultClass.SEU
        super().__init__(cell, upset_probability, seed)

    def on_read(self, memory, word, bit, stored_bit):
        if self._upset():
            flipped = 1 - stored_bit
            memory.force_stored_bit(word, bit, flipped)
            return flipped
        return stored_bit


#: Intermittent-class constructors in sampling order.
INTERMITTENT_CLASSES = (IntermittentReadFault, SoftErrorUpsetFault)


#: Wire labels for streamed arrival events (stable across releases: they
#: appear in per-window metrics JSON and in ring-checkpoint payloads).
EVENT_KIND_SEU = "seu"
EVENT_KIND_INT_READ = "int-read"
EVENT_KINDS = (EVENT_KIND_SEU, EVENT_KIND_INT_READ)

_EVENT_CLASSES = {
    EVENT_KIND_SEU: SoftErrorUpsetFault,
    EVENT_KIND_INT_READ: IntermittentReadFault,
}


def fault_for_event(
    kind: str,
    cell: CellRef,
    upset_probability: float,
    seed: int,
) -> CellFault:
    """Materialize the fault model of one streamed arrival event.

    The streaming timeline (:mod:`repro.streaming.timeline`) describes
    events as plain records -- kind label, victim cell, per-event seed --
    so they serialize into metrics/checkpoints; this factory is the
    single place an event becomes an injectable fault (always
    counter-mode, hence vector-lowerable on every backend).
    """
    require(
        kind in _EVENT_CLASSES,
        f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}",
    )
    return _EVENT_CLASSES[kind](cell, upset_probability, seed=seed)


def sample_intermittent_population(
    geometry: MemoryGeometry,
    rate: float,
    upset_probability: float,
    seed: int = 0,
) -> list[CellFault]:
    """Sample a seeded intermittent/soft-error population for one memory.

    ``rate`` is the fraction of cells carrying an intermittent mechanism
    (``round_half_up(cells * rate)`` faults, victims drawn without
    replacement); each fault's class is a seeded per-cell selection --
    ``mix_seed(seed, 0x5E0, cell_index)`` picks INT_READ or SEU, so the
    choice depends only on the master seed and the victim's cell index,
    roughly half-and-half over large populations and invariant under
    fault-list reordering.  Each fault gets a private stream seed derived
    from ``seed`` and its victim cell.  Pure Python: no numpy required.
    """
    require_in_range(rate, 0.0, 1.0, "rate")
    require_in_range(upset_probability, 0.0, 1.0, "upset_probability")
    count = round_half_up(geometry.cells * rate)
    picker = SplitMix64Stream(mix_seed(seed, 0x1A7))
    # Partial Fisher-Yates over cell indices: draw `count` distinct cells.
    chosen: list[int] = []
    swapped: dict[int, int] = {}
    remaining = geometry.cells
    for _ in range(count):
        offset = picker.next_u64() % remaining
        index = swapped.get(offset, offset)
        last = remaining - 1
        swapped[offset] = swapped.get(last, last)
        chosen.append(index)
        remaining -= 1
    faults: list[CellFault] = []
    for index in sorted(chosen):
        cell = geometry.cell_at(index)
        cls = INTERMITTENT_CLASSES[
            mix_seed(seed, 0x5E0, index) % len(INTERMITTENT_CLASSES)
        ]
        faults.append(cls(cell, upset_probability, seed=mix_seed(seed, index)))
    return faults
