"""Fault base classes, the fault-class taxonomy and the lowering protocol."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.memory.geometry import CellRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.sram import SRAM


class FaultClass(enum.Enum):
    """Functional fault classes in the classical memory-test taxonomy."""

    SAF0 = "stuck-at-0"
    SAF1 = "stuck-at-1"
    TF_UP = "transition-up"
    TF_DOWN = "transition-down"
    CF_IN = "coupling-inversion"
    CF_ID = "coupling-idempotent"
    CF_ST = "coupling-state"
    AF = "address-decoder"
    CDF = "column-decoder"
    DRF0 = "data-retention-0"
    DRF1 = "data-retention-1"
    WEAK = "weak-cell"
    IRF = "incorrect-read"
    RDF = "read-destructive"
    DRDF = "deceptive-read-destructive"
    WDF = "write-disturb"
    INT_READ = "intermittent-read"
    SEU = "soft-error-upset"

    @property
    def is_retention(self) -> bool:
        """Whether this class needs retention pauses or NWRTM to detect."""
        return self in (FaultClass.DRF0, FaultClass.DRF1)

    @property
    def is_reliability_only(self) -> bool:
        """Whether this class never misbehaves logically (NWRTM-only)."""
        return self is FaultClass.WEAK

    @property
    def is_intermittent(self) -> bool:
        """Whether this class fires probabilistically per access.

        Intermittent classes model transient/soft-error behaviour (event
        upsets, marginal sense margins): detection is inherently
        stochastic, so diagnosis scoring separates them from the
        manufacturing-defect classes when computing escape rates.
        """
        return self in (FaultClass.INT_READ, FaultClass.SEU)


#: Fault classes the baseline's M1 diagnosis kernel can localize.  The paper
#: assumes four equally likely defect classes of which M1 covers 75 %: the
#: three logical classes (stuck-at, transition, coupling) are localizable,
#: the retention class is not (the [7, 8] scheme neglects DRFs entirely).
M1_LOCALIZABLE_CLASSES = frozenset(
    {
        FaultClass.SAF0,
        FaultClass.SAF1,
        FaultClass.TF_UP,
        FaultClass.TF_DOWN,
        FaultClass.CF_IN,
        FaultClass.CF_ID,
        FaultClass.CF_ST,
    }
)


#: Lowered-fault kind codes understood by the compiled fault table
#: (:mod:`repro.engine.fault_table`).  One code per distinct per-access
#: evaluation, not per :class:`FaultClass`: every memoryless single-cell
#: fault (:class:`StaticCellFault`) lowers to ``KIND_STATIC`` with the flip
#: masks tabulated from its own hooks.
KIND_STATIC = "static"
KIND_CF_IN = "cf-in"
KIND_CF_ID = "cf-id"
KIND_CF_ST = "cf-st"
KIND_INT_READ = "int-read"
KIND_SEU = "seu"
KIND_DRF = "drf"


@dataclass(slots=True)
class LoweredFault:
    """One fault's behaviour compiled to table-evaluable parameters.

    The structured-array columns of the compiled fault table are built
    from these records: the victim cell locates the (row, lane, bitmask)
    triple, ``aggressor`` the aux cell of coupling kinds, and the scalar
    parameters select the per-kind formula.  Field meaning by ``kind``:

    ``static``  four flip masks, one bit per input the hooks saw: a set
                bit means the access does not do what a fault-free cell
                does.  ``write_flips``/``nwrc_flips`` hold bit
                ``2 * written + old`` when a normal/NWRC write of
                ``written`` over ``old`` stores the complement of
                ``written``; ``read_flips``/``after_read_flips`` hold bit
                ``stored`` when a read of ``stored`` observes/leaves the
                complement of ``stored``.
    ``cf-in``   ``rising`` = triggering aggressor transition.
    ``cf-id``   ``rising`` = trigger, ``value`` = forced victim value.
    ``cf-st``   ``aggressor_state``/``value`` (= forced value) /
                ``affects_write``.
    ``int-read``/``seu``  ``probability``/``seed``/``counter_base`` of the
                counter-based Bernoulli stream (``counter_base`` = draws
                already consumed when the session lowered the fault).
    ``drf``     ``value`` = fragile side, ``retention_ns`` the decay
                threshold, ``written_at_ns`` the pending fragile-write
                time (``None`` = no charge to lose).

    Stateful kinds (``int-read``/``seu``/``drf``) also carry ``source``,
    the originating fault object, so the evaluator can publish its final
    draw counter / decay clock back after the session -- multi-session
    flows (test, repair, retest, burn-in) reuse the same fault objects.
    Slotted and not frozen: a heavy campaign builds thousands of these
    per session and nothing hashes or mutates them.
    """

    kind: str
    victim: CellRef
    aggressor: CellRef | None = None
    value: int = 0
    rising: bool = True
    aggressor_state: int = 0
    affects_write: bool = True
    probability: float = 0.0
    seed: int = 0
    counter_base: int = 0
    retention_ns: float = 0.0
    written_at_ns: float | None = None
    source: object | None = None
    write_flips: int = 0
    nwrc_flips: int = 0
    read_flips: int = 0
    after_read_flips: int = 0


class Fault:
    """Common base for every injectable fault.

    Subclasses define ``fault_class`` and implement :meth:`attach`.  The
    ``victims``/``aggressors`` tuples drive both the SRAM's sparse fault
    indexes and diagnosis bookkeeping (a diagnosis is *complete* when every
    victim cell of every detectable fault has been localized).
    """

    fault_class: FaultClass
    victims: tuple[CellRef, ...] = ()
    aggressors: tuple[CellRef, ...] = ()

    def attach(self, memory: "SRAM") -> None:
        """Install this fault into ``memory``."""
        raise NotImplementedError

    def vector_lowerable(self) -> bool:
        """Whether this fault can be compiled into the vectorized table.

        The contract: a lowerable fault's per-access behaviour must be a
        pure function of (a) the victim cell's stored bit, (b) the access
        kind and written bit, (c) for coupling kinds one aggressor cell's
        stored bit (cross-cell interaction expressible through the
        block-ordered aggressor trajectory), and (d) for the stateful
        kinds a quantity the table can compute *analytically* from the
        visit schedule -- the per-fault access counter of the
        counter-based Bernoulli streams (intermittent/SEU) or the elapsed
        time since the last fragile write (retention decay), both of
        which are closed-form in the march plan's per-cell visit orders
        and the time base's cycle model.  Faults whose behaviour depends
        on a *sequential* stream or on intra-visit ordering, or that
        rewire the periphery (decoder/column faults), return ``False`` and
        keep the exact behavioural replay lane.  The conservative default
        is non-lowerable, so new fault classes opt *in*.
        """
        return False

    def lower(self) -> LoweredFault:
        """Compile this fault to its :class:`LoweredFault` record.

        Only meaningful when :meth:`vector_lowerable` returns ``True``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not lower to the fault table"
        )

    @property
    def cells(self) -> tuple[CellRef, ...]:
        """All cells involved in the fault (victims then aggressors)."""
        return self.victims + self.aggressors

    def describe(self) -> str:
        """Human-readable one-liner used by reports."""
        involved = ", ".join(str(c) for c in self.cells)
        return f"{self.fault_class.value} @ {involved}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class CellFault(Fault):
    """Base for faults that hook the per-cell access path.

    The :class:`repro.memory.SRAM` calls the ``on_read`` / ``on_write`` /
    ``on_nwrc_write`` / ``on_aggressor_transition`` hooks; the defaults here
    are transparent so subclasses override only what their fault perturbs.
    """

    def attach(self, memory: "SRAM") -> None:
        memory.add_cell_fault(self)

    def on_read(self, memory: "SRAM", word: int, bit: int, stored_bit: int) -> int:
        """Value observed when reading the victim cell."""
        return stored_bit

    def on_write(
        self, memory: "SRAM", word: int, bit: int, old_bit: int, new_bit: int
    ) -> int:
        """Value actually stored by a normal write to the victim cell."""
        return new_bit

    def on_nwrc_write(
        self, memory: "SRAM", word: int, bit: int, old_bit: int, new_bit: int
    ) -> int:
        """Value actually stored by an NWRC write (defaults to normal write)."""
        return self.on_write(memory, word, bit, old_bit, new_bit)

    def on_aggressor_transition(
        self, memory: "SRAM", word: int, bit: int, old_bit: int, new_bit: int
    ) -> None:
        """React to a transition of a watched aggressor cell."""


class _HookProbe:
    """Stand-in memory that records a read hook's ``force_stored_bit``.

    A static fault's hooks touch no memory state but their victim's
    stored bit, so this one method is all they may call.
    """

    __slots__ = ("stored",)

    def force_stored_bit(self, word: int, bit: int, value: int) -> None:
        self.stored = value


class StaticCellFault(CellFault):
    """A memoryless single-cell fault, lowered by tabulating its hooks.

    Its writes are functions of (written bit, old bit) alone, its reads of
    the stored bit alone, and a read may rewrite only the victim cell.
    :meth:`lower` therefore runs the fault's own ``on_write``,
    ``on_nwrc_write`` and ``on_read`` over every input and records where
    each departs from a fault-free cell, so the compiled table and the
    reference simulator execute the same definition.
    """

    def vector_lowerable(self) -> bool:
        return True

    def lower(self) -> LoweredFault:
        cell = self.victims[0]
        word, bit = cell.word, cell.bit
        probe = _HookProbe()
        write_flips = nwrc_flips = 0
        for written in (0, 1):
            for old in (0, 1):
                slot = 1 << (2 * written + old)
                if self.on_write(probe, word, bit, old, written) != written:
                    write_flips |= slot
                if self.on_nwrc_write(probe, word, bit, old, written) != written:
                    nwrc_flips |= slot
        read_flips = after_read_flips = 0
        for stored in (0, 1):
            probe.stored = stored
            if self.on_read(probe, word, bit, stored) != stored:
                read_flips |= 1 << stored
            if probe.stored != stored:
                after_read_flips |= 1 << stored
        return LoweredFault(
            KIND_STATIC,
            cell,
            write_flips=write_flips,
            nwrc_flips=nwrc_flips,
            read_flips=read_flips,
            after_read_flips=after_read_flips,
        )
