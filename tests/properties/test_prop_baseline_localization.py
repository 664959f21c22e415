"""Effective-mode baseline localization against the min/remove oracle.

``HuangJoneScheme`` orders each memory's M1 and DRF lists once per
capture direction and takes faults from the front.  The oracle below is
the plain per-iteration scan: the right-shift capture takes the
remaining fault with the lowest ``(word, -bit)`` primary cell and the
left-shift capture the lowest ``(word, bit)``, each removed before the
next pick.  Fault lists with repeated primary cells, DRF on and off and
``max_iterations`` cut-offs must give the same report, localization
order included -- also when a sampled population is injected as rows
(the oracle reads its objects, the scheme its columns).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.scheme import BaselineReport, HuangJoneScheme, LocalizedFault
from repro.faults.base import M1_LOCALIZABLE_CLASSES
from repro.faults.coupling import InversionCouplingFault
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.weak_cell import WeakCellDefect
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM

#: Tiny arrays, so drawn faults pile up on the same primary cells.
WORDS, BITS = 4, 3

KINDS = ["saf", "tf", "cfin", "drf", "weak"]


def make_fault(kind: str, word: int, bit: int):
    cell = CellRef(word, bit)
    if kind == "saf":
        return StuckAtFault(cell, value=1)
    if kind == "tf":
        return TransitionFault(cell, rising=True)
    if kind == "cfin":
        aggressor = CellRef((word + 1) % WORDS, bit)
        return InversionCouplingFault(aggressor, cell, trigger_rising=True)
    if kind == "drf":
        return DataRetentionFault(cell, fragile_value=1)
    return WeakCellDefect(cell, weak_value=1)


fault_specs = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=WORDS - 1),
        st.integers(min_value=0, max_value=BITS - 1),
    ),
    max_size=14,
)


def _primary(fault) -> CellRef:
    return fault.victims[0]


def oracle_report(bank, injector, include_drf, max_iterations) -> BaselineReport:
    """Effective mode as a min/remove scan over the remaining faults."""
    report = BaselineReport(
        iterations=0,
        include_drf=include_drf,
        controller_words=bank.max_words,
        controller_bits=bank.max_bits,
    )
    remaining = {}
    drf_pending = {}
    for memory in bank:
        faults = injector.faults_for(memory.name)
        remaining[memory.name] = [
            f for f in faults if f.fault_class in M1_LOCALIZABLE_CLASSES
        ]
        retention = [f for f in faults if f.fault_class.is_retention]
        if include_drf:
            drf_pending[memory.name] = retention
        else:
            report.missed.extend((memory.name, f) for f in retention)
        report.missed.extend(
            (memory.name, f)
            for f in faults
            if f.fault_class not in M1_LOCALIZABLE_CLASSES
            and not f.fault_class.is_retention
        )

    def localize_pair(name, faults):
        for direction, key in (
            ("right", lambda f: (_primary(f).word, -_primary(f).bit)),
            ("left", lambda f: (_primary(f).word, _primary(f).bit)),
        ):
            if not faults:
                return
            picked = min(faults, key=key)
            faults.remove(picked)
            report.localized.append(
                LocalizedFault(
                    name,
                    _primary(picked),
                    report.iterations,
                    direction,
                    picked.fault_class.value,
                )
            )

    limit = max_iterations if max_iterations is not None else 10_000_000
    while any(remaining.values()) or any(drf_pending.values()):
        if report.iterations >= limit:
            break
        report.iterations += 1
        for name, faults in remaining.items():
            localize_pair(name, faults)
        for name, faults in drf_pending.items():
            localize_pair(name, faults)
    return report


#: An optional sampled population per memory, injected as rows:
#: ``(defect rate, seed, before the single faults?)``.
populations = st.none() | st.tuples(
    st.sampled_from([0.5, 1.0]), st.integers(0, 1000), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    per_memory=st.lists(fault_specs, min_size=1, max_size=3),
    include_drf=st.booleans(),
    max_iterations=st.none() | st.integers(min_value=0, max_value=6),
    population=populations,
)
def test_sort_once_matches_min_remove(
    per_memory, include_drf, max_iterations, population
):
    bank = MemoryBank(
        [
            SRAM(MemoryGeometry(WORDS, BITS, f"m{index}"))
            for index in range(len(per_memory))
        ]
    )
    injector = FaultInjector()
    for memory, specs in zip(bank, per_memory):
        rows = None
        if population is not None:
            rate, seed, first = population
            rows = sample_population(memory.geometry, rate, rng=seed)
            if first:
                injector.inject(memory, rows)
        injector.inject(memory, [make_fault(*spec) for spec in specs])
        if rows is not None and not first:
            injector.inject(memory, rows)

    actual = HuangJoneScheme(bank).diagnose(
        injector, include_drf=include_drf, max_iterations=max_iterations
    )
    expected = oracle_report(bank, injector, include_drf, max_iterations)
    assert actual.iterations == expected.iterations
    assert actual.localized == expected.localized
    assert [(name, id(f)) for name, f in actual.missed] == [
        (name, id(f)) for name, f in expected.missed
    ]


def test_tied_primary_cells_take_the_earlier_injection_first():
    memory = SRAM(MemoryGeometry(WORDS, BITS, "tie"))
    first = StuckAtFault(CellRef(1, 2), value=1)
    second = TransitionFault(CellRef(1, 2), rising=True)
    injector = FaultInjector()
    injector.inject(memory, [first, second])
    report = HuangJoneScheme(MemoryBank([memory])).diagnose(injector)
    assert [f.fault_class for f in report.localized] == [
        first.fault_class.value,
        second.fault_class.value,
    ]
    assert [f.direction for f in report.localized] == ["right", "left"]
