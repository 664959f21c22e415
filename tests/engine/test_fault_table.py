"""Compiled fault table: lowering protocol, partition and round-trips.

The contract under test: for every lowerable fault class, evaluating the
lowered table representation over a geometry bucket produces *bit-identical*
sessions to the behavioural object replay (the reference scheme), on
randomized populations -- dense ones included -- while non-lowerable
faults (intra-word coupling, shared-cell chains) stay on the exact
behavioural lane via the taint partition.  The stateful-but-
analytic kinds (counter-based intermittent/SEU, retention decay) lower
too, draw counters and decay clocks evaluated in closed form.

The plan-cache tests pin the second half of the dense-regime work: session
element plans are memoized across campaigns sharing a (march, geometry)
pair, with the hit rate surfaced through ``FleetReport``.
"""

from __future__ import annotations

import pytest

from repro.core.scheme import FastDiagnosisScheme
from repro.engine import batched
from repro.engine.fault_table import lower_bucket, partition_faults
from repro.engine.session import (
    plan_cache_stats,
    reset_plan_cache,
    run_session,
    session_step_plans,
)
from repro.faults.base import (
    KIND_CF_ID,
    KIND_CF_IN,
    KIND_CF_ST,
    KIND_DRF,
    KIND_INT_READ,
    KIND_SEU,
    KIND_STATIC,
    FaultClass,
    StaticCellFault,
)
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.dynamic import (
    DeceptiveReadDestructiveFault,
    IncorrectReadFault,
    ReadDestructiveFault,
    WriteDisturbFault,
)
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import IntermittentReadFault, SoftErrorUpsetFault
from repro.faults.population import sample_population
from repro.faults.retention_fault import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.weak_cell import WeakCellDefect
from repro.march.library import march_c_minus, march_cw_nw, march_ss
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.telemetry.core import activate, deactivate
from repro.util.rng import make_rng


def cell_picker(geometry, rng):
    """Draw distinct cells of ``geometry`` on demand.

    ``pick(word)`` takes the next cell outside ``word``: coupling
    aggressors come from the same picker, in a word other than their
    victim's, so they never land on another fault's cell.  An exhausted
    picker raises ``StopIteration``.
    """
    remaining = [geometry.cell_at(int(i)) for i in rng.permutation(geometry.cells)]

    def pick(avoid_word: int | None = None) -> CellRef:
        for position, cell in enumerate(remaining):
            if cell.word != avoid_word:
                return remaining.pop(position)
        raise StopIteration

    return pick


#: label -> factory(geometry, pick, rng) for each lowerable class.
LOWERABLE_CLASSES = {
    "stuck-at": lambda g, pick, rng: StuckAtFault(pick(), int(rng.integers(2))),
    "transition": lambda g, pick, rng: TransitionFault(
        pick(), bool(rng.integers(2))
    ),
    "incorrect-read": lambda g, pick, rng: IncorrectReadFault(pick()),
    "read-destructive": lambda g, pick, rng: ReadDestructiveFault(pick()),
    "deceptive-read-destructive": lambda g, pick, rng: (
        DeceptiveReadDestructiveFault(pick())
    ),
    "write-disturb": lambda g, pick, rng: WriteDisturbFault(
        pick(), [None, 0, 1][int(rng.integers(3))]
    ),
    "weak-cell": lambda g, pick, rng: WeakCellDefect(pick(), int(rng.integers(2))),
    "cf-inversion": lambda g, pick, rng: InversionCouplingFault(
        pick((c := pick()).word), c, bool(rng.integers(2))
    ),
    "cf-idempotent": lambda g, pick, rng: IdempotentCouplingFault(
        pick((c := pick()).word),
        c,
        bool(rng.integers(2)),
        int(rng.integers(2)),
    ),
    "cf-state": lambda g, pick, rng: StateCouplingFault(
        pick((c := pick()).word),
        c,
        int(rng.integers(2)),
        int(rng.integers(2)),
        bool(rng.integers(2)),
    ),
    "intermittent-read": lambda g, pick, rng: IntermittentReadFault(
        pick(), float(rng.uniform(0.05, 0.6)), seed=int(rng.integers(2**31))
    ),
    "soft-error": lambda g, pick, rng: SoftErrorUpsetFault(
        pick(), float(rng.uniform(0.05, 0.6)), seed=int(rng.integers(2**31))
    ),
    # Retention times short enough that decay fires mid-march on these
    # small geometries (accesses land every few tens of ns).
    "retention": lambda g, pick, rng: DataRetentionFault(
        pick(), int(rng.integers(2)), retention_ns=float(rng.integers(5, 400) * 10)
    ),
}

ALGORITHMS = (march_cw_nw, march_ss, march_c_minus)


def bucket_bank(seed: int) -> MemoryBank:
    """A bank whose geometries force stacking *and* sweep wrap-around."""
    rng = make_rng(seed)
    words, bits = int(rng.integers(4, 20)), int(rng.integers(2, 10))
    shapes = [(words, bits)] * int(rng.integers(2, 4))
    # A larger outlier memory widens the controller span so the bucket's
    # sweep wraps (partial trailing block) half of the time.
    if rng.integers(2):
        shapes.append((words * 2 + 1, bits))
    return MemoryBank(
        [SRAM(MemoryGeometry(w, b, f"m{i}")) for i, (w, b) in enumerate(shapes)]
    )


def inject_class(bank, label, seed) -> None:
    injector = FaultInjector()
    for index, memory in enumerate(bank):
        rng = make_rng(seed * 1000 + index)
        pick = cell_picker(memory.geometry, rng)
        count = max(1, memory.geometry.cells // 4)
        faults = []
        for _ in range(count):
            try:
                faults.append(LOWERABLE_CLASSES[label](memory.geometry, pick, rng))
            except StopIteration:
                break
        injector.inject(memory, faults)


@pytest.fixture
def always_table(monkeypatch):
    """Threshold 0: every hooked bucket compiles its table."""
    monkeypatch.setattr(batched, "TABLE_MIN_HOOKED_ROWS", 0)


def assert_sessions_identical(label, algorithm, seed, inject):
    banks = {}
    for backend in ("reference", "batched"):
        bank = bucket_bank(seed)
        inject(bank)
        banks[backend] = bank
    reference = FastDiagnosisScheme(
        banks["reference"], algorithm_factory=algorithm
    ).diagnose()
    batched = run_session(
        FastDiagnosisScheme(banks["batched"], algorithm_factory=algorithm),
        backend="batched",
    )
    assert batched.failures == reference.failures, label
    assert batched.cycles == reference.cycles, label
    assert batched.time_ns == reference.time_ns, label
    for ref_mem, fast_mem in zip(banks["reference"], banks["batched"]):
        assert fast_mem.dump() == ref_mem.dump(), (label, ref_mem.name)
        assert fast_mem.timebase.cycles == ref_mem.timebase.cycles, label


class TestLoweringProtocol:
    def test_lowerable_classes_opt_in(self):
        cell = CellRef(1, 0)
        assert StuckAtFault(cell, 1).vector_lowerable()
        assert TransitionFault(cell, True).vector_lowerable()
        assert IncorrectReadFault(cell).vector_lowerable()
        assert ReadDestructiveFault(cell).vector_lowerable()
        assert DeceptiveReadDestructiveFault(cell).vector_lowerable()
        assert WriteDisturbFault(cell).vector_lowerable()
        assert WeakCellDefect(cell).vector_lowerable()

    def test_stateful_analytic_classes_lower(self):
        cell = CellRef(1, 0)
        assert DataRetentionFault(cell, 1).vector_lowerable()
        assert IntermittentReadFault(cell, 0.5).vector_lowerable()
        assert SoftErrorUpsetFault(cell, 0.5).vector_lowerable()

    def test_coupling_lowerable_only_inter_word(self):
        inter = InversionCouplingFault(CellRef(0, 1), CellRef(2, 1))
        intra = InversionCouplingFault(CellRef(0, 1), CellRef(0, 2))
        assert inter.vector_lowerable()
        assert not intra.vector_lowerable()

    def test_lower_payloads(self):
        stuck = StuckAtFault(CellRef(3, 2), 1).lower()
        assert (stuck.kind, stuck.victim) == (KIND_STATIC, CellRef(3, 2))
        assert (
            stuck.write_flips,
            stuck.nwrc_flips,
            stuck.read_flips,
            stuck.after_read_flips,
        ) == (0b0011, 0b0011, 0b01, 0b00)
        cf = StateCouplingFault(
            CellRef(0, 1), CellRef(2, 3), aggressor_state=0, forced_value=1,
            affects_write=False,
        ).lower()
        assert cf.kind == KIND_CF_ST
        assert cf.aggressor == CellRef(0, 1)
        assert (cf.aggressor_state, cf.value, cf.affects_write) == (0, 1, False)
        retention = DataRetentionFault(CellRef(1, 2), 1, retention_ns=250.0)
        drf = retention.lower()
        assert (drf.kind, drf.value, drf.retention_ns) == (KIND_DRF, 1, 250.0)
        assert drf.written_at_ns is None
        assert drf.source is retention
        fault = IntermittentReadFault(CellRef(0, 1), 0.25, seed=7)
        fault._upset()  # consume one draw: counter_base must carry it
        low = fault.lower()
        assert (low.kind, low.probability, low.seed, low.counter_base) == (
            KIND_INT_READ,
            0.25,
            7,
            1,
        )
        assert low.source is fault

    def test_base_fault_defaults_conservative(self):
        from repro.faults.base import Fault

        fault = Fault()
        assert not fault.vector_lowerable()
        with pytest.raises(NotImplementedError):
            fault.lower()


#: label -> (factory, write, NWRC write, observed-read, after-read flips).
#: Write masks hold bit ``2 * written + old`` where the stored bit is not
#: the written one; read masks hold bit ``stored`` where the observed or
#: the after-read bit is not the stored one.
STATIC_FLIPS = {
    "stuck-at-0": (lambda c: StuckAtFault(c, 0), 0b1100, 0b1100, 0b10, 0b00),
    "stuck-at-1": (lambda c: StuckAtFault(c, 1), 0b0011, 0b0011, 0b01, 0b00),
    "transition-up": (lambda c: TransitionFault(c, True), 0b0100, 0b0100, 0, 0),
    "transition-down": (lambda c: TransitionFault(c, False), 0b0010, 0b0010, 0, 0),
    "weak-0": (lambda c: WeakCellDefect(c, 0), 0, 0b0010, 0, 0),
    "weak-1": (lambda c: WeakCellDefect(c, 1), 0, 0b0100, 0, 0),
    "write-disturb-both": (
        lambda c: WriteDisturbFault(c, None), 0b1001, 0b1001, 0, 0
    ),
    "write-disturb-0": (lambda c: WriteDisturbFault(c, 0), 0b0001, 0b0001, 0, 0),
    "write-disturb-1": (lambda c: WriteDisturbFault(c, 1), 0b1000, 0b1000, 0, 0),
    "incorrect-read": (IncorrectReadFault, 0, 0, 0b11, 0),
    "read-destructive": (ReadDestructiveFault, 0, 0, 0b11, 0b11),
    "deceptive-read-destructive": (DeceptiveReadDestructiveFault, 0, 0, 0, 0b11),
}


class TestStaticLowering:
    """Static faults lower to the flip masks of their own hooks."""

    @pytest.mark.parametrize("label", sorted(STATIC_FLIPS))
    def test_flip_masks(self, label):
        factory, *flips = STATIC_FLIPS[label]
        fault = factory(CellRef(2, 5))
        assert isinstance(fault, StaticCellFault)
        assert fault.vector_lowerable()
        low = fault.lower()
        assert (low.kind, low.victim) == (KIND_STATIC, CellRef(2, 5))
        assert [
            low.write_flips,
            low.nwrc_flips,
            low.read_flips,
            low.after_read_flips,
        ] == flips


class NwrcComplementCell(StaticCellFault):
    """Test-only static fault: NWRC writes store the complement."""

    fault_class = FaultClass.WEAK

    def __init__(self, cell: CellRef) -> None:
        self.victims = (cell,)

    def on_nwrc_write(self, memory, word, bit, old_bit, new_bit):
        return 1 - new_bit


class LeakyOneReadCell(StaticCellFault):
    """Test-only static fault: reading a 1 observes it, then leaves a 0."""

    fault_class = FaultClass.DRDF

    def __init__(self, cell: CellRef) -> None:
        self.victims = (cell,)

    def on_read(self, memory, word, bit, stored_bit):
        if stored_bit:
            memory.force_stored_bit(word, bit, 0)
        return stored_bit


class TestHookDefinedStaticFault:
    """A static fault defined by its hooks alone lowers and round-trips."""

    def test_lowering_tabulates_the_hooks(self):
        nwrc = NwrcComplementCell(CellRef(0, 0)).lower()
        assert (nwrc.write_flips, nwrc.nwrc_flips) == (0, 0b1111)
        assert (nwrc.read_flips, nwrc.after_read_flips) == (0, 0)
        leaky = LeakyOneReadCell(CellRef(0, 0)).lower()
        assert (leaky.write_flips, leaky.nwrc_flips) == (0, 0)
        assert (leaky.read_flips, leaky.after_read_flips) == (0, 0b10)

    @pytest.mark.usefixtures("always_table")
    @pytest.mark.parametrize("fault_type", [NwrcComplementCell, LeakyOneReadCell])
    @pytest.mark.parametrize("case", range(3))
    def test_round_trips_on_the_table_lane(self, fault_type, case):
        def inject(bank):
            injector = FaultInjector()
            for index, memory in enumerate(bank):
                pick = cell_picker(memory.geometry, make_rng(0x57A + case + index))
                count = max(1, memory.geometry.cells // 4)
                injector.inject(memory, [fault_type(pick()) for _ in range(count)])

        # March CW-NW has normal writes, NWRC writes and repeated reads.
        assert_sessions_identical(
            fault_type.__name__, march_cw_nw, seed=0x57A + case * 17, inject=inject
        )


class TestPartition:
    @staticmethod
    def memory(words=8, bits=4) -> SRAM:
        return SRAM(MemoryGeometry(words, bits, "part"))

    def test_pure_lowerable_population_has_no_replay_words(self):
        memory = self.memory()
        FaultInjector().inject(
            memory,
            [StuckAtFault(CellRef(1, 0), 1), TransitionFault(CellRef(5, 2), False)],
        )
        lowered, tainted = partition_faults(memory)
        assert {spec.victim.word for spec in lowered} == {1, 5}
        assert tainted == set()

    def test_non_lowerable_fault_taints_its_word(self):
        memory = self.memory()
        FaultInjector().inject(
            memory,
            [
                InversionCouplingFault(CellRef(2, 0), CellRef(2, 1)),
                StuckAtFault(CellRef(3, 0), 0),
            ],
        )
        lowered, tainted = partition_faults(memory)
        assert tainted == {2}
        assert {spec.victim.word for spec in lowered} == {3}

    def test_taint_propagates_across_coupling_edges(self):
        # An intra-word coupling on word 4 (the coupling's aggressor word)
        # must drag the victim word 6 onto the behavioural lane with it --
        # and vice versa, a tainted victim word pins its aggressor word.
        memory = self.memory()
        FaultInjector().inject(
            memory,
            [
                InversionCouplingFault(CellRef(4, 0), CellRef(4, 1)),
                InversionCouplingFault(CellRef(4, 2), CellRef(6, 0)),
            ],
        )
        lowered, tainted = partition_faults(memory)
        assert tainted == {4, 6}
        assert lowered == []

    def test_taint_propagates_transitively(self):
        memory = self.memory()
        FaultInjector().inject(
            memory,
            [
                InversionCouplingFault(CellRef(0, 2), CellRef(0, 0)),
                IdempotentCouplingFault(CellRef(0, 1), CellRef(2, 1)),
                StateCouplingFault(CellRef(2, 3), CellRef(7, 0)),
                StuckAtFault(CellRef(5, 1), 1),
            ],
        )
        lowered, tainted = partition_faults(memory)
        assert tainted == {0, 2, 7}
        assert {spec.victim.word for spec in lowered} == {5}

    def test_shared_cell_keeps_both_faults_behavioural(self):
        memory = self.memory()
        FaultInjector().inject(
            memory,
            [StuckAtFault(CellRef(1, 2), 1), TransitionFault(CellRef(1, 2), True)],
        )
        lowered, tainted = partition_faults(memory)
        assert lowered == []
        assert tainted == {1}

    def test_intra_word_coupling_stays_behavioural(self):
        memory = self.memory()
        FaultInjector().inject(
            memory, [InversionCouplingFault(CellRef(3, 0), CellRef(3, 2))]
        )
        lowered, tainted = partition_faults(memory)
        assert lowered == []
        assert tainted == {3}

    def test_lower_bucket_partitions_three_ways(self):
        memories = [self.memory(), self.memory()]
        FaultInjector().inject(
            memories[0],
            [
                StuckAtFault(CellRef(1, 0), 1),
                InversionCouplingFault(CellRef(2, 1), CellRef(2, 0)),
                # Untainted inter-word coupling: aggressor word 6 carries
                # only the watch and stays on the *clean* lane.
                InversionCouplingFault(CellRef(6, 1), CellRef(4, 1)),
            ],
        )
        lanes = lower_bucket(memories)
        assert lanes.table is not None
        table_masks = lanes.vector_masks & ~lanes.clean_masks
        assert lanes.replay_masks[0].nonzero()[0].tolist() == [2]
        assert table_masks[0].nonzero()[0].tolist() == [1, 4]
        assert lanes.table.rows_flat.tolist() == [1, 4]
        assert lanes.clean_masks[0, 6]
        assert not lanes.replay_masks[1].any()
        assert not table_masks[1].any()
        assert lanes.vector_masks[0].sum() == 7
        assert lanes.vector_masks[1].all()


def reference_partition(faults):
    """The per-object partition loop the array rule replaced."""
    participation: dict[tuple[int, int], int] = {}
    for fault in faults:
        for cell in fault.cells:
            key = (cell.word, cell.bit)
            participation[key] = participation.get(key, 0) + 1
    candidates, tainted, edges = [], set(), []
    for fault in faults:
        words = {cell.word for cell in fault.cells}
        if fault.aggressors:
            edges.append(tuple(words))
        if fault.vector_lowerable() and all(
            participation[(cell.word, cell.bit)] == 1 for cell in fault.cells
        ):
            candidates.append(fault)
        else:
            tainted |= words
    changed = True
    while changed:
        changed = False
        for words in edges:
            if any(word in tainted for word in words) and not tainted.issuperset(words):
                tainted.update(words)
                changed = True
    lowered = [
        fault
        for fault in candidates
        if all(cell.word not in tainted for cell in fault.cells)
    ]
    return lowered, tainted


class TestPartitionRule:
    """The array rule against the per-object loop, objects and rows mixed."""

    @pytest.mark.parametrize("case", range(4))
    def test_matches_object_loop(self, case):
        bank = bucket_bank(0x31 + case)
        inject_mixed(bank, case)
        for index, memory in enumerate(bank):
            FaultInjector().inject(
                memory, sample_population(memory.geometry, 0.3, rng=case * 7 + index)
            )
        for memory in bank:
            lowered, tainted = partition_faults(memory)
            expected, expected_tainted = reference_partition(memory.cell_faults)
            assert tainted == expected_tainted
            assert sorted(map(repr, lowered)) == sorted(
                repr(fault.lower()) for fault in expected
            )


@pytest.mark.usefixtures("always_table")
@pytest.mark.parametrize("label", sorted(LOWERABLE_CLASSES))
@pytest.mark.parametrize("case", range(3))
class TestLoweredRoundTrip:
    """Lowered table evaluation == behavioural object replay, per class.

    Every class/case pair puts faults on the table lane, so the
    comparison is never between two replays.
    """

    def test_class_population_round_trips(self, label, case):
        algorithm = ALGORITHMS[case % len(ALGORITHMS)]
        tr = activate()
        try:
            assert_sessions_identical(
                label,
                algorithm,
                seed=0xFA0 + case * 17,
                inject=lambda bank: inject_class(bank, label, 0xFA0 + case),
            )
        finally:
            deactivate()
        assert tr.counters.get("table.lowered_faults") > 0, label


def inject_mixed(bank, case) -> None:
    """Every lowerable class on distinct cells, plus replay-lane neighbours."""
    injector = FaultInjector()
    seed = 0xABC + case
    for index, memory in enumerate(bank):
        # One picker per memory, so the classes land on distinct cells.
        pick = cell_picker(memory.geometry, make_rng(seed * 1000 + index))
        count = max(1, memory.geometry.cells // 26)
        faults = []
        try:
            for label in sorted(LOWERABLE_CLASSES):
                rng = make_rng(seed * 1000 + index)
                for _ in range(count):
                    faults.append(LOWERABLE_CLASSES[label](memory.geometry, pick, rng))
        except StopIteration:
            pass  # a small memory runs out of distinct cells
        rng = make_rng(0xDEF + case * 100 + index)
        pick = cell_picker(memory.geometry, rng)
        faults += [
            DataRetentionFault(
                pick(),
                int(rng.integers(2)),
                retention_ns=float(rng.integers(5, 200) * 10),
            ),
            IntermittentReadFault(pick(), 0.4, seed=case),
        ]
        # An intra-word coupling fault keeps the behavioural replay lane
        # exercised alongside the table lane.
        victim = pick()
        aggressor = CellRef(victim.word, (victim.bit + 1) % memory.bits)
        faults.append(InversionCouplingFault(aggressor, victim))
        injector.inject(memory, faults)


@pytest.mark.usefixtures("always_table")
class TestMixedRoundTrip:
    """All lowerable classes together, plus behavioural-lane neighbours."""

    @pytest.mark.parametrize("case", range(4))
    def test_mixed_population_round_trips(self, case):
        tr = activate()
        try:
            assert_sessions_identical(
                "mixed",
                ALGORITHMS[case % len(ALGORITHMS)],
                0x31 + case,
                lambda bank: inject_mixed(bank, case),
            )
        finally:
            deactivate()
        assert tr.counters.get("lane.table.words") > 0

    def test_cases_lower_every_kind(self):
        kinds = set()
        for case in range(4):
            bank = bucket_bank(0x31 + case)
            inject_mixed(bank, case)
            for memory in bank:
                kinds |= {spec.kind for spec in partition_faults(memory)[0]}
        assert kinds == {
            KIND_STATIC,
            KIND_CF_IN,
            KIND_CF_ID,
            KIND_CF_ST,
            KIND_INT_READ,
            KIND_SEU,
            KIND_DRF,
        }


class TestPlanCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        reset_plan_cache()
        yield
        reset_plan_cache()

    @staticmethod
    def scheme(words=6, bits=4, count=2) -> FastDiagnosisScheme:
        bank = MemoryBank(
            [SRAM(MemoryGeometry(words, bits, f"c{i}")) for i in range(count)]
        )
        return FastDiagnosisScheme(bank)

    def test_same_march_and_geometry_hits(self):
        scheme = self.scheme()
        algorithm = scheme.algorithm_factory(scheme.controller_bits)
        first = session_step_plans(scheme, scheme.bank[0], algorithm)
        assert plan_cache_stats() == (0, 1)
        # Same widths, different session, different algorithm *instance*.
        other = self.scheme()
        second = session_step_plans(
            other, other.bank[0], other.algorithm_factory(other.controller_bits)
        )
        assert plan_cache_stats() == (1, 1)
        assert second is first

    def test_distinct_widths_miss(self):
        scheme = self.scheme()
        algorithm = scheme.algorithm_factory(scheme.controller_bits)
        session_step_plans(scheme, scheme.bank[0], algorithm)
        narrow = self.scheme(bits=3)
        session_step_plans(
            narrow, narrow.bank[0], narrow.algorithm_factory(narrow.controller_bits)
        )
        assert plan_cache_stats() == (0, 2)

    def test_delivery_order_is_part_of_the_key(self):
        msb = self.scheme()
        session_step_plans(
            msb, msb.bank[0], msb.algorithm_factory(msb.controller_bits)
        )
        lsb = self.scheme()
        lsb.msb_first = False
        session_step_plans(
            lsb, lsb.bank[0], lsb.algorithm_factory(lsb.controller_bits)
        )
        assert plan_cache_stats() == (0, 2)

    def test_lru_bound(self):
        from repro.engine import session as session_module

        for bits in range(2, 2 + session_module._PLAN_CACHE_MAX + 10):
            scheme = self.scheme(bits=bits, count=1)
            session_step_plans(
                scheme,
                scheme.bank[0],
                scheme.algorithm_factory(scheme.controller_bits),
            )
        assert len(session_module._PLAN_CACHE) == session_module._PLAN_CACHE_MAX

    def test_fleet_report_surfaces_hit_rate(self):
        from repro.engine.fleet import FleetSpec, run_fleet

        spec = FleetSpec(memories=2, campaigns=3, defect_rate=0.004)
        report = run_fleet(spec, workers=1)
        assert report.plan_cache_misses >= 1
        assert report.plan_cache_hits > 0  # later campaigns reuse plans
        assert 0.0 < report.plan_cache_hit_rate < 1.0
        payload = report.to_json_dict()
        assert payload["plan_cache"]["hits"] == report.plan_cache_hits
        assert payload["plan_cache"]["hit_rate"] == report.plan_cache_hit_rate
        assert "plan_cache" not in report.deterministic_dict()
        assert any("plan cache" in line for line in report.summary_lines())
