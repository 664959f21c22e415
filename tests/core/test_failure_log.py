"""The columnar failure log: record order, cell ids and laziness.

Three layers are pinned here:

* the session hit accumulator (:class:`repro.engine.kernel.SessionHits`)
  over random raw hit sets -- vector chunks and scalar hits in any
  insertion order, two-lane words, descending and wrapping sweeps, with
  and without its once-per-session SEC-DED decode -- materializes exactly
  the reference record order of the scalar decode path, its observers
  match scalar :class:`~repro.ecc.observer.EccObserver` summaries, and
  its cell ids are the union of the records' ``failing_cells()``;
* whole sessions: every engine backend's logs equal the reference
  simulator's record lists, with matching cell ids and addresses;
* a batched campaign builds no ``FailureRecord`` unless something reads
  the records.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import DiagnosisCampaign
from repro.core.failure_log import FailureLog
from repro.core.scheme import FastDiagnosisScheme
from repro.ecc.code import secded_code
from repro.ecc.observer import EccConfig, EccObserver
from repro.engine.kernel import ElementPlan, OpPlan, SessionHits
from repro.engine.packing import np, pack_state
from repro.engine.session import run_session
from repro.faults.coupling import InversionCouplingFault
from repro.faults.intermittent import IntermittentReadFault, SoftErrorUpsetFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.march.algorithm import PauseStep
from repro.march.ops import Operation, OpKind
from repro.march.simulator import FailureRecord
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.soc.case_study import case_study_soc

TWO_LANE_BITS = 100


def cell_union(records, bits: int) -> list[int]:
    """Reference cell ids: the union of every record's failing cells."""
    return sorted(
        {
            cell.word * bits + cell.bit
            for record in records
            for cell in record.failing_cells()
        }
    )


@st.composite
def hit_sessions(draw):
    """A random session plan plus a random set of mismatching reads.

    Returns ``(bits, words, plans, hits)`` mapping ``(member, step,
    position, op)`` to ``(address, expected, raw_observed)``.  Error
    patterns favour one and two flipped bits, the weights SEC-DED masks
    and flags, over arbitrary ones.
    """
    bits = TWO_LANE_BITS
    words = draw(st.integers(min_value=1, max_value=6))
    sweep = draw(st.integers(min_value=words, max_value=3 * words))
    word = st.integers(min_value=0, max_value=(1 << bits) - 1)
    plans = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            plans.append(PauseStep(1.0))
        kinds = draw(st.lists(st.booleans(), min_size=1, max_size=3))
        kinds[draw(st.integers(0, len(kinds) - 1))] = True  # at least one read
        ops = tuple(
            OpPlan(
                op=Operation(OpKind.READ if is_read else OpKind.WRITE, 1),
                operation=f"{'r' if is_read else 'w'}{index}",
                write_word=None if is_read else draw(word),
                expected_plain=draw(word) if is_read else None,
                expected_wrapped=draw(word) if is_read else None,
                tick_cost=1,
            )
            for index, is_read in enumerate(kinds)
        )
        plans.append(
            ElementPlan(
                step_index=len(plans),
                step_label=f"M{len(plans)}",
                record_background=draw(word),
                deliver_ticks=0,
                ascending=draw(st.booleans()),
                sweep_length=sweep,
                ops=ops,
            )
        )
    elements = [plan for plan in plans if isinstance(plan, ElementPlan)]
    keys = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(elements),
                st.integers(0, sweep - 1),
                st.integers(0, 2),
            ),
            max_size=40,
        )
    )
    hits = {}
    for member, plan, position, op in keys:
        reads = [i for i, op_plan in enumerate(plan.ops) if op_plan.op.is_read]
        op = reads[op % len(reads)]
        op_plan = plan.ops[op]
        wrapped = position >= words
        expected = op_plan.expected_wrapped if wrapped else op_plan.expected_plain
        local = (position if plan.ascending else sweep - 1 - position) % words
        flipped = draw(
            st.one_of(
                st.lists(st.integers(0, bits - 1), min_size=1, max_size=2),
                st.just([]),
            )
        )
        if flipped:
            syndrome = sum({1 << bit for bit in flipped})
        else:
            syndrome = draw(st.integers(min_value=1, max_value=(1 << bits) - 1))
        hits[(member, plan.step_index, position, op)] = (
            local,
            expected,
            expected ^ syndrome,
        )
    return bits, words, plans, hits


class TestSessionHitsProperty:
    @settings(max_examples=120, deadline=None)
    @given(hit_sessions(), st.booleans(), st.data())
    def test_logs_materialize_reference_order_and_cells(
        self, session, with_ecc, data
    ):
        """Raw mismatches in, any lane mix and add order: the logs and
        observer summaries equal the scalar decode path's."""
        bits, words, plans, hits = session
        lanes = 2
        names = ["m0", "m1", "m2"]
        code = secded_code(bits)
        scalar_observers = [EccObserver(name, code) for name in names]
        expected_records = {name: [] for name in names}
        vector_groups: dict[tuple, list] = {}
        scalar_groups: dict[tuple, list] = {}
        for key in sorted(hits):
            member, step, position, op = key
            local, expected, raw = hits[key]
            observed = raw
            if with_ecc:
                observed = scalar_observers[member].observe(local, expected, raw)
            if observed != expected:
                plan = plans[step]
                expected_records[names[member]].append(
                    FailureRecord(
                        names[member], step, plan.step_label, op,
                        plan.ops[op].operation, local, plan.record_background,
                        expected, observed,
                    )
                )
            if data.draw(st.booleans(), label="vector lane"):
                vector_groups.setdefault((step, op, position >= words), []).append(
                    (member, position, local, expected, raw)
                )
            else:
                scalar_groups.setdefault((member, step), []).append(
                    (position, op, local, expected, raw)
                )

        additions = []
        for (step, op, _), rows in vector_groups.items():
            member, position, local, expected, raw = zip(*rows)
            additions.append(
                (
                    "add",
                    (
                        np.array(member, dtype=np.int64),
                        step,
                        op,
                        np.array(position, dtype=np.int64),
                        np.array(local, dtype=np.int64),
                        pack_state([expected[0]], lanes)[0],
                        pack_state(raw, lanes),
                    ),
                )
            )
        for (member, step), rows in scalar_groups.items():
            additions.append(("add_scalar", (member, step, rows)))
        observers = [EccObserver(name, code) for name in names]
        collector = SessionHits(
            lanes, dict(zip(names, observers)) if with_ecc else None
        )
        for method, args in data.draw(st.permutations(additions), label="order"):
            getattr(collector, method)(*args)

        logs = collector.logs(names, bits, plans)
        for name, log in zip(names, logs):
            records = expected_records[name]
            assert len(log) == len(records)
            assert log.cell_ids() == cell_union(records, bits)
            assert log.addresses() == sorted({record.address for record in records})
            assert log == records
            assert list(log) == records
        assert [o.summary() for o in observers] == [
            o.summary() for o in scalar_observers
        ]


def diagnose_all(bank_factory, ecc):
    """Reference session plus every engine backend over twin banks."""
    reference = FastDiagnosisScheme(bank_factory(), ecc=ecc).diagnose()
    engines = {
        backend: run_session(FastDiagnosisScheme(bank_factory(), ecc=ecc), backend)
        for backend in ("numpy", "batched")
    }
    return reference, engines


FAULT_MAKERS = (
    lambda cell, other, seed: StuckAtFault(cell, value=seed % 2),
    lambda cell, other, seed: TransitionFault(cell, rising=bool(seed % 2)),
    lambda cell, other, seed: InversionCouplingFault(other, cell, trigger_rising=True),
    lambda cell, other, seed: IntermittentReadFault(cell, 0.5, seed=seed),
    lambda cell, other, seed: SoftErrorUpsetFault(cell, 0.3, seed=seed),
)


class TestSessionLogsMatchReference:
    @settings(max_examples=25, deadline=None)
    @given(
        words=st.integers(min_value=3, max_value=12),
        faults=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, TWO_LANE_BITS - 1),
                st.integers(0, len(FAULT_MAKERS) - 1),
                st.integers(0, 1 << 16),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda fault: fault[:2],
        ),
        with_ecc=st.booleans(),
    )
    def test_engine_logs_equal_reference_records(self, words, faults, with_ecc):
        """100-bit memories that wrap under a longer controller sweep
        (March CW runs descending elements too); clustered faults give the
        SEC-DED layer multi-bit words to miscorrect."""

        def bank_factory():
            wide = SRAM(MemoryGeometry(words, TWO_LANE_BITS, "wide"))
            long = SRAM(MemoryGeometry(words * 2 + 1, 8, "long"))
            used = {(word, bit) for word, bit, _, _ in faults}
            for word, bit, kind, seed in faults:
                other = CellRef((word + 1) % words, bit)
                if kind == 2 and (other.word, other.bit) in used:
                    kind = 0
                FAULT_MAKERS[kind](CellRef(word, bit), other, seed).attach(wide)
            return MemoryBank([wide, long])

        ecc = EccConfig() if with_ecc else None
        reference, engines = diagnose_all(bank_factory, ecc)
        for name, records in reference.failures.items():
            bits = TWO_LANE_BITS if name == "wide" else 8
            reference_records = records.records()
            for backend, report in engines.items():
                log = report.failures[name]
                assert isinstance(log, FailureLog)
                assert log == reference_records, backend
                assert log.cell_ids() == cell_union(reference_records, bits), backend
                assert log.addresses() == records.addresses(), backend
                assert report.detected_cells(name) == reference.detected_cells(name)
        for report in engines.values():
            assert report.ecc == reference.ecc


def expanded_cell_ids(log: FailureLog) -> list[int]:
    """Cell ids by exploding every row's syndrome, one flag per bit."""
    if not log.address.size:
        return []
    syndrome = (log.expected ^ log.observed).astype("<u8", copy=False)
    flags = np.unpackbits(
        syndrome.view(np.uint8).reshape(syndrome.shape[0], -1),
        axis=1,
        bitorder="little",
    )
    rows, bit = np.nonzero(flags)
    return sorted(set((log.address[rows] * log.bits + bit).tolist()))


@st.composite
def plane_logs(draw):
    """A plane-backed log: repeated addresses, one or two lanes, or none."""
    bits = draw(st.sampled_from([3, 8, 64, TWO_LANE_BITS]))
    words = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.integers(min_value=0, max_value=24))
    word = st.integers(min_value=0, max_value=(1 << bits) - 1)
    expected = draw(st.lists(word, min_size=rows, max_size=rows))
    flips = draw(st.lists(word, min_size=rows, max_size=rows))
    address = draw(
        st.lists(
            st.integers(min_value=0, max_value=words - 1),
            min_size=rows,
            max_size=rows,
        )
    )
    lanes = (bits + 63) // 64
    return FailureLog(
        "m",
        bits,
        (),
        np.zeros(rows, dtype=np.int64),
        np.zeros(rows, dtype=np.int64),
        np.array(address, dtype=np.int64),
        pack_state(expected, lanes),
        pack_state([e ^ f for e, f in zip(expected, flips)], lanes),
    )


class TestPlaneCellIds:
    @settings(max_examples=200, deadline=None)
    @given(log=plane_logs())
    def test_per_address_or_equals_per_row_expansion(self, log):
        assert log.cell_ids() == expanded_cell_ids(log)

    def test_repeated_address_on_two_lanes(self):
        expected = [0, 1 << 70, 0]
        observed = [1 << 3, (1 << 70) | (1 << 99) | 1, 1 << 64]
        log = FailureLog(
            "m",
            TWO_LANE_BITS,
            (),
            np.zeros(3, dtype=np.int64),
            np.zeros(3, dtype=np.int64),
            np.array([2, 0, 2], dtype=np.int64),
            pack_state(expected, 2),
            pack_state(observed, 2),
        )
        assert log.cell_ids() == [0, 99, 203, 264]

    def test_empty_plane_log(self):
        empty = np.zeros(0, dtype=np.int64)
        planes = np.zeros((0, 1), dtype=np.uint64)
        log = FailureLog("m", 8, (), empty, empty, empty, planes, planes)
        assert log.cell_ids() == []


class TestFailureLogBasics:
    def test_empty_log_allocates_no_arrays(self):
        (log,) = SessionHits(2).logs(["m"], TWO_LANE_BITS, [])
        assert log.address is None and log.expected is None
        assert len(log) == 0 and not log
        assert log == [] and log.cell_ids() == [] and log.addresses() == []

    def test_record_backed_log_equals_its_list(self):
        record = FailureRecord("m", 0, "M0", 0, "r0", 3, 0, 0b1010, 0b0011)
        log = FailureLog.from_records("m", 4, [record])
        assert log == [record] and log[0] is record and log[-1] is record
        assert log.cell_ids() == [3 * 4 + 0, 3 * 4 + 3]
        assert log.addresses() == [3]
        assert log != [] and log != FailureLog.from_records("m", 4)

    def test_report_wraps_plain_record_lists(self):
        soc = case_study_soc(memories=2)
        campaign = DiagnosisCampaign(soc, defect_rate=0.0, seed=0, backend="numpy")
        bank, _ = campaign.faulty_bank()
        StuckAtFault(CellRef(5, 2), value=1).attach(bank[0])
        report = run_session(FastDiagnosisScheme(bank), backend="numpy")
        name = bank[0].name
        log = report.failures[name]
        report.failures[name] = list(log)
        assert report.detected_cells(name) == {CellRef(5, 2)}
        assert report.failure_log(name) == log


class TestLazyRecords:
    def test_batched_campaign_builds_no_records_until_read(self, monkeypatch):
        built = []
        original = FailureRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(FailureRecord, "__init__", counting_init)
        campaign = DiagnosisCampaign(
            case_study_soc(memories=8), defect_rate=0.005, seed=3, backend="batched"
        )
        report = campaign.run(include_baseline=True, repair=True)
        assert report.proposed.total_failures > 0
        assert report.repair.total_repaired_words > 0
        assert built == []

        name = report.proposed.failing_memories()[0]
        first = report.proposed.failures[name][0]
        assert isinstance(first, FailureRecord)
        assert len(built) == len(report.proposed.failures[name])
