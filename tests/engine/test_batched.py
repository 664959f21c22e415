"""Unit tests for the fleet-batched tier: planner, packing, dispatch."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.backends import available_backends, get_backend
from repro.engine.batched import (
    TABLE_MIN_HOOKED_ROWS,
    BatchedBackend,
    batched_backend_pays_off,
    geometry_buckets,
    plan_session_buckets,
    run_batched_session,
)
from repro.engine.fleet import FleetSpec, FleetScheduler, plan_spec_backend
from repro.engine.packing import pack_bank
from repro.engine.session import run_session
from repro.faults.injector import FaultInjector
from repro.faults.intermittent import fault_for_event
from repro.faults.population import sample_population
from repro.faults.stuck_at import StuckAtFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.scenarios.spec import ScenarioSpec
from repro.soc.case_study import case_study_soc
from repro.soc.chip import SoCConfig
from repro.streaming.monitor import StreamingSpec
from repro.telemetry.core import activate, deactivate


def bank_of(*shapes: tuple[int, int], trace_last: bool = False) -> MemoryBank:
    memories = [
        SRAM(MemoryGeometry(words, bits, f"m{i}"), trace=trace_last and i == len(shapes) - 1)
        for i, (words, bits) in enumerate(shapes)
    ]
    return MemoryBank(memories)


class TestGeometryBuckets:
    def test_empty_input_yields_no_buckets(self):
        assert geometry_buckets([]) == {}
        buckets, fallback = plan_session_buckets([])
        assert buckets == [] and fallback == []

    def test_single_memory_bucket(self):
        buckets = geometry_buckets([MemoryGeometry(8, 4, "solo")])
        assert buckets == {(8, 4): [0]}

    def test_mixed_geometry_chunks_group_by_shape(self):
        geometries = [
            MemoryGeometry(16, 8, "a"),
            MemoryGeometry(8, 4, "b"),
            MemoryGeometry(16, 8, "c"),
            MemoryGeometry(8, 4, "d"),
            MemoryGeometry(4, 2, "e"),
        ]
        buckets = geometry_buckets(geometries)
        assert buckets == {(16, 8): [0, 2], (8, 4): [1, 3], (4, 2): [4]}

    def test_bucket_order_follows_first_appearance(self):
        buckets = geometry_buckets(
            [MemoryGeometry(4, 2, "x"), MemoryGeometry(8, 4, "y"), MemoryGeometry(4, 2, "z")]
        )
        assert list(buckets) == [(4, 2), (8, 4)]

    def test_pays_off_requires_a_shared_shape(self):
        assert not batched_backend_pays_off([MemoryGeometry(8, 4, "a")])
        assert not batched_backend_pays_off(
            [MemoryGeometry(8, 4, "a"), MemoryGeometry(16, 4, "b")]
        )
        assert batched_backend_pays_off(
            [MemoryGeometry(8, 4, "a"), MemoryGeometry(8, 4, "b")]
        )


class TestSessionBucketPlanner:
    def test_all_capable_memories_bucketed(self):
        bank = bank_of((16, 8), (8, 4), (16, 8))
        buckets, fallback = plan_session_buckets(bank)
        assert fallback == []
        assert [(b.words, b.bits, b.indices) for b in buckets] == [
            (16, 8, (0, 2)),
            (8, 4, (1,)),
        ]

    def test_traced_memory_falls_back(self):
        bank = bank_of((16, 8), (16, 8), trace_last=True)
        buckets, fallback = plan_session_buckets(bank)
        assert fallback == [1]
        assert [b.indices for b in buckets] == [(0,)]

    def test_decoder_faulty_memory_falls_back(self):
        bank = bank_of((16, 8), (16, 8))
        bank[1].decoder.remap_address(3, 5)
        buckets, fallback = plan_session_buckets(bank)
        assert fallback == [1]
        assert [b.indices for b in buckets] == [(0,)]


class TestPackBank:
    def test_rejects_empty_and_mixed_buckets(self):
        with pytest.raises(ValueError, match="at least one memory"):
            pack_bank([])
        with pytest.raises(ValueError, match="same-geometry"):
            pack_bank([SRAM(MemoryGeometry(8, 4)), SRAM(MemoryGeometry(8, 5))])

    def test_stacked_shapes_and_masks(self):
        bank = bank_of((8, 4), (8, 4))
        population = sample_population(bank[0].geometry, 0.2, rng=1)
        FaultInjector().inject(bank[0], population.faults)
        states, clean, dirty, lanes = pack_bank(list(bank))
        assert states.shape == (2, 8, 1) and lanes == 1
        assert dirty[0].any() and not dirty[1].any()
        assert (clean == ~dirty).all()


class TestRegistryAndDispatch:
    def test_batched_backend_registered(self):
        assert "batched" in available_backends()
        assert isinstance(get_backend("batched"), BatchedBackend)

    def test_run_session_dispatches_batched(self):
        # Fresh identical banks per backend (sessions mutate state).
        def fresh():
            b = bank_of((12, 6), (12, 6), (8, 4))
            FaultInjector().inject(
                b[0], sample_population(b[0].geometry, 0.1, rng=7).faults
            )
            return FastDiagnosisScheme(b, period_ns=10.0)

        via_name = run_session(fresh(), backend="batched")
        direct = run_batched_session(fresh())
        numpy_report = run_session(fresh(), backend="numpy")
        assert via_name.failures == direct.failures == numpy_report.failures
        assert via_name.cycles == direct.cycles == numpy_report.cycles
        assert via_name.time_ns == numpy_report.time_ns

    def test_fallback_memory_rides_along_with_buckets(self):
        # A traced memory takes the per-memory path while its bucketed
        # neighbours run stacked; the combined report must still match
        # the reference exactly.
        def fresh(trace_last):
            bank = bank_of((10, 5), (10, 5), (10, 5), trace_last=trace_last)
            FaultInjector().inject(
                bank[0], sample_population(bank[0].geometry, 0.15, rng=3).faults
            )
            FaultInjector().inject(
                bank[2], sample_population(bank[2].geometry, 0.15, rng=4).faults
            )
            return bank

        reference = FastDiagnosisScheme(fresh(trace_last=True)).diagnose()
        batched = run_batched_session(FastDiagnosisScheme(fresh(trace_last=True)))
        assert batched.failures == reference.failures
        assert batched.cycles == reference.cycles
        assert batched.time_ns == reference.time_ns

    def test_unsupported_session_features_delegate(self):
        # bit_accurate is outside the fast-path contract: the batched
        # backend must fall back to scheme.diagnose exactly like numpy.
        scheme = FastDiagnosisScheme(bank_of((6, 3)))
        batched = run_session(scheme, backend="batched", bit_accurate=True)
        reference = FastDiagnosisScheme(bank_of((6, 3))).diagnose(bit_accurate=True)
        assert batched.failures == reference.failures
        assert batched.cycles == reference.cycles


class TestLanePolicy:
    """Both vector backends share one executor and differ in its lanes."""

    @staticmethod
    def traced_session(campaign, backend):
        bank, _ = campaign.faulty_bank()
        scheme = FastDiagnosisScheme(bank, period_ns=campaign.soc.period_ns)
        tr = activate()
        try:
            report = run_session(scheme, backend=backend)
        finally:
            deactivate()
        return report, tr.counters

    def test_numpy_replays_hooked_rows_and_batched_lowers_them(self):
        campaign = DiagnosisCampaign(
            case_study_soc(memories=6), defect_rate=0.005, seed=2026
        )
        numpy_report, numpy_counters = self.traced_session(campaign, "numpy")
        batched_report, batched_counters = self.traced_session(campaign, "batched")
        # numpy: the shared executor's clean-word tracker skips compares,
        # every fault-hooked row replays and no fault table is compiled.
        assert numpy_counters.get("clean.compares_skipped") > 0
        assert numpy_counters.get("replay.accesses") > 0
        assert numpy_counters.get("lane.table.words") == 0
        assert numpy_counters.get("table.lowered_faults") == 0
        # batched on the same bank: lowered faults take the table lane.
        assert batched_counters.get("lane.table.words") > 0
        assert batched_report.failures == numpy_report.failures


def traced_batched_run(scheme):
    """One batched session under telemetry: ``(report, counters)``."""
    tr = activate()
    try:
        report = run_session(scheme, backend="batched")
    finally:
        deactivate()
    return report, tr.counters


class TestBucketTablePlan:
    """Batched buckets compile a fault table only from enough hooked rows."""

    @staticmethod
    def monitor_window_scheme():
        """The bank the default monitor stream sweeps in its first
        window with events, its events attached as faults."""
        spec = StreamingSpec()
        soc = spec.build_soc()
        timeline = spec.timeline(soc)
        events = next(
            events
            for events in map(timeline.events_for_window, itertools.count())
            if events
        )
        geometries = {geometry.name: geometry for geometry in soc.geometries}
        affected = sorted({event.memory for event in events})
        bank = SoCConfig(
            name="window",
            geometries=[geometries[name] for name in affected],
            period_ns=spec.period_ns,
        ).build_bank()
        for event in events:
            fault_for_event(
                event.kind,
                geometries[event.memory].cell_at(event.cell_index),
                spec.upset_probability,
                event.seed,
            ).attach(bank.by_name(event.memory))
        return FastDiagnosisScheme(bank, period_ns=spec.period_ns)

    def test_monitor_window_replays_its_lowerable_events(self):
        report, counters = traced_batched_run(self.monitor_window_scheme())
        numpy_report = run_session(self.monitor_window_scheme(), backend="numpy")
        assert counters.get("bucket.sessions") > 0
        assert counters.get("bucket.table_plans") == 0
        assert counters.get("table.lowered_faults") == 0
        assert counters.get("lane.table.words") == 0
        assert counters.get("replay.accesses") > 0
        assert report.failures == numpy_report.failures

    @staticmethod
    def stuck_rows_scheme(rows):
        """Two 64x8 memories, one bucket, ``rows`` stuck-at words in all."""
        bank = bank_of((64, 8), (64, 8))
        for row in range(rows):
            StuckAtFault(CellRef(row // 2, 0), 1).attach(bank[row % 2])
        return FastDiagnosisScheme(bank, period_ns=10.0)

    @pytest.mark.parametrize(
        "rows, lowers",
        [(TABLE_MIN_HOOKED_ROWS, True), (TABLE_MIN_HOOKED_ROWS - 1, False)],
    )
    def test_table_from_the_threshold_on(self, rows, lowers):
        report, counters = traced_batched_run(self.stuck_rows_scheme(rows))
        numpy_report = run_session(self.stuck_rows_scheme(rows), backend="numpy")
        assert counters.get("bucket.sessions") == 1
        assert counters.get("bucket.table_plans") == int(lowers)
        assert counters.get("table.lowered_faults") == (rows if lowers else 0)
        assert (counters.get("lane.table.words") > 0) == lowers
        assert report.failures == numpy_report.failures


class TestAutoPlanning:
    def test_auto_upgrades_to_batched_for_shared_shapes(self):
        spec = FleetSpec(soc="case-study", memories=8, campaigns=2, backend="auto")
        planned = plan_spec_backend(spec)
        assert planned.backend == "batched"
        assert FleetScheduler(spec, workers=1).spec.backend == "batched"

    def test_auto_keeps_numpy_for_all_distinct_shapes(self):
        spec = FleetSpec(
            soc="case-study", memories=4, campaigns=2, backend="auto"
        )
        geometries = spec.build_soc().geometries
        if batched_backend_pays_off(geometries):
            pytest.skip("case-study mix shares shapes at this size")
        assert plan_spec_backend(spec).backend == "auto"

    def test_explicit_backend_is_untouched(self):
        spec = FleetSpec(soc="case-study", memories=8, campaigns=2, backend="numpy")
        assert plan_spec_backend(spec) is spec

    def test_scenario_spec_plans_too(self):
        spec = ScenarioSpec(campaigns=2, memories=8, backend="auto")
        planned = plan_spec_backend(spec)
        assert planned.backend == "batched"
        assert dataclasses.asdict(planned) == {
            **dataclasses.asdict(spec),
            "backend": "batched",
        }

    def test_spec_like_objects_pass_through(self):
        class Minimal:
            campaigns = 3

        spec = Minimal()
        assert plan_spec_backend(spec) is spec
