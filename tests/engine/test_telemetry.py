"""Telemetry integration: determinism, resume equality, overhead guard.

The contract under test: enabling telemetry changes *no result byte* --
``deterministic_dict()`` is byte-for-byte identical with telemetry on and
off, across backends, worker layouts and checkpoint/resume cycles -- and
the disabled (null-tracer) instrumentation keeps the hot path within the
2% overhead guard.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.core.scheme import FastDiagnosisScheme
from repro.engine import batched
from repro.engine.fleet import FleetScheduler, FleetSpec, run_fleet
from repro.engine.packing import HAVE_NUMPY
from repro.engine.session import plan_cache_stats, run_session
from repro.faults.coupling import InversionCouplingFault
from repro.faults.stuck_at import StuckAtFault
from repro.memory.bank import MemoryBank
from repro.memory.geometry import CellRef, MemoryGeometry
from repro.memory.sram import SRAM
from repro.scenarios import ScenarioSpec, run_scenario_fleet
from repro.streaming import StreamingMonitor, StreamingSpec
from repro.telemetry.core import NULL_TRACER, activate, deactivate, set_tracer, tracer
from repro.telemetry.report import TelemetryReport

SPEC = FleetSpec(
    soc="case-study",
    memories=2,
    campaigns=4,
    defect_rate=0.004,
    master_seed=7,
    backend="auto",
)

BACKENDS = ["reference"] + (["numpy", "batched"] if HAVE_NUMPY else [])


@pytest.fixture(autouse=True)
def restore_null_tracer():
    yield
    set_tracer(NULL_TRACER)


def canonical(report) -> str:
    return json.dumps(report.deterministic_dict(), sort_keys=True)


def _inline_traffic(run) -> tuple:
    """Telemetry of an inline ``run`` and this process's own plan lookups."""
    hits, misses = plan_cache_stats()
    telemetry = run()
    after_hits, after_misses = plan_cache_stats()
    return telemetry.counters, (after_hits - hits, after_misses - misses)


def _inline_fleet() -> tuple:
    return _inline_traffic(
        lambda: run_fleet(SPEC, workers=1, telemetry=True).telemetry
    )


def _pooled_fleet() -> tuple:
    # Worker lookups never reach this process's counters; each campaign
    # summary carries its own worker-side plan-cache delta instead.
    scheduler = FleetScheduler(SPEC, workers=2, chunk_size=1, telemetry=True)
    summaries = [summary for chunk in scheduler.stream() for summary in chunk]
    expected = (
        sum(summary.plan_cache_hits for summary in summaries),
        sum(summary.plan_cache_misses for summary in summaries),
    )
    return scheduler.last_telemetry.counters, expected


def _scenario() -> tuple:
    spec = ScenarioSpec(memories=2, campaigns=2, master_seed=3)
    return _inline_traffic(
        lambda: run_scenario_fleet(spec, workers=1, telemetry=True).telemetry
    )


def _monitor() -> tuple:
    monitor = StreamingMonitor(
        StreamingSpec(memories=2, master_seed=5),
        windows=4,
        workers=1,
        telemetry=True,
    )

    def run():
        for _ in monitor.windows():
            pass
        return monitor.telemetry_report

    return _inline_traffic(run)


class TestDeterminismUnchanged:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_telemetry_changes_no_result_byte(self, backend):
        spec = dataclasses.replace(SPEC, backend=backend)
        plain = run_fleet(spec, workers=1)
        traced = run_fleet(spec, workers=1, telemetry=True)
        assert canonical(plain) == canonical(traced)

    def test_pooled_telemetry_matches_inline(self):
        inline = run_fleet(SPEC, workers=1, telemetry=True)
        pooled = run_fleet(SPEC, workers=2, chunk_size=1, telemetry=True)
        assert canonical(inline) == canonical(pooled)

    def test_report_attachment(self):
        plain = run_fleet(SPEC, workers=1)
        traced = run_fleet(SPEC, workers=1, telemetry=True)
        assert plain.telemetry is None
        assert isinstance(traced.telemetry, TelemetryReport)
        # Run metadata in the JSON document, absent from its result.
        payload = traced.to_json_dict()
        assert "telemetry" in payload["run"]
        assert payload["result"] == traced.deterministic_dict()
        assert "telemetry" not in payload["result"]

    def test_global_tracer_restored_after_run(self):
        run_fleet(SPEC, workers=1, telemetry=True)
        assert tracer() is NULL_TRACER


class TestTelemetryContent:
    def test_lane_and_fleet_counters_populated(self):
        report = run_fleet(SPEC, workers=1, telemetry=True)
        counters = report.telemetry.counters
        # 2-memory heterogeneous case-study resolves auto -> numpy: the
        # replay and clean lanes run, the table lane stays at zero.
        assert counters.get("lane.replay.ns") > 0
        assert counters.get("lane.clean.ns") > 0
        assert counters.get("fleet.chunks") >= 1
        assert counters.get("fleet.workers") == 1
        assert counters.get("fleet.worker_busy.ns") > 0
        attribution = report.telemetry.lane_attribution()
        assert attribution["march_time_s"] > 0
        assert attribution["total_words"] > 0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="lanes belong to the vector backends")
    def test_word_accounting_balances(self, monkeypatch):
        # Threshold 0: the 16-word bucket puts its stuck-at rows on the
        # table lane, the intra-word coupling's row on replay and every
        # other row on the clean lane.  The 35-word memory makes its sweep
        # wrap into a partial block.
        monkeypatch.setattr(batched, "TABLE_MIN_HOOKED_ROWS", 0)
        bank = MemoryBank(
            [SRAM(MemoryGeometry(16, 8, f"m{i}")) for i in range(3)]
            + [SRAM(MemoryGeometry(35, 8, "wide"))]
        )
        StuckAtFault(CellRef(3, 1), 1).attach(bank[0])
        StuckAtFault(CellRef(9, 4), 0).attach(bank[2])
        InversionCouplingFault(CellRef(5, 0), CellRef(5, 2)).attach(bank[1])
        scheme = FastDiagnosisScheme(bank)
        tr = activate()
        try:
            run_session(scheme, backend="batched")
        finally:
            deactivate()
        get = tr.counters.get
        elements = len(scheme.algorithm_factory(scheme.controller_bits).march_steps)
        # Every word visit of every sweep lands on exactly one lane.
        assert (
            get("lane.replay.words") + get("lane.table.words") + get("lane.clean.words")
            == elements * scheme.controller_words * len(bank)
        )
        for lane in ("replay", "table", "clean"):
            assert get(f"lane.{lane}.words") > 0
            assert get(f"lane.{lane}.ns") > 0

    @pytest.mark.parametrize(
        "run",
        [_inline_fleet, _pooled_fleet, _scenario, _monitor],
        ids=["inline-fleet", "pooled-fleet", "scenario", "monitor"],
    )
    def test_plan_cache_traffic_counted(self, run):
        """Every session plan lookup counts on the tracer active where it runs."""
        counters, (hits, misses) = run()
        assert hits + misses > 0
        assert counters.get("plan_cache.hits") == hits
        assert counters.get("plan_cache.misses") == misses

    def test_pooled_run_ships_worker_snapshots(self):
        report = run_fleet(SPEC, workers=2, chunk_size=1, telemetry=True)
        # Parent + at least one worker process contributed spans.
        assert len(report.telemetry.processes) >= 2
        assert report.telemetry.span_stats["fleet.chunk"][0] == 4

    def test_march_element_spans_recorded(self):
        report = run_fleet(SPEC, workers=1, telemetry=True)
        assert report.telemetry.span_stats["march.element"][0] > 0


@pytest.mark.skipif(not HAVE_NUMPY, reason="checkpoint fleets use auto backend")
class TestCheckpointResumeEquality:
    def test_resume_with_telemetry_toggled(self, tmp_path):
        baseline = run_fleet(SPEC, workers=1)
        # Interrupted run persisted everything with telemetry ON ...
        first = run_fleet(
            SPEC, workers=1, checkpoint=tmp_path / "store", telemetry=True
        )
        # ... resumed with telemetry OFF: loads every chunk from disk.
        resumed_off = run_fleet(
            SPEC, workers=1, checkpoint=tmp_path / "store", resume=True
        )
        # ... and resumed again with telemetry ON.
        resumed_on = run_fleet(
            SPEC,
            workers=1,
            checkpoint=tmp_path / "store",
            resume=True,
            telemetry=True,
        )
        assert canonical(first) == canonical(baseline)
        assert canonical(resumed_off) == canonical(baseline)
        assert canonical(resumed_on) == canonical(baseline)
        assert resumed_on.telemetry.counters.get("fleet.chunks_resumed") > 0
        assert resumed_on.telemetry.counters.get("checkpoint.loads") > 0
        assert resumed_on.telemetry.counters.get("checkpoint.load.ns") > 0

    def test_telemetry_leaves_checkpoint_bytes_alone(self, tmp_path):
        run_fleet(SPEC, workers=1, checkpoint=tmp_path / "plain")
        run_fleet(SPEC, workers=1, checkpoint=tmp_path / "traced", telemetry=True)
        plain_files = sorted(p.name for p in (tmp_path / "plain").iterdir())
        traced_files = sorted(p.name for p in (tmp_path / "traced").iterdir())
        assert plain_files == traced_files
        for name in plain_files:
            assert (tmp_path / "plain" / name).read_bytes() == (
                tmp_path / "traced" / name
            ).read_bytes()

    def test_checkpoint_save_instrumented(self, tmp_path):
        report = run_fleet(
            SPEC, workers=1, checkpoint=tmp_path / "store", telemetry=True
        )
        counters = report.telemetry.counters
        assert counters.get("checkpoint.saves") > 0
        assert counters.get("checkpoint.save.ns") > 0


class TestNullOverheadGuard:
    def test_gate_cost_is_sub_microsecond(self):
        # The disabled hot path pays one global read plus one attribute
        # check per site; bound it hard.
        iterations = 200_000
        started = time.perf_counter()
        for _ in range(iterations):
            if tracer().enabled:  # pragma: no cover - never taken
                raise AssertionError("tracer unexpectedly enabled")
        per_gate = (time.perf_counter() - started) / iterations
        assert per_gate < 1e-6

    @pytest.mark.skipif(not HAVE_NUMPY, reason="measures the batched session")
    def test_disabled_telemetry_within_two_percent_of_session(self):
        # Aggregate bound: (sites actually hit) x (per-gate cost) must be
        # under 2% of the quick-suite session it instruments.  The span
        # count of an instrumented run upper-bounds the site count up to
        # a constant; 50x is far beyond the real sites-per-span ratio.
        from repro.analysis.bench import _timed_session
        from repro.soc.case_study import case_study_soc

        soc = case_study_soc(memories=32)
        _timed_session(soc, 0.001, 2026, "batched")  # warm caches
        tr = activate()
        try:
            _timed_session(soc, 0.001, 2026, "batched")
        finally:
            deactivate()
        spans = sum(stats[0] for stats in tr.span_stats.values())
        assert spans > 0

        iterations = 100_000
        started = time.perf_counter()
        for _ in range(iterations):
            if tracer().enabled:  # pragma: no cover - never taken
                raise AssertionError
        per_gate = (time.perf_counter() - started) / iterations

        elapsed, _ = _timed_session(soc, 0.001, 2026, "batched")
        assert per_gate * spans * 50 < 0.02 * elapsed
