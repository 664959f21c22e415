"""Scenario spec validation, flow staging and fleet-runner behaviour."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.ecc.vector import VectorSecDed
from repro.engine.kernel import SessionHits
from repro.scenarios import (
    SCENARIO_PRESETS,
    ScenarioSpec,
    preset_spec,
    run_scenario_campaign,
    run_scenario_fleet,
    summarize_scenario_campaign,
)
from repro.telemetry.core import NULL_TRACER, activate, set_tracer

SMALL = ScenarioSpec(
    shapes=((16, 8, "fl_wide"), (12, 6, "fl_narrow")),
    campaigns=2,
    master_seed=5,
    base_defect_rate=0.02,
    cluster_count=1,
    cluster_radius=25.0,
    cluster_peak_rate=0.05,
    intermittent_rate=0.02,
    upset_probability=0.6,
    spares_per_memory=16,
    backend="auto",
)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        for kwargs in (
            dict(campaigns=0),
            dict(base_defect_rate=1.5),
            dict(cluster_radius=0.0),
            dict(cluster_count=-1),
            dict(max_retest_rounds=-1),
            dict(intermittent_rate=-0.1),
            dict(upset_probability=2.0),
            dict(soc="nonsense"),
            dict(name=""),
            dict(geometry=(8,)),
            dict(shapes=()),
            dict(shapes=((8, 4, "dup"), (8, 4, "dup"))),
            dict(defect_weights=(1.0, 1.0)),
            dict(base_defect_rate=0.3, max_defect_rate=0.2),
        ):
            with pytest.raises(ValueError):
                ScenarioSpec(**kwargs)

    def test_build_soc_variants(self):
        assert ScenarioSpec(soc="buffer-cluster").build_soc().name == "buffer-cluster"
        uniform = ScenarioSpec(geometry=(32, 8), memories=3).build_soc()
        assert uniform.memory_count == 3
        assert {(g.words, g.bits) for g in uniform.geometries} == {(32, 8)}
        explicit = SMALL.build_soc()
        assert [g.name for g in explicit.geometries] == ["fl_wide", "fl_narrow"]
        default = ScenarioSpec(memories=4).build_soc()
        assert default.memory_count == 4

    def test_build_profile(self):
        assert ScenarioSpec().build_profile() is None
        profile = ScenarioSpec(defect_weights=(1.0, 0.0, 0.0, 0.0)).build_profile()
        assert profile is not None

    def test_explicit_centers_override_sampling(self):
        spec = dataclasses.replace(SMALL, cluster_centers=((1.0, 2.0),))
        assert spec.cluster_field(0).centers == ((1.0, 2.0),)
        assert spec.cluster_field(5).centers == ((1.0, 2.0),)

    def test_presets(self):
        for name in SCENARIO_PRESETS:
            spec = preset_spec(name, campaigns=1)
            assert spec.campaigns == 1
            assert spec.name == name
        with pytest.raises(ValueError, match="unknown scenario preset"):
            preset_spec("nope")


class TestFlowStaging:
    def test_flow_runs_all_stages(self):
        report = run_scenario_campaign(SMALL, 0)
        stage_names = [stage.stage for stage in report.stages]
        assert stage_names[0] == "test"
        assert "burn-in" in stage_names
        assert report.injected_faults > 0
        assert report.baseline is not None
        assert report.reduction_factor > 1.0
        assert 0.0 <= report.escape_rate <= 1.0
        assert report.intermittent_faults > 0
        assert len(report.summary_lines()) >= 4

    def test_no_baseline_and_no_burn_in(self):
        spec = dataclasses.replace(
            SMALL, include_baseline=False, burn_in=False, intermittent_rate=0.0
        )
        report = run_scenario_campaign(spec, 0)
        assert report.baseline is None
        assert report.reduction_factor is None
        assert report.intermittent_faults == 0
        assert all(stage.stage != "burn-in" for stage in report.stages)

    def test_clean_bank_converges_immediately(self):
        spec = dataclasses.replace(
            SMALL,
            base_defect_rate=0.0,
            cluster_peak_rate=0.0,
            cluster_count=0,
            intermittent_rate=0.0,
            include_baseline=False,
        )
        report = run_scenario_campaign(spec, 0)
        assert report.injected_faults == 0
        assert report.retest_rounds == 0
        assert report.retest_converged
        assert report.escape_rate == 0.0
        assert report.localization_rate == 1.0

    def test_spare_exhaustion_stalls_without_burning_rounds(self):
        spec = dataclasses.replace(
            SMALL,
            spares_per_memory=0,
            include_baseline=False,
            burn_in=False,
            max_retest_rounds=5,
        )
        report = run_scenario_campaign(spec, 0)
        assert not report.retest_converged
        # The zero-progress repair round stalls the loop immediately.
        assert report.retest_rounds == 1
        repair_stages = [s for s in report.stages if s.stage == "repair"]
        assert repair_stages[-1].repaired_words == 0
        assert all(s.stage != "retest" for s in report.stages)

    def test_zero_retest_rounds_allowed(self):
        spec = dataclasses.replace(SMALL, max_retest_rounds=0, burn_in=False)
        report = run_scenario_campaign(spec, 0)
        assert report.retest_rounds == 0
        assert not report.retest_converged

    def test_summary_reduction(self):
        report = run_scenario_campaign(SMALL, 1)
        summary = summarize_scenario_campaign(report)
        assert summary.scenario == SMALL.name
        assert summary.index == 1
        assert summary.seed == SMALL.campaign_seed(1)
        assert summary.escape_rate == report.escape_rate
        assert summary.retest_rounds == report.retest_rounds
        assert summary.assigned_rate_mean == pytest.approx(
            report.mean_assigned_rate
        )
        assert summary.intermittent_faults == report.intermittent_faults


class TestScenarioFleet:
    def test_fleet_report_carries_scenario_aggregates(self):
        report = run_scenario_fleet(SMALL, workers=1)
        assert report.campaigns == SMALL.campaigns
        assert report.scenario_campaigns == SMALL.campaigns
        assert report.escape_rate.count == SMALL.campaigns
        assert report.assigned_rate.count == SMALL.campaigns
        assert report.retest_convergence is not None
        assert report.intermittent_injected > 0
        payload = report.to_json_dict()
        assert payload["scenario"]["campaigns"] == SMALL.campaigns
        text = "\n".join(report.summary_lines())
        assert "scenario flows" in text and "clustered rate" in text

    def test_plain_fleet_report_has_no_scenario_block(self):
        from repro.engine import FleetSpec, run_fleet

        report = run_fleet(
            FleetSpec(memories=2, campaigns=1, defect_rate=0.004), workers=1
        )
        assert report.scenario_campaigns == 0
        assert "scenario" not in report.to_json_dict()
        assert report.retest_convergence is None
        assert report.intermittent_detection_rate is None

    def test_campaign_summary_independent_of_position(self):
        direct = run_scenario_campaign(SMALL, 1)
        fleet_equivalent = run_scenario_campaign(SMALL, 1)
        assert summarize_scenario_campaign(direct) == summarize_scenario_campaign(
            fleet_equivalent
        )


class TestEccFlow:
    ECC = dataclasses.replace(
        SMALL,
        ecc="secded",
        include_baseline=False,
        intermittent_rate=0.0,
        burn_in=False,
    )

    def test_spec_validates_ecc_and_spares(self):
        for kwargs in (
            dict(ecc="bch"),
            dict(spare_rows=-1),
            dict(spare_cols=-2),
        ):
            with pytest.raises(ValueError):
                ScenarioSpec(**kwargs)
        assert ScenarioSpec(ecc="secded").build_ecc().scheme == "secded"
        assert ScenarioSpec().build_ecc() is None
        assert not ScenarioSpec().use_bisr
        assert ScenarioSpec(spare_cols=1).use_bisr

    def test_ecc_campaign_attributes_masked_escapes(self):
        report = run_scenario_campaign(self.ECC, 0)
        assert report.ecc_enabled
        assert report.ecc_corrected_reads > 0
        assert 0 <= report.ecc_masked_escaped <= report.escaped_faults
        assert report.ecc_masked_escape_rate == pytest.approx(
            report.ecc_masked_escaped / report.injected_faults
        )
        summary = summarize_scenario_campaign(report)
        assert summary.ecc_masked_escape_rate == report.ecc_masked_escape_rate
        assert summary.ecc_corrected_reads == report.ecc_corrected_reads
        assert any("ecc" in line for line in report.summary_lines())

    def test_raw_campaign_has_no_ecc_rate(self):
        spec = dataclasses.replace(self.ECC, ecc=None)
        report = run_scenario_campaign(spec, 0)
        assert not report.ecc_enabled
        assert report.ecc_masked_escape_rate is None
        summary = summarize_scenario_campaign(report)
        assert summary.ecc_masked_escape_rate is None
        assert summary.ecc_corrected_reads is None

    def test_ecc_masking_raises_escape_rate(self):
        """The measured-vs-analytic gap: the same campaign behind SEC-DED
        escapes at least as much as raw observation (single-bit defects
        are hidden), and the masked-escape counter owns the difference."""
        raw = run_scenario_campaign(dataclasses.replace(self.ECC, ecc=None), 0)
        ecc = run_scenario_campaign(self.ECC, 0)
        assert ecc.escape_rate >= raw.escape_rate
        assert ecc.escaped_faults - raw.escaped_faults <= ecc.ecc_masked_escaped


class TestEccSessionDecode:
    """The fast tiers decode SEC-DED once per session, not once per read."""

    SPEC = preset_spec(
        "burn-in-soft-error",
        memories=8,
        campaigns=2,
        master_seed=1,
        ecc="secded",
        spare_rows=4,
        spare_cols=4,
    )

    @pytest.mark.parametrize("backend", ["numpy", "batched"])
    def test_one_decode_per_session_with_mismatches(self, backend, monkeypatch):
        decodes = []
        sessions = []
        decode = VectorSecDed.decode
        logs = SessionHits.logs

        def counting_decode(self, error):
            decodes.append(error.shape[0])
            return decode(self, error)

        def counting_logs(self, *args):
            had_mismatches = bool(self._chunks or self._scalar)
            before = len(decodes)
            result = logs(self, *args)
            sessions.append((had_mismatches, len(decodes) - before))
            return result

        monkeypatch.setattr(VectorSecDed, "decode", counting_decode)
        monkeypatch.setattr(SessionHits, "logs", counting_logs)
        report = run_scenario_campaign(
            dataclasses.replace(self.SPEC, backend=backend), 0
        )
        assert report.ecc_masked_reads > 0
        assert sum(calls for _, calls in sessions) == len(decodes)
        assert all(calls == int(had) for had, calls in sessions)

    def test_decode_counters_match_masked_reads(self):
        tracer = activate()
        try:
            reports = [
                run_scenario_campaign(self.SPEC, index)
                for index in range(self.SPEC.campaigns)
            ]
        finally:
            set_tracer(NULL_TRACER)
        masked = sum(report.ecc_masked_reads for report in reports)
        assert masked > 0
        assert tracer.counters.get("ecc.rows_masked") == masked
        assert tracer.counters.get("ecc.rows_decoded") > masked
        assert tracer.span_stats["ecc.decode"][0] > 0

    def test_decode_telemetry_leaves_results_alone(self):
        plain = run_scenario_fleet(self.SPEC, workers=1)
        traced = run_scenario_fleet(self.SPEC, workers=1, telemetry=True)
        assert json.dumps(plain.deterministic_dict(), sort_keys=True) == json.dumps(
            traced.deterministic_dict(), sort_keys=True
        )
        metrics = traced.telemetry.to_json_dict()
        assert metrics["counters"]["ecc.rows_masked"] > 0
        assert metrics["span_stats"]["ecc.decode"]["count"] > 0


class TestBisrFlow:
    BISR = dataclasses.replace(
        SMALL,
        spare_rows=4,
        spare_cols=2,
        include_baseline=False,
        intermittent_rate=0.0,
        burn_in=False,
    )

    def test_bisr_flow_reports_yield_and_spares(self):
        report = run_scenario_campaign(self.BISR, 0)
        repair_stages = [s for s in report.stages if s.stage == "repair"]
        assert repair_stages
        assert all(s.repaired_words is None for s in repair_stages)
        assert all(s.repaired_rows is not None for s in repair_stages)
        assert report.repaired_rows + report.repaired_cols == sum(
            s.repaired_rows + s.repaired_cols for s in repair_stages
        )
        assert report.repair_yield is not None
        assert 0.0 <= report.repair_yield <= 1.0
        summary = summarize_scenario_campaign(report)
        assert summary.repair_yield == report.repair_yield
        assert any("bisr" in line for line in report.summary_lines())

    def test_word_spare_flow_has_no_yield(self):
        report = run_scenario_campaign(
            dataclasses.replace(self.BISR, spare_rows=0, spare_cols=0), 0
        )
        assert report.repair_yield is None
        assert report.repaired_rows == 0
        assert summarize_scenario_campaign(report).repair_yield is None


class TestBurnInAccounting:
    def test_burn_in_round_follows_every_retest(self):
        report = run_scenario_campaign(SMALL, 0)
        burn = [s for s in report.stages if s.stage == "burn-in"]
        assert len(burn) == 1
        assert burn[0].round == report.retest_rounds + 1

    def test_intermittent_scored_against_burn_session_only(self):
        """An intermittent fault that never upsets (p = 0) must count as
        undetected even when earlier stages failed its cell for
        manufacturing reasons: detection is scored against the burn-in
        session's own observations, not the flow-wide union."""
        spec = dataclasses.replace(
            SMALL,
            defect_weights=(1.0, 1.0, 0.0, 0.0),
            intermittent_rate=0.5,
            upset_probability=0.0,
            include_baseline=False,
        )
        report = run_scenario_campaign(spec, 0)
        assert report.retest_converged  # repairs detached everything
        # The test is only meaningful if silent intermittent victims
        # overlap cells the flow detected for manufacturing reasons.
        from repro.scenarios.flow import burn_in_population

        overlap = 0
        for words, bits, name in spec.shapes:
            detected = report.proposed.detected_cells(name)
            for fault in burn_in_population(
                spec, _memory_named(spec, name), report.seed
            ):
                overlap += bool(detected & set(fault.victims))
        assert overlap > 0
        assert report.intermittent_faults > 0
        assert report.intermittent_detected == 0


def _memory_named(spec, name):
    """Build the named memory of a spec's bank (for population replay)."""
    from repro.memory.sram import SRAM

    for geometry in spec.build_soc().geometries:
        if geometry.name == name:
            return SRAM(geometry)
    raise KeyError(name)


class TestEscapeMonotonicity:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_escape_rate_non_increasing_in_spares(self, index):
        """Deterministic-profile campaigns (stuck-at + transition, no
        burn-in layer) must never escape *more* when given more spares."""
        base = dataclasses.replace(
            SMALL,
            defect_weights=(1.0, 1.0, 0.0, 0.0),
            base_defect_rate=0.04,
            intermittent_rate=0.0,
            burn_in=False,
            include_baseline=False,
        )
        rates = [
            run_scenario_campaign(
                dataclasses.replace(base, spares_per_memory=spares), index
            ).escape_rate
            for spares in (0, 1, 2, 4, 8, 16)
        ]
        assert all(
            later <= earlier for earlier, later in zip(rates, rates[1:])
        ), rates
