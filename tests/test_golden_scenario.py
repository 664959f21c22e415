"""Golden-file regression for the scenario engine, plus CLI contract.

One canonical clustered-defect scenario flow -- small explicit bank,
two cluster centers, an intermittent burn-in layer -- is executed end to
end and its full :class:`~repro.scenarios.flow.ScenarioCampaignReport`
serialization compared field-for-field against
``tests/golden/scenario_clustered.json``.  Any behavioural drift in the
cluster sampler, flow staging, repair/retest loop, escape accounting or
intermittent detection shows up as a readable JSON diff.

To regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python -m pytest tests/test_golden_scenario.py --update-golden

The CLI contract tests pin the ``repro scenario`` exit code and JSON
shape (spec echo plus the scenario aggregate block) on both backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import ScenarioSpec, run_scenario_campaign

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_clustered.json"

#: The canonical clustered scenario.  Fixed seeds + the numpy backend
#: keep every field deterministic; reference-vs-numpy parity itself is
#: covered by the differential suite and the parity test below.
CANONICAL = ScenarioSpec(
    name="golden-clustered",
    shapes=((16, 8, "gc_wide"), (12, 6, "gc_narrow"), (10, 4, "gc_tiny")),
    campaigns=1,
    master_seed=9,
    base_defect_rate=0.02,
    cluster_count=2,
    cluster_radius=30.0,
    cluster_peak_rate=0.08,
    intermittent_rate=0.02,
    upset_probability=0.6,
    spares_per_memory=8,
    backend="numpy",
)


def scenario_to_json(report) -> dict:
    """Stable, human-diffable JSON rendering of a scenario flow."""
    proposed = report.proposed
    baseline = report.baseline
    return {
        "scenario": report.scenario,
        "soc_name": report.soc_name,
        "seed": report.seed,
        "assigned_rates": {
            name: round(rate, 12)
            for name, rate in sorted(report.assigned_rates.items())
        },
        "injected_faults": report.injected_faults,
        "stages": [stage.to_dict() for stage in report.stages],
        "retest_rounds": report.retest_rounds,
        "retest_converged": report.retest_converged,
        "escaped_faults": report.escaped_faults,
        "escape_rate": report.escape_rate,
        "localization_rate": report.localization_rate,
        "reduction_factor": report.reduction_factor,
        "intermittent_faults": report.intermittent_faults,
        "intermittent_detected": report.intermittent_detected,
        "proposed": {
            "cycles": proposed.cycles,
            "time_ns": proposed.time_ns,
            "failures": {
                name: [record.to_dict() for record in records]
                for name, records in sorted(proposed.failures.items())
            },
        },
        "baseline": {
            "iterations": baseline.iterations,
            "time_ns": baseline.time_ns,
            "localized": [
                {
                    "memory_name": fault.memory_name,
                    "cell": [fault.cell.word, fault.cell.bit],
                    "iteration": fault.iteration,
                    "direction": fault.direction,
                    "fault_class": fault.fault_class,
                }
                for fault in baseline.localized
            ],
            "missed": [
                [name, fault.describe()] for name, fault in baseline.missed
            ],
        },
    }


def test_scenario_matches_golden(update_golden):
    actual = scenario_to_json(run_scenario_campaign(CANONICAL, 0))
    if update_golden:
        GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        pytest.skip(f"golden fixture {GOLDEN_PATH.name} rewritten")
    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; run pytest with --update-golden"
    )
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert actual == expected


def test_golden_scenario_is_nontrivial(update_golden):
    # Guard against a vacuous fixture: the canonical flow must exercise
    # clustering spread, repair rounds, burn-in and escape accounting.
    if update_golden:
        pytest.skip("fixture being rewritten")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    rates = golden["assigned_rates"]
    assert len(set(rates.values())) > 1, "clustering assigned uniform rates"
    assert golden["injected_faults"] > 0
    assert golden["retest_rounds"] >= 1
    assert golden["intermittent_faults"] > 0
    assert any(stage["stage"] == "burn-in" for stage in golden["stages"])
    assert golden["reduction_factor"] > 1.0


def test_golden_scenario_backend_parity():
    import dataclasses

    reference = run_scenario_campaign(
        dataclasses.replace(CANONICAL, backend="reference"), 0
    )
    fast = scenario_to_json(run_scenario_campaign(CANONICAL, 0))
    assert scenario_to_json(reference) == fast


class TestScenarioCli:
    ARGS = [
        "scenario",
        "--soc", "buffer-cluster",
        "--campaigns", "1",
        "--workers", "1",
        "--base-defect-rate", "0.002",
        "--clusters", "1",
        "--cluster-peak-rate", "0.01",
        "--intermittent-rate", "0.005",
        "--upset-probability", "0.5",
    ]

    @pytest.mark.parametrize("backend", ["reference", "numpy"])
    def test_json_exit_code_and_shape(self, capsys, backend):
        assert main([*self.ARGS, "--backend", backend, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["backend"] == backend
        result = payload["result"]
        assert result["campaigns"] == 1
        scenario = result["scenario"]
        assert scenario["campaigns"] == 1
        for key in (
            "escape_rate",
            "assigned_defect_rate",
            "retest_rounds",
            "retest_convergence",
            "intermittent_injected",
            "intermittent_detected",
            "intermittent_detection_rate",
        ):
            assert key in scenario
        assert scenario["intermittent_injected"] > 0
        # Measured R under clustering rides along in the fleet block.
        assert result["reduction_factor"]["mean"] > 1.0

    def test_backends_agree_on_localization_payload(self, capsys):
        payloads = []
        for backend in ("reference", "numpy"):
            assert main([*self.ARGS, "--backend", backend, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["spec"].pop("backend")
            payloads.append({"spec": payload["spec"], "result": payload["result"]})
        assert payloads[0] == payloads[1]

    def test_two_flows_agree_across_backends(self, capsys):
        """Two buffer-cluster flows at the preset defect rates, burn-in on:
        the reference and numpy runs report the same content."""
        args = [
            "scenario",
            "--soc", "buffer-cluster",
            "--campaigns", "2",
            "--workers", "1",
            "--intermittent-rate", "0.002",
            "--upset-probability", "0.3",
            "--json",
        ]
        payloads = []
        for backend in ("reference", "numpy"):
            assert main([*args, "--backend", backend]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["spec"].pop("backend")
            payloads.append({"spec": payload["spec"], "result": payload["result"]})
        assert payloads[0] == payloads[1], "scenario backends diverged"
        assert payloads[1]["result"]["scenario"]["campaigns"] == 2

    def test_text_mode_prints_scenario_lines(self, capsys):
        assert main([*self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "scenario flows" in out
        assert "escape rate" in out
        assert "intermittent" in out

    def test_radius_sweep_table(self, capsys):
        assert main([*self.ARGS, "--sweep-radii", "5,40"]) == 0
        out = capsys.readouterr().out
        assert "scenario radius sweep" in out
        assert "r=5" in out and "r=40" in out
        assert "escape" in out and "converged" in out

    def test_radius_sweep_json(self, capsys):
        assert main(
            [*self.ARGS, "--json", "--sweep-radii", "5,40"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == "S1-cluster-radius"
        assert [row["label"] for row in payload["rows"]] == ["r=5", "r=40"]
        for row in payload["rows"]:
            assert "escape_rate_mean" in row and "retest_convergence" in row

    @pytest.mark.parametrize(
        "preset", ["intermittent-only", "burn-in-soft-error"]
    )
    def test_preset_values_survive_unpassed_flags(self, capsys, preset):
        from repro.scenarios import SCENARIO_PRESETS

        assert main(
            ["scenario", "--preset", preset, "--soc", "buffer-cluster",
             "--campaigns", "1", "--workers", "1", "--json"]
        ) == 0
        spec = json.loads(capsys.readouterr().out)["spec"]
        for key, value in SCENARIO_PRESETS[preset].items():
            assert spec[key] == value, f"preset field {key} clobbered"

    def test_explicit_flags_override_preset(self, capsys):
        assert main(
            ["scenario", "--preset", "burn-in-soft-error", "--soc",
             "buffer-cluster", "--campaigns", "1", "--workers", "1",
             "--clusters", "3", "--cluster-radius", "12.5", "--json"]
        ) == 0
        spec = json.loads(capsys.readouterr().out)["spec"]
        assert spec["cluster_count"] == 3
        assert spec["cluster_radius"] == 12.5
        # Unpassed preset fields still win over the spec defaults.
        assert spec["base_defect_rate"] == 0.001

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--preset", "nonsense"])
        assert excinfo.value.code == 2


class TestEccBisrCli:
    ARGS = [
        "scenario",
        "--soc", "buffer-cluster",
        "--campaigns", "1",
        "--workers", "1",
        "--base-defect-rate", "0.01",
        "--clusters", "1",
        "--cluster-peak-rate", "0.02",
        "--intermittent-rate", "0.0",
        "--no-burn-in",
        "--ecc", "secded",
        "--spare-rows", "4",
        "--spare-cols", "2",
    ]

    def test_json_carries_ecc_and_repair_aggregates(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["ecc"] == "secded"
        assert payload["spec"]["spare_rows"] == 4
        assert payload["spec"]["spare_cols"] == 2
        scenario = payload["result"]["scenario"]
        ecc = scenario["ecc"]
        assert ecc["campaigns"] == 1
        assert ecc["corrected_reads"] > 0
        assert ecc["masked_escape_rate"]["count"] == 1
        assert 0.0 <= ecc["masked_escape_rate"]["mean"] <= 1.0
        assert "repair_yield" in scenario
        assert scenario["repaired_rows"] + scenario["repaired_cols"] > 0

    def test_raw_run_omits_the_ecc_block(self, capsys):
        args = [a for a in self.ARGS if a not in ("--ecc", "secded")]
        assert main([*args, "--json"]) == 0
        scenario = json.loads(capsys.readouterr().out)["result"]["scenario"]
        assert "ecc" not in scenario

    def test_text_mode_prints_the_diagnosis_gap(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "masked escapes" in out
        assert "bisr yield" in out

    def test_backends_agree_behind_ecc(self, capsys):
        payloads = []
        for backend in ("reference", "numpy", "batched"):
            assert main([*self.ARGS, "--backend", backend, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["spec"].pop("backend")
            payloads.append({"spec": payload["spec"], "result": payload["result"]})
        assert payloads[0] == payloads[1] == payloads[2]

    def test_preset_rates_agree_across_backends_over_two_campaigns(self, capsys):
        """Two flows at the buffer-cluster preset's own defect rates: every
        backend reports the same post-correction aggregates, one
        masked-escape sample per campaign and the BISR spare totals."""
        args = [
            "scenario",
            "--soc", "buffer-cluster",
            "--campaigns", "2",
            "--workers", "1",
            "--no-burn-in",
            "--ecc", "secded",
            "--spare-rows", "4",
            "--spare-cols", "2",
            "--json",
        ]
        payloads = []
        for backend in ("reference", "numpy", "batched"):
            assert main([*args, "--backend", backend]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload["spec"].pop("backend")
            payloads.append({"spec": payload["spec"], "result": payload["result"]})
        assert payloads[0] == payloads[1] == payloads[2]
        scenario = payloads[0]["result"]["scenario"]
        ecc = scenario["ecc"]
        assert ecc["campaigns"] == 2
        assert ecc["corrected_reads"] > 0
        assert ecc["masked_escape_rate"]["count"] == ecc["campaigns"]
        assert "repair_yield" in scenario
        assert "repaired_rows" in scenario and "repaired_cols" in scenario
