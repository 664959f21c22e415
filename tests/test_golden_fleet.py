"""Golden-file regression for the batched fleet tier plus CLI contracts.

One canonical batched fleet run (fixed seed, mixed-geometry case-study
SoC) is frozen as ``tests/golden/fleet_batched.json``: the spec and the
report's deterministic content (wall-clock fields excluded, as in the
checkpoint/resume contract).  Regenerate after an intentional behaviour
change with::

    PYTHONPATH=src python -m pytest tests/test_golden_fleet.py --update-golden

The CLI classes pin the observable contract of ``repro fleet --backend
batched`` and of ``--checkpoint``/``--resume``: exit codes and JSON
shape, resumed payloads identical to uninterrupted ones, stale
checkpoints rejected with exit code 2, and backend parity of whole
``--json`` reports (pooled numpy vs batched, and all three backends in
the dense-defect regime).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.fleet import FleetSpec, run_fleet

GOLDEN_PATH = Path(__file__).parent / "golden" / "fleet_batched.json"

SPEC = FleetSpec(
    soc="case-study",
    memories=6,
    campaigns=4,
    defect_rate=0.004,
    master_seed=2026,
    backend="batched",
)


def canonical_fleet_run() -> dict:
    report = run_fleet(SPEC, workers=1, chunk_size=2)
    return {"spec": SPEC.to_dict(), "report": report.deterministic_dict()}


def test_batched_fleet_matches_golden(update_golden):
    actual = canonical_fleet_run()
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


def test_golden_fleet_is_nontrivial(update_golden):
    if update_golden:
        pytest.skip("fixture being rewritten")
    report = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["report"]
    assert report["campaigns"] == SPEC.campaigns
    assert report["total_faults"] > 0
    assert report["reduction_factor"]["count"] > 0
    assert report["localization"]["mean"] > 0.5


def fleet_argv(*extra: str) -> list[str]:
    return [
        "fleet", "--campaigns", "4", "--memories", "6", "--workers", "1",
        "--defect-rate", "0.004", "--seed", "2026", "--chunk-size", "2",
        "--json", *extra,
    ]


def payload_of(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


class TestFleetCliBatched:
    def test_batched_backend_json_matches_golden_report(self, capsys, update_golden):
        if update_golden:
            pytest.skip("fixture being rewritten")
        assert main(fleet_argv("--backend", "batched")) == 0
        payload = payload_of(capsys)
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert payload["spec"] == golden["spec"]
        assert payload["result"] == golden["report"]

    def test_json_shape_has_fleet_sections(self, capsys):
        assert main(fleet_argv("--backend", "batched")) == 0
        payload = payload_of(capsys)
        assert set(payload) == {"spec", "result", "run"}
        assert set(payload["run"]) == {"elapsed_s", "campaigns_per_sec"}
        for key in (
            "campaigns", "localization", "reduction_factor",
            "reduction_histogram", "repaired_words", "yield_rate",
        ):
            assert key in payload["result"], key
        assert payload["spec"]["backend"] == "batched"


class TestFleetCliResume:
    def test_checkpoint_then_resume_reproduces_payload(self, capsys, tmp_path):
        store = str(tmp_path / "ckpt")
        assert main(
            fleet_argv("--backend", "batched", "--checkpoint", store)
        ) == 0
        first = payload_of(capsys)
        assert main(
            fleet_argv("--backend", "batched", "--checkpoint", store, "--resume")
        ) == 0
        second = payload_of(capsys)
        assert first["result"] == second["result"]
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_resume_without_checkpoint_is_exit_2(self, capsys):
        assert main(fleet_argv("--resume")) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_stale_checkpoint_is_exit_2(self, capsys, tmp_path):
        store = str(tmp_path / "ckpt")
        assert main(
            fleet_argv("--backend", "batched", "--checkpoint", store)
        ) == 0
        capsys.readouterr()
        stale = [
            arg if arg != "2026" else "1" for arg in fleet_argv(
                "--backend", "batched", "--checkpoint", store
            )
        ]
        assert main(stale) == 2
        assert "stale checkpoint" in capsys.readouterr().err

    def test_scenario_resume_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "sc")
        argv = [
            "scenario", "--campaigns", "2", "--memories", "4", "--workers", "1",
            "--seed", "5", "--no-baseline", "--json",
            "--checkpoint", store,
        ]
        assert main(argv) == 0
        first = payload_of(capsys)
        assert main(argv + ["--resume"]) == 0
        second = payload_of(capsys)
        assert first["result"] == second["result"]

    def test_scenario_resume_without_checkpoint_is_exit_2(self, capsys):
        assert main(
            ["scenario", "--campaigns", "2", "--workers", "1", "--resume"]
        ) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_scenario_checkpoint_with_sweep_is_exit_2(self, capsys, tmp_path):
        assert main(
            [
                "scenario", "--campaigns", "2", "--workers", "1",
                "--checkpoint", str(tmp_path / "x"), "--sweep-radii", "10,20",
            ]
        ) == 2
        assert "--sweep-radii" in capsys.readouterr().err


def backend_free(payload: dict) -> dict:
    """A fleet payload's spec and result, minus the backend it ran on."""
    spec = {key: value for key, value in payload["spec"].items() if key != "backend"}
    return {"spec": spec, "result": payload["result"]}


class TestFleetCliParity:
    def test_pooled_numpy_batched_and_resume_agree(self, capsys, tmp_path):
        argv = [
            "fleet", "--campaigns", "4", "--memories", "6", "--workers", "2",
            "--json",
        ]
        store = str(tmp_path / "ckpt")
        assert main([*argv, "--backend", "numpy"]) == 0
        numpy_run = backend_free(payload_of(capsys))
        assert main([*argv, "--backend", "batched", "--checkpoint", store]) == 0
        batched_run = backend_free(payload_of(capsys))
        assert main(
            [*argv, "--backend", "batched", "--checkpoint", store, "--resume"]
        ) == 0
        resumed_run = backend_free(payload_of(capsys))
        assert numpy_run == batched_run, "fleet backends diverged"
        assert batched_run == resumed_run, "resume changed the report"

    def test_dense_regime_agrees_across_backends(self, capsys):
        """0.5 % defects: most fault-hooked rows take the table lane."""
        argv = [
            "fleet", "--campaigns", "2", "--memories", "6", "--workers", "1",
            "--defect-rate", "0.005", "--seed", "77", "--json",
        ]
        payloads = {}
        for backend in ("reference", "numpy", "batched"):
            assert main([*argv, "--backend", backend]) == 0
            payloads[backend] = backend_free(payload_of(capsys))
        reference = payloads["reference"]
        assert payloads["numpy"] == reference
        assert payloads["batched"] == reference
        assert reference["result"]["total_failures"] > 0
