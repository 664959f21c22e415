"""Checkpoint/resume property tests.

The core property: for *any* prefix of persisted chunks, a resumed run
produces a :class:`~repro.engine.aggregate.FleetReport` whose
deterministic content is byte-for-byte identical to the uninterrupted
run's, and leaves the store byte-identical file by file.  Corrupt and
stale stores are rejected with :class:`~repro.engine.checkpoint.CheckpointError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

from repro.engine.aggregate import CampaignSummary, FleetReport
from repro.engine.checkpoint import CheckpointError, CheckpointStore, spec_digest
from repro.engine.fleet import (
    FleetScheduler,
    FleetSpec,
    chunked_indices,
    run_chunk,
)
from repro.scenarios import run_scenario_fleet
from repro.scenarios.spec import ScenarioSpec

SPEC = FleetSpec(
    soc="case-study",
    memories=2,
    campaigns=4,
    defect_rate=0.004,
    master_seed=13,
    backend="auto",
)
CHUNK_SIZE = 1
TOTAL_CHUNKS = len(chunked_indices(SPEC.campaigns, CHUNK_SIZE))


def run_with_store(tmp_path, name, resume=False, spec=SPEC):
    scheduler = FleetScheduler(
        spec,
        workers=1,
        chunk_size=CHUNK_SIZE,
        checkpoint=tmp_path / name,
        resume=resume,
    )
    return scheduler.run(), scheduler


def store_files(root):
    return sorted(p.name for p in root.iterdir())


class TestResumeProperty:
    @pytest.mark.parametrize("prefix", range(TOTAL_CHUNKS + 1))
    def test_resume_after_any_prefix_matches_uninterrupted(self, tmp_path, prefix):
        full_report, scheduler = run_with_store(tmp_path, "full")
        full_dir = tmp_path / "full"

        # Simulate a run interrupted after ``prefix`` chunks: a store
        # holding the manifest plus only the first N chunk files.
        partial_dir = tmp_path / f"partial_{prefix}"
        partial_dir.mkdir()
        shutil.copy(full_dir / "manifest.json", partial_dir / "manifest.json")
        for index in range(prefix):
            name = f"chunk_{index:05d}.json"
            shutil.copy(full_dir / name, partial_dir / name)

        resumed_report, _ = run_with_store(
            tmp_path, f"partial_{prefix}", resume=True
        )
        assert resumed_report.canonical_json() == full_report.canonical_json()
        assert resumed_report.campaigns == SPEC.campaigns

        # The on-disk format round-trips byte for byte: re-running the
        # missing suffix reproduces exactly the files the uninterrupted
        # run wrote.
        assert store_files(partial_dir) == store_files(full_dir)
        for name in store_files(full_dir):
            assert (partial_dir / name).read_bytes() == (
                full_dir / name
            ).read_bytes(), name

    def test_resume_with_complete_store_runs_nothing(self, tmp_path):
        full_report, _ = run_with_store(tmp_path, "full")

        def exploding_runner(spec, indices):  # pragma: no cover - must not run
            raise AssertionError("resume re-ran a persisted chunk")

        scheduler = FleetScheduler(
            SPEC,
            workers=1,
            chunk_size=CHUNK_SIZE,
            chunk_runner=exploding_runner,
            checkpoint=tmp_path / "full",
            resume=True,
        )
        assert scheduler.run().canonical_json() == full_report.canonical_json()

    def test_interrupted_run_then_resume(self, tmp_path):
        full_report, _ = run_with_store(tmp_path, "full")

        failures = {"budget": 2}

        def interrupting_runner(spec, indices):
            if failures["budget"] == 0:
                raise KeyboardInterrupt("simulated operator interrupt")
            failures["budget"] -= 1
            return run_chunk(spec, indices)

        with pytest.raises(KeyboardInterrupt):
            FleetScheduler(
                SPEC,
                workers=1,
                chunk_size=CHUNK_SIZE,
                chunk_runner=interrupting_runner,
                checkpoint=tmp_path / "interrupted",
            ).run()
        store = CheckpointStore(
            tmp_path / "interrupted", FleetScheduler(SPEC, workers=1,
            chunk_size=CHUNK_SIZE).spec, CHUNK_SIZE, TOTAL_CHUNKS,
        )
        assert store.completed_chunks() == [0, 1]

        resumed, _ = run_with_store(tmp_path, "interrupted", resume=True)
        assert resumed.canonical_json() == full_report.canonical_json()

    def test_pooled_run_checkpoints_match_inline(self, tmp_path):
        inline_report, _ = run_with_store(tmp_path, "inline")
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=CHUNK_SIZE,
            checkpoint=tmp_path / "pooled",
        )
        pooled_report = scheduler.run()
        assert pooled_report.canonical_json() == inline_report.canonical_json()
        for name in store_files(tmp_path / "inline"):
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "inline" / name
            ).read_bytes()

    def test_resume_adopts_store_chunk_size(self, tmp_path):
        # The implicit chunk-size default depends on the worker count, so
        # a resume on different workers (or a different machine) must
        # adopt the store's recorded partition instead of re-deriving it.
        spec = dataclasses.replace(
            SPEC, campaigns=16, include_baseline=False, repair=False
        )
        first = FleetScheduler(
            spec, workers=1, checkpoint=tmp_path / "store"
        )
        assert first.chunk_size == 4  # 16 campaigns // (1 worker * 4)
        full_report = first.run()
        resumed = FleetScheduler(
            spec, workers=2, checkpoint=tmp_path / "store", resume=True
        )
        assert resumed.chunk_size == 4  # adopted, not 16 // (2 * 4) = 2
        assert resumed.run().canonical_json() == full_report.canonical_json()

    def test_scenario_resume(self, tmp_path):
        spec = ScenarioSpec(
            campaigns=3,
            memories=4,
            master_seed=9,
            base_defect_rate=0.01,
            cluster_count=1,
            max_retest_rounds=1,
            include_baseline=False,
        )
        full = run_scenario_fleet(
            spec, workers=1, chunk_size=1, checkpoint=tmp_path / "sc"
        )
        # Drop the last chunk and resume.
        (tmp_path / "sc" / "chunk_00002.json").unlink()
        resumed = run_scenario_fleet(
            spec, workers=1, chunk_size=1, checkpoint=tmp_path / "sc", resume=True
        )
        assert resumed.canonical_json() == full.canonical_json()


class TestRejection:
    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="requires a checkpoint"):
            FleetScheduler(SPEC, workers=1, resume=True)

    def test_prepared_store_for_other_spec_rejected(self, tmp_path):
        # A CheckpointStore instance built for spec A must not be
        # accepted by a scheduler running spec B, even though A's chunk
        # digests are internally consistent.
        _, scheduler = run_with_store(tmp_path, "store")
        other = dataclasses.replace(SPEC, master_seed=99)
        with pytest.raises(CheckpointError, match="does not match"):
            FleetScheduler(
                other,
                workers=1,
                chunk_size=CHUNK_SIZE,
                checkpoint=scheduler.checkpoint,
                resume=True,
            )

    def test_prepared_store_for_same_spec_accepted(self, tmp_path):
        full_report, scheduler = run_with_store(tmp_path, "store")
        resumed = FleetScheduler(
            SPEC,
            workers=1,
            chunk_size=CHUNK_SIZE,
            checkpoint=scheduler.checkpoint,
            resume=True,
        ).run()
        assert resumed.canonical_json() == full_report.canonical_json()

    def test_stale_spec_rejected(self, tmp_path):
        run_with_store(tmp_path, "store")
        other = dataclasses.replace(SPEC, master_seed=99)
        with pytest.raises(CheckpointError, match="stale checkpoint"):
            run_with_store(tmp_path, "store", spec=other)

    def test_different_chunking_rejected(self, tmp_path):
        run_with_store(tmp_path, "store")
        with pytest.raises(CheckpointError, match="stale checkpoint"):
            FleetScheduler(
                SPEC, workers=1, chunk_size=2, checkpoint=tmp_path / "store"
            )

    def test_corrupt_chunk_rejected(self, tmp_path):
        _, scheduler = run_with_store(tmp_path, "store")
        path = tmp_path / "store" / "chunk_00001.json"
        payload = json.loads(path.read_text())
        payload["summaries"][0]["injected_faults"] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            run_with_store(tmp_path, "store", resume=True)

    def test_truncated_chunk_rejected(self, tmp_path):
        run_with_store(tmp_path, "store")
        path = tmp_path / "store" / "chunk_00000.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint chunk"):
            run_with_store(tmp_path, "store", resume=True)

    def test_corrupt_manifest_rejected(self, tmp_path):
        run_with_store(tmp_path, "store")
        (tmp_path / "store" / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
            run_with_store(tmp_path, "store", resume=True)

    def test_tampered_chunk_indices_rejected(self, tmp_path):
        run_with_store(tmp_path, "store")
        path = tmp_path / "store" / "chunk_00001.json"
        payload = json.loads(path.read_text())
        payload["indices"] = [3]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="campaign indices"):
            run_with_store(tmp_path, "store", resume=True)

    def test_foreign_chunk_digest_rejected(self, tmp_path):
        # A chunk file copied in from a different campaign's store must
        # not be aggregated even if the manifest is intact.
        run_with_store(tmp_path, "store")
        path = tmp_path / "store" / "chunk_00000.json"
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 64
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="stale checkpoint chunk"):
            run_with_store(tmp_path, "store", resume=True)


class TestRoundTrip:
    def test_summary_round_trip_is_exact(self, tmp_path):
        store = CheckpointStore(tmp_path / "rt", SPEC, 2, 1)
        summaries = [
            CampaignSummary(
                index=0,
                seed=123,
                soc_name="rt",
                injected_faults=7,
                localization_rate=0.9375,
                total_failures=41,
                proposed_time_ns=1.5e6,
                baseline_time_ns=1.23456789012e8,
                baseline_iterations=9,
                reduction_factor=82.30419,
                repaired_words=3,
                fully_repaired=True,
                verification_passed=False,
                scenario="rt-flow",
                assigned_rate_mean=0.00123,
                escaped_faults=1,
                escape_rate=1 / 7,
                retest_rounds=2,
                retest_converged=True,
                intermittent_faults=4,
                intermittent_detected=3,
            ),
            CampaignSummary(
                index=1,
                seed=124,
                soc_name="rt",
                injected_faults=0,
                localization_rate=1.0,
                total_failures=0,
            ),
        ]
        store.save(0, (0, 1), summaries)
        assert store.load(0) == summaries

    def test_digest_depends_on_spec_seed_backend_and_chunking(self):
        base = spec_digest(SPEC, 1, 4)
        assert spec_digest(SPEC, 1, 4) == base
        assert spec_digest(dataclasses.replace(SPEC, master_seed=1), 1, 4) != base
        assert spec_digest(dataclasses.replace(SPEC, backend="numpy"), 1, 4) != base
        assert spec_digest(dataclasses.replace(SPEC, campaigns=5), 1, 5) != base
        assert spec_digest(SPEC, 2, 2) != base

    def test_aggregation_from_loaded_chunks_matches(self, tmp_path):
        report, scheduler = run_with_store(tmp_path, "store")
        rebuilt = FleetReport()
        for index in scheduler.checkpoint.completed_chunks():
            for summary in scheduler.checkpoint.load(index):
                rebuilt.add(summary)
        assert rebuilt.canonical_json() == report.canonical_json()


def _temporaries(root) -> list[str]:
    return sorted(path.name for path in root.iterdir() if path.suffix == ".tmp")


class TestDurableWrites:
    """Chunk, slot and manifest files are published atomically and durably."""

    def test_failed_replace_keeps_old_file_and_leaves_no_temporary(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "chunk_00000.json"
        CheckpointStore._write_json(path, {"version": "old"})

        def failing_replace(source, target):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no space left"):
            CheckpointStore._write_json(path, {"version": "new"})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"version": "old"}
        assert _temporaries(tmp_path) == []

    def test_interleaved_writers_publish_one_complete_payload(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "chunk_00000.json"
        first = {"writer": "first", "summaries": list(range(64))}
        second = {"writer": "second", "summaries": list(range(64, 128))}
        real_replace = os.replace
        interleaved = []

        def replace_after_second_writer(source, target):
            if not interleaved:
                # A second resumer publishes the same chunk between this
                # writer's temporary-file write and its rename.
                interleaved.append(True)
                CheckpointStore._write_json(path, second)
            real_replace(source, target)

        monkeypatch.setattr(os, "replace", replace_after_second_writer)
        CheckpointStore._write_json(path, first)
        assert json.loads(path.read_text()) in (first, second)
        assert _temporaries(tmp_path) == []
