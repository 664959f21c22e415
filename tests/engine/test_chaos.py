"""The deterministic chaos harness and its headline invariant.

The property this file pins (``TestChaosRoundTrip`` in
``tests/test_cli_fault_tolerance.py`` asserts the same end to end
through the CLI): a fleet run with seeded fault injection --
workers killed, exceptions raised, checkpoint chunks corrupted -- that
recovers through retries and quarantine-mode resume reproduces the
undisturbed run's ``deterministic_dict()`` *and* checkpoint store bytes
exactly, on every backend.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine.checkpoint import CheckpointError
from repro.engine.fleet import FleetSpec, run_fleet
from repro.engine.packing import HAVE_NUMPY
from repro.engine.supervisor import ChunkRetryPolicy, set_current_attempt
from repro.testing import (
    CHAOS_CRASH_EXIT_CODE,
    ChaosChunkRunner,
    ChaosError,
    ChaosSpec,
    corrupt_checkpoint_chunks,
    parse_chaos_spec,
)

RETRY = ChunkRetryPolicy(
    max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05
)

#: Every chunk faults exactly once (a crash or an exception, drawn from
#: the seeded stream), then its retry succeeds.
CRASH_OR_RAISE = ChaosSpec(
    seed=9, crash_rate=0.5, exception_rate=0.5, max_faults_per_chunk=1
)


def _spec(backend: str, campaigns: int = 4) -> FleetSpec:
    # A uniform small geometry so the same population is schedulable on
    # the reference, numpy and fleet-batched backends alike.
    return FleetSpec(
        memories=2,
        campaigns=campaigns,
        defect_rate=0.004,
        master_seed=11,
        include_baseline=False,
        backend=backend,
        geometry=(64, 8),
    )


def _store_bytes(root) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(root).glob("*.json"))
    }


def _echo_chunk(spec, indices):
    return list(indices)


class TestChaosSpec:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            ChaosSpec(crash_rate=0.5, exception_rate=0.4, hang_rate=0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"exception_rate": 1.5},
            {"corrupt_rate": 2.0},
            {"hang_s": 0.0},
            {"max_faults_per_chunk": -1},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosSpec(**kwargs)

    def test_fault_draw_is_deterministic(self):
        chaos = ChaosSpec(seed=7, crash_rate=0.3, exception_rate=0.3)
        draws = [chaos.fault_for(chunk, 0) for chunk in range(32)]
        again = [chaos.fault_for(chunk, 0) for chunk in range(32)]
        assert draws == again
        assert set(draws) > {None}  # some chunks fault at these rates

    def test_seed_changes_the_plan(self):
        one = ChaosSpec(seed=1, crash_rate=0.5)
        two = ChaosSpec(seed=2, crash_rate=0.5)
        assert [one.fault_for(c, 0) for c in range(64)] != [
            two.fault_for(c, 0) for c in range(64)
        ]

    @pytest.mark.parametrize(
        "kwargs,kind",
        [
            ({"crash_rate": 1.0}, "crash"),
            ({"exception_rate": 1.0}, "exception"),
            ({"hang_rate": 1.0}, "hang"),
            ({}, None),
        ],
    )
    def test_rate_one_always_draws_that_band(self, kwargs, kind):
        chaos = ChaosSpec(seed=3, **kwargs)
        assert {chaos.fault_for(chunk, 0) for chunk in range(16)} == {kind}

    def test_max_faults_bounds_attempts(self):
        chaos = ChaosSpec(seed=3, crash_rate=1.0, max_faults_per_chunk=2)
        assert chaos.fault_for(0, 0) == "crash"
        assert chaos.fault_for(0, 1) == "crash"
        assert chaos.fault_for(0, 2) is None

    def test_corruption_stream_extremes(self):
        assert ChaosSpec(corrupt_rate=1.0).corrupts_chunk(5)
        assert not ChaosSpec(corrupt_rate=0.0).corrupts_chunk(5)


class TestParseChaosSpec:
    def test_full_round_trip(self):
        chaos = parse_chaos_spec(
            "seed=7, crash=0.25, exception=0.1, hang=0.05, hang_s=9,"
            " corrupt=0.5, max_faults=2"
        )
        assert chaos == ChaosSpec(
            seed=7,
            crash_rate=0.25,
            exception_rate=0.1,
            hang_rate=0.05,
            hang_s=9.0,
            corrupt_rate=0.5,
            max_faults_per_chunk=2,
        )

    def test_empty_spec_is_default(self):
        assert parse_chaos_spec("") == ChaosSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bad --chaos token"):
            parse_chaos_spec("crashes=0.5")

    def test_missing_separator_rejected(self):
        with pytest.raises(ValueError, match="bad --chaos token"):
            parse_chaos_spec("crash")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad --chaos value"):
            parse_chaos_spec("seed=lots")


class TestChaosRunner:
    def test_injected_exception_names_chunk_and_attempt(self):
        runner = ChaosChunkRunner(
            ChaosSpec(seed=3, exception_rate=1.0), inner=_echo_chunk
        )
        set_current_attempt(0)
        try:
            with pytest.raises(ChaosError, match="campaign 4 \\(attempt 0\\)"):
                runner(None, (4, 5))
        finally:
            set_current_attempt(0)

    def test_delegates_once_faults_are_spent(self):
        runner = ChaosChunkRunner(
            ChaosSpec(seed=3, exception_rate=1.0, max_faults_per_chunk=1),
            inner=_echo_chunk,
        )
        set_current_attempt(1)
        try:
            assert runner(None, (4, 5)) == [4, 5]
        finally:
            set_current_attempt(0)

    def test_crash_exit_code_is_distinctive(self):
        assert CHAOS_CRASH_EXIT_CODE not in (0, 1)


BACKENDS = [
    "reference",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable"),
    ),
    pytest.param(
        "batched",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable"),
    ),
]


class TestChaosDeterminism:
    """Chaos changes scheduling, never results -- on every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crash_and_retry_reproduce_plain_run_exactly(
        self, backend, tmp_path
    ):
        spec = _spec(backend)
        plain = run_fleet(
            spec, workers=2, chunk_size=1, checkpoint=tmp_path / "plain"
        )
        chaotic = run_fleet(
            spec,
            workers=2,
            chunk_size=1,
            checkpoint=tmp_path / "chaos",
            chunk_runner=ChaosChunkRunner(CRASH_OR_RAISE),
            retry=RETRY,
        )
        assert chaotic.deterministic_dict() == plain.deterministic_dict()
        assert _store_bytes(tmp_path / "chaos") == _store_bytes(
            tmp_path / "plain"
        )


class TestCheckpointCorruptionRecovery:
    CORRUPT = ChaosSpec(seed=2, corrupt_rate=0.6)

    def test_quarantine_resume_heals_corrupt_chunks(self, tmp_path):
        spec = _spec("reference", campaigns=6)
        store = tmp_path / "ckpt"
        original = run_fleet(spec, workers=2, chunk_size=1, checkpoint=store)
        corrupted = corrupt_checkpoint_chunks(store, self.CORRUPT)
        assert corrupted  # the seeded stream must damage at least one chunk
        resumed = run_fleet(
            spec,
            workers=2,
            chunk_size=1,
            checkpoint=store,
            resume=True,
            on_chunk_failure="quarantine",
        )
        assert resumed.canonical_json() == original.canonical_json()
        quarantined = sorted(store.glob("*.quarantined"))
        assert len(quarantined) == len(corrupted)
        # The healed store holds the exact bytes the corruption destroyed.
        for index in corrupted:
            reloaded = json.loads(
                (store / f"chunk_{index:05d}.json").read_text()
            )
            assert reloaded["indices"] == [index]

    def test_strict_resume_still_refuses_corrupt_store(self, tmp_path):
        spec = _spec("reference", campaigns=6)
        store = tmp_path / "ckpt"
        run_fleet(spec, workers=2, chunk_size=1, checkpoint=store)
        assert corrupt_checkpoint_chunks(store, self.CORRUPT)
        with pytest.raises(CheckpointError):
            run_fleet(
                spec, workers=2, chunk_size=1, checkpoint=store, resume=True
            )
