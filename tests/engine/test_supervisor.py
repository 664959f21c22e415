"""Supervised chunk execution: persistent workers, dead workers, retries,
deadlines, quarantine.

The regression that motivates this file: under ``multiprocessing.Pool``
a worker dying via ``os._exit`` mid-chunk hung the parent forever
(``imap_unordered`` never yields the lost task).  Every test that kills
or hangs workers therefore runs under a :func:`watchdog` alarm -- if the
supervisor regresses into a hang, the test fails loudly instead of
stalling the suite.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro.engine.supervisor as supervisor_module
from repro.engine.fleet import FleetScheduler, FleetSpec, run_chunk, run_fleet
from repro.engine.supervisor import (
    ChunkExecutionError,
    ChunkFailure,
    ChunkRetryPolicy,
    ChunkSupervisor,
    current_attempt,
)
from repro.testing import ChaosChunkRunner, ChaosSpec

SPEC = FleetSpec(
    soc="case-study",
    memories=2,
    campaigns=6,
    defect_rate=0.004,
    master_seed=11,
    include_baseline=False,
    backend="reference",
)

#: Fast-but-real retry policy: a couple of retries, millisecond backoff.
RETRY = ChunkRetryPolicy(
    max_attempts=3, backoff_base_s=0.01, backoff_max_s=0.05
)

#: Every first attempt of every chunk dies hard; retries succeed.
CRASH_ONCE = ChaosSpec(seed=3, crash_rate=1.0, max_faults_per_chunk=1)

#: Every attempt of every chunk dies hard; nothing ever succeeds.
CRASH_ALWAYS = ChaosSpec(seed=3, crash_rate=1.0, max_faults_per_chunk=99)


@contextlib.contextmanager
def watchdog(seconds: int = 120):
    """Fail the test if the protected block stalls -- never hang the suite."""

    def _expired(signum, frame):
        raise AssertionError(
            f"watchdog expired: fleet hung for more than {seconds}s on a "
            f"dead worker"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_orphaned_workers(before: set) -> None:
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leftover = {
            p for p in multiprocessing.active_children() if p not in before
        }
        if not leftover:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned supervised workers: {leftover}")


def _fail_campaign_three(spec, indices):
    if 3 in indices:
        raise RuntimeError("campaign three is poison")
    return run_chunk(spec, indices)


class TestRetryPolicy:
    def test_defaults_validate(self):
        policy = ChunkRetryPolicy()
        assert policy.max_attempts == 3
        assert policy.chunk_timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max_s": -1.0},
            {"jitter": -0.25},
            {"chunk_timeout_s": 0.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChunkRetryPolicy(**kwargs)

    def test_delay_is_deterministic(self):
        policy = ChunkRetryPolicy()
        assert policy.delay_s(7, 3, 1) == policy.delay_s(7, 3, 1)

    def test_delay_grows_and_caps(self):
        policy = ChunkRetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.4,
            jitter=0.0,
        )
        delays = [policy.delay_s(0, 0, attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.4]

    def test_jitter_bounded_and_chunk_dependent(self):
        policy = ChunkRetryPolicy(
            backoff_base_s=0.1, backoff_factor=1.0, jitter=0.5
        )
        delays = [policy.delay_s(7, chunk, 1) for chunk in range(8)]
        assert all(0.1 <= delay <= 0.15 for delay in delays)
        assert len(set(delays)) > 1

    def test_first_retry_is_attempt_one(self):
        with pytest.raises(ValueError):
            ChunkRetryPolicy().delay_s(0, 0, 0)


class TestFailureRecords:
    def test_block_entry_shape(self):
        failure = ChunkFailure(
            chunk_index=4,
            campaign_indices=(8, 9),
            error_kinds=("crash", "timeout"),
            details=("exit 113", "deadline"),
        )
        assert failure.block_entry() == {
            "chunk": 4,
            "campaigns": [8, 9],
            "error_kinds": ["crash", "timeout"],
        }

    def test_error_message_carries_attempt_history(self):
        failure = ChunkFailure(
            chunk_index=4,
            campaign_indices=(8, 9),
            error_kinds=("crash", "exception"),
            details=("worker exited with code 113", "ValueError: nope"),
        )
        error = ChunkExecutionError(failure)
        assert error.failure is failure
        message = str(error)
        assert "chunk 4 (campaigns 8..9) failed after 2 attempt(s)" in message
        assert "attempt 1 [crash] worker exited with code 113" in message
        assert "attempt 2 [exception] ValueError: nope" in message


class TestDeadWorkerDetection:
    """``os._exit`` mid-chunk must never hang the parent (regression)."""

    def test_run_survives_worker_death_and_matches_plain(self):
        plain = run_fleet(SPEC, workers=2, chunk_size=1)
        before = set(multiprocessing.active_children())
        with watchdog():
            chaotic = run_fleet(
                SPEC,
                workers=2,
                chunk_size=1,
                chunk_runner=ChaosChunkRunner(CRASH_ONCE),
                retry=RETRY,
            )
        _assert_no_orphaned_workers(before)
        assert chaotic.canonical_json() == plain.canonical_json()

    def test_run_raises_promptly_when_crashes_persist(self):
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=ChaosChunkRunner(CRASH_ALWAYS),
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        with watchdog():
            with pytest.raises(ChunkExecutionError) as excinfo:
                scheduler.run()
        failure = excinfo.value.failure
        assert failure.error_kinds == ("crash", "crash")
        assert "worker exited with code 113" in failure.details[0]

    def test_stream_survives_worker_death(self):
        plain = list(FleetScheduler(SPEC, workers=2, chunk_size=1).stream())
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=ChaosChunkRunner(CRASH_ONCE),
            retry=RETRY,
        )
        with watchdog():
            chaotic = list(scheduler.stream())
        assert chaotic == plain

    def test_stream_raises_promptly_when_crashes_persist(self):
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=ChaosChunkRunner(CRASH_ALWAYS),
            retry=ChunkRetryPolicy(max_attempts=1),
        )
        with watchdog():
            with pytest.raises(ChunkExecutionError):
                list(scheduler.stream())

    def test_early_stream_close_reaps_chaotic_workers(self):
        before = set(multiprocessing.active_children())
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=ChaosChunkRunner(CRASH_ONCE),
            retry=RETRY,
        )
        with watchdog():
            stream = scheduler.stream()
            next(stream)
            stream.close()
        _assert_no_orphaned_workers(before)


class TestDeadlines:
    def test_hung_worker_is_terminated_and_retried(self):
        plain = run_fleet(SPEC, workers=2, chunk_size=1)
        hang = ChaosSpec(
            seed=5, hang_rate=1.0, hang_s=60.0, max_faults_per_chunk=1
        )
        with watchdog():
            chaotic = run_fleet(
                SPEC,
                workers=2,
                chunk_size=1,
                chunk_runner=ChaosChunkRunner(hang),
                # The deadline must beat the injected 60s hang but leave a
                # real chunk plenty of room, so the retry always lands.
                retry=ChunkRetryPolicy(
                    max_attempts=2, backoff_base_s=0.01, chunk_timeout_s=3.0
                ),
            )
        assert chaotic.canonical_json() == plain.canonical_json()

    def test_timeout_kind_reported_when_attempts_exhaust(self):
        hang = ChaosSpec(
            seed=5, hang_rate=1.0, hang_s=60.0, max_faults_per_chunk=99
        )
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=3,
            chunk_runner=ChaosChunkRunner(hang),
            retry=ChunkRetryPolicy(max_attempts=1, chunk_timeout_s=0.5),
        )
        with watchdog():
            with pytest.raises(ChunkExecutionError) as excinfo:
                scheduler.run()
        assert excinfo.value.failure.error_kinds == ("timeout",)


class TestQuarantine:
    def test_poison_chunk_is_quarantined_and_reported(self):
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=_fail_campaign_three,
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
            on_chunk_failure="quarantine",
        )
        with watchdog():
            report = scheduler.run()
        assert report.campaigns == SPEC.campaigns - 1
        assert report.failures == [
            {
                "chunk": 3,
                "campaigns": [3],
                "error_kinds": ["exception", "exception"],
            }
        ]
        assert [f.chunk_index for f in scheduler.last_failures] == [3]
        assert "failures" in report.deterministic_dict()

    def test_strict_mode_raises_with_original_message(self):
        scheduler = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=_fail_campaign_three,
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        with watchdog():
            with pytest.raises(RuntimeError, match="campaign three is poison"):
                scheduler.run()

    def test_inline_quarantine_matches_pooled(self):
        pooled = FleetScheduler(
            SPEC,
            workers=2,
            chunk_size=1,
            chunk_runner=_fail_campaign_three,
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
            on_chunk_failure="quarantine",
        )
        inline = FleetScheduler(
            SPEC,
            workers=1,
            chunk_size=1,
            chunk_runner=_fail_campaign_three,
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
            on_chunk_failure="quarantine",
        )
        with watchdog():
            assert (
                pooled.run().canonical_json() == inline.run().canonical_json()
            )

    def test_inline_strict_raises_chunk_execution_error(self):
        scheduler = FleetScheduler(
            SPEC,
            workers=1,
            chunk_size=1,
            chunk_runner=_fail_campaign_three,
            retry=ChunkRetryPolicy(max_attempts=2, backoff_base_s=0.01),
        )
        with pytest.raises(ChunkExecutionError, match="campaign three"):
            scheduler.run()

    def test_unknown_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="on_chunk_failure"):
            FleetScheduler(SPEC, on_chunk_failure="ignore")


class TestEarlyPoolEnd:
    def test_error_names_head_of_line_chunk_and_counts(self, monkeypatch):
        def no_results(self, pending, chunks):
            return
            yield  # pragma: no cover -- makes this a (closable) generator

        monkeypatch.setattr(FleetScheduler, "_execute_pending", no_results)
        scheduler = FleetScheduler(SPEC, workers=2, chunk_size=1)
        with pytest.raises(
            RuntimeError,
            match=r"worker pool ended early: completed 0 of 6 expected chunk "
            r"results; head-of-line chunk 0 \(campaigns 0\.\.0\)",
        ):
            scheduler.run()


class TestStartMethodOverride:
    def test_env_override_selects_spawn(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert FleetScheduler._pool_context().get_start_method() == "spawn"

    def test_unsupported_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with pytest.raises(ValueError, match="REPRO_START_METHOD"):
            FleetScheduler._pool_context()

    def test_spawn_run_matches_inline(self, monkeypatch):
        spec = FleetSpec(
            memories=2,
            campaigns=2,
            defect_rate=0.004,
            master_seed=11,
            include_baseline=False,
            backend="reference",
        )
        inline = run_fleet(spec, workers=1, chunk_size=1)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        with watchdog():
            spawned = run_fleet(spec, workers=2, chunk_size=1)
        assert spawned.canonical_json() == inline.canonical_json()


def _pid_chunk(spec, indices):
    """Report which process ran each campaign of the chunk."""
    return [os.getpid() for _ in indices]


def _sleepy_pid_chunk(spec, indices):
    time.sleep(0.1)
    return _pid_chunk(spec, indices)


def _hang_first_attempt_of_chunk_zero(item):
    chunk_index, indices = item
    if chunk_index == 0 and current_attempt() == 0:
        time.sleep(60.0)
    return chunk_index, _pid_chunk(None, indices), None


class _CountingContext:
    """A multiprocessing context that counts the worker processes it starts."""

    def __init__(self):
        self.inner = FleetScheduler._pool_context()
        self.started = 0

    def Pipe(self, *args, **kwargs):
        return self.inner.Pipe(*args, **kwargs)

    def Process(self, *args, **kwargs):
        self.started += 1
        return self.inner.Process(*args, **kwargs)


def _count_processes(monkeypatch) -> _CountingContext:
    context = _CountingContext()
    monkeypatch.setattr(
        FleetScheduler, "_pool_context", staticmethod(lambda: context)
    )
    return context


def _eight_chunks() -> FleetSpec:
    return FleetSpec(
        memories=2, campaigns=8, master_seed=11, backend="reference"
    )


class TestBlockingWait:
    def test_parent_blocks_instead_of_polling(self, monkeypatch):
        calls = [0]
        real_wait = supervisor_module._connection_wait

        def counting_wait(*args, **kwargs):
            calls[0] += 1
            return real_wait(*args, **kwargs)

        monkeypatch.setattr(supervisor_module, "_connection_wait", counting_wait)
        scheduler = FleetScheduler(
            _eight_chunks(), workers=2, chunk_size=1,
            chunk_runner=_sleepy_pid_chunk,
        )
        with watchdog():
            chunks = list(scheduler.stream())
        assert len(chunks) == 8
        # One wake-up per reported chunk is the floor; a parent that
        # polls while chunks queue for a worker makes tens of thousands.
        assert calls[0] <= 4 * len(chunks), calls[0]


class TestPersistentWorkers:
    def test_fault_free_run_uses_one_process_per_worker(self, monkeypatch):
        context = _count_processes(monkeypatch)
        scheduler = FleetScheduler(
            _eight_chunks(), workers=2, chunk_size=1, chunk_runner=_pid_chunk
        )
        before = set(multiprocessing.active_children())
        with watchdog():
            pids = {pid for chunk in scheduler.stream() for pid in chunk}
        _assert_no_orphaned_workers(before)
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert context.started == 2

    def test_each_crash_adds_exactly_one_process(self, monkeypatch):
        plain = run_fleet(SPEC, workers=2, chunk_size=1)
        context = _count_processes(monkeypatch)
        with watchdog():
            chaotic = run_fleet(
                SPEC,
                workers=2,
                chunk_size=1,
                chunk_runner=ChaosChunkRunner(CRASH_ONCE),
                retry=RETRY,
                telemetry=True,
            )
        crashes = SPEC.campaigns  # CRASH_ONCE kills every chunk's first attempt
        assert chaotic.telemetry.counters.get("fleet.respawns") == crashes
        assert context.started == 2 + crashes
        assert chaotic.canonical_json() == plain.canonical_json()

    def test_deadline_kill_replaces_the_worker(self):
        context = _CountingContext()
        supervisor = ChunkSupervisor(
            context=context,
            workers=1,
            task=_hang_first_attempt_of_chunk_zero,
            policy=ChunkRetryPolicy(
                max_attempts=2, backoff_base_s=0.01, chunk_timeout_s=1.0
            ),
        )
        with watchdog():
            results = sorted(supervisor.results([(0, (0,)), (1, (1,))]))
        assert [(index, snapshot) for index, _, snapshot in results] == [
            (0, None),
            (1, None),
        ]
        # The hung worker was terminated; its replacement ran the retry
        # of chunk 0 and chunk 1 alike.
        assert context.started == 2
        assert len({pid for _, pids, _ in results for pid in pids}) == 1
        assert supervisor.retries == 1
        assert supervisor.respawns == 0


#: A parent that leaves one idle worker behind and dies by SIGKILL.  The
#: worker inherits the child's stdout, so the pipe closes only once the
#: worker has exited too.
_ORPHANING_PARENT = """
import multiprocessing, os, signal
from repro.engine.supervisor import ChunkRetryPolicy, ChunkSupervisor

def task(item):
    return item[0], [], None

supervisor = ChunkSupervisor(
    context=multiprocessing.get_context("fork"), workers=1, task=task,
    policy=ChunkRetryPolicy(),
)
results = supervisor.results([(0, (0,)), (1, (1,))])
next(results)
print(*(process.pid for process in multiprocessing.active_children()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_idle_worker_exits_when_the_parent_is_killed():
    child = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_PARENT],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        output, _ = child.communicate(timeout=20)
    except subprocess.TimeoutExpired as error:
        for pid in (error.output or b"").split():
            os.kill(int(pid), signal.SIGKILL)
        child.communicate()
        raise AssertionError("idle worker outlived its killed parent") from None
    assert child.returncode == -signal.SIGKILL
    assert len(output.split()) == 1


class TestRetryOrder:
    def test_due_retry_runs_before_later_fresh_chunks(self):
        order = []

        def task(item):
            chunk_index, indices = item
            order.append((chunk_index, current_attempt()))
            if chunk_index == 1 and current_attempt() == 0:
                raise RuntimeError("transient")
            return chunk_index, list(indices), None

        supervisor = ChunkSupervisor(
            context=None,
            workers=0,
            task=task,
            policy=ChunkRetryPolicy(backoff_base_s=0.0),
        )
        results = list(supervisor.results([(i, (i,)) for i in range(4)]))
        # The retry is due at once, so it goes ahead of chunks 2 and 3
        # instead of queueing behind every fresh chunk.
        assert order == [(0, 0), (1, 0), (1, 1), (2, 0), (3, 0)]
        assert [index for index, _, _ in results] == [0, 1, 2, 3]
        assert supervisor.retries == 1
