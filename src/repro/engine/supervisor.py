"""Supervised chunk execution: persistent workers, retry, quarantine.

``multiprocessing.Pool`` is fail-silent in exactly the wrong way for a
long-running fleet: a worker that dies mid-task (segfault, OOM kill,
``os._exit``) takes its queued task down with it and
``imap_unordered`` simply never yields the result -- the parent blocks
forever.  The :class:`ChunkSupervisor` replaces the pool with up to
``workers`` long-lived processes, each on its own duplex pipe.  The
parent hands a worker one ``(chunk, attempt)`` at a time and the worker
answers with that chunk's result before it takes the next, so the
parent can distinguish the three failure shapes that matter:

* ``exception`` -- the chunk runner raised; the worker reports the
  error type and message over the pipe and stays up for the next chunk;
* ``crash`` -- the worker died without reporting (pipe hit EOF); the
  exit code is recorded and a replacement is started at once;
* ``timeout`` -- the chunk exceeded the policy's per-chunk deadline;
  the worker is terminated and likewise replaced.

Those two are the only reasons a worker is replaced, so a fault-free
run uses ``workers`` processes however many chunks it has, and every
chunk after a worker's first finds its imports and plan cache warm.
Between events the parent blocks on the busy workers' pipes until one
is readable, the earliest deadline passes or -- only while a worker is
free -- the earliest retry comes due; it never polls.  A free worker
takes the lowest-numbered due chunk: fresh chunks run while a retry
backs off, and the retry goes next once its backoff has passed.

``workers=0`` is the zero-process case of the same loop: the calling
process is the one worker.  It retries only exceptions (a crash would
take the caller down), ignores the deadline (a chunk cannot be
preempted) and lets ``KeyboardInterrupt`` through.

Failed chunks are retried under a :class:`ChunkRetryPolicy` --
exponential backoff whose jitter derives from the repo's counter-based
splitmix64 discipline (:func:`repro.util.rng.mix_seed` keyed on
``(seed, chunk, attempt)``), never from wall-clock entropy -- so a
chaos-injected run replays bit-for-bit.  A chunk that exhausts its
attempts is *poison*: strict mode raises a structured
:class:`ChunkExecutionError` carrying the full attempt history, while
quarantine mode records a :class:`ChunkFailure` and lets the rest of
the fleet complete.

Chunks are pure functions of ``(spec, indices)``, so a retried chunk
reproduces the exact bytes the first attempt would have produced --
retries change scheduling, never results.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Iterator

from repro.util.records import Record
from repro.util.rng import mix_seed
from repro.util.validation import require, require_positive

__all__ = [
    "ChunkExecutionError",
    "ChunkFailure",
    "ChunkRetryPolicy",
    "ChunkSupervisor",
    "current_attempt",
]

#: Domain-separation label for retry jitter draws (``"RETR"``), keeping
#: the backoff stream independent of every other splitmix64 consumer.
_JITTER_LABEL = 0x52455452

#: Attempt number of the chunk currently executing in this process
#: (0-based).  Set by the supervisor (in a worker, or in the caller for
#: inline execution) before the chunk runner is invoked, so
#: attempt-aware runners -- the chaos harness foremost -- can key
#: injected faults on the attempt without threading it through the
#: ``(spec, indices)`` chunk contract.
_CURRENT_ATTEMPT = 0


def current_attempt() -> int:
    """0-based attempt number of the chunk running in this process."""
    return _CURRENT_ATTEMPT


def set_current_attempt(attempt: int) -> None:
    """Record the attempt number for :func:`current_attempt` readers."""
    global _CURRENT_ATTEMPT
    _CURRENT_ATTEMPT = int(attempt)


@dataclass(frozen=True)
class ChunkRetryPolicy(Record):
    """Retry/backoff/deadline policy for one fleet execution.

    ``max_attempts`` counts every execution of a chunk, so ``1`` means
    fail-fast (no retries).  Backoff for retry ``k`` (1-based) is
    ``min(backoff_base_s * backoff_factor**(k-1), backoff_max_s)``
    stretched by a deterministic jitter in ``[0, jitter]`` drawn from
    ``mix_seed(seed, chunk, k)`` -- no wall-clock randomness, so two
    runs of the same chaos scenario sleep the same schedule.
    ``chunk_timeout_s`` (``None`` = unlimited) bounds one attempt's
    wall-clock time in a supervised worker; inline execution cannot
    preempt a chunk and ignores it.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter: float = 0.5
    chunk_timeout_s: float | None = None

    def __post_init__(self) -> None:
        require_positive(self.max_attempts, "max_attempts")
        require(self.backoff_base_s >= 0.0, "backoff_base_s must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        require(self.backoff_max_s >= 0.0, "backoff_max_s must be >= 0")
        require(self.jitter >= 0.0, "jitter must be >= 0")
        if self.chunk_timeout_s is not None:
            require(self.chunk_timeout_s > 0.0, "chunk_timeout_s must be > 0")

    def delay_s(self, seed: int, chunk_index: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``chunk_index``."""
        require(attempt >= 1, "attempt must be >= 1")
        delay = min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )
        if self.jitter > 0.0 and delay > 0.0:
            unit = (
                mix_seed(seed, _JITTER_LABEL, chunk_index, attempt) >> 11
            ) / float(1 << 53)
            delay *= 1.0 + self.jitter * unit
        return delay


@dataclass(frozen=True)
class ChunkFailure(Record):
    """Attempt history of one chunk that exhausted its retry budget."""

    chunk_index: int
    campaign_indices: tuple[int, ...]
    #: One entry per attempt, in attempt order: ``exception`` (runner
    #: raised), ``crash`` (worker died silently), ``timeout`` (deadline).
    error_kinds: tuple[str, ...]
    #: Human-readable detail per attempt (error message, exit code, ...).
    details: tuple[str, ...]

    def block_entry(self) -> dict:
        """Deterministic entry for a report's ``failures`` block."""
        return {
            "chunk": self.chunk_index,
            "campaigns": list(self.campaign_indices),
            "error_kinds": list(self.error_kinds),
        }


class ChunkExecutionError(RuntimeError):
    """A chunk failed every attempt its retry policy allowed.

    Subclasses :class:`RuntimeError` (and embeds the original error
    messages) so callers that matched the unwrapped worker exception
    keep working; the structured history lives on :attr:`failure`.
    """

    def __init__(self, failure: ChunkFailure) -> None:
        self.failure = failure
        indices = failure.campaign_indices
        span = (
            f"{indices[0]}..{indices[-1]}" if indices else "none"
        )
        history = "; ".join(
            f"attempt {number} [{kind}] {detail}"
            for number, (kind, detail) in enumerate(
                zip(failure.error_kinds, failure.details), start=1
            )
        )
        super().__init__(
            f"chunk {failure.chunk_index} (campaigns {span}) failed after "
            f"{len(failure.error_kinds)} attempt(s): {history}"
        )


def _worker_loop(conn, parent_end, task: Callable) -> None:
    """Persistent worker: run chunk attempts from ``conn`` until told to stop.

    Module-level so it pickles under the spawn start method, which pickles
    ``task`` once per worker.  Each ``(item, attempt)`` message is
    answered with ``("ok", summaries, snapshot)`` or ``("error",
    type_name, message)``; ``None`` or EOF ends the loop.  A worker that
    dies mid-chunk is detected by the parent as EOF on the pipe.
    """
    # A forked worker inherits the parent's end of its own pipe; holding
    # it would keep EOF from arriving should the parent die.
    parent_end.close()
    with conn:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            if message is None:
                return
            item, attempt = message
            set_current_attempt(attempt)
            try:
                _chunk_index, summaries, snapshot = task(item)
            except Exception as error:  # noqa: BLE001 -- shipped to the parent
                conn.send(("error", type(error).__name__, str(error)))
            else:
                conn.send(("ok", summaries, snapshot))


#: One execution of one chunk: ``(chunk_index, indices, attempt)``.
_Job = tuple[int, tuple[int, ...], int]


@dataclass
class _Worker:
    """One persistent worker process, its pipe and its current job."""

    process: object
    conn: object
    job: _Job | None = None
    deadline: float | None = None


@dataclass
class ChunkSupervisor:
    """Run pending chunks under supervision; see the module docstring.

    ``task`` maps one ``(chunk_index, indices)`` item to a
    ``(chunk_index, summaries, snapshot)`` triple (the scheduler passes
    a pickled-by-reference partial of its chunk runner).  ``workers`` is
    how many worker processes from ``context`` run at once; ``0`` runs
    every chunk in the calling process and needs no context.
    Consumption happens through :meth:`results`, which yields
    completion-order triples; a quarantined chunk yields
    ``summaries=None``.  The counters (:attr:`retries`, :attr:`respawns`
    for worker deaths, :attr:`quarantined`) and the :attr:`failures`
    list update as results stream out.
    """

    context: object
    workers: int
    task: Callable
    policy: ChunkRetryPolicy
    #: Seed for deterministic backoff jitter (the fleet's master seed).
    jitter_seed: int = 0
    #: Quarantine poison chunks instead of raising.
    quarantine: bool = False
    failures: list = field(default_factory=list)
    retries: int = 0
    respawns: int = 0
    quarantined: int = 0

    def results(
        self, pending: list[tuple[int, tuple[int, ...]]]
    ) -> Iterator[tuple[int, "list | None", dict | None]]:
        """Yield ``(chunk_index, summaries, snapshot)`` in completion order.

        Every worker is joined when the generator ends -- fully consumed,
        closed early or raising -- busy ones terminated, idle ones told
        to exit.
        """
        require(self.workers >= 0, "workers must be >= 0")
        # ``ready`` holds due jobs, lowest chunk first, so a retry whose
        # backoff has passed goes ahead of later fresh chunks and the
        # head of line is not held back; ``backoff`` holds retries by
        # their not-before time.
        ready = [(chunk_index, indices, 0) for chunk_index, indices in pending]
        heapq.heapify(ready)
        backoff: list[tuple[float, _Job]] = []
        slots = max(1, self.workers)
        history: dict[int, list[tuple[str, str]]] = {}
        idle: list[_Worker] = []
        busy: dict[object, _Worker] = {}
        try:
            while ready or backoff or busy:
                now = time.monotonic()
                while backoff and backoff[0][0] <= now:
                    heapq.heappush(ready, heapq.heappop(backoff)[1])
                if ready and len(busy) < slots:
                    job = heapq.heappop(ready)
                    if self.workers:
                        self._dispatch(job, idle, busy)
                        continue
                    outcomes = [(job, self._run_inline(job))]
                else:
                    outcomes = self._wait(backoff, idle, busy, slots)
                for job, (kind, value, extra) in outcomes:
                    if kind == "ok":
                        yield job[0], value, extra
                    else:
                        yield from self._retry_or_fail(
                            backoff, history, job, kind, value, extra
                        )
        finally:
            for worker in busy.values():
                worker.process.terminate()
            for worker in idle:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone; the join below reaps it
            for worker in [*busy.values(), *idle]:
                self._reap(worker)

    def _run_inline(self, job: _Job) -> tuple:
        chunk_index, indices, attempt = job
        set_current_attempt(attempt)
        try:
            _, summaries, snapshot = self.task((chunk_index, indices))
        except Exception as error:  # noqa: BLE001 -- retried like a worker's report
            return "exception", f"{type(error).__name__}: {error}", error
        finally:
            set_current_attempt(0)
        return "ok", summaries, snapshot

    def _dispatch(self, job: _Job, idle: list, busy: dict) -> None:
        worker = idle.pop() if idle else self._spawn()
        try:
            worker.conn.send(((job[0], job[1]), job[2]))
        except OSError:
            pass  # died while idle: its pipe reads as EOF, a crash
        worker.job = job
        if self.policy.chunk_timeout_s is not None:
            worker.deadline = time.monotonic() + self.policy.chunk_timeout_s
        busy[worker.conn] = worker

    def _spawn(self) -> _Worker:
        parent_end, child_end = self.context.Pipe()
        process = self.context.Process(
            target=_worker_loop,
            args=(child_end, parent_end, self.task),
            daemon=True,
        )
        process.start()
        # Drop the parent's handle on the child end so a dead worker
        # surfaces as EOF instead of a silently half-open pipe.
        child_end.close()
        return _Worker(process, parent_end)

    def _wait(self, backoff: list, idle: list, busy: dict, slots: int) -> list:
        """Block until a worker reports, a deadline passes or a retry is due."""
        wake = [w.deadline for w in busy.values() if w.deadline is not None]
        if backoff and len(busy) < slots:
            wake.append(backoff[0][0])
        timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
        if not busy:
            time.sleep(timeout)
            return []
        outcomes = []
        for conn in _connection_wait(list(busy), timeout=timeout):
            worker = busy[conn]
            outcome = self._collect(worker)
            del busy[conn]
            idle.append(self._spawn() if outcome[0] == "crash" else worker)
            outcomes.append((worker.job, outcome))
        now = time.monotonic()
        for conn, worker in list(busy.items()):
            if worker.deadline is not None and now >= worker.deadline:
                del busy[conn]
                worker.process.terminate()
                self._reap(worker)
                idle.append(self._spawn())
                detail = (
                    f"chunk exceeded the {self.policy.chunk_timeout_s:g}s "
                    f"deadline; worker terminated"
                )
                outcomes.append((worker.job, ("timeout", detail, None)))
        return outcomes

    def _collect(self, worker: _Worker) -> tuple:
        """Read one busy worker's report; reap and classify a silent death."""
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._reap(worker)
            self.respawns += 1
            detail = (
                f"worker exited with code {worker.process.exitcode} "
                f"before reporting a result"
            )
            return "crash", detail, None
        if message[0] == "ok":
            return message
        return "exception", f"{message[1]}: {message[2]}", None

    def _retry_or_fail(
        self,
        backoff: list,
        history: dict,
        job: _Job,
        kind: str,
        detail: str,
        cause: BaseException | None,
    ):
        chunk_index, indices, _ = job
        attempts = history.setdefault(chunk_index, [])
        attempts.append((kind, detail))
        if len(attempts) < self.policy.max_attempts:
            self.retries += 1
            delay = self.policy.delay_s(self.jitter_seed, chunk_index, len(attempts))
            retry = (chunk_index, indices, len(attempts))
            heapq.heappush(backoff, (time.monotonic() + delay, retry))
            return
        failure = ChunkFailure(
            chunk_index=chunk_index,
            campaign_indices=tuple(indices),
            error_kinds=tuple(kind for kind, _ in attempts),
            details=tuple(detail for _, detail in attempts),
        )
        if not self.quarantine:
            raise ChunkExecutionError(failure) from cause
        self.failures.append(failure)
        self.quarantined += 1
        yield chunk_index, None, None

    @staticmethod
    def _reap(worker: _Worker) -> None:
        worker.process.join(5.0)
        if worker.process.is_alive():  # pragma: no cover -- SIGTERM ignored
            worker.process.kill()
            worker.process.join()
        worker.conn.close()
