"""Fleet scheduler determinism, streaming aggregation and pool hygiene."""

from __future__ import annotations

import math
import multiprocessing
import statistics
import time

import pytest

from repro.engine.aggregate import (
    REDUCTION_BUCKETS,
    CampaignSummary,
    FleetReport,
    StreamingStats,
    bucket_label,
)
from repro.engine.fleet import (
    FleetScheduler,
    FleetSpec,
    chunked_indices,
    run_campaign,
    run_chunk,
    run_fleet,
)
from repro.util.rng import derive_seed

SPEC = FleetSpec(
    soc="case-study",
    memories=2,
    campaigns=4,
    defect_rate=0.004,
    master_seed=7,
    backend="auto",
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_per_index(self):
        seeds = {derive_seed(0, index) for index in range(100)}
        assert len(seeds) == 100

    def test_distinct_per_master(self):
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_spec_exposes_per_campaign_seeds(self):
        assert SPEC.campaign_seed(2) == derive_seed(7, 2)


class TestChunking:
    def test_partition_covers_everything_once(self):
        chunks = chunked_indices(10, 3)
        assert chunks == [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9,)]

    def test_single_chunk(self):
        assert chunked_indices(3, 10) == [(0, 1, 2)]

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunked_indices(3, 0)


class TestSchedulerDeterminism:
    def test_inline_runs_are_reproducible(self):
        first = run_fleet(SPEC, workers=1)
        second = run_fleet(SPEC, workers=1)
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.campaigns == SPEC.campaigns

    def test_chunk_size_does_not_change_results(self):
        whole = run_fleet(SPEC, workers=1, chunk_size=4)
        minced = run_fleet(SPEC, workers=1, chunk_size=1)
        assert whole.deterministic_dict() == minced.deterministic_dict()

    def test_worker_pool_matches_inline(self):
        inline = run_fleet(SPEC, workers=1)
        pooled = run_fleet(SPEC, workers=2, chunk_size=1)
        assert pooled.deterministic_dict() == inline.deterministic_dict()

    def test_campaign_summary_independent_of_position(self):
        # The summary of campaign i depends only on (spec, i).
        direct = run_campaign(SPEC, 2)
        assert direct.seed == SPEC.campaign_seed(2)
        assert direct.index == 2
        assert direct.localization_rate == run_campaign(SPEC, 2).localization_rate

    def test_worker_count_resolution(self):
        assert FleetScheduler(SPEC, workers=0).workers == 1
        assert FleetScheduler(SPEC, workers=3).workers == 3


def _chunk_summaries(chunks: list[tuple[int, ...]]) -> list[list[CampaignSummary]]:
    """Distinguishable synthetic summaries, one list per chunk."""
    return [
        [
            CampaignSummary(
                index=index,
                seed=1000 + index,
                soc_name="ooo",
                injected_faults=index,
                localization_rate=1.0,
                total_failures=0,
                reduction_factor=float(10 + index),
            )
            for index in chunk
        ]
        for chunk in chunks
    ]


class TestOutOfOrderChunks:
    """The ordering buffer between pool completion and aggregation.

    Workers may finish chunks in any order; the aggregation contract is
    that summaries reach the report in campaign order regardless, so fleet
    statistics are identical to an inline run.  The scheduler's stream is
    driven here by an executor that completes chunks shuffled, duplicated
    or truncated.
    """

    CHUNKS = chunked_indices(10, 3)  # [(0,1,2), (3,4,5), (6,7,8), (9,)]

    def shuffled(self, order):
        summaries = _chunk_summaries(self.CHUNKS)
        return [(i, summaries[i]) for i in order]

    def stream(self, monkeypatch, completions):
        """The scheduler's chunk stream over completion-order results."""
        scheduler = FleetScheduler(SPEC, workers=1, chunk_size=3)

        def executor(pending, chunks):
            for index, summaries in completions:
                yield index, summaries, None

        monkeypatch.setattr(scheduler, "_execute_pending", executor)
        return scheduler._stream_chunks(self.CHUNKS)

    @pytest.mark.parametrize(
        "completion_order",
        [(3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2), (0, 1, 2, 3)],
    )
    def test_shuffled_completions_restore_campaign_order(
        self, monkeypatch, completion_order
    ):
        ordered = list(self.stream(monkeypatch, self.shuffled(completion_order)))
        flattened = [summary.index for chunk in ordered for summary in chunk]
        assert flattened == list(range(10))

    @pytest.mark.parametrize("completion_order", [(3, 1, 0, 2), (2, 0, 3, 1)])
    def test_aggregation_matches_in_order_delivery(
        self, monkeypatch, completion_order
    ):
        in_order = FleetReport()
        for chunk in _chunk_summaries(self.CHUNKS):
            for summary in chunk:
                in_order.add(summary)
        out_of_order = FleetReport()
        for chunk in self.stream(monkeypatch, self.shuffled(completion_order)):
            for summary in chunk:
                out_of_order.add(summary)
        assert out_of_order.to_json_dict() == in_order.to_json_dict()

    def test_buffer_flushes_as_gaps_fill(self, monkeypatch):
        # Chunk 0 last: everything must be buffered, then flushed at once.
        stream = self.stream(monkeypatch, self.shuffled((3, 2, 1, 0)))
        first = next(stream)
        assert [s.index for s in first] == [0, 1, 2]
        assert [s.index for chunk in stream for s in chunk] == list(range(3, 10))

    def test_duplicate_chunk_rejected(self, monkeypatch):
        summaries = _chunk_summaries(self.CHUNKS)
        completions = [(0, summaries[0]), (1, summaries[1]), (1, summaries[1])]
        with pytest.raises(RuntimeError, match="completed twice"):
            list(self.stream(monkeypatch, completions))

    def test_missing_chunk_rejected(self, monkeypatch):
        completions = self.shuffled((0, 2, 3))
        with pytest.raises(
            RuntimeError,
            match=r"worker pool ended early: completed 3 of 4 expected chunk "
            r"results; head-of-line chunk 1 \(campaigns 3\.\.5\)",
        ):
            list(self.stream(monkeypatch, completions))

    def test_out_of_range_chunk_rejected(self, monkeypatch):
        completions = [(7, [])]
        with pytest.raises(RuntimeError, match="outside"):
            list(self.stream(monkeypatch, completions))

    def test_result_after_last_chunk_rejected(self, monkeypatch):
        completions = self.shuffled((0, 1, 2, 3, 2))
        with pytest.raises(RuntimeError, match="after all 4 pending chunks"):
            list(self.stream(monkeypatch, completions))

    def test_pooled_unordered_execution_matches_inline(self):
        # End to end through the real pool: completion-order results,
        # reordered by the scheduler, must agree with inline execution.
        inline = run_fleet(SPEC, workers=1, chunk_size=1)
        pooled = run_fleet(SPEC, workers=3, chunk_size=1)
        assert pooled.deterministic_dict() == inline.deterministic_dict()


def _boom_chunk_runner(spec, indices):
    """Module-level (picklable) runner that fails on the chunk holding 2."""
    if 2 in indices:
        raise RuntimeError("chunk runner boom")
    return run_chunk(spec, indices)


def _reversed_finish_chunk_runner(spec, indices):
    """Picklable runner whose chunks finish in reverse submission order.

    Later chunks sleep less, so the worker pool hands them back first
    and the scheduler's ordering buffer does real work.
    """
    time.sleep(0.03 * (spec.campaigns - 1 - indices[0]))
    return [
        CampaignSummary(
            index=index,
            seed=spec.campaign_seed(index),
            soc_name="sleepy",
            injected_faults=0,
            localization_rate=1.0,
            total_failures=0,
        )
        for index in indices
    ]


class TestProgressCallback:
    """The (done, total) contract: exactly once per chunk, monotone.

    Regression tests: progress must never regress, repeat, skip or report
    before the chunk's summaries were aggregated -- even when the pool
    completes chunks out of order or a resume serves chunks from disk.
    """

    def collect(self, **scheduler_kwargs) -> list[tuple[int, int]]:
        calls: list[tuple[int, int]] = []
        scheduler = FleetScheduler(SPEC, **scheduler_kwargs)
        scheduler.run(progress=lambda done, total: calls.append((done, total)))
        return calls

    def test_inline_progress_once_per_chunk(self):
        calls = self.collect(workers=1, chunk_size=1)
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_chunked_progress_counts_campaigns(self):
        calls = self.collect(workers=1, chunk_size=3)
        assert calls == [(3, 4), (4, 4)]

    def test_pooled_out_of_order_completion_stays_monotone(self):
        calls = self.collect(
            workers=4, chunk_size=1, chunk_runner=_reversed_finish_chunk_runner
        )
        # Chunks complete roughly in reverse; delivery must not.
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_resume_reports_loaded_chunks_too(self, tmp_path):
        store = tmp_path / "store"
        full = self.collect(workers=1, chunk_size=1, checkpoint=store)
        resumed = self.collect(
            workers=1, chunk_size=1, checkpoint=store, resume=True
        )
        # A fully-persisted resume replays every chunk from disk; the
        # progress stream is indistinguishable from the original run's.
        assert resumed == full == [(1, 4), (2, 4), (3, 4), (4, 4)]


def _assert_no_orphaned_workers(before: set) -> None:
    """The pool's processes must all be reaped shortly after the failure."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        leftover = {p for p in multiprocessing.active_children() if p not in before}
        if not leftover:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned pool workers: {leftover}")


class TestPoolTeardown:
    """Worker pools are closed and joined on every exit path.

    Regression tests for the teardown leak: a failing chunk runner (or a
    consumer abandoning the result stream) used to leave the pool to the
    garbage collector, orphaning its workers.
    """

    def test_failing_chunk_runner_does_not_orphan_workers(self):
        before = set(multiprocessing.active_children())
        scheduler = FleetScheduler(
            SPEC, workers=2, chunk_size=1, chunk_runner=_boom_chunk_runner
        )
        with pytest.raises(RuntimeError, match="chunk runner boom"):
            scheduler.run()
        _assert_no_orphaned_workers(before)

    def test_failing_inline_runner_also_raises(self):
        scheduler = FleetScheduler(
            SPEC, workers=1, chunk_size=1, chunk_runner=_boom_chunk_runner
        )
        with pytest.raises(RuntimeError, match="chunk runner boom"):
            scheduler.run()

    def test_raising_progress_callback_does_not_orphan_workers(self):
        before = set(multiprocessing.active_children())

        def bail_out(done, total):
            raise KeyboardInterrupt("operator stopped watching")

        scheduler = FleetScheduler(SPEC, workers=2, chunk_size=1)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(progress=bail_out)
        _assert_no_orphaned_workers(before)

    def test_successful_pooled_run_leaves_no_workers(self):
        before = set(multiprocessing.active_children())
        run_fleet(SPEC, workers=2, chunk_size=1)
        _assert_no_orphaned_workers(before)


class TestStreamingStats:
    def test_matches_statistics_module(self):
        values = [3.0, 1.5, 8.25, -2.0, 4.75, 0.5]
        stats = StreamingStats()
        for value in values:
            stats.add(value)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(statistics.fmean(values))
        assert stats.std == pytest.approx(statistics.pstdev(values))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_merge_equals_sequential(self):
        values = [1.0, 2.0, 7.0, -1.0, 3.5, 9.0, 0.0]
        left, right, sequential = StreamingStats(), StreamingStats(), StreamingStats()
        for value in values[:3]:
            left.add(value)
        for value in values[3:]:
            right.add(value)
        for value in values:
            sequential.add(value)
        left.merge(right)
        assert left.count == sequential.count
        assert left.mean == pytest.approx(sequential.mean)
        assert left.std == pytest.approx(sequential.std)
        assert left.minimum == sequential.minimum
        assert left.maximum == sequential.maximum

    def test_empty_stats_serialize_to_none(self):
        empty = StreamingStats()
        assert empty.to_dict() == {
            "count": 0, "mean": None, "std": None, "min": None, "max": None,
        }
        assert math.isinf(empty.minimum)


class TestFleetReport:
    @staticmethod
    def summary(index: int, reduction: float | None, verified: bool | None) -> CampaignSummary:
        return CampaignSummary(
            index=index,
            seed=index,
            soc_name="test",
            injected_faults=10,
            localization_rate=0.9,
            total_failures=20,
            proposed_time_ns=1e6,
            baseline_time_ns=None if reduction is None else reduction * 1e6,
            reduction_factor=reduction,
            repaired_words=4,
            fully_repaired=verified,
            verification_passed=verified,
        )

    def test_histogram_buckets(self):
        report = FleetReport()
        report.add(self.summary(0, 5.0, True))
        report.add(self.summary(1, 90.0, True))
        report.add(self.summary(2, 500.0, False))
        report.add(self.summary(3, None, None))
        histogram = report.deterministic_dict()["reduction_histogram"]
        assert histogram[bucket_label(0)] == 1  # < 10
        assert histogram[bucket_label(4)] == 1  # 75 - 100
        assert histogram[bucket_label(len(REDUCTION_BUCKETS))] == 1  # >= 300
        assert report.reduction.count == 3
        assert report.campaigns == 4

    def test_yield_rate(self):
        report = FleetReport()
        report.add(self.summary(0, 80.0, True))
        report.add(self.summary(1, 80.0, False))
        report.add(self.summary(2, 80.0, None))
        assert report.yield_rate == pytest.approx(0.5)
        assert report.verified_total == 2

    def test_yield_rate_none_without_verification(self):
        report = FleetReport()
        report.add(self.summary(0, 80.0, None))
        assert report.yield_rate is None

    def test_summary_lines_render(self):
        report = FleetReport()
        report.add(self.summary(0, 84.0, True))
        report.elapsed_s = 2.0
        text = "\n".join(report.summary_lines())
        assert "1 campaigns" in text
        assert "reduction R" in text
        assert "yield" in text

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(soc="nonsense")
        with pytest.raises(ValueError):
            FleetSpec(campaigns=0)
        with pytest.raises(ValueError):
            FleetSpec(defect_rate=1.5)


class TestStreamingStatsMergeEdges:
    """Empty/singleton merges: no ZeroDivisionError, no NaN, exact symmetry."""

    def test_empty_merge_empty_is_identity(self):
        left, right = StreamingStats(), StreamingStats()
        left.merge(right)
        assert left.count == 0
        assert left.mean == 0.0 and left.m2 == 0.0
        assert math.isinf(left.minimum) and math.isinf(left.maximum)
        assert left.std == 0.0  # no sqrt(NaN), no division by zero

    def test_empty_merge_populated_copies_exactly(self):
        left, right = StreamingStats(), StreamingStats()
        for value in (2.0, 5.0, 11.0):
            right.add(value)
        left.merge(right)
        assert left.to_dict() == right.to_dict()
        assert not math.isnan(left.mean)

    def test_populated_merge_empty_is_noop(self):
        left, right = StreamingStats(), StreamingStats()
        for value in (2.0, 5.0, 11.0):
            left.add(value)
        before = left.to_dict()
        left.merge(right)
        assert left.to_dict() == before
        assert not math.isnan(left.mean) and not math.isnan(left.std)

    def test_singleton_merge_singleton(self):
        left, right = StreamingStats(), StreamingStats()
        left.add(3.0)
        right.add(7.0)
        left.merge(right)
        assert left.count == 2
        assert left.mean == pytest.approx(5.0)
        assert left.std == pytest.approx(2.0)
        assert (left.minimum, left.maximum) == (3.0, 7.0)

    def test_merge_is_bitwise_swap_symmetric(self):
        a, b = StreamingStats(), StreamingStats()
        for value in (0.1, 0.2, 0.30000000000000004, -7.25):
            a.add(value)
        for value in (1e16, 1.0, -1e16):
            b.add(value)
        ab = StreamingStats.from_state(a.state_dict())
        ab.merge(b)
        ba = StreamingStats.from_state(b.state_dict())
        ba.merge(a)
        # Bit-for-bit, not approx: windowed aggregation relies on it.
        assert ab.state_dict() == ba.state_dict()

    def test_variance_clamps_cancellation_noise(self):
        stats = StreamingStats(count=3, mean=1.0, m2=-1e-18, minimum=1.0, maximum=1.0)
        assert stats.variance == 0.0
        assert stats.std == 0.0  # must not raise math domain error

    def test_state_roundtrip_empty_and_populated(self):
        empty = StreamingStats()
        assert StreamingStats.from_state(empty.state_dict()).to_dict() == empty.to_dict()
        stats = StreamingStats()
        for value in (1.5, -2.25, 9.0):
            stats.add(value)
        restored = StreamingStats.from_state(stats.state_dict())
        assert restored.state_dict() == stats.state_dict()


class TestZeroDenominatorRates:
    """Rate aggregates on empty reports: count ratios None, throughput 0.0."""

    def test_throughput_is_zero_without_elapsed(self):
        report = FleetReport()
        assert report.campaigns_per_sec == 0.0
        report.elapsed_s = 0.0
        assert report.campaigns_per_sec == 0.0

    def test_count_ratios_are_none_on_empty_denominators(self):
        report = FleetReport()
        assert report.yield_rate is None
        assert report.retest_convergence is None
        assert report.intermittent_detection_rate is None

    def test_empty_report_serializes_without_error(self):
        payload = FleetReport().to_json_dict()
        assert payload["result"] == FleetReport().deterministic_dict()
        assert payload["result"]["campaigns"] == 0
        assert payload["run"] == {"elapsed_s": 0.0, "campaigns_per_sec": 0.0}


def _first_chunk_only(stream):
    """Consume exactly one chunk from a scheduler stream, then abandon it."""
    for chunk in stream:
        return list(chunk)
    return []


class TestEarlyConsumerExit:
    """A consumer breaking out of the chunk stream must shut down cleanly."""

    def test_inline_stream_early_break(self):
        scheduler = FleetScheduler(SPEC, workers=1, chunk_size=1)
        stream = scheduler.stream()
        first = _first_chunk_only(stream)
        stream.close()
        assert [summary.index for summary in first] == [0]

    def test_pooled_stream_early_break_leaves_no_workers(self):
        before = set(multiprocessing.active_children())
        scheduler = FleetScheduler(SPEC, workers=2, chunk_size=1)
        stream = scheduler.stream()
        first = _first_chunk_only(stream)
        stream.close()
        assert [summary.index for summary in first] == [0]
        _assert_no_orphaned_workers(before)

    def test_stream_yields_chunks_in_submission_order(self):
        scheduler = FleetScheduler(
            SPEC, workers=2, chunk_size=1,
            chunk_runner=_reversed_finish_chunk_runner,
        )
        indices = [s.index for chunk in scheduler.stream() for s in chunk]
        assert indices == list(range(SPEC.campaigns))

    def test_full_stream_consumption_matches_run(self):
        streamed = FleetReport()
        scheduler = FleetScheduler(SPEC, workers=1, chunk_size=2)
        for chunk in scheduler.stream():
            for summary in chunk:
                streamed.add(summary)
        batch = run_fleet(SPEC, workers=1, chunk_size=2)
        assert streamed.deterministic_dict() == batch.deterministic_dict()

    def test_premature_pool_exhaustion_raises_clear_error(self, monkeypatch):
        scheduler = FleetScheduler(SPEC, workers=1, chunk_size=1)

        def dead_pool(pending, chunks):
            # A pool that stops producing before any chunk comes back.
            return
            yield  # pragma: no cover - makes this a (closable) generator

        monkeypatch.setattr(scheduler, "_execute_pending", dead_pool)
        stream = scheduler._stream_chunks(chunked_indices(SPEC.campaigns, 1))
        # The scheduler names the head-of-line chunk and the delivery
        # counts instead of surfacing PEP 479's opaque "generator raised
        # StopIteration".
        with pytest.raises(
            RuntimeError,
            match=r"worker pool ended early: completed 0 of 4 expected "
            r"chunk results; head-of-line chunk 0",
        ):
            next(stream)

    def test_exhausted_ordering_buffer_raises_clear_error(self, monkeypatch):
        scheduler = FleetScheduler(SPEC, workers=1, chunk_size=1)
        original = scheduler._execute_pending

        def one_then_stop(pending, chunks):
            # An executor that silently ends after one chunk -- the
            # stream must raise, not StopIteration.
            for item in original(pending, chunks):
                yield item
                return

        monkeypatch.setattr(scheduler, "_execute_pending", one_then_stop)
        stream = scheduler._stream_chunks(chunked_indices(SPEC.campaigns, 1))
        next(stream)
        with pytest.raises(
            RuntimeError, match="worker pool ended early: completed 1 of 4"
        ):
            next(stream)
