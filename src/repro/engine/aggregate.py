"""Streaming aggregation of campaign results into fleet-level statistics.

A fleet run may execute thousands of campaigns across a worker pool;
holding every :class:`~repro.core.campaign.CampaignReport` (with its full
failure-record sessions) in the parent process would defeat the point.
Workers therefore reduce each campaign to a compact
:class:`CampaignSummary`, and the :class:`FleetAggregator` folds summaries
into running statistics (Welford mean/variance, extrema, histogram
buckets) the moment they arrive, so parent-side memory stays O(1) in the
number of campaigns.

Zero-denominator convention (shared by the windowed streaming
aggregates in :mod:`repro.streaming`):

* **count-ratio rates** (yield, detection, escape, convergence) return
  ``None`` when the denominator is 0 -- the rate is *unknown*, and
  reporting 0.0 or 1.0 would bias downstream aggregation of sparse
  windows;
* **throughput over wall-clock time** (``campaigns_per_sec``,
  windows/sec) returns ``0.0`` when no time was recorded -- sub-clock
  sweeps round to "no measurable throughput" rather than dividing by
  zero, and wall-clock fields are run metadata anyway.

Every report renders as one JSON document of two parts: ``result``, the
deterministic content a run computes (``deterministic_dict()``), and
``run``, what the run measured (wall clock, throughput, telemetry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.campaign import CampaignReport
from repro.util.records import Record
from repro.util.validation import require


@dataclass(frozen=True)
class CampaignSummary(Record):
    """The fleet-relevant scalars of one finished campaign."""

    index: int
    seed: int
    soc_name: str
    injected_faults: int
    localization_rate: float
    total_failures: int
    proposed_time_ns: float | None = None
    baseline_time_ns: float | None = None
    baseline_iterations: int | None = None
    reduction_factor: float | None = None
    repaired_words: int | None = None
    fully_repaired: bool | None = None
    verification_passed: bool | None = None
    # Scenario-flow fields (None for plain fleet campaigns; populated by
    # :mod:`repro.scenarios.flow` for multi-session production flows).
    #: Scenario label the campaign belongs to.
    scenario: str | None = None
    #: Mean clustered defect rate the field assigned to the bank.
    assigned_rate_mean: float | None = None
    #: Manufacturing faults no session of the flow localized.
    escaped_faults: int | None = None
    escape_rate: float | None = None
    #: Repair -> retest rounds executed after the initial test.
    retest_rounds: int | None = None
    #: Whether the retest loop reached a clean session.
    retest_converged: bool | None = None
    #: Intermittent faults injected at burn-in / detected there.
    intermittent_faults: int | None = None
    intermittent_detected: int | None = None
    #: Escapes attributable to ECC masking (None without an ECC layer).
    ecc_masked_escaped: int | None = None
    ecc_masked_escape_rate: float | None = None
    #: Decoder activity summed over the flow's sessions.
    ecc_corrected_reads: int | None = None
    ecc_uncorrectable_reads: int | None = None
    #: BISR repair yield and committed spares (None for word-spare flows).
    repair_yield: float | None = None
    repaired_rows: int | None = None
    repaired_cols: int | None = None
    #: Session plan-cache traffic attributed to this campaign (run-side
    #: performance metadata, never checkpointed or reported).  Only
    #: perfbench reads these fields, on pooled traced runs; reports count
    #: the traffic through telemetry (``plan_cache.hits``/``.misses``).
    plan_cache_hits: int | None = None
    plan_cache_misses: int | None = None

    @classmethod
    def from_report(
        cls,
        index: int,
        seed: int,
        report: CampaignReport,
        plan_cache_hits: int | None = None,
        plan_cache_misses: int | None = None,
    ) -> "CampaignSummary":
        """Reduce a full campaign report to its fleet summary."""
        proposed = report.proposed
        baseline = report.baseline
        repair = report.repair
        return cls(
            plan_cache_hits=plan_cache_hits,
            plan_cache_misses=plan_cache_misses,
            index=index,
            seed=seed,
            soc_name=report.soc_name,
            injected_faults=report.injected_faults,
            localization_rate=report.localization_rate,
            total_failures=proposed.total_failures if proposed else 0,
            proposed_time_ns=proposed.time_ns if proposed else None,
            baseline_time_ns=baseline.time_ns if baseline else None,
            baseline_iterations=baseline.iterations if baseline else None,
            reduction_factor=report.reduction_factor,
            repaired_words=repair.total_repaired_words if repair else None,
            fully_repaired=repair.fully_repaired if repair else None,
            verification_passed=report.verification_passed,
        )


@dataclass
class StreamingStats(Record):
    """Welford-style running mean/variance with extrema; mergeable."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def merge(self, other: "StreamingStats") -> None:
        """Fold another accumulator in (parallel-merge form of Welford).

        Empty operands are identity elements on either side (merging
        empty windows must neither divide by zero nor poison the mean
        with NaN from the ``inf - inf`` extrema), and the combined mean
        is computed in the *symmetric* weighted form rather than as an
        update against ``self``: every float operation is commutative in
        its operands, so ``a.merge(b)`` and ``b.merge(a)`` agree
        bit-for-bit -- windowed aggregation stays byte-deterministic no
        matter which side of a merge a window lands on.
        """
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / total)
        self.mean = (self.count * self.mean + other.count * other.mean) / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two observations).

        ``m2`` is clamped at 0: catastrophic cancellation in a long
        merge chain of near-identical means can leave it a hair negative,
        and propagating that into ``std`` would raise in ``math.sqrt``.
        """
        if self.count < 2:
            return 0.0
        return max(self.m2, 0.0) / self.count

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        """JSON-friendly summary (None extrema when empty)."""
        return {
            "count": self.count,
            "mean": self.mean if self.count else None,
            "std": self.std if self.count else None,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }

    def state_dict(self) -> dict:
        """Exact internal state, JSON-safe (for checkpoint resume).

        Python floats round-trip exactly through JSON (``repr`` emits the
        shortest string that parses back to the same double), so a
        restored accumulator continues producing bit-identical merges.
        The infinite extrema of an empty accumulator are stored as
        ``None`` -- strict JSON has no ``Infinity`` literal.
        """
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "min": None if math.isinf(self.minimum) else self.minimum,
            "max": None if math.isinf(self.maximum) else self.maximum,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingStats":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        return cls(
            count=int(state["count"]),
            mean=float(state["mean"]),
            m2=float(state["m2"]),
            minimum=math.inf if state["min"] is None else float(state["min"]),
            maximum=-math.inf if state["max"] is None else float(state["max"]),
        )


#: Upper edges of the reduction-factor histogram buckets (the last bucket
#: is open-ended).  Chosen around the paper's headline R values (84/145).
REDUCTION_BUCKETS: tuple[float, ...] = (10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0)


def bucket_label(index: int) -> str:
    """Human-readable label of one histogram bucket."""
    require(0 <= index <= len(REDUCTION_BUCKETS), f"bucket {index} out of range")
    if index == 0:
        return f"<{REDUCTION_BUCKETS[0]:g}"
    if index == len(REDUCTION_BUCKETS):
        return f">={REDUCTION_BUCKETS[-1]:g}"
    return f"{REDUCTION_BUCKETS[index - 1]:g}-{REDUCTION_BUCKETS[index]:g}"


def quarantine_line(failures: list[dict], unit: str) -> str:
    """The ``QUARANTINED`` summary line of a degraded-mode run.

    ``failures`` holds one entry per quarantined chunk, each listing the
    lost items under ``unit`` (``"campaigns"`` or ``"windows"``) and its
    ``error_kinds``.
    """
    lost = sum(len(entry[unit]) for entry in failures)
    kinds = sorted({kind for entry in failures for kind in entry["error_kinds"]})
    return (
        f"  QUARANTINED     : {len(failures)} chunks "
        f"({lost} {unit} lost; {', '.join(kinds)})"
    )


@dataclass
class FleetReport(Record):
    """Fleet-level statistics over many campaigns."""

    campaigns: int = 0
    total_faults: int = 0
    total_failures: int = 0
    localization: StreamingStats = field(default_factory=StreamingStats)
    reduction: StreamingStats = field(default_factory=StreamingStats)
    proposed_time_ns: StreamingStats = field(default_factory=StreamingStats)
    baseline_time_ns: StreamingStats = field(default_factory=StreamingStats)
    baseline_iterations: StreamingStats = field(default_factory=StreamingStats)
    reduction_histogram: list[int] = field(
        default_factory=lambda: [0] * (len(REDUCTION_BUCKETS) + 1)
    )
    repaired_words: int = 0
    fully_repaired_count: int = 0
    verified_pass_count: int = 0
    verified_total: int = 0
    elapsed_s: float = 0.0
    # Scenario-flow aggregates (all zero/empty for plain fleets).
    scenario_campaigns: int = 0
    escape_rate: StreamingStats = field(default_factory=StreamingStats)
    assigned_rate: StreamingStats = field(default_factory=StreamingStats)
    retest_rounds: StreamingStats = field(default_factory=StreamingStats)
    retest_converged_count: int = 0
    intermittent_injected: int = 0
    intermittent_detected: int = 0
    # ECC + BISR aggregates (zero/empty unless campaigns ran with them).
    ecc_campaigns: int = 0
    ecc_masked_escape: StreamingStats = field(default_factory=StreamingStats)
    ecc_masked_escaped_total: int = 0
    ecc_corrected_total: int = 0
    ecc_uncorrectable_total: int = 0
    repair_yield_stats: StreamingStats = field(default_factory=StreamingStats)
    repaired_rows_total: int = 0
    repaired_cols_total: int = 0
    #: Merged engine telemetry (:class:`repro.telemetry.TelemetryReport`)
    #: when the run was scheduled with telemetry enabled.  Run metadata:
    #: rendered under ``run``, never checkpointed.
    telemetry: object | None = None
    #: Quarantined-chunk records from a degraded-mode run
    #: (``on_chunk_failure="quarantine"``): one
    #: ``{"chunk", "campaigns", "error_kinds"}`` entry per poison chunk,
    #: sorted by chunk index.  Part of the *deterministic* content --
    #: chaos injection is seeded, so the same disturbed run always loses
    #: the same chunks -- and empty (absent from JSON) on a clean run,
    #: keeping undisturbed payloads byte-identical to earlier releases.
    failures: list = field(default_factory=list)

    @property
    def campaigns_per_sec(self) -> float:
        """Fleet throughput (0 when no time was recorded)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.campaigns / self.elapsed_s

    @property
    def yield_rate(self) -> float | None:
        """Fraction of verified campaigns that passed post-repair."""
        if self.verified_total == 0:
            return None
        return self.verified_pass_count / self.verified_total

    def add(self, summary: CampaignSummary) -> None:
        """Fold one campaign summary into the fleet statistics."""
        self.campaigns += 1
        self.total_faults += summary.injected_faults
        self.total_failures += summary.total_failures
        self.localization.add(summary.localization_rate)
        if summary.proposed_time_ns is not None:
            self.proposed_time_ns.add(summary.proposed_time_ns)
        if summary.baseline_time_ns is not None:
            self.baseline_time_ns.add(summary.baseline_time_ns)
        if summary.baseline_iterations is not None:
            self.baseline_iterations.add(summary.baseline_iterations)
        if summary.reduction_factor is not None:
            self.reduction.add(summary.reduction_factor)
            bucket = 0
            while (
                bucket < len(REDUCTION_BUCKETS)
                and summary.reduction_factor >= REDUCTION_BUCKETS[bucket]
            ):
                bucket += 1
            self.reduction_histogram[bucket] += 1
        if summary.repaired_words is not None:
            self.repaired_words += summary.repaired_words
        if summary.fully_repaired:
            self.fully_repaired_count += 1
        if summary.verification_passed is not None:
            self.verified_total += 1
            if summary.verification_passed:
                self.verified_pass_count += 1
        if summary.scenario is not None:
            self.scenario_campaigns += 1
            if summary.escape_rate is not None:
                self.escape_rate.add(summary.escape_rate)
            if summary.assigned_rate_mean is not None:
                self.assigned_rate.add(summary.assigned_rate_mean)
            if summary.retest_rounds is not None:
                self.retest_rounds.add(summary.retest_rounds)
            if summary.retest_converged:
                self.retest_converged_count += 1
            self.intermittent_injected += summary.intermittent_faults or 0
            self.intermittent_detected += summary.intermittent_detected or 0
            if summary.ecc_masked_escape_rate is not None:
                self.ecc_campaigns += 1
                self.ecc_masked_escape.add(summary.ecc_masked_escape_rate)
                self.ecc_masked_escaped_total += summary.ecc_masked_escaped or 0
                self.ecc_corrected_total += summary.ecc_corrected_reads or 0
                self.ecc_uncorrectable_total += (
                    summary.ecc_uncorrectable_reads or 0
                )
            if summary.repair_yield is not None:
                self.repair_yield_stats.add(summary.repair_yield)
            self.repaired_rows_total += summary.repaired_rows or 0
            self.repaired_cols_total += summary.repaired_cols or 0

    @property
    def retest_convergence(self) -> float | None:
        """Fraction of scenario campaigns whose retest loop converged."""
        if self.scenario_campaigns == 0:
            return None
        return self.retest_converged_count / self.scenario_campaigns

    @property
    def intermittent_detection_rate(self) -> float | None:
        """Fraction of injected intermittent faults seen at burn-in."""
        if self.intermittent_injected == 0:
            return None
        return self.intermittent_detected / self.intermittent_injected

    def to_json_dict(self) -> dict:
        """The CLI's ``--json`` rendering: ``result`` plus ``run`` metadata."""
        run = {
            "elapsed_s": self.elapsed_s,
            "campaigns_per_sec": self.campaigns_per_sec,
        }
        if self.telemetry is not None:
            run["telemetry"] = self.telemetry.to_json_dict()
        return {"result": self.deterministic_dict(), "run": run}

    def deterministic_dict(self) -> dict:
        """The report's *result* content: a pure function of the spec.

        Wall clock, throughput and telemetry describe the run, not the
        fleet, and live only in :meth:`to_json_dict`'s ``run`` part.  This
        is the payload the checkpoint/resume contract guarantees
        byte-for-byte: a resumed run and an uninterrupted run agree on it
        exactly.
        """
        payload = {
            "campaigns": self.campaigns,
            "total_faults": self.total_faults,
            "total_failures": self.total_failures,
            "localization": self.localization.to_dict(),
            "reduction_factor": self.reduction.to_dict(),
            "proposed_time_ns": self.proposed_time_ns.to_dict(),
            "baseline_time_ns": self.baseline_time_ns.to_dict(),
            "baseline_iterations": self.baseline_iterations.to_dict(),
            "reduction_histogram": {
                bucket_label(i): count
                for i, count in enumerate(self.reduction_histogram)
            },
            "repaired_words": self.repaired_words,
            "fully_repaired_count": self.fully_repaired_count,
            "yield_rate": self.yield_rate,
        }
        if self.failures:
            payload["failures"] = [dict(entry) for entry in self.failures]
        if self.scenario_campaigns:
            payload["scenario"] = {
                "campaigns": self.scenario_campaigns,
                "escape_rate": self.escape_rate.to_dict(),
                "assigned_defect_rate": self.assigned_rate.to_dict(),
                "retest_rounds": self.retest_rounds.to_dict(),
                "retest_convergence": self.retest_convergence,
                "intermittent_injected": self.intermittent_injected,
                "intermittent_detected": self.intermittent_detected,
                "intermittent_detection_rate": self.intermittent_detection_rate,
            }
            if self.ecc_campaigns:
                payload["scenario"]["ecc"] = {
                    "campaigns": self.ecc_campaigns,
                    "masked_escape_rate": self.ecc_masked_escape.to_dict(),
                    "masked_escaped": self.ecc_masked_escaped_total,
                    "corrected_reads": self.ecc_corrected_total,
                    "uncorrectable_reads": self.ecc_uncorrectable_total,
                }
            if self.repair_yield_stats.count or self.repaired_rows_total or self.repaired_cols_total:
                payload["scenario"]["repair_yield"] = (
                    self.repair_yield_stats.to_dict()
                )
                payload["scenario"]["repaired_rows"] = self.repaired_rows_total
                payload["scenario"]["repaired_cols"] = self.repaired_cols_total
        return payload

    def canonical_json(self) -> str:
        """Canonical byte-comparable rendering of the deterministic content."""
        import json

        return json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":")
        )

    def summary_lines(self) -> list[str]:
        """Human-readable fleet summary for the CLI."""
        lines = [
            f"fleet: {self.campaigns} campaigns in {self.elapsed_s:.2f} s "
            f"({self.campaigns_per_sec:.2f}/s)",
            f"  faults injected : {self.total_faults} "
            f"({self.total_failures} failing reads)",
        ]
        if self.localization.count:
            lines.append(
                f"  localization    : mean {self.localization.mean:.1%} "
                f"(min {self.localization.minimum:.1%}, "
                f"max {self.localization.maximum:.1%})"
            )
        if self.baseline_iterations.count:
            lines.append(
                f"  baseline k      : mean {self.baseline_iterations.mean:.1f} "
                f"(min {self.baseline_iterations.minimum:.0f}, "
                f"max {self.baseline_iterations.maximum:.0f})"
            )
        if self.reduction.count:
            lines.append(
                f"  reduction R     : mean {self.reduction.mean:.1f}x "
                f"+/- {self.reduction.std:.1f} "
                f"(min {self.reduction.minimum:.1f}, "
                f"max {self.reduction.maximum:.1f})"
            )
            histogram = ", ".join(
                f"{bucket_label(i)}: {count}"
                for i, count in enumerate(self.reduction_histogram)
                if count
            )
            lines.append(f"  R histogram     : {histogram}")
        if self.repaired_words or self.verified_total:
            lines.append(
                f"  repair          : {self.repaired_words} words, "
                f"{self.fully_repaired_count}/{self.campaigns} fully repaired"
            )
        if self.yield_rate is not None:
            lines.append(
                f"  yield           : {self.yield_rate:.1%} "
                f"({self.verified_pass_count}/{self.verified_total} verified clean)"
            )
        if self.failures:
            lines.append(quarantine_line(self.failures, "campaigns"))
        if self.scenario_campaigns:
            flows = f"  scenario flows  : {self.scenario_campaigns} campaigns"
            if self.retest_rounds.count:
                flows += (
                    f", retest convergence {self.retest_convergence:.1%} "
                    f"(mean {self.retest_rounds.mean:.1f} rounds)"
                )
            lines.append(flows)
            if self.escape_rate.count:
                lines.append(
                    f"  escape rate     : mean {self.escape_rate.mean:.1%} "
                    f"(max {self.escape_rate.maximum:.1%})"
                )
            if self.ecc_campaigns:
                # The diagnosis gap: an analytic raw-observation model
                # predicts escape_rate - masked_escape_rate; the masked
                # share is what the on-die correction hides from it.
                lines.append(
                    f"  ecc             : {self.ecc_corrected_total} corrected "
                    f"reads ({self.ecc_uncorrectable_total} uncorrectable) "
                    f"over {self.ecc_campaigns} campaigns"
                )
                lines.append(
                    f"  masked escapes  : mean rate "
                    f"{self.ecc_masked_escape.mean:.2%} "
                    f"({self.ecc_masked_escaped_total} faults) -- gap by which "
                    f"raw-observation analysis overestimates localization"
                )
            if self.repair_yield_stats.count:
                lines.append(
                    f"  bisr yield      : mean {self.repair_yield_stats.mean:.1%} "
                    f"(min {self.repair_yield_stats.minimum:.1%}), "
                    f"{self.repaired_rows_total} spare rows + "
                    f"{self.repaired_cols_total} cols committed"
                )
            if self.assigned_rate.count:
                lines.append(
                    f"  clustered rate  : mean {self.assigned_rate.mean:.3%} "
                    f"(min {self.assigned_rate.minimum:.3%}, "
                    f"max {self.assigned_rate.maximum:.3%})"
                )
            if self.intermittent_detection_rate is not None:
                lines.append(
                    f"  intermittent    : {self.intermittent_detected}/"
                    f"{self.intermittent_injected} detected at burn-in "
                    f"({self.intermittent_detection_rate:.1%})"
                )
        return lines
