"""Multi-session production flows: test -> repair -> retest -> burn-in.

One scenario *campaign* is a chained sequence of diagnosis sessions on a
single SoC build, mirroring a production test flow:

1. **test** -- the proposed-scheme diagnosis session on the clustered
   fault population (plus the baseline session, so the measured
   reduction factor R is reported under clustering; only a bit-accurate
   baseline gets an identical twin bank, see
   :meth:`~repro.core.campaign.DiagnosisCampaign.baseline_inputs`);
2. **repair** -- word-spare allocation from the latest session's failures;
3. **retest** -- re-diagnosis; repair/retest rounds repeat until the bank
   comes back clean or ``max_retest_rounds`` is exhausted (*retest
   convergence*);
4. **burn-in** -- an intermittent/soft-error population is layered onto
   the surviving bank (:mod:`repro.faults.intermittent`) and a final
   re-diagnosis hunts latent and transient mechanisms.

Every manufacturing fault that no session of the flow ever localized is
an **escape**; the escape rate, convergence round count and intermittent
detection counters are the scenario-level aggregates the fleet report
accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.scheme import BaselineReport, HuangJoneScheme
from repro.core.campaign import DiagnosisCampaign
from repro.core.redundancy import RedundancyBudget
from repro.core.repair import BisrController, RepairController
from repro.core.report import ProposedReport
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.aggregate import CampaignSummary
from repro.faults.base import Fault
from repro.faults.intermittent import sample_intermittent_population
from repro.faults.population import sample_population
from repro.memory.sram import SRAM
from repro.scenarios.cluster import assign_rates
from repro.scenarios.spec import ScenarioSpec
from repro.util.records import Record
from repro.util.rng import derive_seed, mix_seed, name_seed
from repro.util.units import format_duration_ns

#: Stream labels separating the per-campaign derived seeds.
_FAULT_STREAM = 0xFA
_BURN_IN_STREAM = 0xB1


@dataclass(frozen=True)
class StageOutcome(Record):
    """One executed stage of a scenario flow."""

    stage: str
    #: Repair/retest round the stage belongs to (0 = initial test).
    round: int
    #: Failing reads of a diagnosis stage (None for repair stages).
    failures: int | None = None
    #: Session time of a diagnosis stage.
    time_ns: float | None = None
    #: Words remapped by a word-spare repair stage.
    repaired_words: int | None = None
    #: Faults detached by a repair stage.
    detached_faults: int | None = None
    #: Spare rows committed by a BISR repair stage.
    repaired_rows: int | None = None
    #: Spare columns committed by a BISR repair stage.
    repaired_cols: int | None = None


@dataclass
class ScenarioCampaignReport(Record):
    """Everything one scenario campaign produced."""

    scenario: str
    soc_name: str
    index: int
    seed: int
    #: Defect rate the cluster field assigned to each memory.
    assigned_rates: dict[str, float] = field(default_factory=dict)
    injected_faults: int = 0
    stages: list[StageOutcome] = field(default_factory=list)
    proposed: ProposedReport | None = None
    baseline: BaselineReport | None = None
    retest_rounds: int = 0
    retest_converged: bool = False
    escaped_faults: int = 0
    intermittent_faults: int = 0
    intermittent_detected: int = 0
    localization_rate: float = 0.0
    #: Whether the flow's sessions ran behind an on-die ECC layer.
    ecc_enabled: bool = False
    #: Decoder corrections / masked mismatches / uncorrectable reads
    #: summed over every session of the flow.
    ecc_corrected_reads: int = 0
    ecc_masked_reads: int = 0
    ecc_uncorrectable_reads: int = 0
    #: Escaped manufacturing faults whose victims the decoder corrected
    #: somewhere in the flow -- escapes attributable to ECC masking.
    ecc_masked_escaped: int = 0
    #: BISR repair yield (covered / repair-needing memories); ``None``
    #: for word-spare flows or when no memory needed repair.
    repair_yield: float | None = None
    #: Total spare rows/columns the BISR allocator committed.
    repaired_rows: int = 0
    repaired_cols: int = 0

    @property
    def ecc_masked_escape_rate(self) -> float | None:
        """Fraction of injected faults that escaped *because of* ECC.

        ``None`` without an ECC layer (the distinction raw flows cannot
        express); 0.0 when ECC ran but hid nothing that escaped.
        """
        if not self.ecc_enabled:
            return None
        if self.injected_faults == 0:
            return 0.0
        return self.ecc_masked_escaped / self.injected_faults

    @property
    def reduction_factor(self) -> float | None:
        """Measured baseline/proposed time ratio under clustering."""
        if self.baseline is None or self.proposed is None:
            return None
        return self.baseline.time_ns / self.proposed.time_ns

    @property
    def escape_rate(self) -> float:
        """Manufacturing faults the whole flow failed to localize."""
        if self.injected_faults == 0:
            return 0.0
        return self.escaped_faults / self.injected_faults

    @property
    def mean_assigned_rate(self) -> float:
        """Mean clustered defect rate over the bank."""
        if not self.assigned_rates:
            return 0.0
        return sum(self.assigned_rates.values()) / len(self.assigned_rates)

    def summary_lines(self) -> list[str]:
        """Human-readable flow summary."""
        lines = [
            f"scenario {self.scenario!r} campaign {self.index} on "
            f"{self.soc_name}: {self.injected_faults} faults, mean rate "
            f"{self.mean_assigned_rate:.3%}",
        ]
        for stage in self.stages:
            if stage.failures is not None:
                lines.append(
                    f"  {stage.stage:<8}: {stage.failures} failing reads "
                    f"({format_duration_ns(stage.time_ns or 0.0)})"
                )
            elif stage.repaired_words is not None:
                lines.append(
                    f"  {stage.stage:<8}: {stage.repaired_words} words "
                    f"repaired, {stage.detached_faults} faults detached"
                )
            else:
                lines.append(
                    f"  {stage.stage:<8}: {stage.repaired_rows} spare rows + "
                    f"{stage.repaired_cols} spare cols, "
                    f"{stage.detached_faults} faults detached"
                )
        verdict = "converged" if self.retest_converged else "NOT converged"
        lines.append(
            f"  flow     : {verdict} after {self.retest_rounds} repair "
            f"round(s), escape rate {self.escape_rate:.1%}"
        )
        if self.ecc_enabled:
            lines.append(
                f"  ecc      : {self.ecc_corrected_reads} corrected reads "
                f"({self.ecc_masked_reads} masked, "
                f"{self.ecc_uncorrectable_reads} uncorrectable), "
                f"masked-escape rate {self.ecc_masked_escape_rate:.1%}"
            )
        if self.repair_yield is not None:
            lines.append(
                f"  bisr     : yield {self.repair_yield:.1%} "
                f"({self.repaired_rows} rows + {self.repaired_cols} cols)"
            )
        if self.reduction_factor is not None:
            lines.append(f"  reduction: {self.reduction_factor:.1f}x")
        if self.intermittent_faults:
            lines.append(
                f"  burn-in  : {self.intermittent_detected}/"
                f"{self.intermittent_faults} intermittent faults detected"
            )
        return lines


def clustered_sampler(spec: ScenarioSpec, rates: dict[str, float], seed: int):
    """Population sampler drawing each memory's rate from the field.

    The per-memory stream derives from the campaign seed and the memory
    *name* (never the bank position), so relabeling or reordering the
    bank leaves every instance's population unchanged.
    """
    profile = spec.build_profile()

    def sampler(index: int, memory: SRAM) -> list[Fault]:
        return sample_population(
            memory.geometry,
            rates[memory.name],
            profile=profile,
            rng=derive_seed(seed, _FAULT_STREAM, name_seed(memory.name)),
        ).faults

    return sampler


def burn_in_population(
    spec: ScenarioSpec, memory: SRAM, seed: int
) -> list[Fault]:
    """The intermittent population one memory receives at burn-in."""
    return list(
        sample_intermittent_population(
            memory.geometry,
            spec.intermittent_rate,
            spec.upset_probability,
            seed=mix_seed(seed, _BURN_IN_STREAM, name_seed(memory.name)),
        )
    )


def _victim_ids(fault: Fault, bits: int) -> set[int]:
    """A fault's victim cells as ``word * bits + bit`` ids."""
    return {victim.word * bits + victim.bit for victim in fault.victims}


def run_scenario_campaign(
    spec: ScenarioSpec, index: int
) -> ScenarioCampaignReport:
    """Execute one full scenario flow and report it."""
    seed = spec.campaign_seed(index)
    soc = spec.build_soc()
    rates = assign_rates(
        spec.cluster_field(index), spec.build_floorplan(soc)
    )
    campaign = DiagnosisCampaign(
        soc,
        defect_rate=spec.base_defect_rate,
        seed=seed,
        spares_per_memory=spec.spares_per_memory,
        backend=spec.backend,
        profile=spec.build_profile(),
        baseline_bit_accurate=spec.baseline_bit_accurate,
        sampler=clustered_sampler(spec, rates, seed),
    )
    bank, injector = campaign.faulty_bank()
    scheme = FastDiagnosisScheme(
        bank, period_ns=spec.period_ns, ecc=spec.build_ecc()
    )
    report = ScenarioCampaignReport(
        scenario=spec.name,
        soc_name=soc.name,
        index=index,
        seed=seed,
        assigned_rates=rates,
        injected_faults=injector.total,
        ecc_enabled=spec.ecc is not None,
    )
    # Cell sets below are ``word * bits + bit`` ids, the failure logs'
    # cell-id stride.
    bits = {memory.name: memory.bits for memory in bank}
    # Union of the cells the decoder corrected anywhere in the flow --
    # the candidates for ECC-masked escapes.
    ecc_corrected: dict[str, set[int]] = {m.name: set() for m in bank}

    def fold_ecc(session: ProposedReport) -> None:
        if not session.ecc:
            return
        for name, summary in session.ecc.items():
            stride = bits[name]
            ecc_corrected[name].update(
                word * stride + bit for word, bit, _ in summary.corrected_cells
            )
        report.ecc_corrected_reads += session.ecc_corrected_reads
        report.ecc_masked_reads += session.ecc_masked_reads
        report.ecc_uncorrectable_reads += session.ecc_uncorrectable_reads

    # Stage 1: initial test (+ the baseline session for measured R).
    proposed = campaign.diagnose_proposed(scheme)
    report.proposed = proposed
    fold_ecc(proposed)
    report.stages.append(
        StageOutcome(
            "test", 0, failures=proposed.total_failures, time_ns=proposed.time_ns
        )
    )
    detected: dict[str, set[int]] = {
        memory.name: set(proposed.failure_log(memory.name).cell_ids())
        for memory in bank
    }
    if spec.include_baseline:
        baseline_bank, baseline_injector = campaign.baseline_inputs(bank, injector)
        report.baseline = campaign.diagnose_baseline(
            HuangJoneScheme(baseline_bank, period_ns=spec.period_ns),
            baseline_injector,
        )

    # Stage 2/3: repair -> retest until clean or out of rounds.  With a
    # row/column budget the BISR allocator replaces word-spare remapping.
    bisr: BisrController | None = None
    if spec.use_bisr:
        bisr = BisrController(
            bank, RedundancyBudget(spec.spare_rows, spec.spare_cols)
        )
        controller: BisrController | RepairController = bisr
    else:
        controller = RepairController(bank, spec.spares_per_memory)
    last = proposed
    converged = proposed.passed
    while not converged and report.retest_rounds < spec.max_retest_rounds:
        repair = controller.apply(last)
        report.retest_rounds += 1
        if bisr is not None:
            progress = repair.total_new_spares
            report.repaired_rows += repair.total_new_rows
            report.repaired_cols += repair.total_new_cols
            report.stages.append(
                StageOutcome(
                    "repair",
                    report.retest_rounds,
                    detached_faults=repair.detached_faults,
                    repaired_rows=repair.total_new_rows,
                    repaired_cols=repair.total_new_cols,
                )
            )
        else:
            progress = repair.total_repaired_words
            report.stages.append(
                StageOutcome(
                    "repair",
                    report.retest_rounds,
                    repaired_words=repair.total_repaired_words,
                    detached_faults=repair.detached_faults,
                )
            )
        if progress == 0:
            # Spares exhausted or peripheral defects: another retest
            # cannot change the outcome, so the flow stalls unconverged.
            break
        last = campaign.diagnose_proposed(scheme)
        fold_ecc(last)
        for memory in bank:
            detected[memory.name].update(last.failure_log(memory.name).cell_ids())
        report.stages.append(
            StageOutcome(
                "retest",
                report.retest_rounds,
                failures=last.total_failures,
                time_ns=last.time_ns,
            )
        )
        converged = last.passed
    report.retest_converged = converged
    if bisr is not None:
        report.repair_yield = bisr.repair_yield()

    # Stage 4: burn-in re-diagnosis with the intermittent layer attached.
    # The stage gets its own round number (it follows every repair/retest
    # round) and its *own* detection set: an intermittent fault only
    # counts as detected when the burn-in session itself saw one of its
    # victims, not when a manufacturing fault already failed that cell in
    # an earlier stage.
    intermittent: dict[str, list[Fault]] = {}
    burn_detected: dict[str, set[int]] = {}
    if spec.burn_in:
        for memory in bank:
            population = burn_in_population(spec, memory, seed)
            intermittent[memory.name] = population
            for fault in population:
                fault.attach(memory)
        burn = campaign.diagnose_proposed(scheme)
        fold_ecc(burn)
        report.stages.append(
            StageOutcome(
                "burn-in",
                report.retest_rounds + 1,
                failures=burn.total_failures,
                time_ns=burn.time_ns,
            )
        )
        for memory in bank:
            burn_detected[memory.name] = set(burn.failure_log(memory.name).cell_ids())
            detected[memory.name] |= burn_detected[memory.name]

    # Escape accounting: manufacturing faults never localized by any
    # session of the flow, and intermittent detection at burn-in.  Under
    # ECC, an escape whose victims the decoder corrected somewhere in the
    # flow is an *ECC-masked* escape -- the defect fired, the on-die
    # correction hid it from every session.
    total = 0
    escaped = 0
    masked_escaped = 0
    for name in injector.memories():
        seen = detected.get(name, set())
        corrected = ecc_corrected.get(name, set())
        for fault in injector.faults_for(name):
            total += 1
            victims = _victim_ids(fault, bits[name])
            if seen.isdisjoint(victims):
                escaped += 1
                if not corrected.isdisjoint(victims):
                    masked_escaped += 1
    report.escaped_faults = escaped
    report.ecc_masked_escaped = masked_escaped
    report.localization_rate = 1.0 if total == 0 else 1.0 - escaped / total
    report.intermittent_faults = sum(len(f) for f in intermittent.values())
    report.intermittent_detected = sum(
        1
        for name, faults in intermittent.items()
        for fault in faults
        if not burn_detected.get(name, set()).isdisjoint(_victim_ids(fault, bits[name]))
    )
    return report


def summarize_scenario_campaign(
    report: ScenarioCampaignReport,
) -> CampaignSummary:
    """Reduce a scenario campaign to its fleet summary."""
    proposed = report.proposed
    baseline = report.baseline
    return CampaignSummary(
        index=report.index,
        seed=report.seed,
        soc_name=report.soc_name,
        injected_faults=report.injected_faults,
        localization_rate=report.localization_rate,
        total_failures=proposed.total_failures if proposed else 0,
        proposed_time_ns=proposed.time_ns if proposed else None,
        baseline_time_ns=baseline.time_ns if baseline else None,
        baseline_iterations=baseline.iterations if baseline else None,
        reduction_factor=report.reduction_factor,
        scenario=report.scenario,
        assigned_rate_mean=report.mean_assigned_rate,
        escaped_faults=report.escaped_faults,
        escape_rate=report.escape_rate,
        retest_rounds=report.retest_rounds,
        retest_converged=report.retest_converged,
        intermittent_faults=report.intermittent_faults,
        intermittent_detected=report.intermittent_detected,
        ecc_masked_escaped=(
            report.ecc_masked_escaped if report.ecc_enabled else None
        ),
        ecc_masked_escape_rate=report.ecc_masked_escape_rate,
        ecc_corrected_reads=(
            report.ecc_corrected_reads if report.ecc_enabled else None
        ),
        ecc_uncorrectable_reads=(
            report.ecc_uncorrectable_reads if report.ecc_enabled else None
        ),
        repair_yield=report.repair_yield,
        repaired_rows=report.repaired_rows or None,
        repaired_cols=report.repaired_cols or None,
    )


def run_scenario_chunk(
    spec: ScenarioSpec, indices: tuple[int, ...]
) -> list[CampaignSummary]:
    """Worker entry point: run a chunk of scenario campaigns."""
    return [
        summarize_scenario_campaign(run_scenario_campaign(spec, index))
        for index in indices
    ]
