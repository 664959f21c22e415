"""One-call diagnosis campaigns: inject -> diagnose -> repair -> verify.

The examples and CLI all follow the same outer loop; this module is that
loop as a library object, producing a single report with every artefact
(injection ground truth, proposed-scheme session, optional baseline
session, repair outcome, verification verdict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.baseline.scheme import BaselineReport, HuangJoneScheme
from repro.core.repair import RepairController, RepairResult
from repro.core.report import ProposedReport
from repro.core.scheme import FastDiagnosisScheme
from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.faults.population import FaultPopulation, sample_population
from repro.memory.sram import SRAM
from repro.soc.chip import SoCConfig
from repro.util.records import Record
from repro.util.units import format_duration_ns
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.defects import DefectProfile
    from repro.memory.bank import MemoryBank

#: Population sampler: maps ``(bank_index, memory)`` to the faults to
#: inject into that memory, a fault list or a columnar
#: :class:`~repro.faults.population.FaultPopulation`.  The default samples
#: a uniform-rate population; scenario workloads plug in
#: spatially-correlated samplers.
PopulationSampler = Callable[[int, SRAM], "list[Fault] | FaultPopulation"]


@dataclass
class CampaignReport(Record):
    """Everything one campaign produced."""

    soc_name: str
    injected_faults: int
    proposed: ProposedReport | None = None
    baseline: BaselineReport | None = None
    repair: RepairResult | None = None
    verification_passed: bool | None = None
    localization_rate: float = 0.0

    @property
    def reduction_factor(self) -> float | None:
        """Measured baseline/proposed time ratio (None without baseline)."""
        if self.baseline is None or self.proposed is None:
            return None
        return self.baseline.time_ns / self.proposed.time_ns

    def summary_lines(self) -> list[str]:
        """Human-readable campaign summary."""
        lines = [
            f"campaign on {self.soc_name}: {self.injected_faults} faults injected",
        ]
        if self.proposed is not None:
            lines.append(
                f"  proposed : {format_duration_ns(self.proposed.time_ns)}, "
                f"localization {self.localization_rate:.1%}"
            )
        if self.baseline is not None:
            lines.append(
                f"  baseline : {format_duration_ns(self.baseline.time_ns)} "
                f"(k={self.baseline.iterations}, "
                f"{len(self.baseline.missed)} faults missed)"
            )
        if self.reduction_factor is not None:
            lines.append(f"  reduction: {self.reduction_factor:.1f}x")
        if self.repair is not None:
            lines.append(
                f"  repair   : {self.repair.total_repaired_words} words, "
                f"fully repaired: {self.repair.fully_repaired}"
            )
        if self.verification_passed is not None:
            verdict = "PASS" if self.verification_passed else "FAIL"
            lines.append(f"  verify   : {verdict}")
        return lines


class DiagnosisCampaign:
    """Orchestrates a complete campaign over one SoC configuration."""

    def __init__(
        self,
        soc: SoCConfig,
        defect_rate: float = 0.005,
        seed: int = 0,
        spares_per_memory: int = 32,
        backend: str = "reference",
        profile: "DefectProfile | None" = None,
        baseline_bit_accurate: bool = False,
        sampler: PopulationSampler | None = None,
    ) -> None:
        require(0.0 <= defect_rate <= 1.0, "defect_rate must be in [0, 1]")
        self.soc = soc
        self.defect_rate = defect_rate
        self.seed = seed
        self.spares_per_memory = spares_per_memory
        #: Optional population-sampling strategy.  ``None`` keeps the
        #: uniform-rate default; :mod:`repro.scenarios` plugs in
        #: floorplan-driven clustered samplers here.
        self.sampler = sampler
        #: March-simulation backend for the proposed-scheme *and* baseline
        #: sessions: ``reference`` (the classic cell-by-cell path),
        #: ``numpy`` (vectorized, bit-identical results), ``batched``
        #: (same-geometry memories swept as one stacked array per vector
        #: op, bit-identical again) or ``auto``.  See
        #: :mod:`repro.engine.backends` and :mod:`repro.engine.batched`.
        self.backend = backend
        #: Defect-class mix for fault sampling (defaults to the paper's
        #: equal-likelihood profile).
        self.profile = profile
        #: Run the baseline session in bit-accurate serial-replay mode
        #: instead of the closed-form effective mode.  Exact but
        #: ``O(k * n * c)`` -- intended for small geometries.
        self.baseline_bit_accurate = baseline_bit_accurate
        #: Per-bank-position faults as sampled: never attached, only
        #: copied (see :meth:`faulty_bank`).
        self._pristine: list[list[Fault] | FaultPopulation] | None = None

    def _default_sampler(self, index: int, memory: SRAM) -> FaultPopulation:
        """Uniform-rate population, seeded per bank position."""
        return sample_population(
            memory.geometry,
            self.defect_rate,
            profile=self.profile,
            rng=self.seed + index,
        )

    def faulty_bank(self) -> tuple["MemoryBank", FaultInjector]:
        """Build a fresh bank with this campaign's faults injected.

        The population is sampled once per campaign, on the first call,
        and kept pristine: every call materializes new SRAM instances and
        injects fresh copies of those faults (stateful fault models must
        not be shared between sessions) -- a copy of a columnar
        population's rows, attached as one record, or clones of a
        sampler's fault list.  A campaign builds one bank for
        its proposed, repair and verification sessions -- or, for
        multi-session scenario flows, its chained
        diagnose/repair/retest stages -- and a second one only for a
        bit-accurate baseline (see :meth:`baseline_inputs`).
        """
        bank = self.soc.build_bank()
        if self._pristine is None:
            sampler = self.sampler or self._default_sampler
            self._pristine = [
                sampler(index, memory) for index, memory in enumerate(bank)
            ]
        injector = FaultInjector()
        for memory, faults in zip(bank, self._pristine):
            if isinstance(faults, FaultPopulation):
                injector.inject(memory, faults.copy())
            else:
                injector.inject(memory, [fault.clone() for fault in faults])
        return bank, injector

    def run(
        self,
        include_baseline: bool = True,
        repair: bool = True,
    ) -> CampaignReport:
        """Execute the campaign and return the combined report.

        One bank serves every session: the effective baseline reads only
        the injector's ground truth, so it shares it too.  Verification
        is a go/no-go verdict (:func:`repro.engine.session.session_passes`):
        the vector backends stop at the first bucket that fails, with the
        verdict a full session would give.
        """
        # Imported lazily: repro.engine imports this module for the fleet
        # scheduler, so a top-level import would be circular.
        from repro.engine.session import session_passes

        bank, injector = self.faulty_bank()
        scheme = FastDiagnosisScheme(bank, period_ns=self.soc.period_ns)
        proposed = self.diagnose_proposed(scheme)
        report = CampaignReport(
            soc_name=self.soc.name,
            injected_faults=injector.total,
            proposed=proposed,
            localization_rate=proposed.localization_rate(injector),
        )

        if include_baseline:
            baseline_bank, baseline_injector = self.baseline_inputs(bank, injector)
            report.baseline = self.diagnose_baseline(
                HuangJoneScheme(baseline_bank, period_ns=self.soc.period_ns),
                baseline_injector,
            )

        if repair:
            controller = RepairController(bank, self.spares_per_memory)
            report.repair = controller.apply(proposed)
            report.verification_passed = session_passes(scheme, self.backend)
        return report

    def baseline_inputs(
        self, bank: "MemoryBank", injector: FaultInjector
    ) -> tuple["MemoryBank", FaultInjector]:
        """The bank and ground truth the baseline session runs on.

        Effective mode only reads the injector's fault lists and the
        bank's names and dimensions, so it shares the campaign's own bank
        and injector.  Bit-accurate mode detaches
        faults as it localizes them, so it gets a twin from
        :meth:`faulty_bank`.
        """
        if self.baseline_bit_accurate:
            return self.faulty_bank()
        return bank, injector

    def diagnose_proposed(self, scheme: FastDiagnosisScheme) -> ProposedReport:
        """Run one session through the configured backend.

        ``run_session`` runs the ``numpy`` and ``batched`` backends
        through the vector stack runner (one-deep stacks or geometry
        stacks) and everything else through the reference, all
        bit-identical.
        """
        if self.backend == "reference":
            return scheme.diagnose()
        from repro.engine.session import run_session

        return run_session(scheme, backend=self.backend)

    def diagnose_baseline(
        self, scheme: HuangJoneScheme, injector: FaultInjector
    ) -> BaselineReport:
        """Run the baseline session through the configured backend."""
        if self.backend == "reference":
            return scheme.diagnose(
                injector, include_drf=True, bit_accurate=self.baseline_bit_accurate
            )
        from repro.engine.baseline_session import run_baseline_session

        return run_baseline_session(
            scheme,
            injector,
            backend=self.backend,
            include_drf=True,
            bit_accurate=self.baseline_bit_accurate,
        )
