"""The fast diagnosis scheme: full cycle-accurate session (Fig. 3).

One :class:`FastDiagnosisScheme` owns the shared BISD controller (data
background generator, address trigger, control generator, comparator
array) and the per-memory SPC/PSC pairs and local address generators.  A
``diagnose()`` call runs the March algorithm over every memory *in
parallel* with the paper's cost model:

* per writing element: one serial background delivery (``c`` cycles,
  broadcast to all SPCs simultaneously);
* per write operation: one cycle (parallel application);
* per read operation: one capture cycle plus ``c`` PSC shift cycles,
  during which every memory idles (or runs reads with data ignored).

The resulting cycle count equals Eq. (2) for March CW by construction and
is verified bit-accurately in the test suite (``bit_accurate=True`` runs
every SPC/PSC shift for real).
"""

from __future__ import annotations

from repro.core.address_gen import LocalAddressGenerator
from repro.core.address_trigger import AddressTrigger
from repro.core.background_gen import DataBackgroundGenerator
from repro.core.comparator import ComparatorArray
from repro.core.control_gen import ControlGenerator
from repro.core.failure_log import FailureLog
from repro.core.nwrtm import NwrtmController
from repro.core.psc import ParallelToSerialConverter
from repro.core.report import ProposedReport
from repro.core.spc import SerialToParallelConverter
from repro.ecc.code import secded_code
from repro.ecc.observer import EccConfig, EccMemorySummary, EccObserver
from repro.march.algorithm import MarchStep, PauseStep
from repro.march.library import march_cw_nw
from repro.memory.bank import MemoryBank
from repro.util.bitops import bits_to_int, mask
from repro.util.validation import require, require_positive


class FastDiagnosisScheme:
    """The paper's proposed diagnosis architecture over a memory bank.

    Parameters
    ----------
    bank:
        The distributed e-SRAMs under diagnosis (heterogeneous sizes
        welcome; the controller is sized by the largest/widest).
    period_ns:
        Diagnosis clock period (the paper's ``t``; 10 ns in the case study).
    algorithm_factory:
        Maps the controller width to the March algorithm to run.  Defaults
        to March CW with NWRTM merged (the paper's configuration).
    msb_first:
        Serial delivery order.  ``True`` is the paper's design; ``False``
        reproduces the flawed LSB-first delivery of Sec. 3.2, in which
        narrower memories receive the *top* pattern bits while the
        comparator expects the low ones -- the coverage-loss scenario.
    drf_screening:
        Whether the NWRTM wire is routed (Sec. 3.4).
    ecc:
        Optional :class:`repro.ecc.EccConfig`.  When set, every word read
        passes through an on-die SEC-DED decoder *before* the PSC captures
        it, so the comparator -- like a real tester -- only sees
        post-correction data.  Single-bit upsets are silently repaired
        (and logged per cell), multi-bit patterns flow through raw or
        miscorrected per the extended-Hamming rules.
    """

    def __init__(
        self,
        bank: MemoryBank,
        period_ns: float = 10.0,
        algorithm_factory=march_cw_nw,
        msb_first: bool = True,
        drf_screening: bool = True,
        monitor=None,
        ecc: EccConfig | None = None,
    ) -> None:
        require_positive(period_ns, "period_ns")
        self.bank = bank
        self.period_ns = period_ns
        self.algorithm_factory = algorithm_factory
        self.msb_first = msb_first
        #: Optional :class:`repro.core.protocol.ProtocolMonitor` receiving
        #: the controller's event stream (used by validation runs).
        self.monitor = monitor
        self.controller_words = bank.max_words
        self.controller_bits = bank.max_bits
        self.control = ControlGenerator(drf_screening)
        self.nwrtm = NwrtmController(self.control)
        self.trigger = AddressTrigger()
        self.background_gen = DataBackgroundGenerator(self.controller_bits, msb_first)
        self.spcs = {
            m.name: SerialToParallelConverter(m.bits, msb_first) for m in bank
        }
        self.pscs = {m.name: ParallelToSerialConverter(m.bits) for m in bank}
        self.address_gens = {
            m.name: LocalAddressGenerator(m.words, self.controller_words) for m in bank
        }
        self.comparators = {m.name: ComparatorArray(m.name, m.bits) for m in bank}
        self.ecc = ecc
        self._ecc_codes = (
            {m.name: secded_code(m.bits) for m in bank} if ecc else {}
        )
        #: Per-memory decoder bookkeeping for the *current* session; reset
        #: by :meth:`begin_ecc` (empty when no ECC layer is configured).
        self.ecc_observers: dict[str, EccObserver] = {}

    def begin_ecc(self) -> None:
        """Start a session's ECC bookkeeping with fresh observers."""
        self.ecc_observers = {
            name: EccObserver(name, code)
            for name, code in self._ecc_codes.items()
        }

    def ecc_summaries(self) -> dict[str, EccMemorySummary] | None:
        """Freeze the current observers, or ``None`` without ECC."""
        if self.ecc is None:
            return None
        return {
            name: observer.summary()
            for name, observer in self.ecc_observers.items()
        }

    # ------------------------------------------------------------------ #
    # Public API                                                         #
    # ------------------------------------------------------------------ #
    def diagnose(
        self, bit_accurate: bool = False, early_abort: bool = False
    ) -> ProposedReport:
        """Run one full diagnosis session over the bank.

        With ``bit_accurate=True`` every background delivery is actually
        shifted through the SPCs and every response through the PSCs, and
        the reconstructed words are checked against the fast path -- the
        converters' correctness proof, used on small memories in tests.

        ``early_abort=True`` runs the session as a go/no-go production
        *test* instead of a diagnosis: the session stops at the end of the
        first March element by which every memory has failed (a fault-free
        bank still runs to completion).  Localization data is partial; the
        time saved is the test-vs-diagnosis trade-off.
        """
        algorithm = self.algorithm_factory(self.controller_bits)
        require(
            algorithm.bits == self.controller_bits,
            "algorithm must be generated for the controller width",
        )
        for comparator in self.comparators.values():
            comparator.reset()
        self.begin_ecc()
        report = ProposedReport(
            algorithm_name=algorithm.name,
            controller_words=self.controller_words,
            controller_bits=self.controller_bits,
            period_ns=self.period_ns,
            failures={m.name: [] for m in self.bank},
        )

        for step_index, step in enumerate(algorithm.steps):
            if isinstance(step, PauseStep):
                for memory in self.bank:
                    memory.pause(step.duration_ns)
                report.pause_ns += step.duration_ns
                continue
            self._run_element(step, step_index, report, bit_accurate)
            if early_abort and all(
                self.comparators[m.name].failures for m in self.bank
            ):
                report.aborted_early = True
                break

        for memory in self.bank:
            report.failures[memory.name] = FailureLog.from_records(
                memory.name, memory.bits, self.comparators[memory.name].failures
            )
        report.nwrc_ops = self.nwrtm.nwrc_ops
        report.deliveries = self.background_gen.deliveries
        report.ecc = self.ecc_summaries()
        if self.monitor is not None:
            self.monitor.on_session_end()
        return report

    def adapted_background(self, memory_name: str, background: int) -> int:
        """The background word memory ``memory_name`` actually receives."""
        return self.spcs[memory_name].expected_pattern(
            background, self.controller_bits
        )

    # ------------------------------------------------------------------ #
    # Element execution                                                  #
    # ------------------------------------------------------------------ #
    def _run_element(
        self,
        step: MarchStep,
        step_index: int,
        report: ProposedReport,
        bit_accurate: bool,
    ) -> None:
        element = step.element
        if element.writes_anything:
            self._deliver_background(step.background, report, bit_accurate)

        self.trigger.fire()
        addresses = element.order.addresses(self.controller_words)
        for step_pos, controller_address in enumerate(addresses):
            for op_index, op in enumerate(element.operations):
                if op.is_read:
                    self._read_op(
                        step, step_index, op_index, controller_address, step_pos,
                        report, bit_accurate,
                    )
                else:
                    self._write_op(
                        step, op, controller_address, report
                    )
        self.trigger.element_done()

    def _deliver_background(
        self, background: int, report: ProposedReport, bit_accurate: bool
    ) -> None:
        """Broadcast one pattern serially to all SPCs (c cycles)."""
        if bit_accurate:
            self.background_gen.deliver(background, self.spcs.values())
            for name, spc in self.spcs.items():
                expected = spc.expected_pattern(background, self.controller_bits)
                require(
                    spc.parallel_out == expected,
                    f"SPC of {name} delivered {spc.parallel_out:#x}, "
                    f"expected {expected:#x}",
                )
        else:
            self.background_gen.cycles += self.controller_bits
            self.background_gen.deliveries += 1
        report.cycles += self.controller_bits
        for memory in self.bank:
            memory.timebase.tick(self.controller_bits)

    def _write_op(self, step, op, controller_address: int, report) -> None:
        """Apply one (parallel) write or NWRC write to every memory."""
        report.cycles += 1
        is_nwrc = op.is_nwrc
        window = self.nwrtm.nwrc_window() if is_nwrc else None
        if window is not None:
            window.__enter__()
            if self.monitor is not None:
                self.monitor.on_nwrtm(True)
        if self.monitor is not None:
            self.monitor.on_write(nwrc=is_nwrc)
        try:
            for memory in self.bank:
                local = self.address_gens[memory.name].local_address(
                    controller_address
                )
                background = self.adapted_background(memory.name, step.background)
                word = op.word_for(background, memory.bits)
                if is_nwrc:
                    memory.nwrc_write(local, word)
                else:
                    memory.write(local, word)
        finally:
            if window is not None:
                window.__exit__(None, None, None)
                if self.monitor is not None:
                    self.monitor.on_nwrtm(False)

    def _read_op(
        self,
        step,
        step_index: int,
        op_index: int,
        controller_address: int,
        step_pos: int,
        report: ProposedReport,
        bit_accurate: bool,
    ) -> None:
        """Capture + serial shift-out of one read across every memory.

        Costs ``1 + c`` cycles: all PSCs shift back in parallel on separate
        return wires, so the schedule is set by the controller width.
        """
        element = step.element
        op = element.operations[op_index]
        report.cycles += 1 + self.controller_bits

        # Capture phase: the read happens with scan_en low; the PSCs latch
        # the responses in parallel.
        observations: dict[str, tuple[int, int, bool]] = {}
        for memory in self.bank:
            generator = self.address_gens[memory.name]
            local = generator.local_address(controller_address)
            observed = memory.read(local)
            wrapped = generator.has_wrapped(step_pos)
            observer = self.ecc_observers.get(memory.name)
            if observer is not None:
                # On-die ECC sits inside the macro: decode (and possibly
                # correct) before the PSC latches the response.
                expected = self.comparators[memory.name].expected_word(
                    element,
                    op_index,
                    step.background & mask(memory.bits),
                    wrapped,
                )
                if observed != expected:
                    observed = observer.observe(local, expected, observed)
            observations[memory.name] = (observed, local, wrapped)
        if self.monitor is not None:
            self.monitor.on_capture()

        # Shift phase: scan_en high, memories idle (or read-ignored) while
        # every PSC serializes back to the controller in parallel.
        self.control.set_scan_en(True)
        if self.monitor is not None:
            self.monitor.on_scan_en(True)
            for _ in range(self.controller_bits):
                self.monitor.on_idle_shift()
        for memory in self.bank:
            observed, local, wrapped = observations[memory.name]
            # The memory's local clock runs through the shift window.
            memory.timebase.tick(self.controller_bits)
            if bit_accurate:
                psc = self.pscs[memory.name]
                bits = psc.serialize(observed)
                reconstructed = bits_to_int(bits)
                require(
                    reconstructed == observed,
                    f"PSC of {memory.name} returned {reconstructed:#x}, "
                    f"captured {observed:#x}",
                )
            else:
                self.pscs[memory.name].captures += 1
                self.pscs[memory.name].cycles += memory.bits

            # Expected value: the *correct* width-adapted background.  With
            # MSB-first delivery this equals what the SPC holds; with the
            # flawed LSB-first delivery it does not, and narrow memories
            # mis-compare -- the Sec. 3.2 coverage-loss scenario.
            correct_background = step.background & mask(memory.bits)
            comparator = self.comparators[memory.name]
            expected = comparator.expected_word(
                element,
                op_index,
                correct_background,
                wrapped,
            )
            comparator.compare(
                observed,
                expected,
                step_index=step_index,
                step_label=step.label or element.notation(),
                op_index=op_index,
                operation=op.notation(),
                local_address=local,
                background=correct_background,
            )
        self.control.set_scan_en(False)
        if self.monitor is not None:
            self.monitor.on_scan_en(False)
