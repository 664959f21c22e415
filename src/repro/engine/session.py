"""Fast execution of a full proposed-scheme diagnosis session.

:meth:`repro.core.scheme.FastDiagnosisScheme.diagnose` walks every
controller address and operation in Python for every memory -- exact but
slow.  The session runner here produces the *same*
:class:`~repro.core.report.ProposedReport` (cycles, deliveries, NWRC count
and per-memory failure records, bit for bit and in the same list order)
by exploiting two structural facts:

* the cycle schedule of a session is closed-form -- it depends only on the
  algorithm and controller dimensions, never on the data read back;
* the memories never interact: each memory's observations depend only on
  its own faults, its local address wrap and the delivered backgrounds.

So the runner accounts the schedule arithmetically (:func:`begin_session`,
:func:`finish_session`) and simulates the memories through the engine's
one vector executor (:func:`repro.engine.kernel.run_stack`), planned by
:func:`repro.engine.batched.run_batched_session`: the numpy backend as
one-deep stacks with every fault-hooked word replayed behaviourally, the
batched backend as geometry stacks, with the compiled fault table on
stacks of enough fault-hooked rows.
Memories the vector path cannot represent (decoder/column-mux faults,
tracing) take a per-memory pure-Python path that mirrors the reference
loop exactly, and whole-session features the fast path does not model
(``bit_accurate``, ``early_abort``, protocol monitors, missing numpy)
delegate to ``scheme.diagnose`` itself.

:func:`session_passes` is the go/no-go form of a session, for repair
verification: the same plan, run bucket by bucket until one fails.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.report import ProposedReport
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.backends import (
    MarchBackend,
    NumpyBackend,
    ReferenceBackend,
    resolve_backend,
)
from repro.core.failure_log import FailureLog
from repro.engine.kernel import ElementPlan, OpPlan, SessionHits, run_element_slow
from repro.engine.packing import HAVE_NUMPY, lanes_for
from repro.march.algorithm import MarchAlgorithm, PauseStep
from repro.march.element import AddressOrder
from repro.memory.sram import SRAM
from repro.telemetry.core import tracer as _tracer
from repro.util.bitops import mask
from repro.util.validation import require


def run_session(
    scheme: FastDiagnosisScheme,
    backend: str | MarchBackend | None = "auto",
    bit_accurate: bool = False,
    early_abort: bool = False,
) -> ProposedReport:
    """Run one diagnosis session through the selected backend.

    With the reference backend (or any session feature the fast path does
    not model) this is exactly ``scheme.diagnose()``; with the numpy
    backend the same report is produced bit-identically but the per-word
    work is vectorized, and with the batched backend same-geometry
    memories are additionally swept as one stacked array per vector op.
    Session execution only knows these strategies, so other
    (custom-registered) backend types are rejected rather than silently
    substituted -- use them through
    :meth:`~repro.engine.backends.MarchBackend.run` for raw march runs.
    """
    resolved = resolve_backend(backend)
    if _runs_vectorized(scheme, resolved, bit_accurate, early_abort):
        # Imported lazily: batched builds on this module's helpers.
        from repro.engine.batched import BatchedBackend, run_batched_session

        return run_batched_session(scheme, isinstance(resolved, BatchedBackend))
    return scheme.diagnose(bit_accurate=bit_accurate, early_abort=early_abort)


def session_passes(
    scheme: FastDiagnosisScheme, backend: str | MarchBackend | None = "auto"
) -> bool:
    """Go/no-go verdict of one session: ``run_session(...).passed``, sooner.

    On the vector paths the session runs bucket by bucket in
    :func:`run_session`'s order and stops at the first bucket, or
    fallback memory, whose (ECC-decoded) failure log is not empty.
    Memories never interact, so that bucket fails in the full session
    too and the verdict is exact.  Only the verdict is: the buckets after
    it stay unswept, and the scheme's session counters are not folded.
    Every other case, the reference backend included, runs
    ``scheme.diagnose()``.  The check is one ``session.verify`` span,
    with ``verify.buckets_run`` and ``verify.buckets_skipped`` counted
    under telemetry.
    """
    resolved = resolve_backend(backend)
    tr = _tracer()
    with tr.span("session.verify", "session"):
        if not _runs_vectorized(scheme, resolved):
            return scheme.diagnose().passed
        from repro.engine.batched import (
            BatchedBackend,
            plan_session_buckets,
            session_logs,
        )

        batched = isinstance(resolved, BatchedBackend)
        algorithm = begin_session(scheme)[0]
        buckets, fallback = plan_session_buckets(scheme.bank, stacked=batched)
        passed = True
        ran = 0
        for logs in session_logs(scheme, algorithm, buckets, fallback, batched):
            ran += 1
            if any(logs):
                passed = False
                break
        if tr.enabled:
            tr.counters.add("verify.buckets_run", ran)
            tr.counters.add(
                "verify.buckets_skipped", len(buckets) + len(fallback) - ran
            )
        return passed


def _runs_vectorized(
    scheme: FastDiagnosisScheme,
    resolved: MarchBackend,
    bit_accurate: bool = False,
    early_abort: bool = False,
) -> bool:
    """Whether a session takes the vector stack runner.

    Otherwise it runs through ``scheme.diagnose``, which session
    execution allows only for the reference and numpy backend types.
    """
    fast = (
        isinstance(resolved, NumpyBackend)
        and HAVE_NUMPY
        and not bit_accurate
        and not early_abort
        and scheme.monitor is None
        # Without the routed NWRTM wire the reference raises on the first
        # NWRC op; delegating keeps that behaviour (error included) exact.
        and scheme.control.drf_screening
    )
    if not fast:
        require(
            isinstance(resolved, (NumpyBackend, ReferenceBackend)),
            f"run_session supports the 'reference', 'numpy' and 'batched' "
            f"backends, got {type(resolved).__name__}",
        )
    return fast


def begin_session(scheme: FastDiagnosisScheme):
    """Common session shell: validate, reset, account the schedule.

    Returns ``(algorithm, report, deliveries, nwrc_ops)`` with the
    closed-form cycle schedule (identical to the reference's
    per-operation increments, summed) already folded into ``report`` and
    the element-start handshake counters fired.
    """
    algorithm = scheme.algorithm_factory(scheme.controller_bits)
    require(
        algorithm.bits == scheme.controller_bits,
        "algorithm must be generated for the controller width",
    )
    for comparator in scheme.comparators.values():
        comparator.reset()
    scheme.begin_ecc()
    report = ProposedReport(
        algorithm_name=algorithm.name,
        controller_words=scheme.controller_words,
        controller_bits=scheme.controller_bits,
        period_ns=scheme.period_ns,
        failures={memory.name: [] for memory in scheme.bank},
    )

    controller_words = scheme.controller_words
    controller_bits = scheme.controller_bits
    deliveries = 0
    nwrc_ops = 0
    for step in algorithm.steps:
        if isinstance(step, PauseStep):
            report.pause_ns += step.duration_ns
            continue
        element = step.element
        # Keep the element-start handshake counter in sync with the
        # reference (one trigger per March element).
        scheme.trigger.fire()
        scheme.trigger.element_done()
        if element.writes_anything:
            report.cycles += controller_bits
            deliveries += 1
        for op in element.operations:
            if op.is_read:
                report.cycles += controller_words * (1 + controller_bits)
            else:
                report.cycles += controller_words
                if op.is_nwrc:
                    nwrc_ops += controller_words
    return algorithm, report, deliveries, nwrc_ops


def finish_session(
    scheme: FastDiagnosisScheme,
    report: ProposedReport,
    deliveries: int,
    nwrc_ops: int,
) -> ProposedReport:
    """Fold the shared controller counters and close the report."""
    scheme.background_gen.cycles += deliveries * scheme.controller_bits
    scheme.background_gen.deliveries += deliveries
    scheme.nwrtm.nwrc_ops += nwrc_ops
    report.deliveries = scheme.background_gen.deliveries
    report.nwrc_ops = scheme.nwrtm.nwrc_ops
    report.ecc = scheme.ecc_summaries()
    return report


def finalize_memory_counters(
    scheme: FastDiagnosisScheme,
    memory: SRAM,
    failures: FailureLog,
    reads_per_word: int,
) -> None:
    """Per-memory comparator/PSC bookkeeping, identical to the reference.

    The comparator shares the report's log: its records stay unbuilt
    until someone reads them.
    """
    comparator = scheme.comparators[memory.name]
    comparator.failures = failures
    comparator.comparisons += scheme.controller_words * reads_per_word
    psc = scheme.pscs[memory.name]
    psc.captures += scheme.controller_words * reads_per_word
    psc.cycles += scheme.controller_words * reads_per_word * memory.bits


# --------------------------------------------------------------------- #
# Session plan cache                                                    #
# --------------------------------------------------------------------- #
#: LRU of session plan lists keyed on (march fingerprint, widths).  Plans
#: are pure values (frozen dataclasses over ints/strings), so sharing one
#: list across campaigns -- and across the memories of a bucket -- is
#: safe; the bound keeps long heterogeneous sweeps from hoarding memory.
_PLAN_CACHE: "OrderedDict[tuple, list]" = OrderedDict()
_PLAN_CACHE_MAX = 128
_plan_cache_hits = 0
_plan_cache_misses = 0


def plan_cache_stats() -> tuple[int, int]:
    """Cumulative (hits, misses) of this process's session plan cache."""
    return _plan_cache_hits, _plan_cache_misses


def reset_plan_cache() -> None:
    """Clear the plan cache and its counters (test isolation helper)."""
    global _plan_cache_hits, _plan_cache_misses
    _PLAN_CACHE.clear()
    _plan_cache_hits = 0
    _plan_cache_misses = 0


def session_step_plans(
    scheme: FastDiagnosisScheme, memory: SRAM, algorithm: MarchAlgorithm
) -> list[PauseStep | ElementPlan]:
    """Resolve every algorithm step against one memory's width.

    Plans depend only on the memory's ``(words, bits)`` and the controller
    dimensions (SPC adaptation and comparator expectations are pure
    functions of the widths and the delivery order), so one memory's plan
    list is valid for every same-geometry memory in the bank -- the fact
    the batched tier builds each geometry bucket's plans exactly once
    from.  Lists are additionally memoized across sessions *and
    campaigns* in a process-wide LRU keyed on the algorithm's structural
    fingerprint plus every width the plan embeds.  Each lookup counts
    ``plan_cache.hits`` or ``plan_cache.misses`` on the active tracer.
    """
    global _plan_cache_hits, _plan_cache_misses
    key = (
        algorithm.plan_fingerprint(),
        memory.bits,
        scheme.controller_words,
        scheme.controller_bits,
        scheme.msb_first,
    )
    cached = _PLAN_CACHE.get(key)
    tr = _tracer()
    if tr.enabled:
        tr.counters.add("plan_cache.misses" if cached is None else "plan_cache.hits")
    if cached is not None:
        _plan_cache_hits += 1
        _PLAN_CACHE.move_to_end(key)
        return cached
    _plan_cache_misses += 1
    plans = _build_step_plans(scheme, memory, algorithm)
    _PLAN_CACHE[key] = plans
    if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plans


def _build_step_plans(
    scheme: FastDiagnosisScheme, memory: SRAM, algorithm: MarchAlgorithm
) -> list[PauseStep | ElementPlan]:
    bits = memory.bits
    comparator = scheme.comparators[memory.name]
    spc = scheme.spcs[memory.name]
    word_mask = mask(bits)
    plans: list[PauseStep | ElementPlan] = []
    for step_index, step in enumerate(algorithm.steps):
        if isinstance(step, PauseStep):
            plans.append(step)
            continue
        element = step.element
        adapted = spc.expected_pattern(step.background, scheme.controller_bits)
        correct = step.background & word_mask
        ops = tuple(
            OpPlan(
                op=op,
                operation=op.notation(),
                write_word=None if op.is_read else op.word_for(adapted, bits),
                expected_plain=(
                    comparator.expected_word(element, op_index, correct, wrapped=False)
                    if op.is_read
                    else None
                ),
                expected_wrapped=(
                    comparator.expected_word(element, op_index, correct, wrapped=True)
                    if op.is_read
                    else None
                ),
                tick_cost=1 + scheme.controller_bits if op.is_read else 1,
            )
            for op_index, op in enumerate(element.operations)
        )
        plans.append(
            ElementPlan(
                step_index=step_index,
                step_label=step.label or element.notation(),
                record_background=correct,
                deliver_ticks=scheme.controller_bits if element.writes_anything else 0,
                ascending=element.order is not AddressOrder.DOWN,
                sweep_length=scheme.controller_words,
                ops=ops,
            )
        )
    return plans


def _run_memory_session(
    scheme: FastDiagnosisScheme, memory: SRAM, algorithm: MarchAlgorithm
) -> FailureLog:
    """Simulate one memory the vector path cannot represent.

    Runs :func:`~repro.engine.kernel.run_element_slow` element by element,
    which matches the reference loop cycle for cycle.
    """
    tr = _tracer()
    hits = SessionHits(lanes_for(memory.bits), scheme.ecc_observers)
    plans = session_step_plans(scheme, memory, algorithm)
    for plan in plans:
        if isinstance(plan, PauseStep):
            memory.pause(plan.duration_ns)
            continue
        if tr.enabled:
            with tr.span(
                "march.element", "march", step=plan.step_label, memory=memory.name
            ):
                hits.add_scalar(0, plan.step_index, run_element_slow(memory, plan))
        else:
            hits.add_scalar(0, plan.step_index, run_element_slow(memory, plan))
    return hits.logs([memory.name], memory.bits, plans)[0]
