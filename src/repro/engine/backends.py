"""Pluggable march-simulation backends and their registry.

A *backend* runs one :class:`~repro.march.algorithm.MarchAlgorithm` against
one (possibly faulty) :class:`~repro.memory.SRAM` and returns the same
:class:`~repro.march.simulator.MarchResult` the reference simulator would --
failure records, clock cycles and final memory state included.  Two
backends ship:

``reference``
    The existing pure-Python :class:`~repro.march.simulator.MarchSimulator`,
    cell-by-cell and hook-accurate.  Always available.

``numpy``
    Bit-parallel: packs the word array into ``uint64`` lanes and applies
    march elements as whole-array ops, replaying only fault-hooked words
    through the behavioural path.  Raw runs and sessions both go through
    the engine's one vector executor (:func:`repro.engine.kernel.run_stack`)
    as one-deep stacks.  Bit-exact against the reference by construction
    and validated across the fault library in the test suite.  Falls back
    to the reference for configurations the vector path cannot represent
    (decoder/column-mux faults, access tracing, stop-on-first-failure).

``batched``
    The fleet tier (:mod:`repro.engine.batched`, registered on import of
    :mod:`repro.engine`): identical to ``numpy`` for raw single-memory
    runs, but diagnosis sessions hand the same executor every
    same-geometry memory of the bank as one ``(n_mem, words, lanes)``
    stack; in stacks of enough fault-hooked rows, lowerable faults are
    evaluated through the compiled fault table.  The fleet scheduler
    upgrades ``auto`` to it when geometry bucketing pays off.

The registry maps names to backend factories so later PRs (and user code)
can plug in further implementations::

    from repro.engine import get_backend, register_backend

    backend = get_backend("auto")      # numpy when available
    result = backend.run(memory, march_cw_nw(memory.bits))
"""

from __future__ import annotations

from typing import Callable

from repro.engine.kernel import ElementPlan, OpPlan, run_stack
from repro.engine.packing import HAVE_NUMPY, require_numpy
from repro.march.algorithm import MarchAlgorithm, PauseStep
from repro.march.element import AddressOrder
from repro.march.simulator import MarchResult, MarchSimulator
from repro.memory.sram import SRAM
from repro.util.validation import require


def vector_capable(memory: SRAM) -> bool:
    """Whether the bit-parallel paths can represent ``memory`` natively.

    The single source of truth for the vector precondition: an ideal
    address decoder and column mux, and no access tracing.  Shared by the
    numpy backend's ``supports`` checks and the session planner, so a new
    capability condition only needs to land here.
    """
    return (
        not memory.trace
        and not memory.decoder.is_faulty
        and not memory.column_mux.is_faulty
    )


class MarchBackend:
    """Interface every march-simulation backend implements."""

    #: Registry name, set by subclasses.
    name = "abstract"

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        """Apply ``algorithm`` to ``memory`` and collect failures."""
        raise NotImplementedError

    def supports(self, memory: SRAM) -> bool:
        """Whether this backend can run ``memory`` natively (no fallback)."""
        return True

    def supports_baseline(self, memory: SRAM) -> bool:
        """Whether the baseline serial replay can run ``memory`` natively.

        The baseline session runner
        (:mod:`repro.engine.baseline_session`) probes memories through the
        bi-directional serial interface rather than word-wide march ops;
        backends that cannot model that access path return ``False`` and
        the runner localizes those memories through the pure-Python scheme
        instead.
        """
        return False

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies are importable."""
        return True


class ReferenceBackend(MarchBackend):
    """The pure-Python cell-by-cell reference simulator."""

    name = "reference"

    def __init__(self, stop_on_first_failure: bool = False) -> None:
        self._simulator = MarchSimulator(stop_on_first_failure)

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        return self._simulator.run(memory, algorithm)

    def supports_baseline(self, memory: SRAM) -> bool:
        return True


class NumpyBackend(MarchBackend):
    """Bit-parallel backend packing word columns into uint64 lane arrays."""

    name = "numpy"

    def __init__(self, stop_on_first_failure: bool = False) -> None:
        # Selecting this backend *explicitly* without numpy is an error;
        # only the "auto" selector degrades silently.
        require_numpy("the numpy march backend")
        #: Early-stop semantics change mid-element side effects, so the
        #: vector path refuses them and delegates to the reference.
        self.stop_on_first_failure = stop_on_first_failure
        self._fallback = ReferenceBackend(stop_on_first_failure)

    @classmethod
    def is_available(cls) -> bool:
        return HAVE_NUMPY

    def supports(self, memory: SRAM) -> bool:
        return not self.stop_on_first_failure and vector_capable(memory)

    def supports_baseline(self, memory: SRAM) -> bool:
        # The sparse serial replay assumes an ideal address/column path and
        # no access tracing; early-stop has no serial-path meaning, so it
        # does not disqualify a memory here.
        return vector_capable(memory)

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        if not self.supports(memory):
            return self._fallback.run(memory, algorithm)
        require(
            algorithm.bits == memory.bits,
            f"algorithm width {algorithm.bits} != memory width {memory.bits}",
        )
        plans = [
            step if isinstance(step, PauseStep) else _element_plan(index, step, memory)
            for index, step in enumerate(algorithm.steps)
        ]
        result = MarchResult(algorithm.name, memory.name)
        start_cycles = memory.timebase.cycles
        start_ns = memory.now_ns
        (log,) = run_stack([memory], plans, memory.words)
        result.failures = log.records()
        result.cycles = memory.timebase.cycles - start_cycles
        result.elapsed_ns = memory.now_ns - start_ns
        return result


def _element_plan(step_index: int, step, memory: SRAM) -> ElementPlan:
    """One raw march step resolved against ``memory``: one clock per op."""
    element = step.element
    ops = []
    for op in element.operations:
        word = op.word_for(step.background, memory.bits)
        ops.append(
            OpPlan(
                op=op,
                operation=op.notation(),
                write_word=None if op.is_read else word,
                expected_plain=word if op.is_read else None,
                expected_wrapped=word if op.is_read else None,
                tick_cost=1,
            )
        )
    return ElementPlan(
        step_index=step_index,
        step_label=step.label or element.notation(),
        record_background=step.background,
        deliver_ticks=0,
        ascending=element.order is not AddressOrder.DOWN,
        sweep_length=memory.words,
        ops=tuple(ops),
    )


# --------------------------------------------------------------------- #
# Registry                                                              #
# --------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[..., MarchBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., MarchBackend], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``."""
    require(bool(name), "backend name must be non-empty")
    require(
        overwrite or name not in _REGISTRY,
        f"backend {name!r} is already registered",
    )
    _REGISTRY[name] = factory


def available_backends() -> dict[str, bool]:
    """Registered backend names mapped to their availability."""
    return {
        name: bool(getattr(factory, "is_available", lambda: True)())
        for name, factory in sorted(_REGISTRY.items())
    }


def get_backend(name: str = "auto", **kwargs) -> MarchBackend:
    """Instantiate a registered backend by name.

    ``auto`` selects the numpy backend when numpy is importable and the
    reference otherwise, so callers can opt into speed without a hard
    dependency.
    """
    if name == "auto":
        name = "numpy" if HAVE_NUMPY else "reference"
    require(name in _REGISTRY, f"unknown backend {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def resolve_backend(backend: str | MarchBackend | None) -> MarchBackend:
    """Coerce a backend spec (name, instance or None) into an instance."""
    if backend is None:
        return get_backend("auto")
    if isinstance(backend, MarchBackend):
        return backend
    return get_backend(backend)


register_backend("reference", ReferenceBackend)
register_backend("numpy", NumpyBackend)
