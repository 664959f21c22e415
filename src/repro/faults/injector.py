"""Fault injection bookkeeping across a bank of memories."""

from __future__ import annotations

from collections import Counter

from repro.faults.base import Fault, FaultClass
from repro.faults.population import FaultPopulation
from repro.memory.sram import SRAM


class FaultInjector:
    """Attaches faults to memories and remembers what went where.

    Diagnosis experiments need the ground truth ("which faults exist in
    which memory?") to score detection and localization; the injector is
    that ground-truth registry.  It records single faults and whole
    populations (:class:`~repro.faults.population.FaultPopulation`), the
    latter as their rows: counts and classes come from the columns, and
    :meth:`faults_for` builds objects only when asked.
    """

    def __init__(self) -> None:
        self._by_memory: dict[str, list[Fault | FaultPopulation]] = {}

    def inject(
        self, memory: SRAM, faults: list[Fault] | Fault | FaultPopulation
    ) -> None:
        """Attach ``faults`` to ``memory`` and record them.

        A population attaches as one record
        (:meth:`~repro.memory.sram.SRAM.attach_population`) and must not
        be attached anywhere else.
        """
        if isinstance(faults, FaultPopulation):
            memory.attach_population(faults)
            faults = [faults]
        else:
            if isinstance(faults, Fault):
                faults = [faults]
            for fault in faults:
                fault.attach(memory)
        self._by_memory.setdefault(memory.name, []).extend(faults)

    def entries(self, memory_name: str) -> list[Fault | FaultPopulation]:
        """Single faults and populations injected into ``memory_name``, in order."""
        return list(self._by_memory.get(memory_name, []))

    def faults_for(self, memory_name: str) -> list[Fault]:
        """Ground-truth faults injected into ``memory_name``."""
        faults: list[Fault] = []
        for entry in self._by_memory.get(memory_name, []):
            if isinstance(entry, FaultPopulation):
                faults.extend(entry.faults)
            else:
                faults.append(entry)
        return faults

    @property
    def total(self) -> int:
        """Total number of injected faults across all memories."""
        return sum(
            entry.size if isinstance(entry, FaultPopulation) else 1
            for entries in self._by_memory.values()
            for entry in entries
        )

    def class_histogram(self) -> dict[FaultClass, int]:
        """Counts per fault class across all memories."""
        counter: Counter[FaultClass] = Counter()
        for entries in self._by_memory.values():
            for entry in entries:
                if isinstance(entry, FaultPopulation):
                    counter.update(entry.class_histogram())
                else:
                    counter[entry.fault_class] += 1
        return dict(counter)

    def memories(self) -> list[str]:
        """Names of memories that received at least one fault."""
        return sorted(self._by_memory)

    def __repr__(self) -> str:
        return f"FaultInjector(total={self.total}, memories={self.memories()})"
