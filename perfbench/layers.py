"""Per-layer attribution for the traced run.

The traced run wraps each layer's public functions and methods with a
timer that keeps, per layer, the calls entering the layer and the
layer's *self* time: a wrapped call's duration minus the wrapped calls
nested in it.  A module-level function is rebound in every loaded module
that imported it by name, because callers look the name up there.  The
program's source is left alone, and a target that no longer exists
leaves its layer absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time

#: layer -> the ``(module, attribute)`` targets timed as that layer.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "campaign.bank": (
        ("repro.core.campaign", "DiagnosisCampaign.faulty_bank"),
        ("repro.soc.chip", "SoCConfig.build_bank"),
    ),
    "session": (("repro.engine.session", "run_session"),),
    "report.detected_cells": (
        ("repro.core.report", "ProposedReport.detected_cells"),
    ),
    "report.score": (
        ("repro.core.report", "ProposedReport.score_against"),
        ("repro.core.report", "ProposedReport.localization_rate"),
    ),
    "baseline": (("repro.engine.baseline_session", "run_baseline_session"),),
    "repair": (
        ("repro.core.repair", "RepairController.apply"),
        ("repro.core.repair", "BisrController.apply"),
    ),
    "aggregate": (
        ("repro.engine.aggregate", "FleetReport.add"),
        ("repro.engine.aggregate", "CampaignSummary.from_report"),
    ),
    "stream.timeline": (
        ("repro.streaming.timeline", "EventTimeline.events_for_window"),
    ),
}

#: Scheduler probes: counted or measured, never timed as a layer.
CHUNK_RUNNER = ("repro.engine.fleet", "run_chunk")
SUPERVISOR_RESULTS = ("repro.engine.supervisor", "ChunkSupervisor.results")
SCHEDULER_STREAM = ("repro.engine.fleet", "FleetScheduler.stream")

#: Prefix of the telemetry counters pooled workers ship layer stats in.
COUNTER_PREFIX = "perfbench."


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, raw value)`` of a target, or ``None`` if gone."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner_name, _, attribute = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return None
    raw = vars(owner).get(attribute)
    if raw is None:
        return None
    return owner, attribute, raw


class LayerTimer:
    """Installs the wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        #: ``module:attribute`` targets that could not be found.
        self.absent: list[str] = []
        #: Layers none of whose targets could be found.
        self.absent_layers: list[str] = []
        #: Pickled bytes and count of chunk results delivered by workers.
        self.ipc_bytes = 0
        self.ipc_chunks = 0
        #: Scheduler streams opened (one per monitor epoch).
        self.epochs = 0
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero the layer stats: layer -> [calls entering it, self ns]."""
        self.stats = {layer: [0, 0] for layer in LAYERS}
        self._stack: list[list] = []

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            bound = [
                self._bind(target, functools.partial(self._timed, layer))
                for target in targets
            ]
            if not any(bound):
                self.absent_layers.append(layer)
        self._bind(CHUNK_RUNNER, self._shipping)
        self._bind(SUPERVISOR_RESULTS, self._measuring_results)
        self._bind(SCHEDULER_STREAM, self._counting_stream)

    def uninstall(self) -> None:
        for site, name, raw in reversed(self._undo):
            setattr(site, name, raw)
        self._undo = []

    def worker_stats(self, counters: dict) -> dict:
        """Layer stats pooled workers shipped in their telemetry counters."""
        return {
            layer: [
                counters.get(f"{COUNTER_PREFIX}{layer}.calls", 0),
                counters.get(f"{COUNTER_PREFIX}{layer}.self_ns", 0),
            ]
            for layer in LAYERS
        }

    def _bind(self, target: tuple[str, str], make) -> bool:
        found = _resolve(*target)
        if found is None:
            self.absent.append(":".join(target))
            return False
        owner, attribute, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        if isinstance(owner, type):
            sites = [(owner, attribute)]
        else:
            sites = [
                (module, name)
                for module in list(sys.modules.values())
                if module is not None
                and getattr(module, "__name__", "").split(".")[0] == "repro"
                for name, value in list(vars(module).items())
                if value is raw
            ]
        for site, name in sites:
            self._undo.append((site, name, raw))
            setattr(site, name, wrapped)
        return True

    def _timed(self, layer: str, func):
        def wrapper(*args, **kwargs):
            stack = self._stack
            nested = any(frame[0] == layer for frame in stack)
            frame = [layer, 0]
            stack.append(frame)
            started = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                stack.pop()
                entry = self.stats[layer]
                entry[1] += elapsed - frame[1]
                if not nested:
                    entry[0] += 1
                if stack:
                    stack[-1][1] += elapsed

        return functools.wraps(func)(wrapper)

    def _shipping(self, func):
        def wrapper(*args, **kwargs):
            if os.getpid() == self.owner_pid:
                return func(*args, **kwargs)
            # A pooled worker inherited the parent's stats at fork; its
            # own die with it unless they ride back in the telemetry
            # snapshot the chunk already returns.
            self.reset()
            started = time.process_time_ns()
            result = func(*args, **kwargs)
            self._ship(time.process_time_ns() - started)
            return result

        return functools.wraps(func)(wrapper)

    def _ship(self, chunk_cpu_ns: int) -> None:
        try:
            from repro.telemetry.core import tracer
        except ImportError:
            return
        active = tracer()
        if not active.enabled:
            return
        active.counters.add(f"{COUNTER_PREFIX}chunk_cpu_ns", chunk_cpu_ns)
        for layer, (calls, self_ns) in self.stats.items():
            active.counters.add(f"{COUNTER_PREFIX}{layer}.calls", calls)
            active.counters.add(f"{COUNTER_PREFIX}{layer}.self_ns", self_ns)

    def _measuring_results(self, func):
        def wrapper(*args, **kwargs):
            results = func(*args, **kwargs)
            try:
                for item in results:
                    if item[1] is not None:
                        # Sized as a run without telemetry sends it.
                        self.ipc_bytes += len(pickle.dumps(("ok", item[1], None)))
                        self.ipc_chunks += 1
                    yield item
            finally:
                results.close()

        return functools.wraps(func)(wrapper)

    def _counting_stream(self, func):
        def wrapper(*args, **kwargs):
            self.epochs += 1
            return func(*args, **kwargs)

        return functools.wraps(func)(wrapper)
