"""Reusable benchmark measurements behind ``repro bench``.

The benchmark scripts under ``benchmarks/`` are thin wrappers over this
module, so perf numbers are reproducible from the installed CLI without
invoking scripts by path::

    repro bench --quick --json
    repro bench --suite batched-fleet --out BENCH_fault_tables.json

The batched-fleet suite interleaves the compared configurations repeat
by repeat (numpy, batched, numpy, batched, ...) and keeps each side's
best time: slow drifts of a shared machine then hit both sides alike
instead of biasing whichever side happened to run second.  The engine
suite measures each backend's full campaign once (the reference run is
far too slow to repeat) and gates the full-size ratio at
:data:`ENGINE_SPEEDUP_TARGET`.

The headline suite (``batched-fleet``) times the proposed-scheme
diagnosis session of a 256-SRAM mixed-geometry campaign per defect
regime and asserts the reports bit-identical before reporting the
ratio.  All three regimes carry speedup targets: screening (>= 3x, the
amortization win), diagnostic (>= 2.5x, the dense-defect table win) and
heavy-diagnostic (>= 3x since the counter-based intermittent/retention
lowering emptied most of the behavioural replay lane).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.campaign import DiagnosisCampaign
from repro.core.scheme import FastDiagnosisScheme
from repro.engine.fleet import FleetSpec, run_fleet
from repro.engine.session import run_session
from repro.soc.case_study import case_study_soc
from repro.telemetry.core import activate, deactivate
from repro.telemetry.report import TelemetryReport
from repro.util.fileio import atomic_write_text

#: (label, defect rate, batched-vs-numpy speedup target or None).
BATCHED_REGIMES: tuple[tuple[str, float, float | None], ...] = (
    ("screening", 0.0002, 3.0),
    ("diagnostic", 0.001, 2.5),
    ("heavy-diagnostic", 0.005, 3.0),
)

#: Full-run numpy-vs-reference campaign speedup floor (engine suite).
ENGINE_SPEEDUP_TARGET = 5.0

#: Suite names accepted by :func:`run_suites` / ``repro bench``.
SUITES = ("batched-fleet", "engine")


def _timed_session(soc, defect_rate: float, seed: int, backend: str):
    """One freshly-built session timed once (bank build untimed)."""
    campaign = DiagnosisCampaign(
        soc, defect_rate=defect_rate, seed=seed, backend=backend
    )
    bank, _ = campaign.faulty_bank()
    scheme = FastDiagnosisScheme(bank, period_ns=soc.period_ns)
    started = time.perf_counter()
    report = run_session(scheme, backend=backend)
    return time.perf_counter() - started, report


def measure_batched_fleet(
    memories: int = 256,
    repeats: int = 5,
    seed: int = 2026,
    warmup: bool = True,
    telemetry: bool = False,
    collector: "TelemetryReport | None" = None,
) -> dict:
    """Batched-vs-numpy session times per defect regime (interleaved).

    One untimed warmup session per backend precedes the timed repeats of
    each regime, so allocator and import cold-start effects never land in
    a timed region; best-of-``repeats`` suppresses shared-machine spikes.

    With ``telemetry=True`` each regime runs one *additional* batched
    session under an active tracer -- outside the timed loop, so the
    comparison numbers stay uninstrumented -- and its per-lane attribution
    (replay vs table vs clean share of march time and words) lands in the
    regime's row.  ``collector`` (optional) accumulates the raw spans and
    counters across regimes for trace export.
    """
    soc = case_study_soc(memories=memories)
    rows = []
    for label, defect_rate, target in BATCHED_REGIMES:
        best = {"numpy": float("inf"), "batched": float("inf")}
        reports = {}
        if warmup:
            for backend in ("numpy", "batched"):
                _timed_session(soc, defect_rate, seed, backend)
        for _ in range(repeats):
            for backend in ("numpy", "batched"):
                elapsed, reports[backend] = _timed_session(
                    soc, defect_rate, seed, backend
                )
                best[backend] = min(best[backend], elapsed)
        assert (
            reports["numpy"].failures == reports["batched"].failures
        ), f"backends diverged in the {label} regime"
        assert reports["numpy"].cycles == reports["batched"].cycles
        row = {
            "regime": label,
            "defect_rate": defect_rate,
            "gated": target is not None,
            "speedup_target": target,
            "numpy_s": best["numpy"],
            "batched_s": best["batched"],
            "speedup": best["numpy"] / best["batched"],
            "failing_reads": sum(
                len(records)
                for records in reports["numpy"].failures.values()
            ),
            "bit_identical": True,
        }
        if telemetry:
            tracer = activate()
            try:
                with tracer.span("bench.regime", "bench", regime=label):
                    _timed_session(soc, defect_rate, seed, "batched")
            finally:
                deactivate()
            regime_report = TelemetryReport()
            regime_report.merge_tracer(tracer)
            row["lane_attribution"] = regime_report.lane_attribution()
            if collector is not None:
                collector.merge_tracer(tracer)
        rows.append(row)
    return {
        "config": {
            "soc": "case-study",
            "memories": memories,
            "seed": seed,
            "repeats": repeats,
        },
        "rows": rows,
    }


def batched_fleet_gate_failures(results: dict) -> list[str]:
    """Human-readable misses of the per-regime speedup targets."""
    failures = []
    for row in results["rows"]:
        target = row.get("speedup_target")
        if row.get("gated") and target and row["speedup"] < target:
            failures.append(
                f"batched speedup {row['speedup']:.2f}x in the "
                f"{row['regime']} regime is below the {target:.1f}x target"
            )
    return failures


def engine_gate_failures(results: dict) -> list[str]:
    """Human-readable miss of the engine suite's speedup floor."""
    speedup = results["single_campaign"]["speedup"]
    if speedup < ENGINE_SPEEDUP_TARGET:
        return [
            f"numpy backend speedup {speedup:.1f}x is below the "
            f"{ENGINE_SPEEDUP_TARGET:.0f}x target"
        ]
    return []


def measure_engine_throughput(
    memories: int = 64,
    defect_rate: float = 0.005,
    fleet_campaigns: int = 16,
    workers: int | None = None,
    seed: int = 2005,
) -> dict:
    """Reference-vs-numpy campaign speedup plus fleet campaigns/sec.

    Unlike the batched-fleet suite, each backend's full campaign is
    measured once (the reference campaign alone takes tens of seconds at
    full size, so repeats would dominate the suite's runtime).
    """
    if workers is None:
        workers = max(1, (os.cpu_count() or 2) - 1)
    soc = case_study_soc(memories=memories)
    elapsed = {}
    reports = {}
    for backend in ("reference", "numpy"):
        campaign = DiagnosisCampaign(
            soc, defect_rate=defect_rate, seed=seed, backend=backend
        )
        started = time.perf_counter()
        reports[backend] = campaign.run(include_baseline=True, repair=True)
        elapsed[backend] = time.perf_counter() - started

    assert (
        reports["reference"].proposed.failures
        == reports["numpy"].proposed.failures
    ), "backends diverged: failure maps differ"
    assert (
        reports["reference"].localization_rate
        == reports["numpy"].localization_rate
    )
    assert (
        reports["reference"].reduction_factor
        == reports["numpy"].reduction_factor
    )

    spec = FleetSpec(
        soc="case-study",
        memories=memories,
        campaigns=fleet_campaigns,
        defect_rate=defect_rate,
        master_seed=seed,
        backend="numpy",
    )
    fleet_report = run_fleet(spec, workers=workers)
    return {
        "config": {
            "soc": "case-study",
            "memories": memories,
            "defect_rate": defect_rate,
            "seed": seed,
            "fleet_campaigns": fleet_campaigns,
            "fleet_workers": workers,
        },
        "single_campaign": {
            "reference_s": elapsed["reference"],
            "numpy_s": elapsed["numpy"],
            "speedup": elapsed["reference"] / elapsed["numpy"],
            "bit_identical": True,
            "injected_faults": reports["reference"].injected_faults,
            "localization_rate": reports["reference"].localization_rate,
        },
        "fleet": {
            "backend": "numpy",
            "campaigns": fleet_report.campaigns,
            "elapsed_s": fleet_report.elapsed_s,
            "campaigns_per_sec": fleet_report.campaigns_per_sec,
            "mean_reduction_factor": fleet_report.reduction.mean,
            "plan_cache_hit_rate": fleet_report.plan_cache_hit_rate,
        },
    }


def run_suites(
    suites,
    quick: bool = False,
    telemetry: bool = False,
    collector: "TelemetryReport | None" = None,
) -> tuple[dict, list[str]]:
    """Run the selected benchmark suites.

    Returns ``(payload, gate_failures)``; ``gate_failures`` is empty in
    quick mode (small configurations assert parity but are too short to
    gate on throughput).  With ``telemetry=True`` the batched-fleet rows
    gain per-lane attribution and the payload a merged ``telemetry``
    document; pass a :class:`~repro.telemetry.report.TelemetryReport` as
    ``collector`` to additionally keep the raw spans for trace export.
    """
    if telemetry and collector is None:
        collector = TelemetryReport()
    payload: dict = {"quick": quick, "suites": {}}
    failures: list[str] = []
    for suite in suites:
        if suite == "batched-fleet":
            results = (
                measure_batched_fleet(
                    memories=32,
                    repeats=1,
                    warmup=False,
                    telemetry=telemetry,
                    collector=collector,
                )
                if quick
                else measure_batched_fleet(telemetry=telemetry, collector=collector)
            )
            payload["suites"][suite] = results
            if not quick:
                failures.extend(batched_fleet_gate_failures(results))
        elif suite == "engine":
            results = (
                measure_engine_throughput(memories=8, fleet_campaigns=4)
                if quick
                else measure_engine_throughput()
            )
            payload["suites"][suite] = results
            if not quick:
                failures.extend(engine_gate_failures(results))
        else:
            raise ValueError(f"unknown bench suite {suite!r}; known: {SUITES}")
    if telemetry and collector is not None:
        payload["telemetry"] = collector.to_json_dict()
    return payload, failures


# --------------------------------------------------------------------- #
# Performance trajectory                                                 #
# --------------------------------------------------------------------- #
def git_revision(repo_root: "str | os.PathLike | None" = None) -> str | None:
    """The working tree's short commit hash, or ``None`` outside git."""
    import subprocess

    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def trajectory_entry(payload: dict, timestamp: str) -> dict:
    """Reduce one ``run_suites`` payload to a trajectory record.

    ``timestamp`` is passed in (not sampled here) so callers control the
    clock -- the CLI stamps wall time, tests stamp fixed strings.  Records
    the per-regime speedups and, when the run was telemetry-instrumented,
    the heavy-diagnostic replay-lane time share (the number the compiled
    kernel roadmap item is tracked by).  Outside a git checkout (or with
    a broken ``git``) the record degrades to ``git_rev: null`` rather
    than failing the bench run.
    """
    try:
        rev = git_revision()
    except Exception:  # pragma: no cover - belt and braces
        rev = None
    entry: dict = {
        "timestamp": timestamp,
        "git_rev": rev,
        "quick": bool(payload.get("quick")),
        "regimes": {},
    }
    batched = payload.get("suites", {}).get("batched-fleet")
    if batched:
        for row in batched["rows"]:
            regime: dict = {"speedup": row["speedup"]}
            attribution = row.get("lane_attribution")
            if attribution:
                regime["replay_time_share"] = attribution["lanes"]["replay"][
                    "time_share"
                ]
                regime["march_time_s"] = attribution["march_time_s"]
            entry["regimes"][row["regime"]] = regime
    engine = payload.get("suites", {}).get("engine")
    if engine:
        entry["engine_speedup"] = engine["single_campaign"]["speedup"]
    return entry


def append_trajectory(path: "str | os.PathLike", entry: dict) -> list[dict]:
    """Append one record to the append-only trajectory file.

    The file holds a JSON list of entries, oldest first.  A missing file
    starts a new trajectory; an unreadable one raises rather than
    silently truncating history.  Returns the full trajectory.
    """
    target = Path(path)
    if target.exists():
        history = json.loads(target.read_text(encoding="utf-8"))
        if not isinstance(history, list):
            raise ValueError(
                f"trajectory file {target} does not hold a JSON list"
            )
    else:
        history = []
    history.append(entry)
    atomic_write_text(target, json.dumps(history, indent=2, sort_keys=True) + "\n")
    return history
