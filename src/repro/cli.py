"""Command-line interface.

Subcommands::

    python -m repro case-study            # the Sec. 4.2 headline numbers
    python -m repro diagnose ...          # run a scheme on a faulty memory
    python -m repro coverage ...          # algorithm coverage matrix
    python -m repro sweep ...             # measured + analytic R matrices
    python -m repro area                  # Sec. 4.3 area/wire table
    python -m repro campaign ...          # one SoC campaign end to end
    python -m repro fleet ...             # batch campaigns over a worker pool
    python -m repro scenario ...          # clustered/intermittent flow fleets
    python -m repro monitor ...           # streaming online monitor (windowed)
    python -m repro bench ...             # reproducible throughput benchmarks
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.analysis.area import AreaModel, TransistorBudget, wire_comparison
from repro.analysis.sweeps import sweep_defect_rate, sweep_geometry
from repro.analysis.timing_model import case_study_comparison
from repro.baseline.scheme import HuangJoneScheme
from repro.core.scheme import FastDiagnosisScheme
from repro.faults.injector import FaultInjector
from repro.faults.population import sample_population
from repro.march.coverage import algorithm_runner, evaluate_coverage
from repro.march.library import march_c_minus, march_cw, march_cw_nw
from repro.memory.bank import MemoryBank
from repro.memory.geometry import MemoryGeometry
from repro.memory.sram import SRAM
from repro.util.records import format_table
from repro.util.units import format_duration_ns


def _cmd_case_study(args: argparse.Namespace) -> int:
    row = case_study_comparison()
    print(row.pretty())
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    geometry = MemoryGeometry(args.words, args.bits, "esram")
    memory = SRAM(geometry, period_ns=args.period_ns)
    injector = FaultInjector()
    population = sample_population(geometry, args.defect_rate, rng=args.seed)
    injector.inject(memory, population)
    print(
        f"injected {population.size} faults at a "
        f"{args.defect_rate:.2%} defect rate (seed {args.seed})"
    )
    bank = MemoryBank([memory])
    if args.scheme == "proposed":
        report = FastDiagnosisScheme(bank, period_ns=args.period_ns).diagnose()
        print("\n".join(report.summary_lines()))
        print(f"localization rate : {report.localization_rate(injector):.3f}")
    else:
        report = HuangJoneScheme(bank, period_ns=args.period_ns).diagnose(
            injector, include_drf=args.include_drf
        )
        print(f"iterations (k)    : {report.iterations}")
        print(f"diagnosis time    : {format_duration_ns(report.time_ns)}")
        print(f"localized faults  : {len(report.localized)}")
        print(f"missed faults     : {len(report.missed)}")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    geometry = MemoryGeometry(args.words, args.bits, "cov")
    algorithms = {
        "March C-": march_c_minus,
        "March CW": march_cw,
        "March CW-NW": march_cw_nw,
    }
    merged: dict[str, dict[str, str]] = {}
    for name, factory in algorithms.items():
        for row in evaluate_coverage(algorithm_runner(factory), geometry):
            merged.setdefault(row.label, {"fault class": row.label})[name] = (
                f"{row.detected}/{row.instances}"
            )
    print(format_table(list(merged.values())))
    return 0


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    """Parse ``"512x100,256x64"`` into geometry pairs."""
    shapes = []
    for token in text.split(","):
        words, separator, bits = token.strip().lower().partition("x")
        if not separator or not words.isdigit() or not bits.isdigit():
            raise ValueError(
                f"invalid --shapes entry {token.strip()!r}; "
                f"expected WORDSxBITS, e.g. 512x100"
            )
        shapes.append((int(words), int(bits)))
    return shapes


def _cmd_sweep_analytic(args: argparse.Namespace) -> int:
    """The closed-form model table for the selected matrix, no simulation."""
    if args.matrix == "geometry":
        rows = sweep_geometry(
            _parse_shapes(args.shapes), defect_rate=args.defect_rate
        )
    elif args.matrix == "fault-mix":
        from repro.analysis.simsweep import analytic_comparison, fault_mix_matrix

        rows = []
        for point in fault_mix_matrix(
            defect_rate=args.defect_rate, memories=args.memories
        ):
            iterations, timing = analytic_comparison(point.spec)
            rows.append(
                {
                    "mix": point.label,
                    "k": iterations,
                    "R": f"{timing.reduction:.1f}",
                    "R (DRF)": f"{timing.reduction_with_drf:.1f}",
                }
            )
    else:
        rates = [float(r) for r in args.rates.split(",")]
        rows = sweep_defect_rate(rates, MemoryGeometry(args.words, args.bits))
    print(format_table(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    if args.analytic_only:
        return _cmd_sweep_analytic(args)
    rates = [float(r) for r in args.rates.split(",")]

    from repro.analysis.simsweep import (
        defect_rate_matrix,
        fault_mix_matrix,
        geometry_matrix,
        run_sim_sweep,
    )

    common = dict(
        campaigns=args.campaigns,
        memories=args.memories,
        master_seed=args.seed,
        backend=args.backend,
    )
    if args.matrix == "geometry":
        points = geometry_matrix(
            _parse_shapes(args.shapes), defect_rate=args.defect_rate, **common
        )
    elif args.matrix == "fault-mix":
        points = fault_mix_matrix(defect_rate=args.defect_rate, **common)
    else:
        points = defect_rate_matrix(rates, **common)

    progress = None
    if not args.json:
        print(
            f"simulating {args.matrix} matrix: {len(points)} points x "
            f"{args.campaigns} campaigns ({args.memories} memories, "
            f"backend={args.backend})"
        )

        def progress(done: int, total: int) -> None:
            print(f"  {done}/{total} points done", flush=True)

    rows = run_sim_sweep(points, workers=args.workers, progress=progress)
    if args.json:
        payload = {
            "matrix": rows[0].matrix if rows else args.matrix,
            "campaigns_per_point": args.campaigns,
            "rows": [row.to_json_dict() for row in rows],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_table([row.to_table_row() for row in rows]))
        print(
            "(R meas = simulated baseline/proposed time ratio; "
            "R model = Eqs. (1)-(4); see repro.analysis.simsweep)"
        )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.campaign import DiagnosisCampaign
    from repro.soc.case_study import case_study_soc
    from repro.soc.chip import SoCConfig

    if args.soc == "buffer-cluster":
        soc = SoCConfig.buffer_cluster()
    else:
        soc = case_study_soc(memories=args.memories)
    campaign = DiagnosisCampaign(
        soc,
        defect_rate=args.defect_rate,
        seed=args.seed,
        spares_per_memory=args.spares,
        backend=args.backend,
    )
    report = campaign.run(include_baseline=not args.no_baseline)
    print("\n".join(report.summary_lines()))
    return 0


def _resume_without_checkpoint(args: argparse.Namespace) -> bool:
    """True (after printing the error) when --resume lacks --checkpoint."""
    import sys

    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return True
    return False


#: Exit code of an interrupted checkpointed run (128 + SIGINT), distinct
#: from success (0) and usage/checkpoint errors (2) so wrappers can
#: resume automatically.
EXIT_INTERRUPTED = 130


def _resolve_retry_args(args: argparse.Namespace):
    """Build the (retry policy | None, failure mode) pair from CLI flags."""
    from repro.engine import ChunkRetryPolicy

    retry = None
    if args.max_retries is not None or args.chunk_timeout is not None:
        defaults = ChunkRetryPolicy()
        retry = ChunkRetryPolicy(
            max_attempts=(
                args.max_retries + 1
                if args.max_retries is not None
                else defaults.max_attempts
            ),
            chunk_timeout_s=args.chunk_timeout,
        )
    return retry, args.on_chunk_failure


def _resume_command(args: argparse.Namespace) -> str:
    """The exact command that resumes this interrupted run."""
    import shlex

    argv = list(getattr(args, "argv", None) or [])
    if "--resume" not in argv:
        argv.append("--resume")
    return "python -m repro " + " ".join(shlex.quote(token) for token in argv)


def _report_chunk_interrupt(args: argparse.Namespace, checkpoint: str) -> int:
    """Post-interrupt report for a checkpointed fleet/scenario run."""
    import sys
    from pathlib import Path

    from repro.engine import CheckpointStore

    persisted = len(list(Path(checkpoint).glob("chunk_*.json")))
    manifest = CheckpointStore.peek_manifest(checkpoint)
    total = manifest.get("total_chunks") if manifest else None
    span = f"{persisted} of {total}" if isinstance(total, int) else f"{persisted}"
    print(
        f"\ninterrupted: {span} chunks persisted in {checkpoint}",
        file=sys.stderr,
    )
    print(f"resume with: {_resume_command(args)}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _telemetry_requested(args: argparse.Namespace) -> bool:
    """True when telemetry collection is on (export flags imply it)."""
    return bool(
        args.telemetry or args.trace_out or getattr(args, "metrics_out", None)
    )


def _export_telemetry(telemetry, args: argparse.Namespace, quiet: bool) -> None:
    """Write the requested trace/metrics files from a telemetry report."""
    from repro.telemetry.export import write_chrome_trace, write_metrics_json

    if args.trace_out:
        write_chrome_trace(telemetry, args.trace_out)
        if not quiet:
            print(f"chrome trace written to {args.trace_out}")
    if getattr(args, "metrics_out", None):
        write_metrics_json(telemetry, args.metrics_out)
        if not quiet:
            print(f"telemetry metrics written to {args.metrics_out}")


def _run_fleet_command(args: argparse.Namespace, spec, run) -> int:
    """Run a fleet-shaped ``spec`` and print its report (fleet and scenario).

    ``run`` is :func:`~repro.engine.fleet.run_fleet` or a runner with its
    signature; the scheduling, checkpoint, retry and telemetry options
    come from ``args``.  Prints the ``{"spec", "result", "run"}`` document
    under ``--json``, the summary otherwise.
    """
    import json
    import sys

    from repro.engine import CheckpointError

    progress = None
    if not args.json:

        def progress(done: int, total: int) -> None:
            print(f"  {done}/{total} campaigns done", flush=True)

    retry, on_chunk_failure = _resolve_retry_args(args)
    try:
        report = run(
            spec,
            workers=args.workers,
            chunk_size=args.chunk_size,
            progress=progress,
            checkpoint=args.checkpoint,
            resume=args.resume,
            telemetry=_telemetry_requested(args),
            retry=retry,
            on_chunk_failure=on_chunk_failure,
        )
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        if args.checkpoint:
            # Finished chunks are already on disk; tell the operator how
            # much survived and exactly how to pick the run back up.
            return _report_chunk_interrupt(args, args.checkpoint)
        raise
    if args.json:
        payload = {"spec": spec.to_dict(), **report.to_json_dict()}
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(report.summary_lines()))
        if report.telemetry is not None:
            print("\n".join(report.telemetry.summary_lines()))
    if report.telemetry is not None:
        _export_telemetry(report.telemetry, args, quiet=args.json)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import functools
    import sys

    from repro.engine import FleetSpec, available_backends, run_fleet

    if _resume_without_checkpoint(args):
        return 2
    chunk_runner = None
    if args.chaos:
        from repro.testing import ChaosChunkRunner, parse_chaos_spec

        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        chunk_runner = ChaosChunkRunner(chaos)

    spec = FleetSpec(
        soc=args.soc,
        memories=args.memories,
        heterogeneous=not args.homogeneous,
        campaigns=args.campaigns,
        defect_rate=args.defect_rate,
        master_seed=args.seed,
        spares_per_memory=args.spares,
        include_baseline=not args.no_baseline,
        repair=not args.no_repair,
        backend=args.backend,
    )
    if not args.json:
        backends = ", ".join(
            f"{name}{'' if ok else ' (unavailable)'}"
            for name, ok in available_backends().items()
        )
        print(
            f"fleet of {spec.campaigns} campaigns on {spec.soc} "
            f"({spec.memories} memories), backend={spec.backend} "
            f"[registered: {backends}]"
        )
    return _run_fleet_command(
        args, spec, functools.partial(run_fleet, chunk_runner=chunk_runner)
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json
    import sys

    from repro.scenarios import preset_spec, run_scenario_fleet

    if _resume_without_checkpoint(args):
        return 2
    if args.checkpoint and args.sweep_radii:
        print(
            "error: --checkpoint/--resume apply to single scenario fleets, "
            "not --sweep-radii matrices",
            file=sys.stderr,
        )
        return 2

    overrides = dict(
        soc=args.soc,
        memories=args.memories,
        campaigns=args.campaigns,
        master_seed=args.seed,
        spares_per_memory=args.spares,
        backend=args.backend,
        max_retest_rounds=args.max_retest_rounds,
    )
    # None-sentinel flags: only override the preset when actually passed,
    # so each preset's cluster/intermittent shape survives by default.
    optional = dict(
        base_defect_rate=args.base_defect_rate,
        cluster_count=args.clusters,
        cluster_radius=args.cluster_radius,
        cluster_peak_rate=args.cluster_peak_rate,
        intermittent_rate=args.intermittent_rate,
        upset_probability=args.upset_probability,
        ecc=args.ecc,
        spare_rows=args.spare_rows,
        spare_cols=args.spare_cols,
    )
    overrides.update(
        (key, value) for key, value in optional.items() if value is not None
    )
    if args.no_baseline:
        overrides["include_baseline"] = False
    if args.no_burn_in:
        overrides["burn_in"] = False
    spec = preset_spec(args.preset, **overrides)

    if args.sweep_radii:
        from repro.analysis.scenario_sweep import radius_matrix, run_scenario_sweep

        radii = [float(r) for r in args.sweep_radii.split(",")]
        points = radius_matrix(radii, base=spec)
        progress = None
        if not args.json:
            print(
                f"scenario radius sweep: {len(points)} points x "
                f"{spec.campaigns} campaigns"
            )

            def progress(done: int, total: int) -> None:
                print(f"  {done}/{total} points done", flush=True)

        rows = run_scenario_sweep(
            points,
            workers=args.workers,
            chunk_size=args.chunk_size,
            progress=progress,
        )
        if args.json:
            payload = {
                "matrix": rows[0].matrix if rows else "S1-cluster-radius",
                "campaigns_per_point": spec.campaigns,
                "rows": [row.to_json_dict() for row in rows],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(format_table([row.to_table_row() for row in rows]))
        return 0

    if not args.json:
        print(
            f"scenario {spec.name!r}: {spec.campaigns} flow campaigns on "
            f"{spec.soc} ({spec.memories} memories), {spec.cluster_count} "
            f"cluster(s) r={spec.cluster_radius:g}, backend={spec.backend}"
        )
    return _run_fleet_command(args, spec, run_scenario_fleet)


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json
    import sys

    from repro.engine import CheckpointError
    from repro.streaming import StreamingMonitor, StreamingSpec

    if _resume_without_checkpoint(args):
        return 2

    spec = StreamingSpec(
        soc=args.soc,
        memories=args.memories,
        heterogeneous=not args.homogeneous,
        master_seed=args.seed,
        backend=args.backend,
        window_ns=args.window_ns,
        events_per_window=args.events_per_window,
        upset_probability=args.upset_probability,
        seu_fraction=args.seu_fraction,
        burst_probability=args.burst_probability,
        burst_factor=args.burst_factor,
    )
    windows = None if args.forever else args.windows
    # --metrics-out means per-window metrics here (JSONL), not telemetry
    # metrics as in fleet/scenario -- only the explicit flags imply tracing.
    telemetry = bool(args.telemetry or args.trace_out)
    retry, on_chunk_failure = _resolve_retry_args(args)
    try:
        monitor = StreamingMonitor(
            spec,
            windows=windows,
            workers=args.workers,
            chunk_size=args.chunk_size,
            epoch_windows=args.epoch_windows,
            checkpoint=args.checkpoint,
            resume=args.resume,
            telemetry=telemetry,
            retain=args.retain,
            retry=retry,
            on_chunk_failure=on_chunk_failure,
        )
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 2
    if not args.json:
        horizon = "forever" if windows is None else f"{windows} windows"
        print(
            f"monitor: {horizon} of {spec.window_ns:g} ns on {spec.soc} "
            f"({spec.memories} memories), ~{spec.events_per_window:g} "
            f"events/window, backend={monitor.spec.backend}"
        )
        if args.resume and monitor.next_window:
            print(f"  resuming at window {monitor.next_window}")
    metrics_handle = (
        open(args.metrics_out, "w", encoding="utf-8")
        if args.metrics_out
        else None
    )
    interrupted = False
    stream = monitor.windows()
    try:
        for report in stream:
            if metrics_handle is not None:
                metrics_handle.write(json.dumps(report.to_json_dict()) + "\n")
                metrics_handle.flush()
            if not args.json:
                note = ""
                if report.burst_detected:
                    note = "  << burst"
                elif report.burst_injected:
                    note = "  (burst injected)"
                print(
                    f"  window {report.index:>6}: {report.events} events "
                    f"({report.seu_events} SEU), "
                    f"{report.detected_events} detected, sweep "
                    f"{format_duration_ns(report.sweep_time_ns)}{note}",
                    flush=True,
                )
    except KeyboardInterrupt:
        # The normal way to stop --forever: close the stream (terminates
        # the epoch's pool immediately) and fall through to the summary.
        interrupted = True
    finally:
        stream.close()
        if metrics_handle is not None:
            metrics_handle.close()
    if args.json:
        payload = {"spec": monitor.spec.to_dict(), **monitor.to_json_dict()}
        print(json.dumps(payload, indent=2))
    else:
        if interrupted:
            print("interrupted; stream stopped cleanly")
        print("\n".join(monitor.summary_lines()))
        if monitor.telemetry_report is not None:
            print("\n".join(monitor.telemetry_report.summary_lines()))
    if args.trace_out and monitor.telemetry_report is not None:
        from repro.telemetry.export import write_chrome_trace

        write_chrome_trace(monitor.telemetry_report, args.trace_out)
        if not args.json:
            print(f"chrome trace written to {args.trace_out}")
    if interrupted and args.checkpoint:
        # A checkpointed interrupt is resumable: report what survived
        # and how to continue, and exit with the distinct interrupt code.
        print(
            f"interrupted: {monitor.next_window} windows completed; ring "
            f"checkpoint in {args.checkpoint} holds the newest state",
            file=sys.stderr,
        )
        print(f"resume with: {_resume_command(args)}", file=sys.stderr)
        return EXIT_INTERRUPTED
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import sys

    from repro.analysis.bench import (
        SUITES,
        append_trajectory,
        run_suites,
        trajectory_entry,
    )

    telemetry = bool(args.telemetry or args.trace_out)
    collector = None
    if telemetry:
        from repro.telemetry.report import TelemetryReport

        collector = TelemetryReport()
    suites = SUITES if args.suite == "all" else (args.suite,)
    payload, failures = run_suites(
        suites, quick=args.quick, telemetry=telemetry, collector=collector
    )
    rendered = json.dumps(payload, indent=2)
    if args.json:
        print(rendered)
    else:
        for name, results in payload["suites"].items():
            print(f"suite: {name}")
            if name == "batched-fleet":
                rows = [
                    {
                        "regime": row["regime"],
                        "defect rate": f"{row['defect_rate']:.2%}",
                        "numpy (s)": f"{row['numpy_s']:.3f}",
                        "batched (s)": f"{row['batched_s']:.3f}",
                        "speedup": f"{row['speedup']:.2f}x",
                        "target": (
                            f">={row['speedup_target']:.1f}x"
                            if row["gated"]
                            else "-"
                        ),
                    }
                    for row in results["rows"]
                ]
                print(format_table(rows))
                if telemetry:
                    print("  lane attribution (instrumented batched session):")
                    lane_rows = []
                    for row in results["rows"]:
                        attribution = row.get("lane_attribution")
                        if not attribution:
                            continue
                        lanes = attribution["lanes"]

                        def _share(lane: dict) -> str:
                            share = lane["time_share"]
                            return "-" if share is None else f"{share:.1%}"

                        lane_rows.append(
                            {
                                "regime": row["regime"],
                                "march (s)": f"{attribution['march_time_s']:.3f}",
                                "replay": _share(lanes["replay"]),
                                "table": _share(lanes["table"]),
                                "clean": _share(lanes["clean"]),
                                "replay accesses": str(
                                    attribution["replay_accesses"]
                                ),
                            }
                        )
                    if lane_rows:
                        print(format_table(lane_rows))
            else:
                single = results["single_campaign"]
                fleet = results["fleet"]
                print(
                    f"  campaign speedup : {single['speedup']:.2f}x "
                    f"(reference {single['reference_s']:.3f} s, "
                    f"numpy {single['numpy_s']:.3f} s)"
                )
                print(
                    f"  fleet throughput : {fleet['campaigns_per_sec']:.2f} "
                    f"campaigns/s over {fleet['campaigns']} campaigns"
                )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.trace_out and collector is not None:
        from repro.telemetry.export import write_chrome_trace

        write_chrome_trace(collector, args.trace_out)
        if not args.json:
            print(f"chrome trace written to {args.trace_out}")
    if args.trajectory:
        from datetime import datetime, timezone

        timestamp = args.timestamp or datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        append_trajectory(args.trajectory, trajectory_entry(payload, timestamp))
        if not args.json:
            print(f"trajectory entry appended to {args.trajectory}")
    for failure in failures:
        print(f"WARNING: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_area(args: argparse.Namespace) -> int:
    geometry = MemoryGeometry(args.words, args.bits)
    paper = AreaModel(TransistorBudget.paper())
    conservative = AreaModel(TransistorBudget.conservative())
    wires = wire_comparison()
    rows = [
        {
            "quantity": "extra cells per interface bit",
            "value": f"{paper.extra_per_bit_cells():.1f}",
        },
        {
            "quantity": "overhead (paper equivalences)",
            "value": f"{paper.overhead_fraction(geometry, 'proposed'):.2%}",
        },
        {
            "quantity": "overhead (std-cell counts)",
            "value": f"{conservative.overhead_fraction(geometry, 'proposed'):.2%}",
        },
        {
            "quantity": "extra global wires",
            "value": f"+{wires['extra_without_drf']} (scan_en)"
            + " [+1 NWRTM when DRF screening]",
        },
    ]
    print(format_table(rows))
    return 0


def _add_fault_tolerance_args(parser: argparse.ArgumentParser) -> None:
    """Retry/quarantine flags shared by the fleet-shaped subcommands."""
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="re-run a failed chunk up to N times before giving up "
        "(default: 2 retries; deterministic exponential backoff)",
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk wall-clock deadline; a worker exceeding it is "
        "terminated and the chunk retried (pooled runs only)",
    )
    parser.add_argument(
        "--on-chunk-failure", choices=("raise", "quarantine"),
        default="raise",
        help="after retries are exhausted: 'raise' aborts the run "
        "(default), 'quarantine' records the chunk in the report's "
        "failures block and completes the rest of the fleet",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by the fleet-shaped subcommands."""
    parser.add_argument(
        "--telemetry", action="store_true",
        help="collect engine spans and counters; prints a telemetry summary "
        "(and includes a run.telemetry document under --json)",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write spans as a Chrome trace_event JSON (implies --telemetry; "
        "load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write merged counters and span stats as flat JSON "
        "(implies --telemetry)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.streaming import DEFAULT_EPOCH_WINDOWS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast diagnosis of distributed small embedded SRAMs "
        "(DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("case-study", help="Sec. 4.2 headline numbers")
    case.set_defaults(func=_cmd_case_study)

    diag = sub.add_parser("diagnose", help="diagnose one faulty memory")
    diag.add_argument("--words", type=int, default=512)
    diag.add_argument("--bits", type=int, default=100)
    diag.add_argument("--defect-rate", type=float, default=0.01)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--period-ns", type=float, default=10.0)
    diag.add_argument(
        "--scheme", choices=("proposed", "baseline"), default="proposed"
    )
    diag.add_argument("--include-drf", action="store_true")
    diag.set_defaults(func=_cmd_diagnose)

    cov = sub.add_parser("coverage", help="algorithm coverage matrix")
    cov.add_argument("--words", type=int, default=16)
    cov.add_argument("--bits", type=int, default=4)
    cov.set_defaults(func=_cmd_coverage)

    sweep = sub.add_parser(
        "sweep",
        help="reduction factor matrices: simulated (fleet-backed) vs analytic",
    )
    sweep.add_argument(
        "--matrix",
        choices=("defect-rate", "geometry", "fault-mix"),
        default="defect-rate",
        help="which parameter matrix to sweep (X1/X2/X3)",
    )
    sweep.add_argument("--rates", default="0.001,0.005,0.01,0.02,0.05")
    sweep.add_argument(
        "--shapes",
        default="512x100,256x64,128x32",
        help="geometry matrix points as WORDSxBITS, comma separated",
    )
    sweep.add_argument("--defect-rate", type=float, default=0.01,
                       help="fixed rate for the geometry/fault-mix matrices")
    sweep.add_argument("--campaigns", type=int, default=4,
                       help="simulated campaigns per matrix point")
    sweep.add_argument("--memories", type=int, default=4)
    sweep.add_argument("--seed", type=int, default=0, help="master seed")
    sweep.add_argument(
        "--backend",
        choices=("reference", "numpy", "batched", "auto"),
        default="auto",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, help="fleet pool size"
    )
    sweep.add_argument("--json", action="store_true", help="emit JSON rows")
    sweep.add_argument(
        "--analytic-only",
        action="store_true",
        help="skip simulation and print the closed-form model table only",
    )
    sweep.add_argument("--words", type=int, default=512,
                       help="analytic-only geometry")
    sweep.add_argument("--bits", type=int, default=100,
                       help="analytic-only geometry")
    sweep.set_defaults(func=_cmd_sweep)

    area = sub.add_parser("area", help="Sec. 4.3 area/wire table")
    area.add_argument("--words", type=int, default=512)
    area.add_argument("--bits", type=int, default=100)
    area.set_defaults(func=_cmd_area)

    campaign = sub.add_parser(
        "campaign", help="full SoC campaign: diagnose, repair, verify"
    )
    campaign.add_argument(
        "--soc", choices=("buffer-cluster", "case-study"), default="buffer-cluster"
    )
    campaign.add_argument("--memories", type=int, default=4)
    campaign.add_argument("--defect-rate", type=float, default=0.005)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--spares", type=int, default=32)
    campaign.add_argument("--no-baseline", action="store_true")
    campaign.add_argument(
        "--backend",
        choices=("reference", "numpy", "batched", "auto"),
        default="reference",
        help="march-simulation backend for the proposed-scheme sessions",
    )
    campaign.set_defaults(func=_cmd_campaign)

    fleet = sub.add_parser(
        "fleet",
        help="run a batch of campaigns over a multiprocessing worker pool",
    )
    fleet.add_argument(
        "--soc", choices=("buffer-cluster", "case-study"), default="case-study"
    )
    fleet.add_argument("--memories", type=int, default=8)
    fleet.add_argument("--homogeneous", action="store_true")
    fleet.add_argument("--campaigns", type=int, default=8)
    fleet.add_argument("--defect-rate", type=float, default=0.005)
    fleet.add_argument("--seed", type=int, default=0, help="master seed")
    fleet.add_argument("--spares", type=int, default=32)
    fleet.add_argument("--no-baseline", action="store_true")
    fleet.add_argument("--no-repair", action="store_true")
    fleet.add_argument(
        "--backend",
        choices=("reference", "numpy", "batched", "auto"),
        default="auto",
    )
    fleet.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores - 1)"
    )
    fleet.add_argument(
        "--chunk-size", type=int, default=None, help="campaigns per work unit"
    )
    fleet.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist finished chunks into DIR (one directory per spec)",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="skip chunks already present in --checkpoint DIR",
    )
    fleet.add_argument("--json", action="store_true", help="emit JSON stats")
    _add_fault_tolerance_args(fleet)
    fleet.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="deterministic fault injection for testing the supervisor: "
        "comma-separated key=value pairs (seed, crash, exception, hang, "
        "hang_s, corrupt, max_faults), e.g. 'seed=7,crash=0.4'",
    )
    _add_telemetry_args(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    scenario = sub.add_parser(
        "scenario",
        help="clustered-defect / intermittent-fault production-flow fleets",
    )
    scenario.add_argument(
        "--preset",
        choices=("clustered", "burn-in-soft-error", "intermittent-only"),
        default="clustered",
        help="scenario preset to start from (flags below override it)",
    )
    scenario.add_argument(
        "--soc", choices=("buffer-cluster", "case-study"), default="case-study"
    )
    scenario.add_argument("--memories", type=int, default=8)
    scenario.add_argument("--campaigns", type=int, default=8)
    scenario.add_argument("--seed", type=int, default=0, help="master seed")
    scenario.add_argument("--spares", type=int, default=32)
    scenario.add_argument(
        "--base-defect-rate", type=float, default=None,
        help="uniform defect-rate floor (default: the preset's)",
    )
    scenario.add_argument(
        "--clusters", type=int, default=None,
        help="cluster centers per campaign (default: the preset's)",
    )
    scenario.add_argument(
        "--cluster-radius", type=float, default=None,
        help="decay radius (default: the preset's)",
    )
    scenario.add_argument(
        "--cluster-peak-rate", type=float, default=None,
        help="extra defect rate at a cluster center (default: the preset's)",
    )
    scenario.add_argument(
        "--intermittent-rate", type=float, default=None,
        help="fraction of cells with intermittent mechanisms at burn-in",
    )
    scenario.add_argument(
        "--upset-probability", type=float, default=None,
        help="per-access upset probability of intermittent faults",
    )
    scenario.add_argument(
        "--ecc", choices=("secded",), default=None,
        help="run every diagnosis session behind an on-die ECC layer",
    )
    scenario.add_argument(
        "--spare-rows", type=int, default=None,
        help="BISR spare rows per memory (with --spare-cols, replaces "
        "word-spare repair)",
    )
    scenario.add_argument(
        "--spare-cols", type=int, default=None,
        help="BISR spare columns per memory",
    )
    scenario.add_argument("--max-retest-rounds", type=int, default=3)
    scenario.add_argument("--no-baseline", action="store_true")
    scenario.add_argument("--no-burn-in", action="store_true")
    scenario.add_argument(
        "--backend",
        choices=("reference", "numpy", "batched", "auto"),
        default="auto",
    )
    scenario.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores - 1)"
    )
    scenario.add_argument(
        "--chunk-size", type=int, default=None, help="campaigns per work unit"
    )
    scenario.add_argument(
        "--sweep-radii", default=None,
        help="comma-separated radii: run the S1 cluster-radius matrix instead",
    )
    scenario.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist finished chunks into DIR (one directory per spec)",
    )
    scenario.add_argument(
        "--resume", action="store_true",
        help="skip chunks already present in --checkpoint DIR",
    )
    scenario.add_argument("--json", action="store_true", help="emit JSON stats")
    _add_fault_tolerance_args(scenario)
    _add_telemetry_args(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    monitor = sub.add_parser(
        "monitor",
        help="streaming online monitor: windowed diagnosis sweeps over an "
        "infinite simulated event timeline",
    )
    monitor.add_argument(
        "--windows", type=int, default=50,
        help="windows to monitor (ignored with --forever)",
    )
    monitor.add_argument(
        "--forever", action="store_true",
        help="stream until interrupted (Ctrl-C stops cleanly)",
    )
    monitor.add_argument(
        "--window-ns", type=float, default=10_000.0,
        help="simulated duration of one window",
    )
    monitor.add_argument(
        "--events-per-window", type=float, default=3.0,
        help="Poisson mean arrival count per window",
    )
    monitor.add_argument(
        "--upset-probability", type=float, default=0.3,
        help="per-access upset probability of materialized faults",
    )
    monitor.add_argument(
        "--seu-fraction", type=float, default=0.5,
        help="fraction of events that are SEUs (rest: intermittent reads)",
    )
    monitor.add_argument(
        "--burst-probability", type=float, default=0.05,
        help="per-window chance of an injected arrival burst",
    )
    monitor.add_argument(
        "--burst-factor", type=float, default=4.0,
        help="arrival-mean multiplier inside a burst window",
    )
    monitor.add_argument(
        "--soc", choices=("buffer-cluster", "case-study"), default="case-study"
    )
    monitor.add_argument("--memories", type=int, default=8)
    monitor.add_argument("--homogeneous", action="store_true")
    monitor.add_argument("--seed", type=int, default=0, help="master seed")
    monitor.add_argument(
        "--backend",
        choices=("reference", "numpy", "batched", "auto"),
        default="auto",
    )
    monitor.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cores - 1)"
    )
    monitor.add_argument(
        "--chunk-size", type=int, default=None, help="windows per work unit"
    )
    monitor.add_argument(
        "--epoch-windows", type=int, default=DEFAULT_EPOCH_WINDOWS,
        help="windows per scheduling epoch (pool lifetime)",
    )
    monitor.add_argument(
        "--retain", type=int, default=8,
        help="ring-checkpoint slots and digest-ring length",
    )
    monitor.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="persist a ring of the last --retain window states into DIR",
    )
    monitor.add_argument(
        "--resume", action="store_true",
        help="continue from the newest window in --checkpoint DIR",
    )
    monitor.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="append one JSON object per finished window (JSON Lines)",
    )
    monitor.add_argument(
        "--json", action="store_true", help="emit the final aggregate as JSON"
    )
    monitor.add_argument(
        "--telemetry", action="store_true",
        help="instrument sweeps and print per-window span attribution",
    )
    monitor.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the monitored sweeps as a Chrome trace_event JSON "
        "(implies --telemetry)",
    )
    _add_fault_tolerance_args(monitor)
    monitor.set_defaults(func=_cmd_monitor)

    bench = sub.add_parser(
        "bench",
        help="run the throughput benchmark suites (see repro.analysis.bench)",
    )
    bench.add_argument(
        "--suite",
        choices=("all", "batched-fleet", "engine"),
        default="all",
        help="which benchmark suite to run",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small CI-smoke configurations; parity asserted, speedup "
        "targets not enforced",
    )
    bench.add_argument("--json", action="store_true", help="emit the JSON document")
    bench.add_argument("--out", help="also write the JSON to this path")
    bench.add_argument(
        "--telemetry", action="store_true",
        help="run one instrumented session per regime and report per-lane "
        "attribution (outside the timed loop; comparison numbers stay clean)",
    )
    bench.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the instrumented sessions as a Chrome trace_event JSON "
        "(implies --telemetry; load in chrome://tracing or Perfetto)",
    )
    bench.add_argument(
        "--trajectory", metavar="FILE", default=None,
        help="append this run's speedups (and lane shares when instrumented) "
        "to the JSON trajectory file",
    )
    bench.add_argument(
        "--timestamp", default=None,
        help="ISO timestamp recorded in the trajectory entry "
        "(default: current UTC time)",
    )
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    import sys

    parser = build_parser()
    args = parser.parse_args(argv)
    # Keep the raw tokens around so interrupt handlers can print the
    # exact resume command.
    args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
