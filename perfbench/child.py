"""One benchmark run inside a fresh interpreter; ``run.py`` starts it.

``--mode setup`` only builds the workload and reports how long that took
since ``--t0`` (taken by the launcher just before the interpreter
started).  ``--mode run`` then measures: with ``--trace 0`` the timed
region runs rounds of ops for ``--seconds``; with ``--trace 1`` half the
time runs untraced, and the same ops then run again with the layer
wrappers and the program's telemetry on.  Every op is checked, and the
result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time

from workloads import WORKLOADS, MonitorStream, digest, parity_workload


def cpu_seconds() -> float:
    """User+sys CPU of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def plan_cache_traffic() -> tuple[int, int]:
    """This process's plan-cache (hits, misses); zeros if the cache is gone."""
    try:
        from repro.engine.session import plan_cache_stats
    except ImportError:
        return 0, 0
    return plan_cache_stats()


def drive(workload, seconds=None, ops_target=None, sink=None):
    """Run rounds from op 0 for ``seconds`` or until ``ops_target`` ops.

    Returns ``(ops, wall_s, cpu_s, error)``; a round that raises ends the
    run and is reported as ``error``.
    """
    rounds = workload.rounds(sink)
    ops: list = []
    error = None
    cpu_started = cpu_seconds()
    started = time.perf_counter()
    try:
        while True:
            ops.extend(next(rounds))
            if ops_target is not None:
                if len(ops) >= ops_target:
                    break
            elif time.perf_counter() - started >= seconds:
                break
    except Exception as exc:  # noqa: BLE001 -- a failed op, reported below
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    cpu = cpu_seconds() - cpu_started
    rounds.close()
    return ops, wall, cpu, error


def check(workload, ops, recorded, parity, tamper_op):
    """Failed op count and the first few problems found.

    An op fails when it breaks an invariant of its output type, or its
    digest differs from the recorded digest of its position, from the
    independent-backend digest, or from an earlier op at the same
    position.
    """
    failed = 0
    problems: list[str] = []
    seen: dict[int, str] = {}
    for number, (position, output) in enumerate(ops):
        payload = workload.payload(output)
        if number == tamper_op:
            payload = {**payload, "tampered": True}
        found = digest(payload)
        expected = [seen.setdefault(position, found)]
        if recorded is not None and position < len(recorded):
            expected.append(recorded[position])
        if position in parity:
            expected.append(parity[position])
        problem = workload.problem(output)
        if problem is None and any(found != other for other in expected):
            problem = f"digest {found} differs from {sorted(set(expected) - {found})}"
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"op {number} (position {position}): {problem}")
    return failed, problems, seen


def parity_digests(workload) -> dict[int, str]:
    """Digests of the first ops recomputed through another backend."""
    other = parity_workload(workload)
    try:
        ops, _, _, error = drive(other, ops_target=workload.parity_ops)
    finally:
        other.close()
    if error is not None:
        raise RuntimeError(f"parity run through {other.backend} failed: {error}")
    return {
        position: digest(workload.payload(output))
        for position, output in ops[: workload.parity_ops]
    }


def recorded_digests(workload, path: str):
    """The recorded per-position digests of this seed, if any."""
    if workload.size != "full":
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table["workloads"].get(workload.name, {}).get(str(workload.seed))


def layer_metrics(workload, timer, sink, outputs, untraced_wall, traced_wall,
                  worker_cpu, plan_traffic) -> dict:
    """Per-layer metrics of the traced ops (see the README's table)."""
    from layers import COUNTER_PREFIX, LAYERS

    n = len(outputs)
    counters = sink.counters.to_dict()

    def get(name):
        return counters.get(name, 0)

    shipped = timer.worker_stats(counters)
    busy = get("fleet.worker_busy.ns") / 1e9
    # Shares are of the time the work ran in: the parent's wall time
    # inline, the workers' busy time when pooled.
    local, basis = (shipped, busy) if workload.pooled else (timer.stats, traced_wall)

    def calls(layer):
        return timer.stats[layer][0] + shipped[layer][0]

    def self_s(layer):
        return (timer.stats[layer][1] + shipped[layer][1]) / 1e9

    def share(*layers):
        if not basis:
            return 0.0
        return sum(local[layer][1] for layer in layers) / 1e9 / basis

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lanes = sink.lane_attribution()["lanes"]
    compares = get("clean.compares_done") + get("clean.compares_skipped")
    hits, misses = plan_traffic
    # Executed chunks: a stream counts every chunk of its spec up front,
    # even those a consumer never pulls.
    chunks = sink.span_stats.get("fleet.chunk", [0])[0]
    saves = get("checkpoint.saves")
    streaming = isinstance(workload, MonitorStream)
    events = [report.events for report in outputs] if streaming else []
    return {
        "campaign.bank.calls_per_op": calls("campaign.bank") / n,
        "campaign.bank.self_s_per_op": self_s("campaign.bank") / n,
        "campaign.bank.share": share("campaign.bank"),
        "session.calls_per_op": calls("session") / n,
        "session.self_ms_per_call": ratio(self_s("session") * 1e3, calls("session")),
        "session.share": share("session"),
        "lane.replay.time_share": lanes["replay"]["time_share"] or 0.0,
        "lane.table.time_share": lanes["table"]["time_share"] or 0.0,
        "lane.clean.time_share": lanes["clean"]["time_share"] or 0.0,
        "clean.skip_ratio": ratio(get("clean.compares_skipped"), compares),
        "table.compile_s_per_op": get("table.compile.ns") / 1e9 / n,
        "bucket.mean_depth": ratio(get("bucket.memories"), get("bucket.sessions")),
        "plan_cache.hit_rate": ratio(hits, hits + misses),
        "report.detected_cells.calls_per_op": calls("report.detected_cells") / n,
        "report.detected_cells.self_s_per_op": self_s("report.detected_cells") / n,
        "report.score.self_s_per_op": self_s("report.score") / n,
        "report.share": share("report.detected_cells", "report.score"),
        "report.failing_reads_per_op": sum(map(workload.failing_reads, outputs)) / n,
        "baseline.self_s_per_op": self_s("baseline") / n,
        "baseline.share": share("baseline"),
        "repair.calls_per_op": calls("repair") / n,
        "repair.self_s_per_op": self_s("repair") / n,
        "repair.share": share("repair"),
        "aggregate.self_s_per_op": self_s("aggregate") / n,
        "fleet.chunks": chunks / n,
        "fleet.worker_busy_s": busy / n,
        "fleet.worker_utilization": ratio(busy, workload.workers * traced_wall),
        "fleet.queue_wait_s": get("fleet.queue_wait.ns") / 1e9 / n,
        # Worker CPU outside the chunk runner: process start, result
        # pickling (telemetry snapshot included) and exit.  The workers'
        # busy *wall* time is not subtracted: on a contended machine it
        # exceeds their CPU time.
        "fleet.overhead_cpu_ms_per_chunk": (
            ratio((worker_cpu - get(f"{COUNTER_PREFIX}chunk_cpu_ns") / 1e9) * 1e3, chunks)
            if workload.pooled else 0.0
        ),
        "fleet.ipc_bytes_per_chunk": ratio(timer.ipc_bytes, timer.ipc_chunks),
        "fleet.retries": get("fleet.retries"),
        "fleet.respawns": get("fleet.respawns"),
        "fleet.quarantined": get("fleet.quarantined"),
        "checkpoint.saves": saves / n,
        "checkpoint.save_ms_per_chunk": ratio(get("checkpoint.save.ns") / 1e6, saves),
        "checkpoint.bytes_per_chunk": ratio(
            getattr(workload, "store_bytes", 0), getattr(workload, "store_chunks", 0)
        ),
        "stream.timeline.self_s_per_op": self_s("stream.timeline") / n,
        "stream.events_per_window": ratio(sum(events), len(events)),
        "stream.empty_window_share": ratio(events.count(0), len(events)),
        "stream.epochs": timer.epochs / n if streaming else 0.0,
        "other.share": 1.0 - share(*LAYERS),
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
        "trace.absent_targets": len(timer.absent),
    }


def traced_run(workload, seconds):
    """Untraced half, then the same ops traced; per-layer metrics."""
    from layers import LayerTimer
    from repro.telemetry.report import TelemetryReport

    untraced, untraced_wall, _, error = drive(workload, seconds=seconds / 2)
    if error is not None or not untraced:
        return untraced, {}, error, []
    timer = LayerTimer()
    timer.install()
    sink = TelemetryReport()
    try:
        plan_before = plan_cache_traffic()
        children_before = children_cpu_seconds()
        traced, traced_wall, _, error = drive(
            workload, ops_target=len(untraced), sink=sink
        )
        worker_cpu = children_cpu_seconds() - children_before
        plan_after = plan_cache_traffic()
    finally:
        timer.uninstall()
    absent = timer.absent + [
        f"layer {layer}: no target found, its metrics read 0"
        for layer in timer.absent_layers
    ]
    if error is not None:
        return untraced + traced, {}, error, absent
    outputs = [output for _, output in traced[: len(untraced)]]
    if workload.pooled:
        plan_traffic = (
            sum(output.plan_cache_hits or 0 for output in outputs),
            sum(output.plan_cache_misses or 0 for output in outputs),
        )
    else:
        plan_traffic = (
            plan_after[0] - plan_before[0],
            plan_after[1] - plan_before[1],
        )
    metrics = layer_metrics(
        workload, timer, sink, outputs, untraced_wall, traced_wall,
        worker_cpu, plan_traffic,
    )
    return untraced + traced, metrics, None, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--digests", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tamper-op", type=int)
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch)
    try:
        backend = workload.resolved_backend
        setup_s = time.monotonic() - args.t0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        absent: list[str] = []
        if args.trace:
            ops, metrics, error, absent = traced_run(workload, args.seconds)
        else:
            ops, wall, cpu, error = drive(workload, seconds=args.seconds)
            metrics = {}
            if ops:
                metrics = {
                    "ops_per_s": len(ops) / wall,
                    "cpu_s_per_op": cpu / len(ops),
                    "peak_rss_mb": peak_rss_mib(),
                }
        recorded = recorded_digests(workload, args.digests)
        problems: list[str] = []
        try:
            parity = parity_digests(workload)
        except Exception as exc:  # noqa: BLE001 -- reported as failed ops
            parity = {}
            problems.append(f"{type(exc).__name__}: {exc}")
        failed, found, seen = check(workload, ops, recorded, parity, args.tamper_op)
        problems.extend(found)
        attempted = len(ops)
        if error is not None:
            attempted += 1
            failed += 1
            problems.insert(0, f"run stopped by an error: {error}")
        if not parity:
            failed = max(failed, 1)
        distinct = {position: output for position, output in ops}
        result = {
            "setup_s": setup_s,
            "backend": backend,
            "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "recorded": recorded is not None,
            "parity_backend": parity_workload(workload).backend,
            "parity_ops": len(parity),
            "absent": absent,
            "paper": workload.paper_values(
                [distinct[position] for position in sorted(distinct)]
            ),
            "digests": {str(position): seen[position] for position in sorted(seen)},
        }
        print(json.dumps(result))
        return 0
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
