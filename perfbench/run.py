#!/usr/bin/env python3
"""End-to-end benchmark of the diagnosis engine: one workload, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload heavy-campaign --seed 1 --seconds 10 --trace 0

Every measured run starts a fresh interpreter (``child.py``), so
``setup_s`` covers interpreter start, imports and input building; it is
the median over several fresh set-ups.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object;
the exit status is 0 only when every op's output checked out.
``BENCHMARK.json`` names the workloads and metrics; ``README.md`` in this
directory explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh interpreters whose set-up time gives the ``setup_s`` median.
SETUP_SAMPLES = 3
#: Wall-clock budget of one invocation, children included.
BUDGET_S = 170.0
#: Fingerprint fields that describe the machine rather than the code.
MACHINE_FIELDS = ("cpu_model", "nproc", "python", "numpy")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest(root: str) -> str:
    """Digest of the program source, which identifies code without git."""
    sha = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(source):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:12]


def git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_child(args, mode: str, scratch: str, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its JSON line."""
    env = dict(os.environ)
    paths = [os.path.join(args.root, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--scratch", scratch,
        "--digests", os.path.join(HERE, "digests.json"),
    ]
    if args.tamper_op is not None:
        command += ["--tamper-op", str(args.tamper_op)]
    t0 = time.monotonic()
    process = subprocess.Popen(
        command + ["--t0", repr(t0)],
        stdout=subprocess.PIPE, env=env, cwd=args.root, start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} run exceeded the time budget") from None
    finally:
        # The child's session holds it and any worker it forked.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise BenchError(f"the {mode} run exited with status {process.returncode}")
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"the {mode} run printed no result") from None


def load_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def baseline_lines(fingerprint: dict, workload: str, values: dict, trace: int):
    """Compare with the recorded baseline, or flag why that is not allowed."""
    baseline = load_json(os.path.join(HERE, "baseline.json"))
    if baseline is None or trace:
        return []
    recorded = baseline["fingerprint"]
    differs = [
        f"{field} {recorded.get(field)!r} != {fingerprint.get(field)!r}"
        for field in MACHINE_FIELDS
        if recorded.get(field) != fingerprint.get(field)
    ]
    if differs:
        return [
            "FINGERPRINT DIFFERS from the recorded baseline "
            f"({'; '.join(differs)}): baseline numbers not compared"
        ]
    medians = baseline["workloads"].get(workload, {})
    lines = [f"baseline: recorded at source {recorded.get('source')} on this machine"]
    for name, value in values.items():
        if medians.get(name):
            change = value / medians[name] - 1.0
            lines.append(f"  {name:<14} {value:.4g} vs {medians[name]:.4g} ({change:+.1%})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload (for the benchmark's own tests)",
    )
    parser.add_argument(
        "--tamper-op", type=int, metavar="N",
        help="alter op N's output before checking (for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    args.root = os.getcwd()
    try:
        return measure(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


def measure(args) -> int:
    spec = load_json(os.path.join(args.root, "BENCHMARK.json"))
    if spec is None:
        raise BenchError("run from the root of a checkout holding BENCHMARK.json")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(args.root, "src", "repro", "__init__.py")):
        raise BenchError("the program source (src/repro) is missing")
    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    deadline = time.monotonic() + BUDGET_S
    scratch = os.path.join(args.root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    try:
        setup = [
            run_child(args, "setup", scratch, deadline)["setup_s"]
            for _ in range(0 if args.trace else SETUP_SAMPLES - 1)
        ]
        result = run_child(args, "run", scratch, deadline)
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup + [result["setup_s"]])
    attempted, failed = result["attempted"], result["failed"]
    if set(values) != set(units):
        if not failed:
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
        values = {name: values.get(name, 0.0) for name in units}
    correct = failed == 0 and attempted > 0

    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": result["numpy"],
        "source": source_digest(args.root),
        "git_rev": git_revision(args.root),
        "backend": result["backend"],
    }
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    for line in baseline_lines(fingerprint, args.workload, values, args.trace):
        print(line)
    check = "recorded digests, " if result["recorded"] else ""
    print(
        f"checked {attempted} ops against {check}invariants and "
        f"{result['parity_ops']} ops recomputed with the {result['parity_backend']} "
        f"backend: {failed} failed"
    )
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for absent in result["absent"]:
        print(f"  absent (its time counts in other.share): {absent}")
    paper = ", ".join(
        f"{name}={value:.4g}" if isinstance(value, float) else f"{name}={value}"
        for name, value in result["paper"].items()
    )
    print(f"paper-facing outputs (checked, not gated): {paper}")
    for name in units:
        print(f"  {name:<36} {values[name]:.6g} {units[name]}")
    print(f"  {'op_failure_rate':<36} {failed / max(attempted, 1):.6g} fraction")
    if not result["recorded"]:
        digests = " ".join(f"{p}:{d}" for p, d in result["digests"].items())
        print(f"digests (no recorded digests for this seed and size): {digests}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
