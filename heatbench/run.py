"""heatlab benchmark: one command per workload, traced or untraced.

    python3 heatbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; heatlab is loaded from ./src. Workloads:
cli_cold, decide, iterate, simulate (see heatbench/README.md).

The command starts one worker process that sets up, runs the seed's
operations for about S seconds and checks every output against the theory,
then four more workers that only set up, so set-up time is the median of
five. It prints the run record and every metric with its unit, and as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced re-run of the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import theory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names in workloads.WORKLOADS; listed here so this process, which only
# starts workers and summarises, never loads numpy
WORKLOADS = ("cli_cold", "decide", "iterate", "simulate")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def tail_percentile(latencies: list) -> tuple:
    """(percentile, value, samples beyond it): the highest whole percentile
    with at least ten samples above it, never below the median."""
    n = len(latencies)
    pct = max(50, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 2 else 50
    if n < 2:
        return pct, latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return pct, value, sum(1 for x in latencies if x > value)


def run_worker(args, setup_only: bool, deadline: float) -> dict:
    """Start one worker, time its set-up (spawn to READY) and collect its
    result line. The worker runs in its own session so that a timeout can
    stop it and every process it started."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    if setup_only:
        return {"setup_s": setup_s}
    lines = rest[0].strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = "not installed"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "heatlab" / "__init__.py").is_file():
        print(f"error: no heatlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    try:
        result = run_worker(args, False, deadline)
        setups = [result["setup_s"]] + [
            run_worker(args, True, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = result["latencies"]
    failures = result["failures"]
    failed_ops = sorted({f[0] for f in failures})
    unexpected = [f for f in failures if not f[3]]
    attempted = len(lat)
    pct, tail, beyond = tail_percentile(lat)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": os.cpu_count(), **versions(), **result["record"],
              "commit": git_commit(), "client": "closed loop, 1 client",
              "setup_samples_s": [round(s, 4) for s in setups]}
    for key, value in record.items():
        print(f"record {key}: {value}")
    print(f"record failed_frac: {len(failed_ops) / attempted:.6f} "
          f"({len(failed_ops)} failed / {attempted} attempted ops)")
    for name, entry in theory.KNOWN_FAILURES.items():
        ops = {f[0] for f in failures if f[3] == name}
        if ops:
            print(f"record known defect {name}: {len(ops)} ops "
                  f"(ROADMAP {entry['roadmap']})")
    for op, check, detail, known in failures:
        print(f"failure op {op} [{known or 'UNEXPECTED'}] {check}: {detail}")

    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (attempted / sum(lat), "1/s"),
            "op_s.p50": (statistics.median(lat), "s"),
            "op_s.tail": (tail, "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        print(f"record op_s.tail: p{pct} of {attempted} samples, "
              f"{beyond} beyond it")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
