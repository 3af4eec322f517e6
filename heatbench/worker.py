"""One benchmark process: set up, run a workload's operations, check them.

Started by run.py, never by hand. Prints ``READY`` once set-up (imports,
input generation, one discarded warm-up operation) is done, then, unless
``--setup-only``, one JSON line with the raw results.

Untraced: every operation of the seed's rounds, timed one by one.
Traced: the first half of the rounds three times, once untraced (the
reference for the tracing overhead) and twice traced; the two traced passes
must produce identical work counts.
"""

import time

ENTERED = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def run_pass(wl, ctx, inputs, tracer=None):
    """Run ``inputs`` in order; return (latencies, per-op failures, outputs).

    Only the program call is timed; the correctness check runs after the
    clock stops."""
    import theory
    latencies, failures, outputs = [], [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for i, inp in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                out = wl.op(ctx, inp)
            except Exception as exc:  # an op that raises counts as failed
                latencies.append(time.perf_counter() - t0)
                outputs.append(None)
                bad = [("exception", f"{type(exc).__name__}: {exc}")]
            else:
                latencies.append(time.perf_counter() - t0)
                outputs.append(out)
                bad = wl.check(inp, out)
            for check, detail in bad:
                failures.append([i, check, detail[:300],
                                 theory.classify_failure(wl.name, inp, check,
                                                         detail)])
    return latencies, failures, outputs


def cpu_probe_ms() -> float:
    """Time of a fixed pure-Python loop: recorded before and after the timed
    operations, it shows how fast the machine ran during the run (shared
    hosts slow down in phases)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return round(1e3 * (time.perf_counter() - t0), 2)


def blas_info() -> dict:
    """BLAS library name and its thread count, read from the loaded
    OpenBLAS when it exports a getter."""
    import ctypes
    import re
    import numpy as np
    info = {"blas": "unknown", "blas_threads": "unknown"}
    try:
        info["blas"] = np.__config__.CONFIG["Build Dependencies"]["blas"][
            "name"]
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    for lib in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                return info
    return info


def trace_metrics(wl, passes, untraced_wall, import_s, startup_s) -> dict:
    """Per-layer metrics from two traced passes over the same inputs."""
    from tracer import TRACED
    first, second = passes
    if first["calls"] != second["calls"] or \
            first["counts"] != second["counts"]:
        raise AssertionError("work counts differ between two traced passes "
                             "over the same inputs")
    calls, counts = first["calls"], first["counts"]
    mean = {k: 0.5 * (first["self_s"].get(k, 0.0) +
                      second["self_s"].get(k, 0.0))
            for k in set(first["self_s"]) | set(second["self_s"])}
    m = {}
    for layer, fns in TRACED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
            m[f"{name}.self_s"] = (mean.get(name, 0.0), "s")
    wall = 0.5 * (first["wall_s"] + second["wall_s"])
    m["cli.startup_s"] = (0.5 * (first["startup_s"] + second["startup_s"])
                          if wl.name == "cli_cold" else startup_s, "s")
    m["cli.import_s"] = (0.5 * (first["import_s"] + second["import_s"])
                         if wl.name == "cli_cold" else import_s, "s")
    m["cli.main.self_s"] = (mean.get("cli.main", 0.0), "s")
    m["nonlinearity.envelope_points"] = (
        counts.get("nonlinearity.envelope_points", 0), "count")
    verdicts = counts.get("criteria.verdicts", 0)
    m["criteria.decided_ratio"] = (
        counts.get("criteria.decided", 0) / verdicts if verdicts else 0.0,
        "ratio")
    m["criteria.wrong_verdicts"] = (first["wrong_verdicts"], "count")
    m["heatkernel.points_certified"] = (
        counts.get("heatkernel.points_certified", 0), "count")
    m["heatkernel.quadrature_errors"] = (counts.get(
        "heatkernel.verify_lower_bounds.raised.QuadratureError", 0), "count")
    for key, unit in (("solver.build_propagator.nodes", "count"),
                      ("solver.duhamel_map.flops_computed", "flop"),
                      ("solver.duhamel_map.bytes_computed", "B"),
                      ("solver.semigroup_apply.bytes_computed", "B"),
                      ("solver.duhamel_iterate.iterations", "count"),
                      ("solver.simulate.steps_accepted", "count"),
                      ("databuilder.nodes", "count")):
        m[key] = (counts.get(key, 0), unit)
    applied = calls.get("solver.semigroup_apply", 0)
    m["solver.simulate.accept_ratio"] = (
        counts.get("solver.simulate.steps_accepted", 0) / applied
        if applied else 0.0, "ratio")
    m["bench.unattributed_s"] = (
        0.5 * (first["unattributed_s"] + second["unattributed_s"]), "s")
    m["bench.trace_overhead_frac"] = (wall / untraced_wall - 1.0, "ratio")
    return m


def traced_pass(wl, ctx, inputs):
    """One traced pass; returns its summary with wall and unattributed time
    (time inside the timed operations that no span covers)."""
    import workloads
    from tracer import Tracer
    if wl.in_process:
        tracer = Tracer()
        lat, fails, outs = run_pass(wl, ctx, inputs, tracer)
        summary = tracer.summary()
        wall = sum(lat)
        summary.update(wall_s=wall, unattributed_s=wall - summary["covered_s"])
    else:
        ctx = dict(ctx, traced=True)
        lat, fails, outs = run_pass(wl, ctx, inputs)
        summary = {"calls": {}, "self_s": {}, "counts": {}, "startup_s": 0.0,
                   "import_s": 0.0, "unattributed_s": 0.0}
        for out in outs:
            if out is None:  # the command itself could not be run
                continue
            child = out["trace"]
            for k, v in child["calls"].items():
                summary["calls"][k] = summary["calls"].get(k, 0) + v
            for k, v in child["self_s"].items():
                summary["self_s"][k] = summary["self_s"].get(k, 0.0) + v
            for k, v in child["counts"].items():
                summary["counts"][k] = summary["counts"].get(k, 0) + v
            startup = child["entered"] - out["spawned"]
            summary["startup_s"] += startup
            summary["import_s"] += child["import_s"]
            summary["unattributed_s"] += (out["exited"] - out["spawned"] -
                                          startup - child["import_s"] -
                                          child["covered_s"])
        summary["wall_s"] = sum(lat)
    summary["wrong_verdicts"] = sum(
        1 for f in fails if f[1] in workloads.VERDICT_CHECKS)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() at which run.py started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore")  # scipy IntegrationWarning, on stderr

    t0 = time.perf_counter()
    import workloads  # loads numpy, so it counts as import time
    wl = workloads.WORKLOADS[args.workload]
    import_s = 0.0
    workdir = None
    if wl.in_process:
        import heatlab
        import heatlab.cli  # noqa: F401  (the whole package, as the CLI)
        import_s = time.perf_counter() - t0
        ctx = heatlab
    else:
        workdir = ROOT / ".heatbench_work" / str(os.getpid())
        workdir.mkdir(parents=True, exist_ok=True)
        ctx = {"workdir": workdir, "traced": False}
    try:
        rounds = wl.rounds(args.seconds)
        inputs = wl.inputs(args.seed, rounds)
        digest = hashlib.sha256(json.dumps(inputs, sort_keys=True)
                                .encode()).hexdigest()[:16]
        wl.op(ctx, wl.warmup)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        record = {"rounds": rounds, "inputs_sha256": digest,
                  "cpu_probe_ms_before": cpu_probe_ms()}
        result = {}
        if args.trace:
            half = inputs[:len(inputs) // rounds * max(1, rounds // 2)]
            lat, fails, _ = run_pass(wl, ctx, half)
            passes = [traced_pass(wl, ctx, half) for _ in range(2)]
            result["layer_metrics"] = trace_metrics(
                wl, passes, sum(lat), import_s, ENTERED - args.spawned)
            record["traced_ops"] = len(half)
        else:
            lat, fails, _ = run_pass(wl, ctx, inputs)
        usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process
                                   else resource.RUSAGE_CHILDREN)
        record["cpu_probe_ms_after"] = cpu_probe_ms()
        record.update(blas_info())
        result.update(latencies=lat, failures=fails, record=record,
                      peak_rss_mb=usage.ru_maxrss / 1024.0)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still used by another run
                workdir.parent.rmdir()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
