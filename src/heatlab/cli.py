"""Command-line interface: classify nonlinearities, certify kernel bounds,
and run reproducible solver experiments with machine-readable reports.

Exit codes: 0 = decided / certified, 2 = Inconclusive, 1 = error (usage
errors included) or failed certification. Reports are deterministic for a
fixed config and seed; wall clock and invocation details go to a separate
.meta.json file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import criteria
from .criteria import (
    EXISTS,
    INCONCLUSIVE,
    NO_LOCAL_EXISTENCE,
    AuditError,
    SLOPE_DEAD_BAND,
    SIGMA_DEAD_BAND,
    TAU_DEAD_BAND,
    classify_l1,
    classify_lq,
    classify_whole_space,
    equivalence_check,
    jsonable,
)
from .databuilder import ScheduleError, build_t1_data
from .heatkernel import (
    BallIndicator,
    KERNEL_REL_TOL,
    QuadratureError,
    kernel_constants,
    verify_lower_bounds,
)
from .nonlinearity import (DomainError, ParseError, builtin_family, eval_f,
                           parse_nonlinearity)
from .solver import (
    RadialGrid,
    SimulationControls,
    SolverError,
    build_propagator,
    duhamel_iterate,
    duhamel_lower_bound,
    find_existence_horizon,
    heat_series,
    indicator,
    lq_norm,
    simulate_forward,
    supersolution_check,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class CliError(Exception):
    pass


# --- config / io helpers -----------------------------------------------------

def load_config(path: str) -> dict:
    """Plain key = value config; '#' starts a comment; keys use underscores
    or dashes interchangeably."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _merge(args: argparse.Namespace, config: dict) -> None:
    """Fill argparse values left at None from the config file."""
    for key, val in config.items():
        if not hasattr(args, key):
            raise CliError(f"unknown config key: {key}")
        if getattr(args, key) is None:
            setattr(args, key, val)


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"missing required parameter: {name.replace('_', '-')}")


def _d_and_q(args, d=None, q=None):
    """--d as an integer >= 1 and --q (if given or defaulted) as a finite
    exponent >= 1 whose critical power 1 + 2q/d is finite; d and q give the
    defaults."""
    d = int(args.d if args.d is not None else d)
    if d < 1:
        raise CliError("d must be a positive integer")
    q = getattr(args, "q", None) or q
    if q is not None:
        q = float(q)
        if not (math.isfinite(q) and q >= 1.0):
            raise CliError("q must be a finite exponent >= 1")
        if not math.isfinite(1.0 + 2.0 * q / d):
            raise CliError(f"q = {q:g} is too large: the critical power "
                           "1 + 2q/d overflows")
    return d, q


def _floats(text) -> list:
    return [float(x) for x in str(text).split(",") if x.strip()]


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_report(report: dict, out_path, argv) -> None:
    text = json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"
    if out_path:
        atomic_write(out_path, text)
        meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "argv": list(argv)}
        atomic_write(str(out_path) + ".meta.json",
                     json.dumps(meta, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def constants_block(d: int) -> dict:
    return {
        "kernel": kernel_constants(d).to_dict(),
        "dead_bands": {"slope": SLOPE_DEAD_BAND, "sigma": SIGMA_DEAD_BAND,
                       "tau": TAU_DEAD_BAND},
        "kernel_rel_tol": KERNEL_REL_TOL,
    }


def resolve_f(args):
    if getattr(args, "builtin", None):
        name = args.builtin
        params = {}
        if name == "power":
            _require(args, "p")
            params["p"] = float(args.p)
        elif name == "log_family":
            _require(args, "d", "beta")
            params = {"d": int(args.d), "beta": float(args.beta)}
        elif name == "piecewise_power":
            _require(args, "p_low", "p_high")
            params = {"p_low": float(args.p_low),
                      "p_high": float(args.p_high)}
        else:
            raise CliError(f"unknown builtin family: {name}")
        return builtin_family(name, params)
    if getattr(args, "f", None):
        try:
            return parse_nonlinearity(args.f)
        except ParseError as exc:
            raise CliError(f"cannot parse f: {exc}")
    raise CliError("provide --f EXPR or --builtin NAME")


# --- commands ----------------------------------------------------------------

def cmd_classify(args, argv) -> int:
    _require(args, "d", "q")
    d, q = _d_and_q(args)
    f = resolve_f(args)
    domain = args.domain or "bounded"
    try:
        if domain == "whole_space":
            verdict = classify_whole_space(f, q, d)
        elif q > 1:
            verdict = classify_lq(f, q, d)
        else:
            verdict = classify_l1(f, d)
    except AuditError as exc:
        raise CliError(f"audit failed: {exc}")
    report = {
        "command": "classify",
        "f": f.source_text, "d": d, "q": q, "domain": domain,
        "verdict": verdict.to_dict(),
        "constants": constants_block(d),
    }
    emit_report(report, args.out, argv)
    if args.csv:
        write_csv(args.csv, ["s", "statistic"], verdict.evidence_rows())
    return EXIT_OK if verdict.decided else EXIT_INCONCLUSIVE


def cmd_verify_kernel(args, argv) -> int:
    d, _ = _d_and_q(args, d=1)
    r_grid = _floats(args.r_grid or "0.25,1,4")
    t_grid = _floats(args.t_grid or "0.01,0.25,1,4")
    consts = kernel_constants(d)
    c_max = consts.c_d
    inflate = float(args.inflate_cd or 1.0)
    if inflate != 1.0:  # falsification hook for testing the certifier
        c_d = consts.c_d * inflate
        consts = dataclasses.replace(consts, c_d=c_d,
                                     alpha_d=c_d * consts.omega_d,
                                     beta_d=c_d * 2.0 ** (-d))
    rep = verify_lower_bounds(d, r_grid, t_grid,
                              n_points=int(args.n_points or 17),
                              constants=consts)
    # consistency of the supplied constant with its defining identity;
    # the sampled bounds alone have slack, this check has none
    definition = {
        "bound": "definition",
        "min_margin": c_max - consts.c_d,
        "witness": {"c_d": consts.c_d, "defining_value": c_max},
    }
    passed = rep.passed and definition["min_margin"] >= 0.0
    report = {"command": "verify-kernel", "report": rep.to_dict(),
              "definition_check": definition, "passed": passed,
              "inflate_cd": inflate,
              "constants": constants_block(d)}
    emit_report(report, args.out, argv)
    return EXIT_OK if passed else EXIT_ERROR


def _setup_problem(args, d):
    R = float(args.R or 1.0)
    n_nodes = int(args.nodes or 257)
    grid = RadialGrid.uniform(d, R, n_nodes)
    P = build_propagator(grid)
    u0 = indicator(grid, BallIndicator(radius=float(args.r or R / 2),
                                       amplitude=float(args.amplitude or 1.0)))
    return P, u0


def experiment_horizon(args, argv) -> int:
    _require(args, "d", "u0_l1")
    d, _ = _d_and_q(args)
    f = resolve_f(args)
    rep = find_existence_horizon(float(args.u0_l1), f, d,
                                 A=float(args.A or 2.0))
    report = {"command": "experiment", "kind": "horizon",
              "f": f.source_text, "result": vars(rep).copy(),
              "constants": constants_block(d)}
    emit_report(report, args.out, argv)
    return EXIT_OK


def experiment_iterate(args, argv) -> int:
    _require(args, "d")
    d, _ = _d_and_q(args)
    f = resolve_f(args)
    P, u0 = _setup_problem(args, d)
    A = float(args.A or 2.0)
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, d, A=A)
    n_time = int(args.n_time or 64)
    base = heat_series(P, u0, np.linspace(0.0, hor.T, n_time))
    chi = indicator(P.grid, BallIndicator(P.grid.R * (1 - 1e-12)))
    v_init = A * base + chi.values[None, :P.grid.n_interior]
    margin = supersolution_check(P, u0, f, v_init, hor.T, n_time=n_time)
    trace = duhamel_iterate(P, u0, f, v_init, hor.T, n_time=n_time,
                            n_iter=int(args.n_iter or 50))
    report = {
        "command": "experiment", "kind": "iterate", "f": f.source_text,
        "horizon": vars(hor).copy(),
        "supersolution_margin": margin.margin,
        "converged": trace.converged, "iterations": trace.n_iter,
        "residual": trace.residual, "max_increase": trace.max_increase,
        "min_above_baseline": trace.min_above_baseline,
        "constants": constants_block(P.grid.d),
    }
    emit_report(report, args.out, argv)
    if args.csv:
        write_csv(args.csv, ["iteration", "sup_delta"],
                  list(enumerate(trace.sup_deltas, start=1)))
    return EXIT_OK if margin.certified and trace.converged else EXIT_ERROR


def experiment_simulate(args, argv) -> int:
    _require(args, "d", "T")
    d, q = _d_and_q(args, q=2.0)
    f = resolve_f(args)
    P, u0 = _setup_problem(args, d)
    controls = SimulationControls(q=q, dt_init=float(args.dt or 1e-3))
    traj = simulate_forward(P, u0, f, float(args.T), controls)
    report = {
        "command": "experiment", "kind": "simulate", "f": f.source_text,
        "T": float(args.T), "steps": len(traj.times) - 1,
        "rejected_steps": traj.rejected_steps,
        "blowup": traj.blowup, "blowup_time": traj.blowup_time,
        "peak_l1": traj.peak_l1, "final_l1": traj.l1[-1],
        "final_linf": traj.linf[-1],
        "constants": constants_block(P.grid.d),
    }
    emit_report(report, args.out, argv)
    if args.csv:
        write_csv(args.csv,
                  ["t", "l1", f"l{controls.q:g}", "linf", "dt", "clamps"],
                  list(zip(traj.times, traj.l1, traj.lq, traj.linf,
                           traj.dts, traj.clamp_counts)))
    return EXIT_OK


def experiment_lower_bound(args, argv) -> int:
    _require(args, "d", "r", "t")
    d, q = _d_and_q(args, q=1.0)
    f = resolve_f(args)
    lb = duhamel_lower_bound(
        BallIndicator(radius=float(args.r),
                      amplitude=float(args.amplitude or 1.0)),
        f, float(args.t), d, q=q)
    report = {
        "command": "experiment", "kind": "lower_bound", "f": f.source_text,
        "t": float(args.t), "lq": lb.lq, "q": lb.q,
        "min_on_ball": lb.min_on_ball(float(args.r)),
        "constants": constants_block(d),
    }
    emit_report(report, args.out, argv)
    if args.csv:
        write_csv(args.csv, ["rho", "lower_bound"],
                  list(zip(lb.radii, lb.values)))
    return EXIT_OK


def experiment_blowup_trend(args, argv) -> int:
    _require(args, "d", "q", "N_range")
    d, q = _d_and_q(args)
    f = resolve_f(args)
    bounds = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", str(args.N_range))
    if bounds is None:
        raise CliError("N-range must have the form LO..HI with integers "
                       f"LO < HI, got {args.N_range!r}")
    lo, hi = int(bounds[1]), int(bounds[2])
    if lo >= hi:
        raise CliError("N-range LO..HI needs LO < HI: a trend takes at "
                       "least two N")
    n_steps = int(args.n_time or 20)
    if n_steps < 1:
        raise CliError("n-time must be at least 1")
    epsilon = float(args.epsilon or 0.5)
    R = float(args.R or 1.0)
    # one grid and one fixed step size for every N, so trajectories for
    # nested data stay pointwise ordered (discrete comparison principle);
    # per-run adaptive stepping would break the ordering near blow-up
    spec_hi, u0_hi = build_t1_data(f, d=d, q=q, N=hi, epsilon=epsilon, R=R)
    grid = u0_hi.grid
    P = build_propagator(grid)
    # simulate a tenth of the reaction timescale sup/f(sup) of the largest
    # data set, so every run stays resolved on the common step size
    sup_max = lq_norm(u0_hi, math.inf)
    T = (float(args.T) if args.T is not None
         else 0.1 * sup_max / float(eval_f(f, sup_max)))
    dt = float(args.dt) if args.dt is not None else T / n_steps
    controls = SimulationControls(dt_init=dt, adaptive=False, q=q)
    rows = []
    for N in range(lo, hi + 1):
        spec, u0 = build_t1_data(f, d=d, q=q, N=N, epsilon=epsilon, R=R,
                                 grid=grid)
        traj = simulate_forward(P, u0, f, T, controls)
        rows.append({"N": N, "peak_l1": traj.peak_l1,
                     "initial_l1": lq_norm(u0, 1.0), "blowup": traj.blowup,
                     "blowup_time": traj.blowup_time})
    peaks = [r["peak_l1"] for r in rows]
    monotone = all(a < b for a, b in zip(peaks, peaks[1:]))
    report = {"command": "experiment", "kind": "blowup_trend",
              "f": f.source_text, "rows": rows,
              "peak_l1_strictly_increasing": monotone,
              "note": "numeric blow-up trend; not a proof of non-existence",
              "constants": constants_block(d)}
    emit_report(report, args.out, argv)
    if args.csv:
        write_csv(args.csv, ["N", "peak_l1", "blowup"],
                  [(r["N"], r["peak_l1"], r["blowup"]) for r in rows])
    return EXIT_OK if monotone else EXIT_ERROR


def _suite_case(case):
    a, b, d = case
    f = parse_nonlinearity(f"s^{a:.6f} * log(e+s)^{b:.6f}")
    rep = equivalence_check(f, d=d)
    return {"f": f.source_text,
            "series": rep.series_verdict.outcome,
            "integral": rep.integral_verdict.outcome,
            "agree": rep.agree}


def experiment_equivalence_suite(args, argv) -> int:
    seed = int(args.seed or 7)
    count = int(args.count or 20)
    if count < 1:
        raise CliError("count must be a positive integer")
    d, _ = _d_and_q(args, d=2)
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        a = rng.uniform(1.3, 2.7)
        while 1.95 < a < 2.05:  # keep clear of the critical power
            a = rng.uniform(1.3, 2.7)
        cases.append((a, rng.uniform(0.0, 1.5), d))
    results = [_suite_case(case) for case in cases]
    decided = [r for r in results if r["agree"] is not None]
    disagreements = [r for r in decided if not r["agree"]]
    report = {"command": "experiment", "kind": "equivalence_suite",
              "seed": seed, "count": count, "d": d, "cases": results,
              "n_decided": len(decided),
              "n_disagreements": len(disagreements),
              "constants": constants_block(d)}
    emit_report(report, args.out, argv)
    if disagreements:
        return EXIT_ERROR
    return EXIT_OK if len(decided) == count else EXIT_INCONCLUSIVE


EXPERIMENTS = {
    "horizon": experiment_horizon,
    "iterate": experiment_iterate,
    "simulate": experiment_simulate,
    "lower_bound": experiment_lower_bound,
    "blowup_trend": experiment_blowup_trend,
    "equivalence_suite": experiment_equivalence_suite,
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are CliErrors: exit 1 with one line, not
    argparse's usage block and exit 2, which means Inconclusive here.
    Subparsers are made from the same class."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatlab",
        description="Numerical laboratory for local existence of "
                    "u_t - Lap(u) = f(u) with Lebesgue-space data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; "
                                        "flags override file values")
        p.add_argument("--out", help="JSON report path (default stdout)")
        p.add_argument("--csv", help="CSV evidence/trajectory path")

    def nonlinearity(p):
        p.add_argument("--f", help="nonlinearity expression in s")
        p.add_argument("--builtin",
                       choices=["power", "log_family", "piecewise_power"])
        p.add_argument("--p"), p.add_argument("--beta")
        p.add_argument("--p-low", dest="p_low")
        p.add_argument("--p-high", dest="p_high")
        p.add_argument("--d"), p.add_argument("--q")

    pc = sub.add_parser("classify", help="existence classification")
    common(pc)
    nonlinearity(pc)
    pc.add_argument("--domain", choices=["bounded", "whole_space"])

    pv = sub.add_parser("verify-kernel", help="certify the kernel bounds")
    common(pv)
    pv.add_argument("--d")
    pv.add_argument("--r-grid", dest="r_grid")
    pv.add_argument("--t-grid", dest="t_grid")
    pv.add_argument("--n-points", dest="n_points")
    pv.add_argument("--inflate-cd", dest="inflate_cd",
                    help="test-only: multiply c_d to falsify certification")

    pe = sub.add_parser("experiment", help="solver / databuilder experiments")
    common(pe)
    pe.add_argument("kind", choices=sorted(EXPERIMENTS))
    nonlinearity(pe)
    pe.add_argument("--u0-l1", dest="u0_l1")
    pe.add_argument("--A"), pe.add_argument("--T"), pe.add_argument("--t")
    pe.add_argument("--r"), pe.add_argument("--amplitude")
    pe.add_argument("--R"), pe.add_argument("--nodes")
    pe.add_argument("--n-time", dest="n_time")
    pe.add_argument("--n-iter", dest="n_iter")
    pe.add_argument("--dt")
    pe.add_argument("--N-range", dest="N_range")
    pe.add_argument("--epsilon")
    pe.add_argument("--seed"), pe.add_argument("--count")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _merge(args, load_config(args.config))
        if args.command == "classify":
            return cmd_classify(args, argv)
        if args.command == "verify-kernel":
            return cmd_verify_kernel(args, argv)
        return EXPERIMENTS[args.kind](args, argv)
    except (CliError, AuditError, SolverError, ParseError, DomainError,
            QuadratureError, ScheduleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
