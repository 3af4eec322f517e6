"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Inputs come only from the seed, through
``random.Random`` (its stream is stable across Python versions), and are
drawn in rounds: a round is a balanced design (every size class, dimension
and family the same number of times), so runs with different seeds do the
same mix of work and differ only in the continuous parameters (by one
seeded offset each) and the order of the operations.

heatlab is reached only through module attributes (``solver.duhamel_map``),
so the tracer can rebind them.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import theory

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _log_family_beta_max(d: int) -> float:
    """beta_max(d) = lambda (1 + 2/d), lambda the largest root of
    e^x = e^2 x; computed here so the inputs do not depend on heatlab."""
    lo, hi = 2.0, 4.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) - math.e ** 2 * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return lo * (1.0 + 2.0 / d)


def _make_f(H, inp: dict):
    """The nonlinearity of an input, built through the public parser or the
    builtin families, as the CLI builds it."""
    family, p = inp["family"], inp["params"]
    nl = H.nonlinearity
    if family == "power":
        return nl.builtin_family("power", {"p": p["p"]})
    if family == "piecewise_power":
        return nl.builtin_family("piecewise_power",
                                 {"p_low": p["p_low"], "p_high": p["p_high"]})
    if family == "log_family":
        return nl.builtin_family("log_family",
                                 {"d": inp["d"], "beta": p["beta"]})
    if family == "s_plus_power":
        return nl.parse_nonlinearity(f"s + s^{p['p']!r}")
    if family == "power_log":
        return nl.parse_nonlinearity(f"s^{p['a']!r} * log(e + s)^{p['b']!r}")
    raise ValueError(f"unknown family {family!r}")


def _strata(rng: random.Random, n: int) -> list:
    """n uniforms on [0, 1), one in each of the n equal strata at the same
    random offset, shuffled: spread over the rounds of a run, a parameter
    covers its range evenly, and seeds differ only by the offset and the
    order, so each seed's inputs cost about the same."""
    u = rng.random()
    vals = [(k + u) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _lattice(n: int, aspect: tuple, shift: tuple) -> list:
    """n points of a shifted rank-1 lattice in [0, 1)^2: a low-discrepancy
    uniform design, so any region holds close to n times its area of
    points. The generator maximises the smallest distance between points
    once the axes are scaled by ``aspect``."""
    def min_dist(g):
        return min(math.hypot(aspect[0] * min(i / n, 1 - i / n),
                              aspect[1] * min(i * g % n / n,
                                              1 - i * g % n / n))
                   for i in range(1, n))

    g = max((g for g in range(1, n) if math.gcd(g, n) == 1), key=min_dist)
    return [((i / n + shift[0]) % 1.0, ((i * g % n) / n + shift[1]) % 1.0)
            for i in range(n)]


# --- decide --------------------------------------------------------------

DECIDE_FAMILIES = ("power", "s_plus_power", "piecewise_power", "power_log",
                   "log_family")
LOG_R, LOG_T = (-2.0, 2.0), (-4.0, 2.0)   # decades of r and t


def _exponent_regimes(d: int, q: float) -> list:
    """Intervals between the thresholds of an exponent: 1 (whole space near
    0), 1 + 2/d (L^1) and 1 + 2q/d (L^q)."""
    cuts = [0.5, 1.0, 1.0 + 2.0 / d, 1.0 + 2.0 * q / d, 3.0 + 2.0 * q / d]
    return list(zip(cuts[:-1], cuts[1:]))


def _decide_params(family: str, regime: int, d: int, q: float, u1: float,
                   u2: float) -> dict:
    """Family parameters from two uniforms; exponents fall in the given
    regime (the second exponent of piecewise_power in the next one)."""
    regimes = _exponent_regimes(d, q)

    def exponent(k, u):
        lo, hi = regimes[k % 4]
        return lo + (hi - lo) * u

    if family in ("power", "s_plus_power"):
        return {"p": exponent(regime, u1)}
    if family == "piecewise_power":
        return {"p_low": exponent(regime, u1),
                "p_high": exponent(regime + 1, u2)}
    if family == "power_log":
        return {"a": exponent(regime, u1), "b": 2.0 * u2}
    # log_family: regime k is the k-th quarter of [0, beta_max(d)]
    return {"beta": _log_family_beta_max(d) * (regime + u1) / 4.0}


def decide_inputs(seed: int, rounds: int) -> list:
    """Each round holds, per dimension, the 5 families x 4 exponent regimes
    with q in [1.5, 4], parameters stratified over the rounds.

    The kernel sweep points (r, t) of a dimension form a fixed 20-point
    rank-1 lattice in (log10 r, log10 t) over [-2, 2] x [-4, 2]: a
    log-uniform design over the whole box, each point paired with one
    (d, family, regime) cell in every round. A sweep point in the large-r,
    small-t corner costs about a second (kernel-quadrature defect) against
    milliseconds elsewhere, so points drawn afresh per seed or per round
    would make the run time hinge on a handful of draws, and a pairing of
    the costly points with cells that changed from seed to seed would move
    the tail latency; the fixed design gives every round the same kernel
    work and every seed the same pairing."""
    rng = random.Random(seed)
    cells = [(d, fam, k) for d in (1, 2, 3) for fam in DECIDE_FAMILIES
             for k in range(4)]
    draws = {c: list(zip(*(_strata(rng, rounds) for _ in range(3))))
             for c in cells}
    aspect = (LOG_R[1] - LOG_R[0], LOG_T[1] - LOG_T[0])
    points = {}
    for d in (1, 2, 3):
        # fixed, dimension-specific shifts (fractional parts of d/phi, d/psi)
        points[d] = _lattice(20, aspect, ((d * 0.6180339887) % 1.0,
                                          (d * 0.7548776662) % 1.0))
    out = []
    for j in range(rounds):
        block = []
        for i, (d, family, regime) in enumerate(cells):
            uq, u1, u2 = draws[(d, family, regime)][j]
            x, y = points[d][i % 20]
            q = 1.5 + 2.5 * uq
            block.append({
                "d": d, "q": q, "family": family,
                "params": _decide_params(family, regime, d, q, u1, u2),
                "r": 10.0 ** (LOG_R[0] + aspect[0] * x),
                "t": 10.0 ** (LOG_T[0] + aspect[1] * y)})
        rng.shuffle(block)
        out += block
    return out


DECIDE_WARMUP = {"d": 2, "q": 2.0, "family": "log_family",
                 "params": {"beta": 2.0}, "r": 1.0, "t": 0.1}


def decide_op(H, inp: dict) -> dict:
    f = _make_f(H, inp)
    d, q = inp["d"], inp["q"]
    crit = H.criteria
    out = {"l1": crit.classify_l1(f, d).outcome,
           "lq": crit.classify_lq(f, q, d).outcome,
           "whole_space": crit.classify_whole_space(f, q, d).outcome}
    eq = crit.equivalence_check(f, d)
    out.update(series=eq.series_verdict.outcome,
               integral=eq.integral_verdict.outcome, agree=eq.agree)
    report = crit.critical_exponent_report(f, d)
    out["bracket"] = [float(b) for b in report.bracket]
    try:
        cert = H.heatkernel.verify_lower_bounds(d, [inp["r"]], [inp["t"]])
        out["kernel"] = {"passed": cert.passed,
                         "min_margin": float(cert.min_margin)}
    except H.heatkernel.QuadratureError as exc:
        out["kernel"] = {"error": f"QuadratureError: {exc}"}
    return out


VERDICT_CHECKS = ("l1", "lq", "whole_space", "series", "integral")


def decide_check(inp: dict, out: dict) -> list:
    exp = theory.expected_verdicts(inp["family"], inp["params"], inp["d"],
                                   inp["q"])
    want = {"l1": exp["l1"], "lq": exp["lq"],
            "whole_space": exp["whole_space"], "series": exp["l1"],
            "integral": exp["l1"]}
    bad = [(k, f"{out[k]} (theory: {want[k]})") for k in VERDICT_CHECKS
           if not theory.verdict_ok(out[k], want[k])]
    if out["agree"] is False:
        bad.append(("equivalence", f"series {out['series']} vs integral "
                                   f"{out['integral']}"))
    lo, hi = out["bracket"]
    if not lo <= exp["gamma_star"] <= hi:
        bad.append(("critical_exponent",
                    f"gamma* = {exp['gamma_star']:.4f} outside "
                    f"[{lo:.4f}, {hi:.4f}]"))
    kernel = out["kernel"]
    if "error" in kernel or not kernel["passed"]:
        bad.append(("kernel", kernel.get("error",
                                         f"min margin {kernel.get('min_margin')}")))
    return bad


# --- iterate -------------------------------------------------------------

ITERATE_NODES = (257, 513, 1025)
ITERATE_TIMES = (64, 128, 256)
ITERATE_FAMILIES = ("power", "s_plus_power", "log_family")
ITERATE_A = 2.0
ITERATE_MAX_ITER = 50


def iterate_inputs(seed: int, rounds: int) -> list:
    """Each round holds the 3 x 3 (nodes, time slices) grid; dimension and
    family follow two orthogonal Latin squares whose shifts rotate from round
    to round. f is L^1-subcritical, so the theory grants a horizon."""
    rng = random.Random(seed)
    o1, o2 = rng.randrange(3), rng.randrange(3)
    cells = [(i, j) for i in range(3) for j in range(3)]
    draws = {c: list(zip(*(_strata(rng, rounds) for _ in range(3))))
             for c in cells}
    out = []
    for k in range(rounds):
        s1, s2 = (k + o1) % 3, (k // 3 + o2) % 3
        block = []
        for i, j in cells:
            d = 1 + (i + j + s1) % 3
            family = ITERATE_FAMILIES[(i + 2 * j + s2) % 3]
            up, ur, ua = draws[(i, j)][k]
            if family == "log_family":
                params = {"beta": 1.0 + (_log_family_beta_max(d) - 1.0) * up}
            else:
                params = {"p": 1.0 + (2.0 / d) * up}
            block.append({"d": d, "family": family, "params": params,
                          "n": ITERATE_NODES[i], "n_time": ITERATE_TIMES[j],
                          "r": 0.2 + 0.6 * ur,
                          "amplitude": 0.03 * (1.0 / 0.03) ** ua})
        rng.shuffle(block)
        out += block
    return out


ITERATE_WARMUP = {"d": 2, "family": "log_family", "params": {"beta": 2.0},
                  "n": 257, "n_time": 64, "r": 0.5, "amplitude": 0.1}


def iterate_op(H, inp: dict) -> dict:
    """One monotone-iteration problem, step for step as ``experiment
    iterate`` runs it."""
    solver, kernel = H.solver, H.heatkernel
    f = _make_f(H, inp)
    zero = H.nonlinearity.parse_nonlinearity("0 * s")
    grid = solver.RadialGrid.uniform(inp["d"], 1.0, inp["n"])
    P = solver.build_propagator(grid)
    m, n_time = grid.n_interior, inp["n_time"]
    u0 = solver.indicator(grid, kernel.BallIndicator(
        radius=inp["r"], amplitude=inp["amplitude"]))
    hor = solver.find_existence_horizon(solver.lq_norm(u0, 1.0), f,
                                        inp["d"], A=ITERATE_A)
    times = np.linspace(0.0, hor.T, n_time)
    base = solver.duhamel_map(P, u0, zero, np.zeros((n_time, m)), times)
    chi = solver.indicator(grid, kernel.BallIndicator(grid.R * (1 - 1e-12)))
    v_init = ITERATE_A * base + chi.values[None, :m]
    margin = solver.supersolution_check(P, u0, f, v_init, hor.T,
                                        n_time=n_time)
    trace = solver.duhamel_iterate(P, u0, f, v_init, hor.T, n_time=n_time,
                                   n_iter=ITERATE_MAX_ITER)
    return {"T": hor.T, "margin": margin.margin,
            "converged": trace.converged, "iterations": trace.n_iter,
            "max_increase": trace.max_increase,
            "min_above_baseline": trace.min_above_baseline,
            "scale": float(np.max(np.abs(v_init)))}


def iterate_check(inp: dict, out: dict) -> list:
    """A subcritical f gets a positive horizon on which A S(t)u0 + chi is a
    certified supersolution; from there the iteration decreases
    monotonically, stays above S(t)u0 and converges."""
    bad = []
    if not (out["T"] > 0.0 and math.isfinite(out["T"])):
        bad.append(("horizon", f"T = {out['T']}"))
    if not out["margin"] >= 0.0:
        bad.append(("supersolution", f"margin {out['margin']:.3e}"))
    if not out["converged"]:
        bad.append(("converged", f"{out['iterations']} iterations"))
    tol = 1e-10 * max(1.0, out["scale"])
    if out["max_increase"] > tol:
        bad.append(("monotone", f"increase {out['max_increase']:.3e}"))
    if out["min_above_baseline"] < -tol:
        bad.append(("above_baseline",
                    f"min v - S(t)u0 = {out['min_above_baseline']:.3e}"))
    return bad


# --- simulate ------------------------------------------------------------

SIMULATE_NODES = (257, 513, 1025)
SIMULATE_Q = (1.0, 1.5, 2.0)
SIMULATE_EPSILON = 0.5
SIMULATE_FIXED_STEPS = 200


def simulate_inputs(seed: int, rounds: int) -> list:
    """Each round holds the 3 x 3 (nodes, dimension) grid, q on a Latin
    square whose shift rotates from round to round. f = s^p is strictly
    supercritical, p in 1 + 2q/d + [0.5, 2.5]; the truncation depth runs
    from N = 2 to 5, 6 or 7; the ball amplitude is in [30, 300]."""
    rng = random.Random(seed)
    o = rng.randrange(3)
    cells = [(i, d) for i in range(3) for d in (1, 2, 3)]
    draws = {c: list(zip(*(_strata(rng, rounds) for _ in range(3))))
             for c in cells}
    out = []
    for k in range(rounds):
        block = []
        for i, d in cells:
            q = SIMULATE_Q[(i + d + k + o) % 3]
            up, un, ua = draws[(i, d)][k]
            block.append({"d": d, "q": q, "p": 1.5 + 2.0 * q / d + 2.0 * up,
                          "n": SIMULATE_NODES[i], "N_lo": 2,
                          "N_hi": 5 + int(3 * un),
                          "amplitude": 30.0 * 10.0 ** ua})
        rng.shuffle(block)
        out += block
    return out


SIMULATE_WARMUP = {"d": 2, "q": 1.0, "p": 3.5, "n": 257, "N_lo": 2,
                   "N_hi": 4, "amplitude": 50.0}


def _kaplan_time(P, u0, p: float):
    """Kaplan's bound for f = s^p: with phi the positive first eigenvector
    (normalised to unit integral) and a0 = <u0, phi>, the semi-discrete
    solution blows up before ln(u/(u - lam)) / ((p - 1) lam), u = a0^(p-1),
    whenever u > lam; otherwise the bound is infinite."""
    m = P.grid.n_interior
    w = P.grid.quad_weights[:m]
    phi = np.abs(P.modes[:, 0]) / P.sqrt_w
    phi = phi / np.sum(w * phi)
    a0 = float(np.sum(w * phi * u0.values[:m]))
    lam = float(P.eigenvalues[0])
    u = a0 ** (p - 1.0)
    if u <= lam:
        return math.inf
    return math.log(u / (u - lam)) / ((p - 1.0) * lam)


def simulate_op(H, inp: dict) -> dict:
    """The blow-up study of ``experiment blowup_trend`` over an N range,
    then one adaptive run from a large ball until Kaplan's bound."""
    solver, db, nl = H.solver, H.databuilder, H.nonlinearity
    d, q = inp["d"], inp["q"]
    f = nl.parse_nonlinearity(f"s^{inp['p']!r}")
    _, u0_hi = db.build_t1_data(f, d=d, q=q, N=inp["N_hi"],
                                epsilon=SIMULATE_EPSILON, R=1.0)
    grid = u0_hi.grid
    P = solver.build_propagator(grid)
    sup_max = solver.lq_norm(u0_hi, math.inf)
    T = 0.1 * sup_max / float(nl.eval_f(f, sup_max))
    fixed = solver.SimulationControls(dt_init=T / SIMULATE_FIXED_STEPS,
                                      adaptive=False, q=q)
    peaks = []
    for N in range(inp["N_lo"], inp["N_hi"] + 1):
        _, u0 = db.build_t1_data(f, d=d, q=q, N=N, epsilon=SIMULATE_EPSILON,
                                 R=1.0, grid=grid)
        peaks.append(solver.simulate_forward(P, u0, f, T, fixed).peak_l1)

    ball_grid = solver.RadialGrid.uniform(d, 1.0, inp["n"])
    P_ball = solver.build_propagator(ball_grid)
    u0 = solver.indicator(ball_grid, H.heatkernel.BallIndicator(
        radius=0.5, amplitude=inp["amplitude"]))
    T_ball = 2.0 * _kaplan_time(P_ball, u0, inp["p"])
    if not math.isfinite(T_ball):
        raise ValueError("benchmark input outside Kaplan's regime")
    traj = solver.simulate_forward(
        P_ball, u0, f, T_ball,
        solver.SimulationControls(q=q, dt_init=T_ball / 50.0))
    return {"peaks": peaks, "T_ball": T_ball, "blowup": traj.blowup,
            "steps": len(traj.times) - 1}


def simulate_check(inp: dict, out: dict) -> list:
    """Nested data give pointwise ordered trajectories, so peak_l1 rises
    strictly in N; Kaplan's bound forces blow-up before T_ball / 2."""
    bad = []
    peaks = out["peaks"]
    if not all(a < b for a, b in zip(peaks, peaks[1:])):
        bad.append(("peak_l1_increasing", f"peaks {peaks}"))
    if not out["blowup"]:
        bad.append(("blowup", f"no blow-up by T = {out['T_ball']:.3e} "
                              f"({out['steps']} steps)"))
    return bad


# --- cli_cold ------------------------------------------------------------

# The README invocations, one fresh process each, in this order; lower_bound
# is listed in the README without an example, so it gets the simulate one's
# f, d and r. Eleven commands (an odd count) put the median latency inside
# one command's samples instead of between two commands.
CLI_COMMANDS = (
    ("classify_power", "classify --f s^3 --d 1 --q 1"),
    ("classify_lq", "classify --f s^2 --d 2 --q 2"),
    ("classify_log", "classify --builtin log_family --d 2 --beta 1 --q 1"),
    ("verify_kernel",
     "verify-kernel --d 2 --r-grid 0.25,1,4 --t-grid 0.01,1,4"),
    ("horizon", "experiment horizon --f s+s^2 --d 2 --u0-l1 0.5"),
    ("iterate", "experiment iterate --f s^2 --d 1 --r 0.5 --amplitude 0.1 "
                "--out iterate.json --csv trace.csv"),
    ("simulate", "experiment simulate --f s^2 --d 1 --r 0.5 --amplitude 0.1 "
                 "--T 0.01 --csv trajectory.csv"),
    ("blowup_trend",
     "experiment blowup_trend --f s^4 --d 1 --q 1 --N-range 3..8"),
    ("equivalence_suite",
     "experiment equivalence_suite --seed 7 --count 20 --d 2"),
    ("classify_config", "classify --config run.cfg --q 3"),
    ("lower_bound", "experiment lower_bound --f s^2 --d 1 --r 0.5 --t 0.01"),
)


def cli_inputs(seed: int, rounds: int) -> list:
    """The README commands in their fixed order; the seed changes nothing,
    since the commands are the documented ones."""
    return [{"name": name, "argv": args.split()}
            for _ in range(rounds) for name, args in CLI_COMMANDS]


CLI_WARMUP = {"name": "classify_lq", "argv": CLI_COMMANDS[1][1].split()}
RUN_CFG = "# run.cfg\nf = s^2\nd = 2\nq = 2\n"   # the README's config file


def cli_op(ctx, inp: dict) -> dict:
    """Run one command in a fresh interpreter. Traced runs start the
    benchmark's cli_child.py instead of ``-m heatlab.cli``; it calls the same
    ``heatlab.cli.main`` with the tracer installed."""
    workdir = ctx["workdir"]
    for stale in ("iterate.json", "iterate.json.meta.json", "trace.csv",
                  "trajectory.csv"):
        (workdir / stale).unlink(missing_ok=True)
    (workdir / "run.cfg").write_text(RUN_CFG)
    trace_file = workdir / "trace.json"
    if ctx["traced"]:
        cmd = [sys.executable, str(CLI_CHILD), str(trace_file)]
    else:
        cmd = [sys.executable, "-m", "heatlab.cli"]
    spawned = time.time()
    proc = subprocess.run(cmd + inp["argv"], cwd=workdir,
                          capture_output=True, text=True, timeout=150)
    out = {"rc": proc.returncode, "stdout": proc.stdout,
           "stderr": proc.stderr[-2000:], "spawned": spawned,
           "exited": time.time()}
    if inp["name"] == "iterate" and proc.returncode in (0, 1):
        out["report"] = json.loads((workdir / "iterate.json").read_text())
    if ctx["traced"]:
        out["trace"] = json.loads(trace_file.read_text())
        trace_file.unlink()
    return out


def _report(out: dict) -> dict:
    return out.get("report") or json.loads(out["stdout"])


def cli_check(inp: dict, out: dict) -> list:
    name, rc = inp["name"], out["rc"]
    # the L^1-critical horizon example must be refused (exit 1)
    want_rc = 1 if name == "horizon" else 0
    if rc != want_rc:
        return [("exit_code", f"exit {rc}, theory wants {want_rc}; "
                              f"stderr: {out['stderr'][-200:]!r}")]
    if rc != 0:
        return []
    rep = _report(out)
    bad = []
    if name.startswith("classify"):
        route, want = {"classify_power": ("l1", theory.NLE),
                       "classify_lq": ("lq", theory.EXISTS),
                       "classify_log": ("l1", theory.NLE),
                       "classify_config": ("lq", theory.EXISTS)}[name]
        if rep["verdict"]["outcome"] != want:
            bad.append((route, f"{rep['verdict']['outcome']} "
                               f"(theory: {want})"))
    elif name == "verify_kernel":
        if not rep["passed"]:
            bad.append(("certificate", "kernel bound not certified"))
    elif name == "iterate":
        if not (rep["converged"] and rep["supersolution_margin"] >= 0.0):
            bad.append(("iteration", "uncertified or not converged"))
    elif name == "simulate":
        # comparison with the ODE u' = u^2 from the sup of u0 = 0.1
        ode = 0.1 / (1.0 - 0.1 * rep["T"])
        if rep["blowup"] or rep["steps"] < 1 or \
                rep["final_linf"] > ode * (1 + 1e-12):
            bad.append(("trajectory", f"blowup={rep['blowup']} steps="
                                      f"{rep['steps']} final_linf="
                                      f"{rep['final_linf']}"))
    elif name == "blowup_trend":
        if not rep["peak_l1_strictly_increasing"]:
            bad.append(("peak_l1_increasing", "peak_l1 not increasing"))
    elif name == "equivalence_suite":
        for case in rep["cases"]:
            a = float(re.match(r"s\^([0-9.]+)", case["f"]).group(1))
            want = theory.EXISTS if a < 2.0 else theory.NLE
            for route in ("series", "integral"):
                if not theory.verdict_ok(case[route], want):
                    bad.append((route, f"{case['f']}: {case[route]} "
                                       f"(theory: {want})"))
        if rep["n_disagreements"]:
            bad.append(("equivalence", f"{rep['n_disagreements']} "
                                       "disagreements"))
    elif name == "lower_bound":
        if not (rep["lq"] > 0.0 and rep["min_on_ball"] > 0.0):
            bad.append(("lower_bound", "lower bound not positive"))
    return bad


# --- registry ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    nominal_round_s: float   # one round on a 2-core x86 box
    inputs: Callable         # (seed, rounds) -> list of inputs
    warmup: dict             # fixed input of the discarded warm-up op
    op: Callable             # (heatlab or cli context, input) -> output
    check: Callable          # (input, output) -> [(check, detail)]
    in_process: bool

    def rounds(self, seconds: float) -> int:
        """Rounds that take about ``seconds``; the count depends only on
        ``seconds``, so a seed always runs the same operations."""
        return max(1, round(seconds / self.nominal_round_s))


WORKLOADS = {
    "cli_cold": Workload("cli_cold", 7.3, cli_inputs, CLI_WARMUP, cli_op,
                         cli_check, in_process=False),
    # four rounds at --seconds 20, which puts op_s.tail inside one group of
    # equally costly ops (heatbench/README.md, "How a run works")
    "decide": Workload("decide", 4.5, decide_inputs, DECIDE_WARMUP,
                       decide_op, decide_check, in_process=True),
    "iterate": Workload("iterate", 5.3, iterate_inputs, ITERATE_WARMUP,
                        iterate_op, iterate_check, in_process=True),
    "simulate": Workload("simulate", 3.0, simulate_inputs, SIMULATE_WARMUP,
                         simulate_op, simulate_check, in_process=True),
}

