"""Command-line interface: classify nonlinearities, certify kernel bounds,
and run reproducible solver experiments with machine-readable reports.

Exit codes: 0 = decided / certified, 2 = Inconclusive, 1 = error (usage
errors included) or failed certification. Reports are deterministic for a
fixed config and seed; wall clock and invocation details go to a separate
.meta.json file.

Each runner takes the parsed args alone and returns (report, table, code):
its own report keys, the (header, rows) that --csv writes (None where the
command takes no --csv) and its exit code. main writes all output: the CSV
first, then the report, framed by "command", "kind" (experiments only) and
the "constants" block of --d.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

from . import _lazy
from .criteria import (classify_l1, classify_lq, classify_whole_space,
                       duhamel_lower_bound, equivalence_check, jsonable)
from .heatkernel import (BallIndicator, KERNEL_REL_TOL, kernel_constants,
                         verify_lower_bounds)
from .nonlinearity import (ParseError, builtin_family, eval_f,
                           monotonicity_audit, parse_nonlinearity)

np = _lazy("numpy")
# the experiments' layers, executed on first use, since no deciding command
# reads them; calls go through the module, so a function rebound there (by
# the benchmark's tracer or a test) is the one called
solver = _lazy("heatlab.solver")
databuilder = _lazy("heatlab.databuilder")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class CliError(ValueError):
    pass


# --- option tables -----------------------------------------------------------

def _checked(accept, expected: str, convert=float):
    """An argparse type: convert the text, then keep the value if accept
    holds, else reject it with a message that says what was expected."""
    def parse(text):
        try:
            value = convert(text)
            ok = accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value
    return parse


def _integer(minimum: int):
    return _checked(lambda v: v >= minimum, f"an integer >= {minimum}", int)


NUMBER = _checked(math.isfinite, "a finite number")
POSITIVE = _checked(lambda v: 0 < v < math.inf, "a finite positive number")
NON_NEGATIVE = _checked(lambda v: 0 <= v < math.inf,
                        "a finite non-negative number")
POSITIVE_LIST = _checked(
    lambda v: bool(v) and all(0 < x < math.inf for x in v),
    "a comma-separated list of finite positive numbers",
    lambda text: [float(x) for x in text.split(",") if x.strip()])

# what each --builtin family reads besides --d (read by log_family)
BUILTIN_PARAMS = {"power": ("p",), "log_family": ("beta",),
                  "piecewise_power": ("p_low", "p_high")}

# Every option once: its argparse type (a list: its choices) and its help.
# Each command's table names the options it reads, with default or REQUIRED.
OPTIONS = {
    "config": (str, "'key = value' lines, read as flags before the others"),
    "out": (str, "JSON report path (default: stdout)"),
    "csv": (str, "CSV path for the trace, trajectory or peak table"),
    "f": (str, "nonlinearity expression in s"),
    "builtin": (list(BUILTIN_PARAMS), "builtin family instead of --f"),
    "p": (NUMBER, "exponent of --builtin power"),
    "beta": (NON_NEGATIVE, "log power of --builtin log_family"),
    "p_low": (NUMBER, "low exponent of --builtin piecewise_power"),
    "p_high": (NUMBER, "high exponent of --builtin piecewise_power"),
    "d": (_integer(1), "space dimension"),
    "q": (_checked(lambda v: 1 <= v < math.inf, "a finite exponent >= 1"),
          "Lebesgue exponent of the data"),
    "domain": (["bounded", "whole_space"], "domain of the problem"),
    "r_grid": (POSITIVE_LIST, "ball radii to certify"),
    "t_grid": (POSITIVE_LIST, "times to certify"),
    "u0_l1": (NON_NEGATIVE, "L1 norm of the data"),
    "A": (_checked(lambda v: 1 < v < math.inf, "a finite number > 1"),
          "supersolution factor"),
    "R": (POSITIVE, "radius of the domain"),
    "nodes": (_integer(33), "radial grid nodes"),  # 32 interior ones
    "r": (POSITIVE, "radius of the ball the data fill"),
    "amplitude": (NON_NEGATIVE, "height of the data"),
    "t": (POSITIVE, "time of the lower bound"),
    "T": (POSITIVE, "final time"),
    "dt": (POSITIVE, "time step"),
    "n_time": (_integer(1), "time slices or steps"),
    "n_iter": (_integer(1), "iteration budget"),
    "N_range": (_checked(lambda v: len(v) == 2 and 1 <= v[0] < v[1],
                         "LO..HI with integers 1 <= LO < HI",
                         lambda text: tuple(map(int, text.split("..")))),
                "T1 truncation depths N"),
    "epsilon": (POSITIVE, "scale of the T1 data"),
    "seed": (_integer(0), "random seed"),
    "count": (_integer(1), "number of random cases"),
}
REQUIRED = object()


class Derived(str):
    """A default computed from other options; --help shows the text."""


NONLINEARITY = {"f": None, "builtin": None, "p": None, "beta": None,
                "p_low": None, "p_high": None, "d": REQUIRED}
BALL_DATA = {"R": 1.0, "nodes": 257, "r": Derived("R/2"), "amplitude": 1.0}


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


def _with_config(argv: list) -> list:
    """argv without --config FILE, and with the file's lines as --key=value
    tokens right after the command (and kind), so that the command's parser
    checks them like flags and the flags, parsed later, win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    config = load_config(known.config)
    if "config" in config:
        raise CliError(f"{known.config}: a config file cannot name another")
    head = 2 if rest[:1] == ["experiment"] else 1
    tokens = [f"--{key.replace('_', '-')}={val}"
              for key, val in config.items()]
    return rest[:head] + tokens + rest[head:]


def atomic_write(path: str, text: str) -> None:
    """Write through a temp file and a rename; a failure names path."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}")
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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
        "kernel_rel_tol": KERNEL_REL_TOL,
    }


def resolve_f(args):
    """f from --f, or from --builtin and exactly that family's parameters."""
    if (args.f is None) == (args.builtin is None):
        raise CliError("provide either --f EXPR or --builtin NAME")
    for family, names in BUILTIN_PARAMS.items():
        for name in names:
            given = getattr(args, name) is not None
            if given != (family == args.builtin):
                flag = "--" + name.replace("_", "-")
                raise CliError(f"{flag} is read only by --builtin {family}"
                               if given else
                               f"--builtin {family} needs {flag}")
    if args.builtin:
        return builtin_family(args.builtin, {
            name: getattr(args, name)
            for name in ("d", *BUILTIN_PARAMS[args.builtin])})
    try:
        return parse_nonlinearity(args.f)
    except ParseError as exc:
        raise CliError(f"cannot parse f: {exc}")


def audited_f(args):
    """resolve_f's f once it passes the classifiers' audit (non-negative,
    non-decreasing), for simulate and blowup_trend, whose routes audit no f;
    the classifiers, the horizon and the lower bound audit f themselves."""
    f = resolve_f(args)
    monotonicity_audit(f)
    return f


# --- commands ----------------------------------------------------------------

def cmd_classify(args) -> tuple:
    f, d, q = resolve_f(args), args.d, args.q
    if args.domain == "whole_space":
        verdict = classify_whole_space(f, q, d)
    elif q > 1:
        verdict = classify_lq(f, q, d)
    else:
        verdict = classify_l1(f, d)
    report = {"f": f.source_text, "d": d, "q": q, "domain": args.domain,
              "verdict": verdict.to_dict()}
    return report, None, EXIT_OK if verdict.decided else EXIT_INCONCLUSIVE


def cmd_verify_kernel(args) -> tuple:
    rep = verify_lower_bounds(args.d, args.r_grid, args.t_grid)
    return ({"report": rep.to_dict(), "passed": rep.passed}, None,
            EXIT_OK if rep.passed else EXIT_ERROR)


def _initial_data(args):
    """u0 on a uniform grid, which is cheap; its propagator is not."""
    grid = solver.RadialGrid.uniform(args.d, args.R, args.nodes)
    radius = args.R / 2 if args.r is None else args.r
    return solver.indicator(grid, BallIndicator(radius, args.amplitude))


def experiment_horizon(args) -> tuple:
    f = resolve_f(args)
    rep = solver.find_existence_horizon(args.u0_l1, f, args.d, A=args.A)
    return {"f": f.source_text, "result": vars(rep).copy()}, None, EXIT_OK


def experiment_iterate(args) -> tuple:
    if args.n_time < 2:  # a trapezoid in time needs two slices
        raise CliError(f"--n-time must be at least 2, got {args.n_time}")
    f, u0 = resolve_f(args), _initial_data(args)
    A, n_time = args.A, args.n_time
    hor = solver.find_existence_horizon(solver.lq_norm(u0, 1.0), f, args.d,
                                        A=A)
    P = solver.build_propagator(u0.grid)
    base = solver.heat_series(P, u0, np.linspace(0.0, hor.T, n_time))
    v_init = A * base + 1.0   # chi_Omega is 1 on every interior node
    margin = solver.supersolution_check(P, u0, f, v_init, hor.T,
                                        n_time=n_time)
    trace = solver.duhamel_iterate(P, u0, f, v_init, hor.T, n_time=n_time,
                                   n_iter=args.n_iter)
    report = {"f": f.source_text, "horizon": vars(hor).copy(),
              "supersolution_margin": margin.margin,
              "converged": trace.converged, "iterations": trace.n_iter,
              "residual": trace.residual, "max_increase": trace.max_increase,
              "min_above_baseline": trace.min_above_baseline}
    return (report, (["iteration", "sup_delta"],
                     list(enumerate(trace.sup_deltas, start=1))),
            EXIT_OK if margin.certified and trace.converged else EXIT_ERROR)


def experiment_simulate(args) -> tuple:
    f, u0 = audited_f(args), _initial_data(args)
    P = solver.build_propagator(u0.grid)
    controls = solver.SimulationControls(q=args.q, dt_init=args.dt)
    traj = solver.simulate_forward(P, u0, f, args.T, controls)
    report = {"f": f.source_text, "T": args.T, "steps": len(traj.times) - 1,
              "rejected_steps": traj.rejected_steps, "blowup": traj.blowup,
              "blowup_time": traj.blowup_time, "peak_l1": traj.peak_l1,
              "final_l1": traj.l1[-1], "final_linf": traj.linf[-1]}
    return (report, (["t", "l1", f"l{controls.q:g}", "linf", "dt", "clamps"],
                     list(zip(traj.times, traj.l1, traj.lq, traj.linf,
                              traj.dts, traj.clamp_counts))), EXIT_OK)


def experiment_lower_bound(args) -> tuple:
    f = resolve_f(args)
    lb = duhamel_lower_bound(BallIndicator(args.r, args.amplitude), f, args.t,
                             args.d, q=args.q)
    return ({"f": f.source_text, "t": args.t, "lq": lb.lq, "q": args.q,
             "min_on_ball": lb.value}, None, EXIT_OK)


def experiment_blowup_trend(args) -> tuple:
    d, q = args.d, args.q
    f = audited_f(args)
    lo, hi = args.N_range
    epsilon, R = args.epsilon, args.R
    # one grid and one fixed step size for every N, so trajectories for
    # nested data stay pointwise ordered (discrete comparison principle);
    # per-run adaptive stepping would break the ordering near blow-up
    _, u0_hi = databuilder.build_t1_data(f, d=d, q=q, N=hi, epsilon=epsilon,
                                         R=R)
    grid = u0_hi.grid
    P = solver.build_propagator(grid)
    # simulate a tenth of the reaction timescale sup/f(sup) of the largest
    # data set, so every run stays resolved on the common step size
    sup_max = solver.lq_norm(u0_hi, math.inf)
    T = (0.1 * sup_max / float(eval_f(f, sup_max)) if args.T is None
         else args.T)
    if not 0 < T < math.inf:  # a derived T, from an f(sup u0) that overflows
        raise CliError(f"the default T = 0.1 sup u0 / f(sup u0) is {T:g} at "
                       f"sup u0 = {sup_max:g} (N = {hi}); pass --T")
    controls = solver.SimulationControls(dt_init=T / args.n_time,
                                         adaptive=False, q=q)
    rows = []
    for N in range(lo, hi + 1):
        u0 = u0_hi if N == hi else databuilder.build_t1_data(
            f, d=d, q=q, N=N, epsilon=epsilon, R=R, grid=grid)[1]
        traj = solver.simulate_forward(P, u0, f, T, controls)
        rows.append({"N": N, "peak_l1": traj.peak_l1,
                     "initial_l1": solver.lq_norm(u0, 1.0),
                     "blowup": traj.blowup,
                     "blowup_time": traj.blowup_time})
    peaks = [r["peak_l1"] for r in rows]
    monotone = all(a < b for a, b in zip(peaks, peaks[1:]))
    report = {"f": f.source_text, "rows": rows,
              "peak_l1_strictly_increasing": monotone,
              "note": "numeric blow-up trend; not a proof of non-existence"}
    return (report, (["N", "peak_l1", "blowup"],
                     [(r["N"], r["peak_l1"], r["blowup"]) for r in rows]),
            EXIT_OK if monotone else EXIT_ERROR)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on 32-bit words, with its running constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


class _PCG64:
    """numpy.random.default_rng(seed)'s stream without importing numpy.random
    (it loads every bit generator, secrets and hashlib). SeedSequence mixes
    the seed's 32-bit words into a 4-word pool; generate_state(4, uint64)
    seeds PCG64, a 128-bit LCG with XSL-RR output (O'Neill, HMC-CS-2014-0905),
    as pcg64_set_seed does. uniform is Generator.uniform's, bit for bit, and
    pinned here: NEP 19 lets Generator's streams change."""

    MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        words = [seed >> k & _M32
                 for k in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)

        def mix(x, y):
            x = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return x ^ x >> 16

        pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        out = _hasher(0x8B51F9DD, 0x58F38DED)
        s = [out(pool[i % 4]) for i in range(8)]
        s = [s[i] | s[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian
        self.inc = (s[2] << 64 | s[3]) << 1 & _M128 | 1
        self.state = (self.inc + (s[0] << 64 | s[1])) * self.MULT + self.inc
        self.state &= _M128

    def uniform(self, lo: float, hi: float) -> float:
        self.state = self.state * self.MULT + self.inc & _M128
        x, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)


def _suite_case(case):
    a, b, d = case
    f = parse_nonlinearity(f"s^{a:.6f} * log(e+s)^{b:.6f}")
    rep = equivalence_check(f, d=d)
    return {"f": f.source_text,
            "series": rep.series_verdict.outcome,
            "integral": rep.integral_verdict.outcome,
            "agree": rep.agree}


def experiment_equivalence_suite(args) -> tuple:
    seed, count, d = args.seed, args.count, args.d
    rng = _PCG64(seed)
    cases = []
    for _ in range(count):
        a = rng.uniform(1.3, 2.7)
        while 1.95 < a < 2.05:  # keep clear of the critical power
            a = rng.uniform(1.3, 2.7)
        cases.append((a, rng.uniform(0.0, 1.5), d))
    results = [_suite_case(case) for case in cases]
    decided = [r for r in results if r["agree"] is not None]
    disagreements = [r for r in decided if not r["agree"]]
    report = {"seed": seed, "count": count, "d": d, "cases": results,
              "n_decided": len(decided),
              "n_disagreements": len(disagreements)}
    code = (EXIT_ERROR if disagreements else
            EXIT_OK if len(decided) == count else EXIT_INCONCLUSIVE)
    return report, None, code


# command (or experiment kind) -> (runner, help, {option: default or
# REQUIRED}); every command also takes --config and --out
COMMANDS = {
    "classify": (cmd_classify, "existence classification", {
        **NONLINEARITY, "q": REQUIRED, "domain": "bounded"}),
    "verify-kernel": (cmd_verify_kernel, "certify the kernel bounds", {
        "d": 1, "r_grid": "0.25,1,4", "t_grid": "0.01,0.25,1,4"}),
}
EXPERIMENTS = {
    "horizon": (experiment_horizon, "existence horizon of L1 data", {
        **NONLINEARITY, "u0_l1": REQUIRED, "A": 2.0}),
    "iterate": (experiment_iterate, "certified monotone iteration", {
        **NONLINEARITY, **BALL_DATA, "A": 2.0, "n_time": 64, "n_iter": 50,
        "csv": None}),
    "simulate": (experiment_simulate, "adaptive forward simulation", {
        **NONLINEARITY, "q": 2.0, **BALL_DATA, "T": REQUIRED, "dt": 1e-3,
        "csv": None}),
    "lower_bound": (experiment_lower_bound, "Duhamel lower bound", {
        **NONLINEARITY, "q": 1.0, "r": REQUIRED, "t": REQUIRED,
        "amplitude": 1.0}),
    "blowup_trend": (experiment_blowup_trend, "blow-up trend in N", {
        **NONLINEARITY, "q": REQUIRED, "N_range": REQUIRED, "n_time": 20,
        "epsilon": 0.5, "R": 1.0,
        "T": Derived("a tenth of sup u0 / f(sup u0) at N = HI"),
        "csv": None}),
    "equivalence_suite": (experiment_equivalence_suite, "series and "
                          "integral criteria on random f",
                          {"seed": 7, "count": 20, "d": 2}),
}


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors are CliErrors: exit 1 with one line, not
    argparse's usage block and exit 2, which means Inconclusive here.
    Subparsers are made from the same class, each with its command's option
    table, which it adds when it first parses: a run builds the options of
    its own command alone. Options are never abbreviated: a prefix of a flag
    is an unknown flag."""

    def __init__(self, *args, table=None, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.table = table

    def parse_known_args(self, args=None, namespace=None):
        if self.table is not None:
            _add_options(self, self.table)
            self.table = None
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise CliError(message)


def _add_options(parser, table: dict) -> None:
    for name, default in {"config": None, "out": None, **table}.items():
        kind, text = OPTIONS[name]
        kwargs = {"choices" if isinstance(kind, list) else "type": kind}
        if default is REQUIRED:
            kwargs["required"] = True
        elif isinstance(default, Derived):
            text += f" (default: {default})"
        elif default is not None:
            kwargs["default"] = default
            text += " (default: %(default)s)"
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            help=text, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatlab",
        description="Numerical laboratory for local existence of "
                    "u_t - Lap(u) = f(u) with Lebesgue-space data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, table) in COMMANDS.items():
        sub.add_parser(name, help=text, table=table)
    kinds = sub.add_parser("experiment", help="solver and data experiments"
                           ).add_subparsers(dest="kind", required=True)
    for kind, (_, text, table) in EXPERIMENTS.items():
        kinds.add_parser(kind, help=text, table=table)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        if args.command == "experiment":
            run = EXPERIMENTS[args.kind][0]
            head = {"command": args.command, "kind": args.kind}
        else:
            run, head = COMMANDS[args.command][0], {"command": args.command}
        report, table, code = run(args)
        report = {**head, **report, "constants": constants_block(args.d)}
        if getattr(args, "csv", None):
            write_csv(args.csv, *table)
        emit_report(report, args.out, argv)
        return code
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        # every heatlab error is a ValueError
        print(f"error: {str(exc) or repr(exc)}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
