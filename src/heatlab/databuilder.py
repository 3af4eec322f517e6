"""Builders for the pathological initial data: truncated sums of concentric
ball indicators whose amplitude/radius schedules force instantaneous norm
inflation, together with the predicted per-term lower bounds."""

from __future__ import annotations

import math
from typing import Optional

from . import _lazy
from .criteria import NO_LOCAL_EXISTENCE, SeriesWitness, check_scope, \
    series_search, series_verdict
from .heatkernel import BallIndicator, KernelConstants, kernel_constants
from .nonlinearity import NonlinearityExpr
from .solver import RadialField, RadialGrid, indicator, lq_norm

np = _lazy("numpy")

PHI_GRID_RATIO = 1.1
PHI_CAP = 1e12
MIN_NODES_PER_BALL = 8


class ScheduleError(ValueError):
    """The amplitude/radius schedule could not be built or verified."""


class BlowupDataSpec:
    def __init__(self, kind: str, d: int, q: float, f: NonlinearityExpr,
                 N: int, amplitudes: np.ndarray, radii: np.ndarray,
                 phi: np.ndarray, constants: KernelConstants,
                 n0: Optional[int] = None,
                 zeta: Optional[np.ndarray] = None,
                 witness: Optional[SeriesWitness] = None,
                 norm_bound: float = math.nan,
                 sampled_norm: float = math.nan):
        self.kind = kind                # "T1" | "Todd"
        self.d = d
        self.q = q
        self.f = f
        self.N = N
        self.amplitudes = amplitudes    # per-term field amplitude
        self.radii = radii              # per-term ball radius
        self.phi = phi                  # underlying phi_k sequence
        self.constants = constants
        self.n0 = n0                    # Todd only
        self.zeta = zeta                # Todd only
        self.witness = witness
        self.norm_bound = norm_bound    # analytic bound on ||u0||
        self.sampled_norm = sampled_norm


def _search_phi(f: NonlinearityExpr, p: float, k: int, q: float,
                start: float) -> float:
    """First point of the ratio-1.1 geometric grid from `start` satisfying
    f(phi) >= phi^p e^(k/q), capped at the evaluator's overflow guard."""
    target = k / q  # compare in logs: log f(phi) - p log phi >= k/q
    phi = start
    while phi <= PHI_CAP:
        val = f.eval_floats([phi])[0]
        if math.isfinite(val) and val > 0 and \
                math.log(val) - p * math.log(phi) >= target - 1e-12:
            return phi
        phi *= PHI_GRID_RATIO
    raise ScheduleError(
        f"no phi <= {PHI_CAP:g} with f(phi) >= phi^{p:g} e^({k}/{q:g}); "
        "the growth condition looks unsatisfied")


def _auto_grid(d: int, R: float, r_min: float) -> RadialGrid:
    """Graded grid resolving the smallest ball with >= MIN_NODES_PER_BALL
    nodes."""
    r_inner = r_min / MIN_NODES_PER_BALL
    span = math.log(R / r_inner)
    n = max(257, int(math.ceil(
        1.5 * MIN_NODES_PER_BALL * span / math.log(MIN_NODES_PER_BALL))) + 1)
    return RadialGrid.graded(d, R, n, r_inner)


def _check_resolution(grid: RadialGrid, radii) -> None:
    for r in radii:
        if int(np.sum((grid.nodes > 0) & (grid.nodes <= r))) \
                < MIN_NODES_PER_BALL:
            raise ScheduleError(
                f"grid resolves the ball of radius {r:g} with fewer than "
                f"{MIN_NODES_PER_BALL} nodes; refusing to sample")


def _sample_sum(grid: RadialGrid, amplitudes, radii) -> RadialField:
    vals = np.zeros(grid.n)
    for amp, r in zip(amplitudes, radii):
        vals += indicator(grid, BallIndicator(radius=r, amplitude=amp)).values
    return RadialField(grid, vals)


def build_t1_data(f: NonlinearityExpr, d: int, q: float, N: int,
                  epsilon: float, R: float,
                  grid: Optional[RadialGrid] = None):
    """Truncated sum u0 = sum_k beta_d^(-1) phi_k chi_(r_k), k = 1..N, with
    f(phi_k) >= phi_k^p e^(k/q), p = 1 + 2q/d, and
    r_k = epsilon phi_k^(-q/d) k^(-2q/d).

    Returns (BlowupDataSpec, RadialField). (d, q) outside check_scope's is
    a ValueError; f is not audited here.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    check_scope(d, q)
    if not (0 < epsilon < math.inf and 0 < R < math.inf):
        raise ValueError("epsilon and R must be finite and positive")
    p = 1.0 + 2.0 * q / d
    consts = kernel_constants(d)

    phi = []
    prev = 0.0
    for k in range(1, N + 1):
        phi_k = _search_phi(f, p, k, q, start=max(float(k), prev + 1.0))
        phi.append(phi_k)
        prev = phi_k
    phi = np.array(phi)
    ks = np.arange(1, N + 1, dtype=float)
    radii = epsilon * phi ** (-q / d) * ks ** (-2.0 * q / d)

    # schedule re-verification with fresh evaluations
    for k, (ph, f_ph) in enumerate(zip(phi, f.eval_floats(phi)), start=1):
        if not f_ph >= ph ** p * math.exp(k / q) * (1 - 1e-9):
            raise ScheduleError(f"schedule inequality fails at k={k}")
    if 2.0 * radii.max() > R:
        raise ScheduleError(
            f"balls do not fit: 2*r_max = {2 * radii.max():g} > R = {R:g}; "
            "shrink epsilon")

    amplitudes = phi / consts.beta_d
    if grid is None:
        grid = _auto_grid(d, R, float(radii.min()))
    _check_resolution(grid, radii)
    u0 = _sample_sum(grid, amplitudes, radii)

    # ||u_k||_q = beta^-1 omega_d^(1/q) eps^(d/q) k^-2 (exact); the bound is
    # the triangle inequality over the retained terms, an equality at q = 1
    per_term = consts.beta_d ** -1 * consts.omega_d ** (1.0 / q) * \
        epsilon ** (d / q)
    norm_bound = per_term * float(np.sum(ks ** -2.0))
    spec = BlowupDataSpec(kind="T1", d=d, q=q, f=f, N=N,
                          amplitudes=amplitudes, radii=radii, phi=phi,
                          constants=consts, norm_bound=norm_bound,
                          sampled_norm=lq_norm(u0, q))
    return spec, u0


def build_todd_data(f: NonlinearityExpr, d: int, N: int, R: float):
    """Truncated sum u0 = sum_n n^(-2) alpha_n^d chi_(1/alpha_n) built from a
    divergent-series witness: phi_k = c_d^(-1) s_k, zeta_n the smallest index
    with phi_(k_n + 1) <= phi_(zeta_n) / 2, alpha_n = (n^2 phi_(zeta_n))^(1/d).

    The window schedule is k_n = n; the sum starts at the first n0 with
    1/alpha_(n0) < R/2.
    """
    if not 0 < R < math.inf:
        raise ValueError("R must be finite and positive")
    consts = kernel_constants(d)
    witness = series_search(f, d)
    if series_verdict(witness).outcome != NO_LOCAL_EXISTENCE:
        raise ScheduleError("the witness series converges, or f's leading "
                            "term is unknown; the construction needs it "
                            "to diverge")
    phi_all = np.asarray(witness.sequence) / consts.c_d

    zeta, alpha = [], []
    for n in range(1, N + 1):
        if n + 1 >= len(phi_all):
            raise ScheduleError(f"witness too short for k_{n} = {n}")
        target = 2.0 * phi_all[n + 1]
        idx = int(np.searchsorted(phi_all, target))
        if idx >= len(phi_all):
            raise ScheduleError(f"witness too short to satisfy the half-phi "
                                f"constraint at n = {n}")
        zeta.append(idx)
        alpha.append((n * n * phi_all[idx]) ** (1.0 / d))
    zeta = np.array(zeta, dtype=int)
    alpha = np.array(alpha)

    delta0 = R / 2.0
    inside = 1.0 / alpha < delta0
    if not inside.any():
        raise ScheduleError("no term fits inside delta_0 = R/2; "
                            "increase N or R")
    n0 = int(np.argmax(inside)) + 1
    if N < n0:
        raise ScheduleError(f"need N >= n0 = {n0}")

    ns = np.arange(n0, N + 1, dtype=float)
    sel = slice(n0 - 1, N)
    radii = 1.0 / alpha[sel]
    amplitudes = ns ** -2.0 * alpha[sel] ** d

    # term-by-term re-verification of the half-phi constraint
    for n, z in zip(range(n0, N + 1), zeta[sel]):
        if not phi_all[n + 1] <= 0.5 * phi_all[z] + 1e-12:
            raise ScheduleError(f"half-phi constraint fails at n = {n}")

    grid = _auto_grid(d, R, float(radii.min()))
    _check_resolution(grid, radii)
    u0 = _sample_sum(grid, amplitudes, radii)

    norm_bound = consts.omega_d * float(np.sum(ns ** -2.0))
    spec = BlowupDataSpec(kind="Todd", d=d, q=1.0, f=f, N=N,
                          amplitudes=amplitudes, radii=radii,
                          phi=phi_all[zeta[sel]], constants=consts,
                          n0=n0, zeta=zeta[sel], witness=witness,
                          norm_bound=norm_bound,
                          sampled_norm=lq_norm(u0, 1.0))
    return spec, u0


class TermPrediction:
    def __init__(self, k: int, t: float, pointwise: float, lq_q: float,
                 normalized: float):
        self.k = k
        self.t = t
        self.pointwise = pointwise  # lower bound on u(t_k) over the k-th ball
        self.lq_q = lq_q            # lower bound on ||u(t_k)||_q^q
        self.normalized = normalized  # lq_q without the polynomial k-factor


def predicted_bounds(spec: BlowupDataSpec):
    """Per-term predicted lower bounds that the Duhamel functional must
    dominate.

    T1: at t_k = r_k^2 the solution exceeds beta_d r_k^2 f(phi_k) on the
    k-th ball, giving ||u(t_k)||_q^q >= beta^q omega_d epsilon^(2q+d)
    k^(-2q(d+2q)/d) e^k. The e^k factor dominates only once k beats the
    polynomial prefactor; `normalized` removes that prefactor so the
    exponential growth is visible term by term.

    Todd: partial sums c''' n^(-2p) sum_k f(s_k) s_k^(-p) with
    c''' = alpha_d sigma c_d^p.
    """
    consts = spec.constants
    if spec.kind == "T1":
        q, d = spec.q, spec.d
        kpow = 2.0 * q * (d + 2.0 * q) / d
        out = []
        f_phi = spec.f.eval_floats(spec.phi)
        for i, k in enumerate(range(1, spec.N + 1)):
            t_k = float(spec.radii[i] ** 2)
            pw = consts.beta_d * t_k * f_phi[i]
            lqq = pw ** q * consts.omega_d * float(spec.radii[i] ** d)
            out.append(TermPrediction(
                k=k, t=t_k, pointwise=pw,
                lq_q=lqq, normalized=lqq * k ** kpow))
        return out

    p = 1.0 + 2.0 / spec.d
    theta = spec.witness.theta
    sigma = (2.0 / (2.0 + spec.d)) * (1.0 - theta ** -p) * \
        (1.0 - 2.0 ** (-2.0 / spec.d)) ** (spec.d / 2.0 + 1.0)
    c3 = consts.alpha_d * sigma * consts.c_d ** p
    partial = spec.witness.partial_sums
    out = []
    for n in range(spec.n0, spec.N + 1):  # the window k_n = n
        value = c3 * n ** (-2.0 * p) * float(partial[n])
        out.append(TermPrediction(k=n, t=math.nan, pointwise=math.nan,
                                  lq_q=value,
                                  normalized=value * n ** (2.0 * p)))
    return out
