"""Builder for the pathological initial data: truncated sums of concentric
ball indicators whose amplitude/radius schedules force instantaneous norm
inflation."""

from __future__ import annotations

import math
from typing import Optional

from . import _lazy
from .criteria import check_scope
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
    def __init__(self, amplitudes: np.ndarray, radii: np.ndarray,
                 phi: np.ndarray, constants: KernelConstants,
                 norm_bound: float, sampled_norm: float):
        self.amplitudes = amplitudes    # per-term field amplitude
        self.radii = radii              # per-term ball radius
        self.phi = phi                  # underlying phi_k sequence
        self.constants = constants
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
    spec = BlowupDataSpec(amplitudes=amplitudes, radii=radii, phi=phi,
                          constants=consts, norm_bound=norm_bound,
                          sampled_norm=lq_norm(u0, q))
    return spec, u0
