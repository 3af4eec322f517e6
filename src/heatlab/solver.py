"""Radial heat semigroup on a ball, Duhamel machinery and forward simulation.

The domain is the ball B_R with homogeneous Dirichlet data at r = R and the
symmetry (zero-flux) condition at r = 0. Fields are radial; the discrete
Laplacian is a finite-volume operator that is self-adjoint under the cell
volumes, so the semigroup is evaluated exactly in its eigenbasis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .heatkernel import BallIndicator, kernel_constants, unit_ball_volume
from .nonlinearity import NonlinearityExpr, sup_ratio_envelope

CLAMP_TOL = 1e-9
OVERFLOW_GUARD = 1e12
ITERATION_TOL = 1e-8       # sup change that ends duhamel_iterate
# step control of simulate_forward
REL_CHANGE_TARGET = 0.05   # halve dt above it, grow by DT_GROWTH below half
DT_GROWTH = 1.4
DT_MIN = 1e-14             # halving below it declares blow-up
MAX_STEPS = 200000


class SolverError(Exception):
    pass


# --- grids and fields --------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Radial mesh on [0, R]: nodes[0] = 0, nodes[-1] = R (Dirichlet).

    Each node owns the cell between the midpoints to its neighbours
    (clipped to [0, R]); quad_weights are the cell volumes, summing to
    omega_d R^d exactly.
    """

    d: int
    R: float
    nodes: np.ndarray
    faces: np.ndarray = field(init=False, repr=False)
    quad_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes[0] != 0.0 or not math.isclose(nodes[-1], self.R):
            raise ValueError("nodes must start at 0 and end at R")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        faces = np.concatenate([[0.0], 0.5 * (nodes[:-1] + nodes[1:]),
                                [self.R]])
        omega = unit_ball_volume(self.d)
        vols = omega * (faces[1:] ** self.d - faces[:-1] ** self.d)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "quad_weights", vols)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def n_interior(self) -> int:
        return len(self.nodes) - 1

    @classmethod
    def uniform(cls, d: int, R: float, n: int) -> "RadialGrid":
        return cls(d=d, R=R, nodes=np.linspace(0.0, R, n))

    @classmethod
    def graded(cls, d: int, R: float, n: int, r_inner: float) -> "RadialGrid":
        """Geometric spacing from r_inner out to R, plus the origin node.

        Resolves fields whose features live on radii spanning many decades
        (the truncated blow-up data have ball radii down to ~1e-6 R).
        """
        if not 0.0 < r_inner < R:
            raise ValueError("need 0 < r_inner < R")
        nodes = np.concatenate([[0.0], np.geomspace(r_inner, R, n - 1)])
        return cls(d=d, R=R, nodes=nodes)


@dataclass
class RadialField:
    grid: RadialGrid
    values: np.ndarray
    clamp_count: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values must have one entry per node")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy(), self.clamp_count)


def indicator(grid: RadialGrid, chi: BallIndicator) -> RadialField:
    """Sample a ball indicator by exact cell-volume averaging, so discrete
    volume integrals of the field reproduce amplitude * omega_d r^d exactly."""
    if chi.center and any(c != 0.0 for c in chi.center):
        raise ValueError("radial sampling requires a ball centred at 0")
    a, b = grid.faces[:-1], grid.faces[1:]
    covered = np.clip(np.minimum(b, chi.radius), 0.0, None) ** grid.d \
        - np.minimum(a, chi.radius) ** grid.d
    frac = covered / (b ** grid.d - a ** grid.d)
    vals = chi.amplitude * np.clip(frac, 0.0, 1.0)
    vals[-1] = 0.0  # Dirichlet boundary node
    return RadialField(grid, vals)


def lq_norm(u: RadialField, q: float) -> float:
    if q == math.inf:
        return float(np.max(np.abs(u.values)))
    if q < 1:
        raise ValueError("q must be >= 1 (or inf)")
    return _lq(u.grid.quad_weights, np.abs(u.values), q)


def _lq(w: np.ndarray, a: np.ndarray, q: float) -> float:
    """(sum w a^q)^(1/q) for a = |u| and finite q; a SolverError when the sum
    is not finite, or underflows to 0 for a non-zero field."""
    with np.errstate(over="ignore"):
        total = (w * a ** q).sum()
    if not (math.isfinite(total) and (total > 0.0 or not a.any())):
        raise SolverError(f"the l^{q:g} norm does not fit in a double: "
                          f"sum of w |u|^q is {float(total):g}")
    return float(total ** (1.0 / q))


# --- propagator --------------------------------------------------------------

@dataclass(frozen=True)
class HeatPropagator:
    grid: RadialGrid
    eigenvalues: np.ndarray
    modes: np.ndarray       # orthonormal columns of the symmetrized operator
    sqrt_w: np.ndarray      # sqrt cell volumes on the interior nodes

    def to_modal(self, interior_values: np.ndarray) -> np.ndarray:
        return self.modes.T @ (self.sqrt_w * interior_values)

    def from_modal(self, coeffs: np.ndarray) -> np.ndarray:
        return (self.modes @ coeffs) / self.sqrt_w


def build_propagator(grid: RadialGrid) -> HeatPropagator:
    """Eigendecomposition of the finite-volume radial Dirichlet Laplacian,
    by LAPACK MRRR (stemr) on its symmetric tridiagonal band."""
    from scipy.linalg import eigh_tridiagonal  # see heatkernel._ball_profile
    m = grid.n_interior
    if m < 32:
        raise ValueError("need at least 32 interior nodes")
    nodes, faces, vols = grid.nodes, grid.faces, grid.quad_weights
    sigma = grid.d * unit_ball_volume(grid.d)
    V = vols[:m]
    # k[i - 1] conducts through internal face i = 1..n-1 between nodes i-1
    # and i (node n-1 is the Dirichlet boundary, entering only through the
    # diagonal); float_power rounds like a scalar power, where ndarray ** 2
    # squares and can differ from it by one ulp
    k = sigma * np.float_power(faces[1:-1], grid.d - 1) / np.diff(nodes)
    diag = k / V
    diag[1:] += k[:-1] / V[1:]
    sqrt_w = np.sqrt(V)
    # similarity transform sqrt(V) A / sqrt(V) of the two off-diagonals,
    # averaged to symmetrize round-off
    upper = -(k[:-1] / V[:-1]) * (sqrt_w[:-1] / sqrt_w[1:])
    lower = -(k[:-1] / V[1:]) * (sqrt_w[1:] / sqrt_w[:-1])
    off = 0.5 * (upper + lower)
    lam, Q = eigh_tridiagonal(diag, off, lapack_driver="stemr")
    if lam[0] <= 0:
        raise SolverError(f"non-positive eigenvalue {lam[0]:.3e}: "
                          "bad discretization")
    return HeatPropagator(grid=grid, eigenvalues=lam, modes=Q, sqrt_w=sqrt_w)


def semigroup_apply(P: HeatPropagator, t: float, u: RadialField) -> RadialField:
    """e^(-tA) u. Negative round-off values are clamped to zero; only those
    below the relative tolerance floor count as clamp violations."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if u.grid is not P.grid and not np.array_equal(u.grid.nodes, P.grid.nodes):
        raise ValueError("field grid does not match the propagator grid")
    m = P.grid.n_interior
    coeffs = np.exp(-P.eigenvalues * t) * P.to_modal(u.values[:m])
    vals = np.empty(m + 1)
    vals[m] = 0.0  # Dirichlet boundary node
    out = vals[:m]
    np.divide(P.modes @ coeffs, P.sqrt_w, out=out)  # P.from_modal, in place
    tol = CLAMP_TOL * max(1.0, float(np.abs(u.values).max()))
    n_clamped = int(np.count_nonzero(out < -tol))
    if u.values.min() >= 0.0:
        np.maximum(out, 0.0, out=out)
    return RadialField(P.grid, vals, clamp_count=n_clamped)


# --- Duhamel machinery -------------------------------------------------------

def heat_series(P: HeatPropagator, u0: RadialField,
                times: np.ndarray) -> np.ndarray:
    """S(t_j)u0 on the interior nodes for every time slice, shape
    (len(times), n_interior), from one modal product."""
    coeffs = np.exp(-np.outer(times, P.eigenvalues)) \
        * P.to_modal(u0.values[:P.grid.n_interior])
    return (coeffs @ P.modes.T) / P.sqrt_w


def _eval_f(f: NonlinearityExpr, arr: np.ndarray) -> np.ndarray:
    vals = f.eval_raw(np.maximum(arr, 0.0))
    if not np.isfinite(vals).all():
        raise SolverError("nonlinearity overflow during Duhamel evaluation")
    return vals


def _time_slices(P: HeatPropagator, times, v) -> tuple:
    """(times, v, dt) as float arrays, after checking that times is a
    uniform, non-decreasing grid of at least two slices and that v holds one
    row of interior values per slice."""
    times = np.asarray(times, dtype=float)
    n_time = len(times)
    if n_time < 2:
        raise ValueError("need at least two time slices")
    dt = times[1] - times[0]
    if dt < 0 or not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0):
        raise ValueError("times must be uniformly spaced and non-decreasing")
    v = np.asarray(v, dtype=float)
    if v.shape != (n_time, P.grid.n_interior):
        raise ValueError("time-indexed field must have shape "
                         "(n_time, n_interior)")
    return times, v, dt


def _duhamel(P: HeatPropagator, f: NonlinearityExpr, v: np.ndarray,
             dt: float) -> np.ndarray:
    """int_0^{t_j} S(t_j - s) f(v(s)) ds on checked slices: the modal
    transform g of f(v), the trapezoid history
    I_j = r I_(j-1) + (dt/2)(r g_(j-1) + g_j) with r = e^(-lam dt), and its
    back-transform. The history is built in place: every slice's
    (dt/2)(r g_(j-1) + g_j) at once, then the sequential sweep through one
    vector; the back-transform reuses g's storage. Callers add S(t_j)u0 to
    the result in place, after the evaluation of f and its temporaries."""
    g = (_eval_f(f, v) * P.sqrt_w) @ P.modes  # modal transform per slice
    r = np.exp(-P.eigenvalues * dt)
    hist = np.empty_like(g)
    hist[0] = 0.0
    np.multiply(r, g[:-1], out=hist[1:])
    hist[1:] += g[1:]
    hist[1:] *= 0.5 * dt
    carry = np.empty_like(r)
    for j in range(1, len(hist)):  # j = 1 adds r * 0, as the sum did
        np.multiply(r, hist[j - 1], out=carry)
        hist[j] += carry
    out = np.matmul(hist, P.modes.T, out=g)
    out /= P.sqrt_w
    return out


def duhamel_map(P: HeatPropagator, u0: RadialField, f: NonlinearityExpr,
                v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F(v)(t_j) = S(t_j)u0 + int_0^{t_j} S(t_j - s) f(v(s)) ds for v of
    shape (n_time, n_interior), composite trapezoid on the uniform time
    grid, semigroup factors exact in modal space (see _duhamel)."""
    times, v, dt = _time_slices(P, times, v)
    out = _duhamel(P, f, v, dt)
    out += heat_series(P, u0, times)
    return out


@dataclass
class IterationTrace:
    times: np.ndarray
    v: np.ndarray                  # final iterate, (n_time, n_interior)
    baseline: np.ndarray           # S(t)u0 on the same grid
    sup_deltas: list
    max_increase: float            # max over iterations of max(v_new - v_old)
    min_above_baseline: float
    converged: bool
    residual: float
    n_iter: int


def duhamel_iterate(P: HeatPropagator, u0: RadialField, f: NonlinearityExpr,
                    v_init, T: float, n_time: int = 64,
                    n_iter: int = 50) -> IterationTrace:
    """Monotone supersolution iteration v_(n+1) = F(v_n), until the sup
    change falls below ITERATION_TOL or n_iter >= 1 iterations have run.

    S(t)u0 is computed once (the baseline); each iterate, and the final
    residual, then costs two m x m modal products and the history
    recurrence of duhamel_map."""
    if n_iter < 1:
        raise ValueError("n-iter must be at least 1")
    times, v, dt = _time_slices(P, np.linspace(0.0, T, n_time), v_init)
    baseline = heat_series(P, u0, times)
    sup_deltas = []
    max_increase = -math.inf
    min_above = math.inf
    converged = False
    for it in range(1, n_iter + 1):
        v_new = _duhamel(P, f, v, dt)
        v_new += baseline
        if np.max(np.abs(v_new)) > OVERFLOW_GUARD:
            raise SolverError("iteration diverged: v_init was likely not a "
                              "supersolution")
        sup_deltas.append(float(np.max(np.abs(v_new - v))))
        max_increase = max(max_increase, float(np.max(v_new - v)))
        min_above = min(min_above, float(np.min(v_new - baseline)))
        v = v_new
        if sup_deltas[-1] < ITERATION_TOL:
            converged = True
            break
    final = _duhamel(P, f, v, dt)
    final += baseline
    residual = float(np.max(np.abs(final - v)))
    return IterationTrace(times=times, v=v, baseline=baseline,
                          sup_deltas=sup_deltas, max_increase=max_increase,
                          min_above_baseline=min_above, converged=converged,
                          residual=residual, n_iter=it)


@dataclass(frozen=True)
class MarginReport:
    margin: float
    witness: tuple  # (t, r) of the minimizing node

    @property
    def certified(self) -> bool:
        return self.margin >= 0.0


def supersolution_check(P: HeatPropagator, u0: RadialField,
                        f: NonlinearityExpr, v, T: float,
                        n_time: int = 64) -> MarginReport:
    """min over (node, time) of v(t) - F(v)(t); non-negative certifies a
    discrete supersolution."""
    times = np.linspace(0.0, T, n_time)
    varr = np.asarray(v, dtype=float)
    diff = varr - duhamel_map(P, u0, f, varr, times)
    j, i = np.unravel_index(np.argmin(diff), diff.shape)
    return MarginReport(margin=float(diff[j, i]),
                        witness=(float(times[j]), float(P.grid.nodes[i])))


# --- existence horizon (supersolution construction) --------------------------

@dataclass(frozen=True)
class HorizonReport:
    T: float
    integral_value: float
    condition_bound: float
    A: float
    u0_l1: float
    d: int
    capped_at_max: bool
    smoothing_capped: bool


def _tilde_tail_integral(envelope, d: int, s0: float) -> float:
    """(2/d) * integral over [s0, infinity) of s^-(1+2/d) F(s) ds, s0 >= 1.

    This equals the tau-substituted integral of tau^(d/2) ftilde(tau^(-d/2))
    over (0, s0^(-2/d)]. The part beyond the envelope grid is estimated with
    F frozen at its last value.
    """
    grid, vals = envelope.grid, envelope.values
    s_end, f_end = float(grid[-1]), float(vals[-1])
    if s0 >= s_end:
        return f_end * s0 ** (-2.0 / d)
    p = 1.0 + 2.0 / d
    sel = grid > s0
    xs = np.concatenate([[s0], grid[sel]])
    fs = np.concatenate([[envelope.at(s0)], vals[sel]])
    body = (2.0 / d) * np.trapezoid(xs ** (-p) * fs, xs)
    # the tail is F/s^(2/d); (2/d)(d/2) is 1 only in exact arithmetic, and
    # dropping it moves integral_value by an ulp in d = 3, 5, 6, ...
    tail = f_end * s_end ** (-2.0 / d) * (2.0 / d) * (d / 2.0)
    return float(body + tail)


def find_existence_horizon(u0_l1_norm: float, f: NonlinearityExpr, d: int,
                           A: float = 2.0, T_max: float = 100.0) -> HorizonReport:
    """Largest T (up to T_max) for which v(t) = A S(t)u0 + chi_Omega is a
    certified supersolution on [0, T].

    Two conditions are enforced: the integral condition
    C^(2/d) * int_0^(T C^(-2/d)) tau^(d/2) ftilde(tau^(-d/2)) dtau <= (A-1)/A
    with C = 2 A c ||u0||_1 and c = (4 pi)^(-d/2), and the smoothing-estimate
    validity cap T <= (A c ||u0||_1)^(2/d) (needed so that
    A c s^(-d/2) ||u0||_1 >= 1 throughout [0, T]). The cap is 2^(-2/d)
    C^(2/d), so the integral is only ever needed for tau < 1. The condition
    is tested at min(T_max, cap); if it fails there, an 80-step bisection on
    [0, T_max] finds T, counting every midpoint above the cap as failing.
    """
    if not A > 1:
        raise ValueError("A must exceed 1")
    if not 0 <= u0_l1_norm < math.inf:
        raise ValueError("||u0||_1 must be finite and non-negative")
    if not T_max > 0:
        raise ValueError("T_max must be positive")
    bound = (A - 1.0) / A
    csm = (4.0 * math.pi) ** (-d / 2.0)

    if u0_l1_norm == 0.0:
        # v = chi_Omega is a supersolution while t f(1) <= 1
        f1 = float(f.eval_raw(1.0))
        T = T_max if f1 == 0.0 else min(T_max, 1.0 / f1)
        return HorizonReport(T=T, integral_value=0.0, condition_bound=bound,
                             A=A, u0_l1=0.0, d=d, capped_at_max=(T == T_max),
                             smoothing_capped=False)

    env = sup_ratio_envelope(f, float(2 ** 48))
    try:
        scale = (2.0 * A * csm * u0_l1_norm) ** (2.0 / d)
        cap = (A * csm * u0_l1_norm) ** (2.0 / d)
    except OverflowError:
        scale = cap = math.inf
    if not (0.0 < cap and scale < math.inf):
        raise ValueError("(2 A c ||u0||_1)^(2/d) overflows or underflows: "
                         "||u0||_1 or A is out of range")

    def condition(T: float) -> float:
        return scale * _tilde_tail_integral(env, d, (T / scale) ** (-d / 2.0))

    T = min(T_max, cap)
    at_endpoint = condition(T) <= bound
    if not at_endpoint:
        lo, hi = 0.0, T_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid <= cap and condition(mid) <= bound:
                lo = mid
            else:
                hi = mid
        T = lo
        if T == 0.0:
            raise SolverError("integral condition unsatisfiable: the "
                              "ftilde integral appears divergent")
    return HorizonReport(T=T, integral_value=condition(T),
                         condition_bound=bound, A=A, u0_l1=u0_l1_norm, d=d,
                         capped_at_max=at_endpoint and T_max <= cap,
                         smoothing_capped=at_endpoint and T_max > cap)


# --- certified Duhamel lower bound -------------------------------------------

@dataclass(frozen=True)
class LowerBoundResult:
    radii: np.ndarray
    values: np.ndarray
    lq: float
    q: float
    t: float
    constants: object

    def min_on_ball(self, radius: float) -> float:
        sel = self.radii <= radius + 1e-15
        return float(np.min(self.values[sel]))


def duhamel_lower_bound(chi: BallIndicator, f: NonlinearityExpr, t: float,
                        d: int, q: float = 1.0, n_time: int = 513,
                        radii: Optional[np.ndarray] = None) -> LowerBoundResult:
    """Certified pointwise lower bound on any local integral solution with
    u0 >= chi, via u(t) >= S(t)chi + int_0^t S(t-s) f(S(s)chi) ds and the
    ball bounds S(s)chi_r >= c_d (r/(r+sqrt s))^d chi_(r+sqrt s)."""
    if t <= 0:
        raise ValueError("t must be positive")
    consts = kernel_constants(d)
    r, amp = chi.radius, chi.amplitude
    if radii is None:
        radii = np.linspace(0.0, r + math.sqrt(t), 129)
    radii = np.asarray(radii, dtype=float)

    s_grid = np.linspace(0.0, t, n_time)
    inner_amp = amp * consts.c_d * (r / (r + np.sqrt(s_grid))) ** d
    f_inner = f.eval_raw(inner_amp)
    if not np.all(np.isfinite(f_inner)):
        raise SolverError("nonlinearity overflow in the lower-bound integrand")
    inner_reach = r + np.sqrt(s_grid)
    outer_reach = inner_reach + np.sqrt(t - s_grid)
    outer_factor = consts.c_d * (inner_reach / outer_reach) ** d

    values = np.empty_like(radii)
    linear_reach = r + math.sqrt(t)
    linear_level = amp * consts.c_d * (r / linear_reach) ** d
    for i, rho in enumerate(radii):
        mask = outer_reach >= rho
        integrand = np.where(mask, f_inner * outer_factor, 0.0)
        val = float(np.trapezoid(integrand, s_grid))
        if rho <= linear_reach:
            val += linear_level
        values[i] = val

    if q == math.inf:
        lq = float(np.max(values))
    else:
        sigma = d * unit_ball_volume(d)
        lq = float(np.trapezoid(sigma * radii ** (d - 1) * values ** q,
                                radii) ** (1.0 / q))
    return LowerBoundResult(radii=radii, values=values, lq=lq, q=q, t=t,
                            constants=consts)


# --- point-mass warm-up shells -----------------------------------------------

@dataclass(frozen=True)
class WarmupReport:
    theta: float
    amplitudes: np.ndarray
    times: np.ndarray
    increments: np.ndarray
    partial_sums: np.ndarray
    asymptotic_constant: float


def warmup_shell_sums(f: NonlinearityExpr, d: int, n_shells: int = 12,
                      theta: float = 2.0) -> WarmupReport:
    """Dyadic-shell increments of int_(R^d) int_0^t S(t-s) f(S(s)delta_0) ds.

    With phi_k = theta^k and t_k = c phi_k^(-2/d), c = e^(-1/2d)/(4 pi),
    the Gaussian core satisfies S(s)delta_0 >= phi_k on a ball for
    s in [t_(k+1), t_k], giving the increment
    omega_d f(phi_k) int_(t_(k+1))^(t_k) s^(d/2) ds per shell. For the
    critical power f = s^(1+2/d) every increment equals the asymptotic
    constant exactly, so the partial sums grow linearly (divergence)."""
    c = math.exp(-1.0 / (2.0 * d)) / (4.0 * math.pi)
    omega = unit_ball_volume(d)
    p = 1.0 + 2.0 / d
    ks = np.arange(1, n_shells + 2)
    phi = theta ** ks
    t_k = c * phi ** (-2.0 / d)
    f_phi = f.eval_raw(phi[:-1])
    expo = (2.0 + d) / 2.0
    increments = omega * f_phi * (t_k[:-1] ** expo - t_k[1:] ** expo) / expo
    const = omega * (2.0 / (2.0 + d)) * c ** expo * (1.0 - theta ** (-p))
    return WarmupReport(theta=theta, amplitudes=phi[:-1], times=t_k[:-1],
                        increments=increments,
                        partial_sums=np.cumsum(increments),
                        asymptotic_constant=const)


# --- forward simulation ------------------------------------------------------

@dataclass
class SimulationControls:
    dt_init: float = 1e-3
    adaptive: bool = True
    q: float = 2.0


@dataclass
class Trajectory:
    times: list
    l1: list
    lq: list
    linf: list
    dts: list
    clamp_counts: list
    rejected_steps: int     # attempts whose dt was halved
    q: float
    blowup: bool
    blowup_time: Optional[float]
    final: RadialField

    @property
    def peak_l1(self) -> float:
        return max(self.l1)


def simulate_forward(P: HeatPropagator, u0: RadialField, f: NonlinearityExpr,
                     T: float,
                     controls: SimulationControls = None) -> Trajectory:
    """Exponential-integrator stepping u_(m+1) = S(dt)(u_m + dt f(u_m)) with
    adaptive step halving; declares numeric blow-up (not a proof) when the
    sup norm exceeds the guard or dt underflows. Running out of MAX_STEPS
    attempts before T is a SolverError. A remainder T - t within one ulp of
    T per summed step is the rounding of that sum, so the run has reached
    T: a fixed step T/n takes exactly n steps.

    Each attempt costs one semigroup_apply (two modal products) and one
    abs pass, from which an accepted step takes its l1, l^q and sup norms
    with lq_norm's operations; the sup is the next attempt's base. An l^q
    norm that does not fit in a double is a SolverError, as in lq_norm."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive")
    ct = controls or SimulationControls()
    if not (math.isfinite(ct.dt_init) and ct.dt_init > 0):
        raise ValueError("dt must be finite and positive")
    q, w = ct.q, P.grid.quad_weights
    u = u0.copy()
    t, dt = 0.0, min(ct.dt_init, T)
    sup = lq_norm(u, math.inf)
    traj = Trajectory(times=[0.0], l1=[lq_norm(u, 1.0)], lq=[lq_norm(u, q)],
                      linf=[sup], dts=[dt], clamp_counts=[0],
                      rejected_steps=0, q=q, blowup=False, blowup_time=None,
                      final=u)
    steps = 0
    while T - t > len(traj.times) * math.ulp(T):
        if steps == MAX_STEPS:
            raise SolverError(f"step budget of {MAX_STEPS} steps ran out at "
                              f"t = {t:.6g} before T = {T:.6g}")
        steps += 1
        dt = min(dt, T - t)
        try:
            fu = _eval_f(f, u.values)
        except SolverError:
            traj.blowup, traj.blowup_time = True, t
            break
        cand = u.values + dt * fu
        cand[-1] = 0.0  # Dirichlet boundary node
        u_new = semigroup_apply(P, dt, RadialField(u.grid, cand))
        base = max(sup, 1e-300)
        a = np.abs(u_new.values)
        new_sup = float(a.max())
        rel = float(np.abs(u_new.values - u.values).max()) / base
        if ct.adaptive and rel > REL_CHANGE_TARGET and dt > DT_MIN:
            traj.rejected_steps += 1
            dt *= 0.5
            if dt < DT_MIN:
                traj.blowup, traj.blowup_time = True, t
                break
            continue
        t += dt
        u, sup = u_new, new_sup
        traj.times.append(t)
        traj.l1.append(float((w * a).sum()))
        traj.lq.append(sup if q == math.inf else _lq(w, a, q))
        traj.linf.append(sup)
        traj.dts.append(dt)
        traj.clamp_counts.append(u.clamp_count)
        if sup > OVERFLOW_GUARD:
            traj.blowup, traj.blowup_time = True, t
            break
        if ct.adaptive and rel < 0.5 * REL_CHANGE_TARGET:
            dt *= DT_GROWTH
    traj.final = u
    return traj
