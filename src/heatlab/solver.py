"""Radial heat semigroup on a ball, Duhamel machinery and forward simulation.

The domain is the ball B_R with homogeneous Dirichlet data at r = R and the
symmetry (zero-flux) condition at r = 0. Fields are radial; the discrete
Laplacian is a finite-volume operator that is self-adjoint under the cell
volumes, so the semigroup is evaluated exactly in its eigenbasis.

That eigenbasis is a closed-form cosine transform on a uniform 1-D grid, and
LAPACK dstemr (MRRR) on every other grid, called through ctypes in the
OpenBLAS that numpy has already loaded: building a propagator imports no
scipy unless numpy's BLAS lacks the routine.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Optional

from . import _lazy
from .criteria import EXISTS, _lowered, classify_l1
from .heatkernel import BallIndicator, unit_ball_volume
from .nonlinearity import NonlinearityExpr, eval_f, sup_ratio_envelope

np = _lazy("numpy")

CLAMP_TOL = 1e-9
ROUND_TRIP_TOL = 1e-8      # modal round trip of the constant field
OVERFLOW_GUARD = 1e12
ITERATION_TOL = 1e-8       # sup change that ends duhamel_iterate
# step control of simulate_forward
REL_CHANGE_TARGET = 0.05   # halve dt above it, grow by DT_GROWTH below half
DT_GROWTH = 1.4
DT_MIN = 1e-14             # halving below DT_MIN min(1, R^2) declares blow-up
MAX_STEPS = 200000
HORIZON_T_MAX = 100.0      # the longest horizon find_existence_horizon grants
# The shortest it grants. F beyond ENVELOPE_S_MAX is frozen at its last cell
# bound, not bounded, and the shortest horizons lean on it most; at 2^-80 of
# T_max, where the former 80-step bisection stopped, the floor also keeps
# refused every input that the bisection refused.
HORIZON_T_MIN = HORIZON_T_MAX * 2.0 ** -80


class SolverError(ValueError):
    pass


# --- grids and fields --------------------------------------------------------

def _require_radius(R: float) -> None:
    if not 0 < R < math.inf:
        raise ValueError("R must be finite and positive")


class RadialGrid:
    """Radial mesh on [0, R]: nodes[0] = 0, nodes[-1] = R (Dirichlet).

    Each node owns the cell between the midpoints to its neighbours
    (clipped to [0, R]); quad_weights are the cell volumes, summing to
    omega_d R^d exactly.
    """

    def __init__(self, d: int, R: float, nodes: np.ndarray):
        _require_radius(R)
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("a radial grid needs a 1-D array of at least "
                             "two nodes")
        if nodes[0] != 0.0 or not math.isclose(nodes[-1], R):
            raise ValueError("nodes must start at 0 and end at R")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        faces = np.concatenate([[0.0], 0.5 * (nodes[:-1] + nodes[1:]), [R]])
        omega = unit_ball_volume(d)
        with np.errstate(over="ignore", invalid="ignore"):
            vols = omega * (faces[1:] ** d - faces[:-1] ** d)
        if not np.all((vols > 0.0) & (vols < math.inf)):
            raise ValueError(f"the cell volumes of this grid under- or "
                             f"overflow a double in dimension d = {d}")
        self.d = d
        self.R = R
        self.nodes = nodes
        self.faces = faces
        self.quad_weights = vols

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def n_interior(self) -> int:
        return len(self.nodes) - 1

    @classmethod
    def uniform(cls, d: int, R: float, n: int) -> "RadialGrid":
        _require_radius(R)
        return cls(d=d, R=R, nodes=np.linspace(0.0, R, n))

    @classmethod
    def graded(cls, d: int, R: float, n: int, r_inner: float) -> "RadialGrid":
        """Geometric spacing from r_inner out to R, plus the origin node.

        Resolves fields whose features live on radii spanning many decades
        (the truncated blow-up data have ball radii down to ~1e-6 R).
        """
        _require_radius(R)
        if not 0.0 < r_inner < R:
            raise ValueError("need 0 < r_inner < R")
        nodes = np.concatenate([[0.0], np.geomspace(r_inner, R, n - 1)])
        return cls(d=d, R=R, nodes=nodes)


class RadialField:
    def __init__(self, grid: RadialGrid, values: np.ndarray,
                 clamp_count: int = 0):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError("values must have one entry per node")
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values
        self.clamp_count = clamp_count


def indicator(grid: RadialGrid, chi: BallIndicator) -> RadialField:
    """Sample a ball indicator by exact cell-volume averaging, so discrete
    volume integrals of the field reproduce amplitude * omega_d r^d exactly."""
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
    is not finite."""
    with np.errstate(over="ignore"):
        total = (w * a ** q).sum()
    return _lq_root(total, w, a, q)


def _lq_root(total, w: np.ndarray, a: np.ndarray, q: float) -> float:
    """total^(1/q) for total = sum w a^q, refused as in _lq; a sum that
    underflows to 0 for a non-zero field is taken again on a / max a."""
    if not math.isfinite(total):
        raise SolverError(f"the l^{q:g} norm does not fit in a double: "
                          f"sum of w |u|^q is {float(total):g}")
    if total == 0.0 and a.any():
        return float(a.max()) * _lq(w, a / a.max(), q)
    return float(total ** (1.0 / q))


# --- propagator --------------------------------------------------------------

class HeatPropagator:
    def __init__(self, grid: RadialGrid, eigenvalues: np.ndarray,
                 modes: np.ndarray, sqrt_w: np.ndarray):
        self.grid = grid
        self.eigenvalues = eigenvalues
        self.modes = modes    # orthonormal columns of the symmetrized operator
        self.sqrt_w = sqrt_w  # sqrt cell volumes on the interior nodes


def _band(grid: RadialGrid) -> tuple:
    """(diag, off, sqrt_w): the band sqrt(V) A / sqrt(V), its off-diagonals
    averaged to symmetrize round-off; refused if a double cannot hold it."""
    nodes, faces, V = grid.nodes, grid.faces, grid.quad_weights[:-1]
    sigma, sqrt_w = grid.d * unit_ball_volume(grid.d), np.sqrt(V)
    with np.errstate(all="ignore"):
        # k[i - 1] conducts through internal face i = 1..n-1 between nodes
        # i-1 and i (node n-1 is the Dirichlet boundary, entering only
        # through the diagonal); float_power rounds like a scalar power,
        # where ndarray ** 2 squares and can differ from it by one ulp
        k = sigma * np.float_power(faces[1:-1], grid.d - 1) / np.diff(nodes)
        diag = k / V
        diag[1:] += k[:-1] / V[1:]
        upper = -(k[:-1] / V[:-1]) * (sqrt_w[:-1] / sqrt_w[1:])
        lower = -(k[:-1] / V[1:]) * (sqrt_w[1:] / sqrt_w[:-1])
        off = 0.5 * (upper + lower)
        top = diag.max() + 2.0 * np.abs(off).max()  # Gershgorin bound on lam
    if not (diag.min() > 0.0 and top < math.inf):
        raise SolverError(f"the d = {grid.d} Laplacian with R = {grid.R:g} on "
                          f"{grid.n} nodes does not fit in a double")
    return diag, off, sqrt_w


@functools.cache
def _lapacke_dstemr():
    """LAPACKE_dstemr of the OpenBLAS that numpy has loaded, typed for its
    ILP64 build; None where numpy's BLAS does not export it (Accelerate,
    MKL) or dlopen has no RTLD_NOLOAD (Windows). A handle on numpy's linalg
    extension, opened with RTLD_NOLOAD because it is already mapped, finds
    the symbol in the libraries that extension depends on."""
    import ctypes
    try:
        call = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__,
                                   mode=os.RTLD_NOLOAD),
                       "scipy_LAPACKE_dstemr64_", None)
    except (AttributeError, OSError):
        return None
    if call is not None:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        call.restype = i64
        call.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64,
                         ptr, ptr, ctypes.c_double, ctypes.c_double, i64,
                         i64, ptr, ptr, ptr, i64, i64, ptr, ptr]
    return call


def _stemr(diag: np.ndarray, off: np.ndarray) -> tuple:
    """(lam, Q, info): the eigenpairs of the symmetric tridiagonal band by
    LAPACK dstemr (MRRR), lam ascending and Q column-major; a non-zero info
    is LAPACK's failure code, and lam and Q are then None. The call goes to
    numpy's OpenBLAS; scipy's wrapper of the same routine serves a numpy
    whose BLAS lacks it."""
    n = len(diag)
    e = np.zeros(n)  # dstemr reads n entries of e
    e[:-1] = off
    dstemr = _lapacke_dstemr()
    if dstemr is None:  # range 0 is 'A': vl, vu, il and iu unread
        from scipy.linalg.lapack import dstemr
        _, lam, Q, info = dstemr(diag, e, 0, 0.0, 0.0, 0, 0)
    else:
        d = np.array(diag, dtype=float)  # dstemr overwrites d and e
        lam, Q = np.empty(n), np.empty((n, n), order="F")
        m = np.zeros(1, np.int64)       # the number of eigenvalues found
        tryrac = np.ones(1, np.int64)   # aim for high relative accuracy
        isuppz = np.empty(2 * n, np.int64)
        # column-major (102), jobz 'V', range 'A' as above
        info = dstemr(102, b"V", b"A", n, d.ctypes.data, e.ctypes.data, 0.0,
                      0.0, 0, 0, m.ctypes.data, lam.ctypes.data,
                      Q.ctypes.data, n, n, isuppz.ctypes.data,
                      tryrac.ctypes.data)
    return (lam, Q, 0) if info == 0 else (None, None, int(info))


def _cosine_spectrum(m: int, R: float) -> tuple:
    """Eigenpairs of the band of the uniform 1-D grid with h = R/m, which is
    (-1, 2, -1) / h^2 but for its first off-diagonal entry -sqrt(2) / h^2 (a
    DCT; Strang, SIAM Review 41, 1999): lam_k = (2/h)^2 sin^2((2k+1) pi/(4m))
    and Q_ik = sqrt(2/m) c_i cos(i (2k+1) pi/(2m)), c_0 = 1/sqrt(2), else 1;
    row i gathers a 4m-entry cosine table at the index i (2k+1) mod 4m."""
    odd = np.arange(1, 2 * m, 2)
    table = math.sqrt(2.0 / m) * np.cos(np.arange(4 * m) * (math.pi / (2 * m)))
    Q = np.empty((m, m))
    for i, row in enumerate(Q):
        row[:] = table[i * odd % (4 * m)]
    Q[0] *= math.sqrt(0.5)
    return (2.0 * m / R * np.sin(odd * (math.pi / (4 * m)))) ** 2, Q


def build_propagator(grid: RadialGrid) -> HeatPropagator:
    """Eigendecomposition of the finite-volume radial Dirichlet Laplacian: in
    closed form on a uniform 1-D grid, else by LAPACK MRRR on its band."""
    if grid.n_interior < 32:
        raise ValueError("need at least 32 interior nodes")
    diag, off, sqrt_w = _band(grid)
    uniform = np.array_equal(grid.nodes, np.linspace(0.0, grid.R, grid.n))
    if grid.d == 1 and uniform:
        lam, Q, info = (*_cosine_spectrum(len(diag), grid.R), 0)
    else:
        # the band scales like R^-2, and MRRR fails on it for small balls
        # (info 22 at d = 2, R <= 1e-4.25 on 257 nodes): it gets the band
        # times s^2, s = 2^round(log2 R), which is exact and 1 at R = 1
        s = 2.0 ** round(math.log2(grid.R))
        lam, Q, info = _stemr(diag * s * s, off * s * s)
        if not info:
            lam = lam / s / s
    if info:
        raise SolverError(f"LAPACK dstemr failed (info = {info}) on the "
                          f"d = {grid.d} Laplacian with R = {grid.R:g} on "
                          f"{grid.n} nodes")
    if lam[0] <= 0:
        raise SolverError(f"non-positive eigenvalue {lam[0]:.3e}: "
                          "bad discretization")
    # the constant field through the modal round trip W^-1/2 Q Q^T W^1/2:
    # 1/sqrt(V) amplifies the round-off of Q at small cells, and an error
    # above the kernel's relative budget makes S(t) wrong even at t = 0
    err = float(np.abs((Q @ (sqrt_w @ Q)) / sqrt_w - 1.0).max())
    if not err <= ROUND_TRIP_TOL:
        raise SolverError(f"the modal basis of the d = {grid.d} grid with "
                          f"{grid.n} nodes is inaccurate: the round trip of "
                          f"the constant field errs by {err:.1e} (above "
                          f"{ROUND_TRIP_TOL:g})")
    return HeatPropagator(grid=grid, eigenvalues=lam, modes=Q, sqrt_w=sqrt_w)


def _heat_step(P: HeatPropagator, decay: np.ndarray,
               values: np.ndarray) -> tuple:
    """(e^(-tA) values, clamp count) for decay = e^(-lam t), on all nodes.

    The two modal products of the semigroup; the boundary node is set to 0.
    Image values below -CLAMP_TOL max(1, max|values|) count as clamp
    violations, and for non-negative values the negative round-off of the
    image is clamped to zero. Values that are not finite are refused."""
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("field values must be finite")
    m = P.grid.n_interior
    coeffs = decay * (P.modes.T @ (P.sqrt_w * values[:m]))
    vals = np.empty(m + 1)
    vals[m] = 0.0  # Dirichlet boundary node
    out = vals[:m]
    np.divide(P.modes @ coeffs, P.sqrt_w, out=out)
    tol = CLAMP_TOL * max(1.0, hi, -lo)  # max|values|, exactly
    n_clamped = int(np.count_nonzero(out < -tol))
    if lo >= 0.0:
        np.maximum(out, 0.0, out=out)
    return vals, n_clamped


def _check_grid(P: HeatPropagator, grid: RadialGrid) -> None:
    """Same nodes and dimension (the cell volumes depend on both)."""
    if grid is not P.grid and (grid.d != P.grid.d or
                               not np.array_equal(grid.nodes, P.grid.nodes)):
        raise ValueError("field grid does not match the propagator grid")


def semigroup_apply(P: HeatPropagator, t: float, u: RadialField) -> RadialField:
    """e^(-tA) u. Negative round-off values are clamped to zero; only those
    below the relative tolerance floor count as clamp violations."""
    if t < 0:
        raise ValueError("t must be non-negative")
    _check_grid(P, u.grid)
    vals, n_clamped = _heat_step(P, np.exp(-P.eigenvalues * t), u.values)
    return RadialField(P.grid, vals, clamp_count=n_clamped)


# --- Duhamel machinery -------------------------------------------------------

def heat_series(P: HeatPropagator, u0: RadialField,
                times: np.ndarray) -> np.ndarray:
    """S(t_j)u0 on the interior nodes for every time slice, shape
    (len(times), n_interior), from one modal product.

    The decay table e^(-t_j lam_k) c_k is built in place, and its entries
    below the smallest normal double (2^-1022) are set to 0 before the
    product. A subnormal operand slows the BLAS product 2-4x, and with
    |Q| <= 1 it moves a partial sum only if that sum is below 2^-968, so
    the result stays == to (exp(-outer(t, lam)) * c) @ Q^T / sqrt_w
    wherever the partial sums stay above that."""
    coeffs = np.outer(times, -P.eigenvalues)  # negation is exact
    np.exp(coeffs, out=coeffs)
    coeffs *= P.modes.T @ (P.sqrt_w * u0.values[:P.grid.n_interior])
    tiny = np.finfo(float).tiny
    coeffs[(coeffs < tiny) & (coeffs > -tiny)] = 0.0
    out = coeffs @ P.modes.T
    out /= P.sqrt_w
    return out


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
    g = _eval_f(f, v)  # a fresh array, so it is scaled in place
    g *= P.sqrt_w
    g = g @ P.modes  # modal transform per slice
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


class IterationTrace:
    def __init__(self, v: np.ndarray, baseline: np.ndarray, sup_deltas: list,
                 max_increase: float, min_above_baseline: float,
                 converged: bool, residual: float, n_iter: int):
        self.v = v                  # final iterate, (n_time, n_interior)
        self.baseline = baseline    # S(t)u0 on the same grid
        self.sup_deltas = sup_deltas
        # max over iterations of max(v_new - v_old)
        self.max_increase = max_increase
        self.min_above_baseline = min_above_baseline
        self.converged = converged
        self.residual = residual
        self.n_iter = n_iter


def duhamel_iterate(P: HeatPropagator, u0: RadialField, f: NonlinearityExpr,
                    v_init, T: float, n_time: int,
                    n_iter: int) -> IterationTrace:
    """Monotone supersolution iteration v_(n+1) = F(v_n), until the sup
    change falls below ITERATION_TOL or n_iter >= 1 iterations have run.

    S(t)u0 is computed once (the baseline); each iterate, and the final
    residual, then costs two m x m modal products and the history
    recurrence of duhamel_map. Its statistics come from one difference
    array: sup|v_new - v| is max(max diff, -min diff), which is exact."""
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
        if max(v_new.max(), -v_new.min()) > OVERFLOW_GUARD:
            raise SolverError("iteration diverged: v_init was likely not a "
                              "supersolution")
        diff = v_new - v
        increase = float(diff.max())
        sup_deltas.append(max(increase, float(-diff.min())))
        max_increase = max(max_increase, increase)
        np.subtract(v_new, baseline, out=diff)
        min_above = min(min_above, float(diff.min()))
        del diff  # before the next _duhamel allocates its own arrays
        v = v_new
        if sup_deltas[-1] < ITERATION_TOL:
            converged = True
            break
    final = _duhamel(P, f, v, dt)
    final += baseline
    final -= v
    residual = float(max(final.max(), -final.min()))
    return IterationTrace(v=v, baseline=baseline,
                          sup_deltas=sup_deltas, max_increase=max_increase,
                          min_above_baseline=min_above, converged=converged,
                          residual=residual, n_iter=it)


class MarginReport:
    def __init__(self, margin: float):
        self.margin = margin

    @property
    def certified(self) -> bool:
        return self.margin >= 0.0


def supersolution_check(P: HeatPropagator, u0: RadialField,
                        f: NonlinearityExpr, v, T: float,
                        n_time: int) -> MarginReport:
    """min over (node, time) of v(t) - F(v)(t); non-negative certifies a
    discrete supersolution."""
    times = np.linspace(0.0, T, n_time)
    varr = np.asarray(v, dtype=float)
    diff = varr - duhamel_map(P, u0, f, varr, times)
    return MarginReport(margin=float(diff.min()))


# --- existence horizon (supersolution construction) --------------------------

class HorizonReport:
    def __init__(self, T: float, integral_value: float,
                 condition_bound: float, A: float, u0_l1: float, d: int,
                 capped_at_max: bool, smoothing_capped: bool):
        self.T = T
        self.integral_value = integral_value
        self.condition_bound = condition_bound
        self.A = A
        self.u0_l1 = u0_l1
        self.d = d
        self.capped_at_max = capped_at_max
        self.smoothing_capped = smoothing_capped


def _condition_knots(f: NonlinearityExpr, d: int) -> tuple:
    """Knots (x, J) of J(x) = (2/d) * integral over [x^(-d/2), inf) of
    s^-(1+2/d) F(s) ds, both ascending from (0, 0), for x in [0, 1].

    With x = s^(-2/d), J(x) is the integral over (0, x] of F(x'^(-d/2)) dx',
    so the upper step function of sup_ratio_envelope makes it piecewise
    linear, with knots at x = grid^(-2/d); beyond the grid F is frozen at its
    last cell bound. F is non-decreasing, so J is concave.
    """
    env = sup_ratio_envelope(f)
    x = np.concatenate([[0.0], env.grid[::-1] ** (-2.0 / d)])
    slopes = np.concatenate([env.values[-1:], env.values[::-1]])
    return x, np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))])


def find_existence_horizon(u0_l1_norm: float, f: NonlinearityExpr, d: int,
                           A: float) -> HorizonReport:
    """Largest T up to T_max = HORIZON_T_MAX for which v(t) = A S(t)u0 +
    chi_Omega is a certified supersolution on [0, T].

    Two conditions are enforced: the integral condition
    C^(2/d) * int_0^(T C^(-2/d)) tau^(d/2) ftilde(tau^(-d/2)) dtau <= (A-1)/A
    with C = 2 A c ||u0||_1 and c = (4 pi)^(-d/2), and the smoothing-estimate
    validity cap T <= (A c ||u0||_1)^(2/d) (needed so that
    A c s^(-d/2) ||u0||_1 >= 1 throughout [0, T]). The cap is 2^(-2/d)
    C^(2/d), so the integral is only ever needed for tau < 1, where it is
    scale * J(T / scale) with scale = C^(2/d) and J from _condition_knots.
    The condition is tested at min(T_max, cap); if it fails there, T inverts
    the same knot table, at a bound lowered by the roundings of both
    directions, so that integral_value <= condition_bound holds in floating
    point. A T below HORIZON_T_MIN is a SolverError, as is zero data with an
    f(1) that overflows.
    classify_l1 runs first, zero data included, so (d, 1) outside
    check_scope's is a ValueError and an f that fails the audit an
    AuditError. Data with ||u0||_1 > 0 get a horizon only where classify_l1
    says Exists; elsewhere the refusal is a SolverError.
    """
    verdict = classify_l1(f, d)
    if not A > 1:
        raise ValueError("A must exceed 1")
    if not 0 <= u0_l1_norm < math.inf:
        raise ValueError("||u0||_1 must be finite and non-negative")
    T_max, bound = HORIZON_T_MAX, (A - 1.0) / A
    csm = (4.0 * math.pi) ** (-d / 2.0)

    if u0_l1_norm == 0.0:
        # v = chi_Omega is a supersolution while t f(1) <= 1
        f1 = eval_f(f, 1.0)
        if f1 == math.inf:  # T = 1/f(1) = 0 would certify nothing
            raise SolverError(f"no horizon for zero data: f(1) overflows for "
                              f"f = {f.source_text!r} in d = {d}")
        T = T_max if f1 == 0.0 else min(T_max, 1.0 / f1)
        return HorizonReport(T=T, integral_value=0.0, condition_bound=bound,
                             A=A, u0_l1=0.0, d=d, capped_at_max=(T == T_max),
                             smoothing_capped=False)

    if verdict.outcome != EXISTS:
        raise SolverError(f"no horizon for L^1 data: classify_l1 says "
                          f"{verdict.outcome} for f = {f.source_text!r} in "
                          f"d = {d}")
    x, J = _condition_knots(f, d)
    try:
        scale = (2.0 * A * csm * u0_l1_norm) ** (2.0 / d)
        cap = (A * csm * u0_l1_norm) ** (2.0 / d)
    except OverflowError:
        scale = cap = math.inf
    if not (0.0 < cap and scale < math.inf):
        raise ValueError(f"(2 A c ||u0||_1)^(2/d) overflows or underflows "
                         f"at ||u0||_1 = {u0_l1_norm:g}, A = {A:g}, d = {d}")

    def condition(T: float) -> float:
        return scale * float(np.interp(T / scale, x, J))

    T = min(T_max, cap)
    at_endpoint = condition(T) <= bound
    if not at_endpoint:
        # 13 roundings, each moving J by at most an ulp of J, since J is
        # concave with J(0) = 0: bound / scale, 5 in the inverse, T and
        # T / scale, 4 in the forward and scale * J
        T = scale * float(np.interp(_lowered(bound / scale, 13), J, x))
        if not T >= HORIZON_T_MIN:
            raise SolverError("integral condition unsatisfiable: the "
                              "ftilde integral appears divergent")
    return HorizonReport(T=T, integral_value=condition(T),
                         condition_bound=bound, A=A, u0_l1=u0_l1_norm, d=d,
                         capped_at_max=at_endpoint and T_max <= cap,
                         smoothing_capped=at_endpoint and T_max > cap)


# --- forward simulation ------------------------------------------------------

class SimulationControls:
    def __init__(self, dt_init: float, q: float, adaptive: bool = True):
        self.dt_init = dt_init
        self.q = q
        self.adaptive = adaptive


class Trajectory:
    def __init__(self, times: list, l1: list, lq: list, linf: list,
                 dts: list, clamp_counts: list, rejected_steps: int,
                 blowup: bool, blowup_time: Optional[float],
                 final: RadialField):
        self.times = times
        self.l1 = l1
        self.lq = lq
        self.linf = linf
        self.dts = dts
        self.clamp_counts = clamp_counts
        self.rejected_steps = rejected_steps  # attempts whose dt was halved
        self.blowup = blowup
        self.blowup_time = blowup_time
        self.final = final

    @property
    def peak_l1(self) -> float:
        return max(self.l1)


def simulate_forward(P: HeatPropagator, u0: RadialField, f: NonlinearityExpr,
                     T: float, controls: SimulationControls) -> Trajectory:
    """Exponential-integrator stepping u_(m+1) = S(dt)(u_m + dt f(u_m)) with
    adaptive step halving; declares numeric blow-up (not a proof) when the
    sup norm exceeds the guard or dt underflows. Running out of MAX_STEPS
    attempts before T is a SolverError. A remainder T - t within one ulp of
    T per summed step is the rounding of that sum, so the run has reached
    T: a fixed step T/n takes exactly n steps.

    The state is a plain array of nodal values, with no field objects: the
    grid is checked once, and the final field is wrapped once, at the end.
    Each attempt costs one f evaluation, the two modal products of
    semigroup_apply's kernel and one abs pass, from which an accepted step
    takes its l1, l^q and sup norms with lq_norm's operations (at q = 1 the
    l^q sum is the l1 sum); the sup is the next attempt's base, and only an
    adaptive attempt takes its relative change. The decay vector
    e^(-lam dt) is computed once per distinct dt: once for a fixed step,
    once more for a shorter last step. A candidate or stepped field that is
    not finite is a ValueError (for the candidate, naming dt), and an l^q
    norm that does not fit in a double a SolverError, as in lq_norm."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and positive")
    if not (math.isfinite(controls.dt_init) and controls.dt_init > 0):
        raise ValueError("dt must be finite and positive")
    _check_grid(P, u0.grid)
    q, w = controls.q, P.grid.quad_weights
    dt_min = DT_MIN * min(1.0, P.grid.R ** 2)  # modes decay on scale ~ R^2
    u, clamps = u0.values.copy(), u0.clamp_count
    t, dt = 0.0, min(controls.dt_init, T)
    sup = lq_norm(u0, math.inf)
    times, l1, lq, linf = [0.0], [lq_norm(u0, 1.0)], [lq_norm(u0, q)], [sup]
    dts, clamp_counts = [dt], [0]
    rejected, blowup_time = 0, None
    decay_dt, decay = None, None
    steps = 0
    while T - t > len(times) * math.ulp(T):
        if steps == MAX_STEPS:
            raise SolverError(f"step budget of {MAX_STEPS} steps ran out at "
                              f"t = {t:.6g} before T = {T:.6g}")
        steps += 1
        dt = min(dt, T - t)
        try:
            fu = _eval_f(f, u)
        except SolverError:
            blowup_time = t
            break
        with np.errstate(over="ignore"):
            cand = u + dt * fu
        cand[-1] = 0.0  # Dirichlet boundary node
        if dt != decay_dt:
            decay_dt, decay = dt, np.exp(-P.eigenvalues * dt)
        try:
            u_new, n_clamped = _heat_step(P, decay, cand)
        except ValueError:  # u and f(u) are finite, so dt f(u) overflowed
            raise ValueError(f"dt f(u) overflows at dt = {dt:g}") from None
        a = np.abs(u_new)
        new_sup = float(a.max())
        if not math.isfinite(new_sup):
            raise ValueError("field values must be finite")
        grow = False
        if controls.adaptive:
            diff = u_new - u
            rel = float(np.abs(diff, out=diff).max()) / max(sup, 1e-300)
            if rel > REL_CHANGE_TARGET and dt > dt_min:
                rejected += 1
                dt *= 0.5
                if dt < dt_min:
                    blowup_time = t
                    break
                continue
            grow = rel < 0.5 * REL_CHANGE_TARGET
        t += dt
        u, sup, clamps = u_new, new_sup, n_clamped
        times.append(t)
        l1.append(float((w * a).sum()))
        lq.append(sup if q == math.inf else
                  _lq_root(l1[-1], w, a, q) if q == 1.0 else _lq(w, a, q))
        linf.append(sup)
        dts.append(dt)
        clamp_counts.append(clamps)
        if sup > OVERFLOW_GUARD:
            blowup_time = t
            break
        if grow:
            dt *= DT_GROWTH
    return Trajectory(times=times, l1=l1, lq=lq, linf=linf, dts=dts,
                      clamp_counts=clamp_counts, rejected_steps=rejected,
                      blowup=blowup_time is not None, blowup_time=blowup_time,
                      final=RadialField(P.grid, u, clamp_count=clamps))
