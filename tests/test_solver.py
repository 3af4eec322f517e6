"""Radial grid, propagator, Duhamel iteration and simulation tests.

Oracles: continuum Dirichlet eigenvalue (cos(r/2) mode), the erf closed form
via heat_on_ball, the closed forms of the existence horizon for f = s, s^p
and s + s^2, LAPACK MRRR against the cosine closed form of the uniform 1-D
spectrum, scipy's eigh_tridiagonal against the direct LAPACKE dstemr call
(bit for bit), grid/time refinement self-consistency, and four slow
references kept here: the face-by-face propagator assembly diagonalised by
dense eigh, the re-summed Duhamel history, the semigroup step with its own
abs pass and the forward stepper on field objects with one lq_norm call per
norm.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal

import heatlab
import heatlab.solver as solver_mod
from heatlab.criteria import duhamel_lower_bound
from heatlab.databuilder import build_t1_data
from heatlab.heatkernel import (BallIndicator, heat_on_ball, kernel_constants,
                                unit_ball_volume)
from heatlab.nonlinearity import (ENVELOPE_S_MAX, AuditError,
                                  parse_nonlinearity)
from heatlab.solver import (
    HORIZON_T_MAX,
    HorizonReport,
    RadialField,
    RadialGrid,
    SimulationControls,
    SolverError,
    _band,
    _stemr,
    build_propagator,
    duhamel_iterate,
    duhamel_map,
    find_existence_horizon,
    heat_series,
    indicator,
    lq_norm,
    semigroup_apply,
    simulate_forward,
    supersolution_check,
)

ZERO = parse_nonlinearity("0")
# adaptive steps from dt = 1e-3, with the l^2 norm: experiment simulate's
# defaults, spelled out, since simulate_forward takes its settings from the
# caller
ADAPTIVE = SimulationControls(dt_init=1e-3, q=2.0)


@pytest.fixture(scope="module")
def prop_d1():
    grid = RadialGrid.uniform(1, math.pi, 257)
    return build_propagator(grid)


def _to_modal(P, x):
    """Modal coefficients Q^T W^1/2 x of interior values x."""
    return P.modes.T @ (P.sqrt_w * x)


def _from_modal(P, c):
    """Interior values W^-1/2 Q c of modal coefficients c."""
    return (P.modes @ c) / P.sqrt_w


# --- grid and norms ----------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_weights_sum_to_ball_volume(d):
    g = RadialGrid.uniform(d, 2.0, 65)
    assert g.quad_weights.sum() == pytest.approx(
        unit_ball_volume(d) * 2.0 ** d, rel=1e-12)
    gg = RadialGrid.graded(d, 2.0, 65, 1e-4)
    assert gg.quad_weights.sum() == pytest.approx(
        unit_ball_volume(d) * 2.0 ** d, rel=1e-12)


def test_grid_rejects_bad_nodes():
    with pytest.raises(ValueError):
        RadialGrid(d=1, R=1.0, nodes=np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValueError):
        RadialGrid(d=1, R=1.0, nodes=np.array([0.0, 0.5, 0.5, 1.0]))


@pytest.mark.parametrize("d", [150, 453, 10 ** 30])
def test_grid_refuses_volumes_out_of_range(d):
    # r^150 underflows at the inner faces; omega_d itself is 0 from d = 453
    with pytest.raises(ValueError, match=rf"dimension d = {d}$"):
        RadialGrid.uniform(d, 1.0, 257)


def test_grid_refuses_overflowing_volumes_without_a_warning():
    # R^2 overflows at R = 1e155: one ValueError, no RuntimeWarning (which
    # pytest turns into an error here) printed ahead of it on the CLI
    with pytest.raises(ValueError, match=r"dimension d = 2$"):
        RadialGrid.uniform(2, 1e155, 257)


def test_indicator_exact_l1():
    g = RadialGrid.uniform(2, 1.0, 97)
    u = indicator(g, BallIndicator(0.37, amplitude=2.0))
    assert lq_norm(u, 1.0) == pytest.approx(2.0 * math.pi * 0.37 ** 2,
                                            rel=1e-12)


def test_lq_norm_closed_forms():
    g = RadialGrid.uniform(2, 1.5, 129)
    ones = RadialField(g, np.ones(g.n))
    assert lq_norm(ones, 1.0) == pytest.approx(math.pi * 1.5 ** 2, rel=1e-12)
    u = indicator(g, BallIndicator(0.5))
    # the cell-average sampling is exact for q = 1 and accurate to the
    # volume of the single partially covered edge cell otherwise
    assert lq_norm(u, 1.0) == pytest.approx(math.pi * 0.25, rel=1e-12)
    for q in (2.0, 3.0):
        assert lq_norm(u, q) == pytest.approx(
            (math.pi * 0.25) ** (1.0 / q), rel=1e-2)
    assert lq_norm(u, math.inf) == pytest.approx(1.0)
    # scaling
    u2 = RadialField(g, 3.0 * u.values)
    assert lq_norm(u2, 2.0) == pytest.approx(3.0 * lq_norm(u, 2.0), rel=1e-14)


@pytest.mark.parametrize("amplitude, q", [(2.0, 1e300)])
def test_lq_norm_refuses_what_a_double_cannot_hold(amplitude, q):
    # 2^1e300 overflows
    u = indicator(RadialGrid.uniform(1, 1.0, 65),
                  BallIndicator(0.5, amplitude=amplitude))
    with pytest.raises(SolverError, match="does not fit in a double"):
        lq_norm(u, q)


@pytest.mark.parametrize("amplitude, q", [(0.5, 1e300), (1e-200, 2.0)])
def test_lq_norm_rescales_a_sum_that_underflows(amplitude, q):
    # 0.5^1e300 and (1e-200)^2 underflow to 0 for a field that is not zero:
    # the sum is taken again on |u| / max|u|, here the indicator itself
    g = RadialGrid.uniform(1, 1.0, 65)
    u = indicator(g, BallIndicator(0.5, amplitude=amplitude))
    assert lq_norm(u, q) == amplitude * lq_norm(
        indicator(g, BallIndicator(0.5)), q) > 0.0


def test_lq_norm_of_zero_field_is_zero():
    g = RadialGrid.uniform(1, 1.0, 65)
    assert lq_norm(RadialField(g, np.zeros(g.n)), 1e300) == 0.0


@pytest.mark.parametrize("amplitude", [1.0])
def test_simulate_refuses_lq_norm_out_of_range(amplitude):
    # the initial norm fits, a later step's (values above 1) overflows
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=amplitude))
    ct = SimulationControls(dt_init=1e-3, q=1e300)
    with pytest.raises(SolverError, match="does not fit in a double"):
        simulate_forward(P, u0, parse_nonlinearity("s^2"), 0.01, ct)


def test_simulate_reports_lq_norm_whose_powers_underflow():
    # 0.1^1e300 underflows to 0 at every node: on u / max u only the peak
    # nodes count, so the l^1e300 norm is the sup norm at every step
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=1e-3, q=1e300)
    traj = simulate_forward(P, u0, parse_nonlinearity("s^2"), 0.01, ct)
    assert not traj.blowup and traj.times[-1] == 0.01
    assert traj.lq == traj.linf and traj.lq[0] == 0.1


# --- propagator --------------------------------------------------------------

def test_smallest_eigenvalue_d1(prop_d1):
    # radial even problem on [0, pi], Dirichlet at pi: cos(r/2), lambda = 1/4
    assert prop_d1.eigenvalues[0] == pytest.approx(0.25, rel=0.01)


def test_eigenvalues_increasing(prop_d1):
    assert np.all(np.diff(prop_d1.eigenvalues) > 0)


def test_propagator_requires_resolution():
    with pytest.raises(ValueError):
        build_propagator(RadialGrid.uniform(1, 1.0, 16))


@pytest.mark.parametrize("d, n, refused", [
    (3, 257, False), (7, 257, False), (8, 257, True), (20, 257, True),
    (5, 1025, False), (6, 1025, True)])
def test_propagator_refuses_an_inaccurate_modal_basis(d, n, refused):
    # round trips of the constant field measured: d = 8 and 257 nodes 4e-8,
    # d = 20 2e5, d = 6 and 1025 nodes 4e-8; 1/sqrt(V) amplifies round-off
    # at the inner nodes, and d = 20 stepped a false blow-up at t = 0
    grid = RadialGrid.uniform(d, 1.0, n)
    if not refused:
        build_propagator(grid)
        return
    with pytest.raises(SolverError, match=rf"d = {d} grid with {n} nodes .*"
                                          r"errs by \S+ \(above 1e-08\)"):
        build_propagator(grid)


def _face_by_face_operator(grid):
    """Reference: assemble the operator one face at a time and symmetrize it
    under the cell volumes, as a dense matrix."""
    m = grid.n_interior
    nodes, faces, V = grid.nodes, grid.faces, grid.quad_weights[:m]
    sigma = grid.d * unit_ball_volume(grid.d)
    A = np.zeros((m, m))
    for i in range(1, grid.n):
        k = sigma * faces[i] ** (grid.d - 1) / (nodes[i] - nodes[i - 1])
        A[i - 1, i - 1] += k / V[i - 1]
        if i < grid.n - 1:
            A[i, i] += k / V[i]
            A[i - 1, i] -= k / V[i - 1]
            A[i, i - 1] -= k / V[i]
    sqrt_w = np.sqrt(V)
    B = A * (sqrt_w[:, None] / sqrt_w[None, :])
    return 0.5 * (B + B.T)


def _is_uniform_1d(grid):
    return grid.d == 1 and np.array_equal(
        grid.nodes, np.linspace(0.0, grid.R, grid.n))


def _t1_grid(d, N):
    _, u0 = build_t1_data(parse_nonlinearity("s^5.547523027016545"), d=d,
                          q=2.0, N=N, epsilon=0.5, R=1.0)
    return u0.grid


@pytest.mark.parametrize("make_grid", [
    lambda: RadialGrid.uniform(1, math.pi, 257),
    lambda: RadialGrid.uniform(2, 1.0, 65),
    lambda: RadialGrid.uniform(3, 2.0, 129),
    lambda: RadialGrid.graded(2, 1.0, 129, 1e-6),
    # h_min = 6.8e-10; its ill-conditioned low spectrum moves with any
    # change of rounding
    lambda: _t1_grid(1, 5),
    # a face where ndarray ** 2 and a scalar power differ by one ulp
    lambda: _t1_grid(3, 3),
    lambda: _t1_grid(2, 7),
    lambda: RadialGrid.uniform(1, math.pi, 1025),
    lambda: RadialGrid.uniform(2, 1.0, 1025),
    lambda: RadialGrid.uniform(3, 2.0, 1025),
], ids=["uniform-d1", "uniform-d2", "uniform-d3", "graded-d2", "t1-d1-N5",
        "t1-d3-N3", "t1-d2-N7", "uniform-d1-1025", "uniform-d2-1025",
        "uniform-d3-1025"])
def test_propagator_matches_face_by_face_assembly(make_grid):
    # dense eigh runs syevr = sytrd + stemr + ormtr; on a tridiagonal input
    # every Householder reflector is the identity, so MRRR on the band must
    # return its eigenpairs bit for bit. The uniform 1-D grid takes the
    # closed form (tested below), so there the LAPACK helper is pinned.
    grid = make_grid()
    if _is_uniform_1d(grid):
        got = _stemr(*_band(grid)[:2])[:2]
    else:
        P = build_propagator(grid)
        got = P.eigenvalues, P.modes
    lam, Q = eigh(_face_by_face_operator(grid))
    assert np.array_equal(got[0], lam)
    assert np.array_equal(got[1], Q)


@pytest.mark.parametrize("n", [33, 257, 300, 1025])
@pytest.mark.parametrize("R", [1.0, math.pi])
def test_uniform_1d_spectrum_is_the_cosine_closed_form(n, R):
    # lam_k = (2/h)^2 sin^2((2k+1) pi/(4m)), Q_ik = sqrt(2/m) c_i
    # cos(i (2k+1) pi/(2m)) with c_0 = 1/sqrt(2): an exact eigenbasis of the
    # face-by-face band, more accurate than MRRR (whose orthogonality is
    # 4e-13 at n = 1025, and its eigenvalues off by up to 1e-10 relative)
    grid = RadialGrid.uniform(1, R, n)
    P = build_propagator(grid)
    lam, Q, m = P.eigenvalues, P.modes, grid.n_interior
    A = _face_by_face_operator(grid)
    assert np.abs(A @ Q - Q * lam).max() <= 1e-14 * lam[-1]
    assert np.abs(Q.T @ Q - np.eye(m)).max() <= 1e-14
    lam_lapack, Q_lapack = _stemr(*_band(grid)[:2])[:2]
    assert np.abs(lam_lapack / lam - 1.0).max() <= 1e-9
    signs = np.sign(np.sum(Q * Q_lapack, axis=0))
    assert np.abs(Q_lapack * signs - Q).max() <= 1e-11


@pytest.fixture(params=["direct", "scipy"])
def stemr_path(request, monkeypatch):
    """dstemr called in numpy's OpenBLAS, or through scipy's fallback (the
    path of a numpy whose BLAS does not export it)."""
    if request.param == "scipy":
        monkeypatch.setattr(solver_mod, "_lapacke_dstemr", lambda: None)
    return request.param


def _t1_run_grid(d):
    """The graded grid of _assert_same_t1_run."""
    _, u0 = build_t1_data(parse_nonlinearity("s^4"), d=d, q=1.0, N=3,
                          epsilon=0.5, R=1.0)
    return u0.grid


PARITY_GRIDS = {
    **{f"uniform-d{d}-{n}": (lambda d=d, n=n: RadialGrid.uniform(d, 1.0, n))
       for d in (2, 3) for n in (257, 513, 1025)},
    **{f"t1-d{d}-N3": (lambda d=d: _t1_run_grid(d)) for d in (1, 2, 3)},
}


@pytest.mark.parametrize("make_grid", PARITY_GRIDS.values(),
                         ids=PARITY_GRIDS.keys())
def test_stemr_matches_scipy_eigh_tridiagonal_bytes(make_grid):
    # the direct LAPACKE call runs scipy's routine with scipy's arguments,
    # so lam and Q agree bit for bit, Q column-major on both sides; the band
    # itself is copied, not overwritten
    diag, off, _ = _band(make_grid())
    band = diag.tobytes(), off.tobytes()
    lam, Q, info = _stemr(diag, off)
    lam_ref, Q_ref = eigh_tridiagonal(diag, off, lapack_driver="stemr")
    assert info == 0
    assert (diag.tobytes(), off.tobytes()) == band
    assert lam.tobytes() == lam_ref.tobytes()
    assert Q.flags.f_contiguous and Q_ref.flags.f_contiguous
    assert Q.tobytes() == Q_ref.tobytes()


def test_stemr_asks_for_relative_accuracy_as_scipy_does():
    # a scaled diagonally dominant band, where tryrac = 1 takes dstemr's
    # relative-accuracy branch; with tryrac = 0 its smallest eigenvalues
    # move by up to 12 % (no propagator band above reaches that branch)
    diag = 0.1 ** np.arange(40.0)
    off = 0.3 * np.sqrt(diag[:-1] * diag[1:])
    lam, Q, info = _stemr(diag, off)
    lam_ref, Q_ref = eigh_tridiagonal(diag, off, lapack_driver="stemr")
    assert info == 0
    assert lam.tobytes() == lam_ref.tobytes()
    assert Q.tobytes() == Q_ref.tobytes()


def test_lapacke_dstemr_is_none_without_rtld_noload(monkeypatch):
    # Windows' os has no RTLD_NOLOAD: the lookup gives None, and the
    # propagator is built by scipy's fallback
    monkeypatch.delattr(os, "RTLD_NOLOAD", raising=False)
    solver_mod._lapacke_dstemr.cache_clear()
    try:
        assert solver_mod._lapacke_dstemr() is None
    finally:
        solver_mod._lapacke_dstemr.cache_clear()


@pytest.mark.parametrize("make_grid", PARITY_GRIDS.values(),
                         ids=PARITY_GRIDS.keys())
def test_scipy_fallback_builds_the_same_propagator(monkeypatch, make_grid):
    grid = make_grid()
    P = build_propagator(grid)
    monkeypatch.setattr(solver_mod, "_lapacke_dstemr", lambda: None)
    ref = build_propagator(grid)
    assert P.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert P.modes.flags.f_contiguous and ref.modes.flags.f_contiguous
    assert P.modes.tobytes() == ref.modes.tobytes()


def test_dstemr_failure_names_the_grid(monkeypatch, stemr_path):
    # the LAPACK call of either path, stubbed to fail with info = 22
    if stemr_path == "direct":
        monkeypatch.setattr(solver_mod, "_lapacke_dstemr",
                            lambda: lambda *args: 22)
    else:
        import scipy.linalg.lapack
        monkeypatch.setattr(scipy.linalg.lapack, "dstemr",
                            lambda *args: (0, None, None, 22))
    with pytest.raises(SolverError, match=r"LAPACK dstemr failed \(info = "
                                          r"22\) on the d = 2 Laplacian "
                                          r"with R = 1e-100 on 257 nodes$"):
        build_propagator(RadialGrid.uniform(2, 1e-100, 257))


@pytest.mark.parametrize("d, n, R", [
    *[(d, 257, R) for d in (2, 3) for R in (1e-5, 1e-30, 1e-100)],
    (2, 257, 1e-140),
    *[(d, 1025, R) for d in (2, 3) for R in (1e-3, 1e-10, 1e-60, 1e-100)],
    (2, 1025, 1e-140)])
def test_small_balls_have_the_unit_ball_spectrum(stemr_path, d, n, R):
    # the band of B_R is R^-2 times that of B_1, so lam R^2 is the unit
    # ball's lam; MRRR failed on the unscaled d = 2 bands (info 22)
    unit = build_propagator(RadialGrid.uniform(d, 1.0, n)).eigenvalues
    P = build_propagator(RadialGrid.uniform(d, R, n))
    assert np.abs(P.eigenvalues * R * R / unit - 1.0).max() <= 1e-10
    constant = np.abs((P.modes @ (P.sqrt_w @ P.modes)) / P.sqrt_w - 1.0)
    assert constant.max() <= 1e-10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: dstemr loses the "
                   "lowest eigenvalue on strongly graded T1 grids")
@pytest.mark.parametrize("f, d, N, lam0", [
    ("s^5.547523027016545", 1, 5, 2.464888065950676),
    ("s^5.55", 1, 6, 2.464177031005176),
    ("s^2.5", 3, 7, 9.828032110221459),
    ("s^5.55", 1, 3, 2.466220738078269)])
def test_graded_grid_lowest_eigenvalue(f, d, N, lam0):
    # lam0 from a 40-digit mpmath Sturm-count bisection of the band of the
    # T1 grid at q = 2, epsilon = 0.5, R = 1
    _, u0 = build_t1_data(parse_nonlinearity(f), d=d, q=2.0, N=N,
                          epsilon=0.5, R=1.0)
    lam = build_propagator(u0.grid).eigenvalues[0]
    assert lam == pytest.approx(lam0, rel=1e-10)


def test_propagator_build_allocates_one_dense_matrix(stemr_path):
    # the modes are the one m x m array; a dense assembly of the band
    # peaks at about three of them, and so does a whole-matrix index table
    # of the cosine closed form at d = 1
    for d in (1, 2):
        grid = RadialGrid.uniform(d, 1.0, 1025)
        m = grid.n_interior
        build_propagator(grid)
        tracemalloc.start()
        try:
            build_propagator(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * m * m * 8, d


def test_eigenmode_decay(prop_d1):
    P = prop_d1
    mode = np.concatenate([_from_modal(P, np.eye(P.grid.n_interior)[:, 0]),
                           [0.0]])
    u = RadialField(P.grid, mode)
    out = semigroup_apply(P, 2.0, u)
    expect = math.exp(-P.eigenvalues[0] * 2.0) * mode
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_semigroup_identity_and_composition(prop_d1):
    P = prop_d1
    u = indicator(P.grid, BallIndicator(1.0))
    ident = semigroup_apply(P, 0.0, u)
    assert np.max(np.abs(ident.values - u.values)) < 1e-12
    ab = semigroup_apply(P, 0.3, semigroup_apply(P, 0.2, u))
    c = semigroup_apply(P, 0.5, u)
    assert np.max(np.abs(ab.values - c.values)) < 1e-10


def test_semigroup_matches_whole_space_in_bulk(prop_d1):
    # small t and R >> r + sqrt(t): boundary influence is negligible
    P = prop_d1
    chi = BallIndicator(1.0)
    u = indicator(P.grid, chi)
    out = semigroup_apply(P, 0.05, u)
    for i in range(4, 180, 25):
        rho = P.grid.nodes[i]
        assert out.values[i] == pytest.approx(
            heat_on_ball(chi, rho, 0.05, 1), abs=1e-3)


def test_max_principle_and_zero_clamps(prop_d1):
    P = prop_d1
    u = indicator(P.grid, BallIndicator(0.7, amplitude=3.0))
    sup0 = lq_norm(u, math.inf)
    for t in (0.01, 0.1, 1.0, 5.0):
        out = semigroup_apply(P, t, u)
        assert lq_norm(out, math.inf) <= sup0 + 1e-12
        assert np.min(out.values) >= 0.0
        assert out.clamp_count == 0


def test_grid_mismatch_rejected(prop_d1):
    other = RadialGrid.uniform(1, math.pi, 65)
    u = indicator(other, BallIndicator(1.0))
    with pytest.raises(ValueError):
        semigroup_apply(prop_d1, 0.1, u)


def test_grid_of_another_dimension_rejected(prop_d1):
    # same nodes, other cell volumes: a d = 3 field stepped by the d = 1
    # propagator had its l1 norm jump from 4 pi / 3 to 2 at f = 0
    u = indicator(RadialGrid.uniform(3, math.pi, 257), BallIndicator(1.0))
    with pytest.raises(ValueError, match="does not match"):
        semigroup_apply(prop_d1, 0.1, u)
    with pytest.raises(ValueError, match="does not match"):
        simulate_forward(prop_d1, u, ZERO, 0.1, ADAPTIVE)


# --- Duhamel iteration -------------------------------------------------------

def test_duhamel_zero_nonlinearity_one_step(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0, amplitude=0.5))
    v0 = np.ones((16, P.grid.n_interior))
    tr = duhamel_iterate(P, u0, ZERO, v0, T=0.5, n_time=16, n_iter=5)
    assert tr.converged and tr.n_iter <= 2
    # iterate equals S(t)u0
    assert np.max(np.abs(tr.v - tr.baseline)) < 1e-12


def _history_sum_duhamel(P, u0, f, v, times):
    """Reference: the composite trapezoid with the whole history re-summed
    at every slice, O(n_time^2 m)."""
    m = P.grid.n_interior
    dt = times[1] - times[0]
    decay = np.exp(-np.outer(times, P.eigenvalues))
    u0_hat = _to_modal(P, u0.values[:m])
    g = (f.eval_raw(np.maximum(v, 0.0)) * P.sqrt_w) @ P.modes
    out = np.empty_like(v)
    for j in range(len(times)):
        acc = decay[j] * u0_hat
        if j > 0:
            c = np.ones(j + 1)
            c[0] = c[j] = 0.5
            acc = acc + dt * np.einsum("m,mk,mk->k", c, decay[j::-1],
                                       g[:j + 1])
        out[j] = _from_modal(P, acc)
    return out


@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_duhamel_recurrence_matches_history_sum(d, graded):
    grid = (RadialGrid.graded(d, 1.0, 129, 1e-4) if graded
            else RadialGrid.uniform(d, 1.0, 129))
    P = build_propagator(grid)
    u0 = indicator(grid, BallIndicator(0.4, amplitude=0.5))
    f = parse_nonlinearity("s + s^2")
    times = np.linspace(0.0, 0.2, 48)
    v = np.random.default_rng(d).uniform(0.0, 2.0, (48, grid.n_interior))
    F = duhamel_map(P, u0, f, v, times)
    ref = _history_sum_duhamel(P, u0, f, v, times)
    assert np.max(np.abs(F - ref)) <= 1e-13 * max(1.0, np.max(np.abs(F)))


def test_heat_series_matches_semigroup_apply(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0, amplitude=0.5))
    times = np.array([0.0, 0.01, 0.3, 2.0])  # need not be uniform
    series = heat_series(P, u0, times)
    assert series.shape == (len(times), P.grid.n_interior)
    for t, row in zip(times, series):
        ref = semigroup_apply(P, t, u0).values[:-1]
        assert np.max(np.abs(row - ref)) <= 1e-13


@pytest.mark.parametrize("n", [513, 1025])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_heat_series_flush_keeps_the_unflushed_product(d, n):
    # heat_series zeroes the decay-table entries below the smallest normal
    # double before its modal product; every case here holds such entries,
    # and the result is the same double as the product without the flush
    P = build_propagator(RadialGrid.uniform(d, 1.0, n))
    for T in (1e-3, 1e-2, 0.1):
        for amplitude in (0.03, 1.0):
            u0 = indicator(P.grid, BallIndicator(0.4, amplitude=amplitude))
            times = np.linspace(0.0, T, 256)
            coeffs = np.exp(-np.outer(times, P.eigenvalues)) \
                * _to_modal(P, u0.values[:-1])
            assert np.any((coeffs != 0.0)
                          & (np.abs(coeffs) < np.finfo(float).tiny)), \
                (T, amplitude)
            ref = (coeffs @ P.modes.T) / P.sqrt_w
            assert np.array_equal(heat_series(P, u0, times), ref), \
                (T, amplitude)



def _ref_heat_step(P, decay, values):
    """_heat_step with its products spelled by _to_modal and _from_modal."""
    lo, hi = float(values.min()), float(values.max())
    m = P.grid.n_interior
    coeffs = decay * _to_modal(P, values[:m])
    vals = np.empty(m + 1)
    vals[m] = 0.0
    vals[:m] = _from_modal(P, coeffs)
    n_clamped = int(np.count_nonzero(vals[:m] < -1e-9 * max(1.0, hi, -lo)))
    if lo >= 0.0:
        np.maximum(vals[:m], 0.0, out=vals[:m])
    return vals, n_clamped


def _ref_heat_series(P, u0, times):
    """heat_series with its forward product spelled by _to_modal."""
    coeffs = np.exp(np.outer(times, -P.eigenvalues))
    coeffs *= _to_modal(P, u0.values[:P.grid.n_interior])
    tiny = np.finfo(float).tiny
    coeffs[(coeffs < tiny) & (coeffs > -tiny)] = 0.0
    out = coeffs @ P.modes.T
    out /= P.sqrt_w
    return out


def _ref_duhamel(P, f, v, dt):
    """_duhamel with a fresh array per step of the history."""
    g = (f.eval_raw(np.maximum(v, 0.0)) * P.sqrt_w) @ P.modes
    r = np.exp(-P.eigenvalues * dt)
    hist = np.zeros_like(g)
    hist[1:] = 0.5 * dt * (r * g[:-1] + g[1:])
    for j in range(1, len(hist)):
        hist[j] += r * hist[j - 1]
    return (hist @ P.modes.T) / P.sqrt_w


@pytest.mark.parametrize("make_grid", [
    *(lambda d=d: RadialGrid.uniform(d, 1.0, 257) for d in (1, 2, 3)),
    lambda: _t1_run_grid(2)], ids=["uniform-d1", "uniform-d2", "uniform-d3",
                                   "t1-d2-N3"])
def test_steps_match_the_reference_spelling_bytes(make_grid):
    # the semigroup step, the heat series and the Duhamel history spell the
    # modal products on P.modes and P.sqrt_w, in place where they can; each
    # is the same double as the reference helpers give
    P = build_propagator(make_grid())
    u0 = indicator(P.grid, BallIndicator(0.4, amplitude=0.5))
    mixed = np.cos(7.0 * P.grid.nodes) * (P.grid.nodes < P.grid.R)
    for values in (u0.values, mixed):
        decay = np.exp(-P.eigenvalues * 1e-3)
        got, ref = solver_mod._heat_step(P, decay, values), \
            _ref_heat_step(P, decay, values)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    times = np.linspace(0.0, 0.05, 32)
    assert np.array_equal(heat_series(P, u0, times),
                          _ref_heat_series(P, u0, times))
    f = parse_nonlinearity("s + s^2")
    v = np.random.default_rng(3).uniform(0.0, 2.0, (32, P.grid.n_interior))
    dt = times[1] - times[0]
    assert np.array_equal(solver_mod._duhamel(P, f, v, dt),
                          _ref_duhamel(P, f, v, dt))


@pytest.mark.parametrize("n_time", [0, 1])
def test_duhamel_needs_two_time_slices(prop_d1, n_time):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    f = parse_nonlinearity("s^2")
    v = np.ones((n_time, P.grid.n_interior))
    with pytest.raises(ValueError, match="two time slices"):
        duhamel_map(P, u0, f, v, np.linspace(0.0, 0.1, n_time))
    with pytest.raises(ValueError, match="two time slices"):
        duhamel_iterate(P, u0, f, v, 0.1, n_time=n_time, n_iter=50)
    with pytest.raises(ValueError, match="two time slices"):
        supersolution_check(P, u0, f, v, 0.1, n_time=n_time)


@pytest.mark.parametrize("times", [[0.0, 0.1, 0.3], [0.2, 0.1, 0.0],
                                   [0.0, math.nan, 0.2]])
def test_duhamel_rejects_non_uniform_times(prop_d1, times):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    v = np.ones((3, P.grid.n_interior))
    with pytest.raises(ValueError, match="uniformly spaced"):
        duhamel_map(P, u0, ZERO, v, np.array(times))


def test_duhamel_takes_interior_values_only(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    with pytest.raises(ValueError, match="shape"):
        duhamel_map(P, u0, ZERO, np.ones((4, P.grid.n)),
                    np.linspace(0.0, 0.1, 4))


def test_iteration_monotone_and_bounded(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^2")
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.1))
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, 1, A=2.0)
    times = np.linspace(0.0, hor.T, 64)
    base = heat_series(P, u0, times)
    chi = indicator(P.grid, BallIndicator(P.grid.R * (1 - 1e-12)))
    v_init = 2.0 * base + chi.values[None, :P.grid.n_interior]
    check = supersolution_check(P, u0, f, v_init, hor.T, n_time=64)
    assert check.certified and check.margin >= 0.0
    tr = duhamel_iterate(P, u0, f, v_init, hor.T, n_time=64, n_iter=50)
    assert tr.converged
    assert tr.max_increase <= 1e-10
    assert tr.min_above_baseline >= -1e-10
    assert tr.residual < 1e-6
    assert np.all(tr.v <= v_init + 1e-10)


def test_iteration_refined_time_grid_consistency(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^2")
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.1))
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, 1, A=2.0)
    base = heat_series(P, u0, np.linspace(0, hor.T, 64))
    chi = indicator(P.grid, BallIndicator(P.grid.R * (1 - 1e-12)))
    v_init = 2.0 * base + chi.values[None, :P.grid.n_interior]
    tr = duhamel_iterate(P, u0, f, v_init, hor.T, n_time=64, n_iter=50)
    # solving the fixed-point identity on a 2x finer time grid (sharing
    # every coarse point) reproduces the limit there within 1e-4
    base_f = heat_series(P, u0, np.linspace(0, hor.T, 127))
    v_init_f = 2.0 * base_f + chi.values[None, :P.grid.n_interior]
    tr_f = duhamel_iterate(P, u0, f, v_init_f, hor.T, n_time=127, n_iter=50)
    assert np.max(np.abs(tr.v - tr_f.v[::2])) < 1e-4


def test_iteration_divergence_guard(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^4")
    u0 = indicator(P.grid, BallIndicator(1.0, amplitude=50.0))
    v_init = np.full((16, P.grid.n_interior), 100.0)
    with pytest.raises(SolverError):
        duhamel_iterate(P, u0, f, v_init, T=5.0, n_time=16, n_iter=50)


def _loop_duhamel_map(P, u0, f, v, times):
    """duhamel_map as first written: the history recurrence one slice at a
    time, S(t)u0 recomputed on every call."""
    dt = times[1] - times[0]
    g = (f.eval_raw(np.maximum(v, 0.0)) * P.sqrt_w) @ P.modes
    r = np.exp(-P.eigenvalues * dt)
    hist = np.zeros_like(g)
    for j in range(1, len(times)):
        hist[j] = r * hist[j - 1] + 0.5 * dt * (r * g[j - 1] + g[j])
    return heat_series(P, u0, times) + (hist @ P.modes.T) / P.sqrt_w


def _reference_iterate(P, u0, f, v_init, T, n_time, n_iter, duhamel):
    """duhamel_iterate's loop before S(t)u0 was hoisted out of it: every
    iterate, and the residual, is a call of a whole Duhamel map."""
    times = np.linspace(0.0, T, n_time)
    v = np.asarray(v_init, dtype=float)
    baseline = heat_series(P, u0, times)
    out = {"sup_deltas": [], "max_increase": -math.inf,
           "min_above_baseline": math.inf, "converged": False}
    for it in range(1, n_iter + 1):
        v_new = duhamel(P, u0, f, v, times)
        out["sup_deltas"].append(float(np.max(np.abs(v_new - v))))
        out["max_increase"] = max(out["max_increase"],
                                  float(np.max(v_new - v)))
        out["min_above_baseline"] = min(out["min_above_baseline"],
                                        float(np.min(v_new - baseline)))
        v = v_new
        if out["sup_deltas"][-1] < 1e-8:
            out["converged"] = True
            break
    out["residual"] = float(np.max(np.abs(duhamel(P, u0, f, v, times) - v)))
    out["n_iter"], out["v"] = it, v
    return out


@pytest.mark.parametrize("d, graded, n_time, from_below", [
    pytest.param(d, graded, n_time, False, id=f"{d}-{graded}-{n_time}")
    for d in (1, 2, 3) for graded in (False, True) for n_time in (64, 65)
] + [pytest.param(2, False, 64, True, id="2-False-64-from_below")])
def test_duhamel_iterate_matches_reference_iteration(d, graded, n_time,
                                                     from_below):
    # bit for bit: against the loop over the public duhamel_map, and against
    # the same loop over the slice-by-slice recurrence. From the
    # supersolution A S(t)u0 + chi the iterates fall; from S(t)u0 itself
    # they rise, so sup|v_new - v| is then max(v_new - v)
    grid = (RadialGrid.graded(d, 1.0, 129, 1e-3) if graded
            else RadialGrid.uniform(d, 1.0, 129))
    P = build_propagator(grid)
    m = grid.n_interior
    f = parse_nonlinearity("s + s^1.5")
    u0 = indicator(grid, BallIndicator(0.4, amplitude=0.3))
    T = find_existence_horizon(lq_norm(u0, 1.0), f, d, A=2.0).T
    base = heat_series(P, u0, np.linspace(0.0, T, n_time))
    chi = indicator(grid, BallIndicator(grid.R * (1 - 1e-12)))
    v_init = base if from_below else 2.0 * base + chi.values[None, :m]
    tr = duhamel_iterate(P, u0, f, v_init, T, n_time=n_time, n_iter=50)
    assert tr.n_iter > 2
    if from_below:  # every sup change is an increase
        assert tr.max_increase == max(tr.sup_deltas) > 0.0
    for duhamel in (duhamel_map, _loop_duhamel_map):
        ref = _reference_iterate(P, u0, f, v_init, T, n_time, 50, duhamel)
        assert np.array_equal(tr.v, ref.pop("v"))
        for key, expected in ref.items():
            assert getattr(tr, key) == expected, key


@pytest.mark.parametrize("T, n_time, cols", [
    (0.1, 1, 0),          # one time slice
    (0.1, 8, 1),          # v_init with the boundary node
    (-0.1, 8, 0),         # decreasing times
    (math.nan, 8, 0),
])
def test_duhamel_iterate_keeps_duhamel_map_refusals(prop_d1, T, n_time, cols):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    f = parse_nonlinearity("s^2")
    v = np.ones((n_time, P.grid.n_interior + cols))
    with pytest.raises(ValueError) as want:
        duhamel_map(P, u0, f, v, np.linspace(0.0, T, n_time))
    with pytest.raises(ValueError) as got:
        duhamel_iterate(P, u0, f, v, T, n_time=n_time, n_iter=50)
    assert str(got.value) == str(want.value)


def test_supersolution_margin_zero_for_linear_flow(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0, amplitude=0.5))
    times = np.linspace(0.0, 0.5, 32)
    base = heat_series(P, u0, times)
    rep = supersolution_check(P, u0, ZERO, base, 0.5, n_time=32)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_supersolution_fails_for_supercritical(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^4")
    u0 = indicator(P.grid, BallIndicator(1.0, amplitude=5.0))
    base = heat_series(P, u0, np.linspace(0, 1.0, 32))
    chi = indicator(P.grid, BallIndicator(P.grid.R * (1 - 1e-12)))
    v = 2.0 * base + chi.values[None, :P.grid.n_interior]
    rep = supersolution_check(P, u0, f, v, 1.0, n_time=32)
    assert rep.margin < 0.0


# --- existence horizon -------------------------------------------------------

def test_horizon_zero_nonlinearity_capped():
    rep = find_existence_horizon(0.0, ZERO, 2, A=2.0)
    assert rep.T == HORIZON_T_MAX == 100.0 and rep.capped_at_max


def test_horizon_zero_data_uses_f_at_one():
    f = parse_nonlinearity("4*s")
    rep = find_existence_horizon(0.0, f, 2, A=2.0)
    assert rep.T == pytest.approx(0.25, rel=1e-12)


def test_horizon_zero_data_refuses_negative_f_at_one():
    # t f(1) <= 1 holds for every t when f(1) < 0; that is no horizon, and
    # the audit that the horizon runs for zero data too refuses such an f
    with pytest.raises(AuditError, match="failed the audit"):
        find_existence_horizon(0.0, parse_nonlinearity("s-2"), 2, A=2.0)


def test_horizon_linear_f_closed_form():
    # f = s: the integrand is identically 1, so the integral condition reads
    # T <= (A-1)/A; the smoothing cap (A c ||u0||)^(2/d) then applies
    f = parse_nonlinearity("s")
    A, n = 2.0, 0.5
    rep = find_existence_horizon(n, f, 2, A=A)
    cap = (A * (4 * math.pi) ** -1.0 * n) ** 1.0
    assert rep.T == pytest.approx(min((A - 1) / A, cap), rel=1e-6)
    assert rep.smoothing_capped


def test_horizon_monotone_in_norm_where_integral_binds():
    # in the regime where the integral condition (not the smoothing cap)
    # determines T, doubling ||u0||_1 shrinks the horizon
    f = parse_nonlinearity("s^2")
    r1 = find_existence_horizon(2.0, f, 1, A=2.0)
    r2 = find_existence_horizon(4.0, f, 1, A=2.0)
    assert not r1.smoothing_capped and not r2.smoothing_capped
    assert r2.T < r1.T


BAD_HORIZON_INPUTS = [
    (math.inf, 2.0), (math.nan, 2.0), (-1.0, 2.0), (0.5, math.nan), (0.5, 1.0),
    # (2 A c ||u0||_1)^(2/d) overflows, underflows or is infinite in d = 1
    (1e200, 2.0), (1e-200, 2.0), (0.5, math.inf),
]


# the ids end in the cap T_max = 100.0, as when the cap was a parameter
@pytest.mark.parametrize("norm,A", BAD_HORIZON_INPUTS,
                         ids=[f"{n}-{a}-100.0" for n, a in BAD_HORIZON_INPUTS])
def test_horizon_rejects_bad_input(norm, A):
    with pytest.raises(ValueError):
        find_existence_horizon(norm, parse_nonlinearity("s^2"), 1, A=A)


def test_horizon_is_a_report(prop_d1):
    rep = find_existence_horizon(0.1, parse_nonlinearity("s^2"), 1, A=2.0)
    assert isinstance(rep, HorizonReport)
    assert rep.integral_value <= rep.condition_bound


def _exact_horizon(text, d, norm, A=2.0, frozen_beyond=None):
    """The T at which the integral condition scale * J(T / scale) = (A-1)/A
    binds, in closed form. f = s^p: F(s) = s^(p-1), so J(x) = x^(1-a)/(1-a)
    with a = d(p-1)/2 < 1; f = s + s^2 in d = 1: F(s) = 1 + s, so J(x) = x +
    2 sqrt(x). With frozen_beyond = S, F(s) is F(S) for s > S, which adds
    x F(S) - J(x) to J on x <= x_S = S^(-2/d) and a constant above it."""
    scale = (2.0 * A * (4.0 * math.pi) ** (-d / 2.0) * norm) ** (2.0 / d)
    b = (A - 1.0) / A / scale
    xS = 0.0 if frozen_beyond is None else frozen_beyond ** (-2.0 / d)
    if text == "s + s^2":
        if xS and b < (1.0 + frozen_beyond) * xS:
            return scale * b / (1.0 + frozen_beyond)
        return scale * (math.sqrt(1.0 + b + math.sqrt(xS)) - 1.0) ** 2
    a = d * (float(text[2:]) - 1.0) / 2.0
    c = xS ** (1.0 - a)  # J(x_S) with F frozen
    if b < c:
        return scale * b * xS ** a
    return scale * ((1.0 - a) * b + a * c) ** (1.0 / (1.0 - a))


FROZEN_TAIL = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: F beyond 2^48 is frozen at its last cell bound, not "
    "bounded; for s^1.5 in d = 3, F = s^0.5 grows beyond it, so T "
    "over-claims"))


EXACT_HORIZON_CASES = [
    ("s^2", 1, 5.0),
    ("s^1.5", 2, 5.0),
    ("s^2.5", 1, 5.0),
    ("s^1.2", 2, 5.0),
    # the README f, at d = 1: at d = 2 it is L^1-critical and refused
    ("s + s^2", 1, 5.0),
    ("s^1.5", 3, 5.0),
    ("s^1.5", 3, 50.0),
]


@pytest.mark.parametrize("expr,d,norm", [
    pytest.param(*case, marks=FROZEN_TAIL) if case[:2] == ("s^1.5", 3)
    else case for case in EXACT_HORIZON_CASES])
def test_horizon_against_the_exact_horizon(expr, d, norm):
    # the upper step function of F makes the integral an upper bound, so T
    # lies below the exact horizon, and the ratio-1.01 grid keeps it close
    rep = find_existence_horizon(norm, parse_nonlinearity(expr), d, A=2.0)
    exact = _exact_horizon(expr, d, norm)
    assert not rep.smoothing_capped and not rep.capped_at_max
    assert 0.9 * exact <= rep.T <= exact
    assert rep.integral_value <= rep.condition_bound == 0.5


@pytest.mark.parametrize("expr,d,norm", EXACT_HORIZON_CASES)
def test_horizon_against_the_frozen_tail_horizon(expr, d, norm):
    # the cell bounds lie above F up to ENVELOPE_S_MAX and the tail repeats
    # the last one, so T lies below the exact horizon of F frozen beyond
    # ENVELOPE_S_MAX; the two s^1.5, d = 3 cases show that the frozen tail,
    # not the step function, is what over-claims there
    rep = find_existence_horizon(norm, parse_nonlinearity(expr), d, A=2.0)
    frozen = _exact_horizon(expr, d, norm, frozen_beyond=ENVELOPE_S_MAX)
    assert not rep.smoothing_capped and not rep.capped_at_max
    assert 0.9 * frozen <= rep.T <= frozen
    assert rep.integral_value <= rep.condition_bound == 0.5


@pytest.mark.parametrize("expr,d,norm,T_max,kind", [
    ("s^2", 1, 0.05, 100.0, "smoothing"),
    ("s", 2, 0.05, 100.0, "smoothing"),
    ("s", 3, 1.0, 100.0, "smoothing"),
    ("s^2", 1, 0.5, 1e-4, "T_max"),
    ("s^1.5", 2, 0.5, 1e-4, "T_max"),
    ("s^1.5", 3, 0.5, 1e-4, "T_max"),
    ("0", 1, 50.0, 100.0, "T_max"),
    ("4*s", 1, 0.0, 100.0, "zero"),
    ("s^2", 2, 0.0, 100.0, "zero"),
    ("0", 3, 0.0, 100.0, "zero"),
])
def test_horizon_at_its_caps(monkeypatch, expr, d, norm, T_max, kind):
    # the T_max cases lower the module's cap; the others run at its value
    monkeypatch.setattr(solver_mod, "HORIZON_T_MAX", T_max)
    f = parse_nonlinearity(expr)
    rep = find_existence_horizon(norm, f, d, A=2.0)
    cap = (2.0 * (4.0 * math.pi) ** (-d / 2.0) * norm) ** (2.0 / d)
    f1 = float(f.eval_raw(1.0))
    T = {"smoothing": cap, "T_max": T_max,
         "zero": T_max if f1 == 0.0 else min(T_max, 1.0 / f1)}[kind]
    assert rep.T == pytest.approx(T, rel=1e-15)
    assert (rep.smoothing_capped, rep.capped_at_max) == (
        kind == "smoothing", kind == "T_max" or rep.T == T_max)
    assert rep.integral_value <= rep.condition_bound
    if kind == "zero":
        assert rep.integral_value == 0.0


@pytest.mark.parametrize("expr,norm,exact", [
    ("s^2.95", 0.44, _exact_horizon("s^2.95", 1, 0.44)),
    ("1e300*s", 0.5, 0.5 / 1e300),  # F = 1e300
], ids=["s^2.95", "1e300*s"])
def test_horizon_refused_below_the_floor(expr, norm, exact):
    # the true horizon lies below HORIZON_T_MIN = HORIZON_T_MAX 2^-80
    assert solver_mod.HORIZON_T_MIN == HORIZON_T_MAX * 2.0 ** -80 > exact
    with pytest.raises(SolverError) as exc:
        find_existence_horizon(norm, parse_nonlinearity(expr), 1, A=2.0)
    assert str(exc.value) == ("integral condition unsatisfiable: the ftilde "
                              "integral appears divergent")


def test_horizon_leaves_scipy_integrate_unimported(tmp_path):
    script = ("import sys\n"
              "from heatlab.cli import main\n"
              "main(['experiment', 'horizon', '--f', 's + s^2', '--d', '1',"
              " '--u0-l1', '0.5', '--out', sys.argv[1]])\n"
              "print('scipy.integrate' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(heatlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script,
                          str(tmp_path / "h.json")],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
    assert (tmp_path / "h.json").exists()


# --- certified lower bound ---------------------------------------------------

def test_lower_bound_zero_nonlinearity():
    chi = BallIndicator(0.5, amplitude=2.0)
    lb = duhamel_lower_bound(chi, ZERO, 0.25, 1, q=1.0)
    kc = kernel_constants(1)
    level = 2.0 * kc.c_d * (0.5 / 1.0) ** 1
    assert lb.value == pytest.approx(level, rel=1e-12)


def test_lower_bound_dominates_t1_prediction():
    # Theorem-3.1-style chain at k = 1..3 for f = s^4, d = 1, q = 1
    kc = kernel_constants(1)
    f = parse_nonlinearity("s^4")
    eps = 0.5
    for k in (1, 2, 3):
        phi = math.exp(k)
        r_k = eps / (phi * k * k)
        chi = BallIndicator(r_k, amplitude=phi / kc.beta_d)
        for t in (0.5 * r_k ** 2, r_k ** 2):
            lb = duhamel_lower_bound(chi, f, t, 1, q=1.0)
            pred = kc.beta_d * r_k ** 2 * phi ** 4
            assert lb.value >= 0.5 * pred  # t = t_k/2 halves it
        lb = duhamel_lower_bound(chi, f, r_k ** 2, 1, q=1.0)
        assert lb.value >= pred


def test_lower_bound_lq_norm_positive():
    lb = duhamel_lower_bound(BallIndicator(1.0), parse_nonlinearity("s^2"),
                             0.5, 2, q=2.0)
    assert lb.lq > 0.0
    # one value on the disc |x| <= 1 + sqrt 0.5, times its area to the 1/2
    assert lb.radius == 1.0 + math.sqrt(0.5)
    assert lb.lq == pytest.approx(
        lb.value * math.sqrt(math.pi * lb.radius ** 2), rel=1e-12)


def _chain_in_mpmath(p, d, r, t, amp):
    """The chain duhamel_lower_bound evaluates, f = s^p, to 30 digits: the
    ball lemma inside f and outside, integrated in w = sqrt s, which takes
    the square root out of the integrand at s = 0."""
    c, r, t, amp = (mpmath.mpf(x) for x in (kernel_constants(d).c_d, r, t,
                                            amp))

    def integrand(w):
        rho, rest = r + w, mpmath.sqrt(max(t - w * w, 0))
        inner = (amp * c * (r / rho) ** d) ** p
        return 2 * w * inner * c * (rho / (rho + rest)) ** d

    edge = mpmath.sqrt(t)
    return (amp * c * (r / (r + edge)) ** d
            + mpmath.quad(integrand, [0, edge / 2, edge]))


@pytest.mark.parametrize("p, d, r, t, amp, q", [
    (2, 1, 0.5, 0.01, 1.0, 1.0),   # the README lower_bound
    (2, 2, 1.0, 0.5, 1.0, 2.0),
    (2, 3, 0.5, 0.01, 1.0, 1.0),
    (4, 1, 0.1, 0.01, 30.0, 1.0)])
def test_lower_bound_is_one_sided_against_mpmath(p, d, r, t, amp, q):
    lb = duhamel_lower_bound(BallIndicator(r, amplitude=amp),
                             parse_nonlinearity(f"s^{p}"), t, d, q=q)
    with mpmath.workdps(30):
        value = _chain_in_mpmath(p, d, r, t, amp)
        ball = (mpmath.pi ** (d / mpmath.mpf(2)) / mpmath.gamma(d / 2 + 1)
                * (r + mpmath.sqrt(t)) ** d)
        lq = value * ball ** (1 / mpmath.mpf(q))
        # below the truth, and close to it: a bound of 0 fails as well
        assert lb.value <= value and lb.lq <= lq
        assert lb.value >= value * (1 - 1e-6) and lb.lq >= lq * (1 - 1e-6)


# --- forward simulation ------------------------------------------------------

def test_simulate_heat_flow_contracts(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    traj = simulate_forward(P, u0, ZERO, 1.0, ADAPTIVE)
    assert not traj.blowup
    assert all(a >= b - 1e-12 for a, b in zip(traj.lq, traj.lq[1:]))


@pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
def test_simulate_rejects_bad_horizon(prop_d1, T):
    u0 = indicator(prop_d1.grid, BallIndicator(1.0))
    with pytest.raises(ValueError, match="finite and positive"):
        simulate_forward(prop_d1, u0, ZERO, T, ADAPTIVE)


def test_simulate_small_data_stays_below_supersolution(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^2")
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.1))
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, 1, A=2.0)
    traj = simulate_forward(P, u0, f, hor.T, ADAPTIVE)
    assert not traj.blowup
    # L1 norm stays below the supersolution's: 2||S(t)u0||_1 + |Omega|
    bound = 2.0 * lq_norm(u0, 1.0) + P.grid.quad_weights.sum()
    assert traj.peak_l1 <= bound


def test_simulate_blowup_detected():
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=30.0))
    traj = simulate_forward(P, u0, parse_nonlinearity("s^4"), 1.0, ADAPTIVE)
    assert traj.blowup and traj.blowup_time is not None


def test_simulate_comparison_property(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.2))
    ctl = SimulationControls(adaptive=False, dt_init=1e-3, q=2.0)
    lo = simulate_forward(P, u0, parse_nonlinearity("s^2"), 0.2, ctl)
    hi = simulate_forward(P, u0, parse_nonlinearity("s^2 + s^3"), 0.2, ctl)
    assert np.all(hi.final.values - lo.final.values >= -1e-12)


def test_simulate_grid_refinement_under_one_percent():
    f = parse_nonlinearity("s^2")
    norms = {}
    for n_nodes, dt in ((129, 2e-3), (257, 1e-3)):
        g = RadialGrid.uniform(1, math.pi, n_nodes)
        P = build_propagator(g)
        u0 = indicator(g, BallIndicator(1.0, amplitude=0.3))
        ctl = SimulationControls(adaptive=False, dt_init=dt, q=2.0)
        traj = simulate_forward(P, u0, f, 0.5, ctl)
        norms[n_nodes] = (traj.l1[-1], traj.lq[-1])
    for a, b in zip(norms[129], norms[257]):
        assert abs(a - b) / b < 0.01


def _reference_semigroup_apply(P, t, u):
    """semigroup_apply as first written: the decay vector for t, the two
    modal products, the clamp count against CLAMP_TOL max(1, max|u|) from an
    abs pass, and the clamp to 0 for non-negative u; (values, clamp count)."""
    m = P.grid.n_interior
    coeffs = np.exp(-P.eigenvalues * t) * _to_modal(P, u.values[:m])
    vals = np.concatenate([_from_modal(P, coeffs), [0.0]])
    tol = 1e-9 * max(1.0, float(np.max(np.abs(u.values))))
    n_clamped = int(np.sum(vals[:m] < -tol))
    if np.min(u.values) >= 0.0:
        vals[:m] = np.maximum(vals[:m], 0.0)
    return vals, n_clamped


def test_semigroup_apply_matches_reference_bytes(prop_d1):
    # in the closed-form basis of the uniform 1-D grid, the indicator's
    # image has 106 negative round-off entries (clamped to 0, none below the
    # tolerance); the mixed-sign mode keeps its negative values, 146 of them
    # below it; for the negated indicator of amplitude 1e6 the tolerance is
    # 1e-9 |min|, under which 106 of its values lie (115 under
    # 1e-9 max(1, max))
    P = prop_d1
    m = P.grid.n_interior
    u = indicator(P.grid, BallIndicator(1.0))
    raw = _from_modal(P, np.exp(-P.eigenvalues * 1e-4)
                      * _to_modal(P, u.values[:m]))
    assert np.count_nonzero(raw < 0.0) == 106
    mode = RadialField(P.grid, np.concatenate(
        [_from_modal(P, np.eye(m)[:, 3]), [0.0]]))
    sink = RadialField(P.grid, -indicator(
        P.grid, BallIndicator(1.0, amplitude=1e6)).values)
    for field, t, clamps in ((u, 1e-4, 0), (mode, 0.5, 146),
                             (sink, 1e-3, 106)):
        out = semigroup_apply(P, t, field)
        ref_vals, ref_clamps = _reference_semigroup_apply(P, t, field)
        assert out.values.tobytes() == ref_vals.tobytes()
        assert out.clamp_count == ref_clamps == clamps


def _reference_simulate(P, u0, f, T, ct):
    """The stepper as first written: field objects, three lq_norm passes per
    accepted step, the previous step's sup recomputed as the base, the
    candidate assembled by concatenation, the decay vector recomputed on
    every attempt; it stops once T - t is within one ulp of T per summed
    step. Also counts the attempts whose unclamped S(dt) image has a
    negative entry, so a case can show that it exercises the clamp."""
    m = P.grid.n_interior
    u = RadialField(u0.grid, u0.values.copy(), u0.clamp_count)
    t, dt = 0.0, min(ct.dt_init, T)
    out = {"times": [0.0], "l1": [lq_norm(u, 1.0)], "lq": [lq_norm(u, ct.q)],
           "linf": [lq_norm(u, math.inf)], "dts": [dt], "clamp_counts": [0],
           "rejected_steps": 0, "blowup": False, "blowup_time": None}
    negative_images = 0
    steps = 0
    while T - t > len(out["times"]) * math.ulp(T) and steps < 200000:
        steps += 1
        dt = min(dt, T - t)
        fu = np.asarray(f.eval_raw(np.maximum(u.values, 0.0)), dtype=float)
        if not np.all(np.isfinite(fu)):
            out["blowup"], out["blowup_time"] = True, t
            break
        cand = RadialField(u.grid,
                           np.concatenate([u.values[:-1] + dt * fu[:-1],
                                           [0.0]]))
        raw = _from_modal(P, np.exp(-P.eigenvalues * dt)
                          * _to_modal(P, cand.values[:m]))
        negative_images += bool(np.any(raw < 0.0))
        u_new = RadialField(P.grid,
                            *_reference_semigroup_apply(P, dt, cand))
        sup = lq_norm(u_new, math.inf)
        base = max(lq_norm(u, math.inf), 1e-300)
        rel = float(np.max(np.abs(u_new.values - u.values))) / base
        if ct.adaptive and rel > 0.05 and dt > 1e-14:
            out["rejected_steps"] += 1
            dt *= 0.5
            if dt < 1e-14:
                out["blowup"], out["blowup_time"] = True, t
                break
            continue
        t += dt
        u = u_new
        out["times"].append(t)
        out["l1"].append(lq_norm(u, 1.0))
        out["lq"].append(lq_norm(u, ct.q))
        out["linf"].append(sup)
        out["dts"].append(dt)
        out["clamp_counts"].append(u.clamp_count)
        if sup > 1e12:
            out["blowup"], out["blowup_time"] = True, t
            break
        if ct.adaptive and rel < 0.025:
            dt *= 1.4
    return out, u, negative_images


def _assert_same_trajectory(P, u0, f, T, ct):
    ref, ref_final, negative_images = _reference_simulate(P, u0, f, T, ct)
    traj = simulate_forward(P, u0, f, T, ct)
    for key, expected in ref.items():
        assert getattr(traj, key) == expected, key
    assert traj.final.values.tobytes() == ref_final.values.tobytes()
    assert traj.final.clamp_count == ref_final.clamp_count
    return traj, negative_images


def _assert_same_t1_run(d, q):
    """A 200-step fixed-step run from T1 data on their graded grid."""
    f = parse_nonlinearity("s^4")
    _, u0 = build_t1_data(f, d=d, q=1.0, N=3, epsilon=0.5, R=1.0)
    P = build_propagator(u0.grid)
    sup = lq_norm(u0, math.inf)
    T = 0.1 * sup / sup ** 4
    ct = SimulationControls(dt_init=T / 200, adaptive=False, q=q)
    traj, _ = _assert_same_trajectory(P, u0, f, T, ct)
    assert len(traj.times) == 201 and T - traj.times[-1] <= 200 * math.ulp(T)
    assert traj.rejected_steps == 0 and not traj.blowup


def test_simulate_matches_reference_fixed_step_graded_grid():
    _assert_same_t1_run(1, 1.5)


@pytest.mark.parametrize("d, q", [(1, 1.0), (1, 2.0), (1, math.inf),
                                  (2, 1.0), (2, 2.0), (3, 1.5),
                                  (3, math.inf)])
def test_simulate_matches_reference_graded_grid_in_d_and_q(d, q):
    _assert_same_t1_run(d, q)


def _assert_same_adaptive_blowup(q):
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=30.0))
    ct = SimulationControls(dt_init=1e-2, q=q)
    traj, negative_images = _assert_same_trajectory(
        P, u0, parse_nonlinearity("s^4"), 1.0, ct)
    assert traj.blowup and traj.rejected_steps > 0
    assert negative_images > 0  # the clamp to zero changed some values


def test_simulate_matches_reference_adaptive_blowup():
    _assert_same_adaptive_blowup(2.0)


@pytest.mark.parametrize("q", [1.0, math.inf])
def test_simulate_matches_reference_adaptive_blowup_in_q(q):
    _assert_same_adaptive_blowup(q)


def test_simulate_matches_reference_blowup_by_f_overflow():
    # exp(20) dt = 4.9e3 after the first step, where exp overflows while the
    # sup is still far below OVERFLOW_GUARD
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=20.0))
    ct = SimulationControls(dt_init=1e-5, adaptive=False, q=2.0)
    traj, _ = _assert_same_trajectory(P, u0, parse_nonlinearity("exp(s)"),
                                      1e-3, ct)
    assert traj.blowup and traj.blowup_time == 1e-5
    assert len(traj.times) == 2 and 710.0 < traj.linf[-1] < 1e12


def test_simulate_matches_reference_blowup_by_step_underflow():
    # f(u)/u = 1e15 at the data's sup: every halving of dt from 1e-3 changes
    # u by more than 5 %, until 1e-3 / 2^37 falls below DT_MIN
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=1e5))
    ct = SimulationControls(dt_init=1e-3, q=1.0)
    traj, _ = _assert_same_trajectory(P, u0, parse_nonlinearity("s^4"),
                                      1.0, ct)
    assert traj.blowup and traj.blowup_time == 0.0
    assert traj.rejected_steps == 37 and traj.times == [0.0]


def test_simulate_matches_reference_shorter_last_step():
    # 1 = 3 x 0.3 + 0.1: the last fixed step is the shorter remainder
    g = RadialGrid.uniform(2, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=0.3, adaptive=False, q=2.0)
    traj, _ = _assert_same_trajectory(P, u0, parse_nonlinearity("s^2"),
                                      1.0, ct)
    assert traj.dts[1:4] == [0.3] * 3
    assert traj.dts[4] == pytest.approx(0.1) and len(traj.times) == 5


@pytest.mark.parametrize("T", [0.01, 0.7])
def test_simulate_fixed_step_takes_exactly_n_steps(T):
    # the 200 summed steps of T/200 fall short of T by 3.3e-17 (T = 0.01)
    # and 2.6e-15 (T = 0.7); that remainder is rounding, not a 201st step
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=T / 200, adaptive=False, q=2.0)
    traj = simulate_forward(P, u0, parse_nonlinearity("s^2"), T, ct)
    assert len(traj.times) == 201
    assert traj.dts[1:] == [T / 200] * 200


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_simulate_rejects_bad_step(prop_d1, dt):
    u0 = indicator(prop_d1.grid, BallIndicator(1.0))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        simulate_forward(prop_d1, u0, ZERO, 1.0,
                         SimulationControls(dt_init=dt, q=2.0))


def test_iteration_needs_one_iteration(prop_d1):
    u0 = indicator(prop_d1.grid, BallIndicator(0.5, amplitude=0.1))
    v = np.zeros((8, prop_d1.grid.n_interior))
    with pytest.raises(ValueError, match="n-iter must be at least 1"):
        duhamel_iterate(prop_d1, u0, ZERO, v, 0.1, n_time=8, n_iter=0)


def test_simulate_step_budget_is_an_error(monkeypatch):
    # d = 1, 33 nodes, s^2, T = 1 at a fixed dt of 1e-6 needs a million
    # steps; a run cut at the budget (t = 0.2 at MAX_STEPS) without an
    # error would read as a run that reached T without blow-up
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 50)
    g = RadialGrid.uniform(1, 1.0, 33)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=1e-6, adaptive=False, q=2.0)
    with pytest.raises(SolverError, match=r"ran out at t = 5e-05 before T = 1"):
        simulate_forward(P, u0, parse_nonlinearity("s^2"), 1.0, ct)


def test_trajectory_csv_roundtrip(tmp_path, prop_d1):
    # the trajectory goes through cli.write_csv, the one CSV writer
    from heatlab.cli import write_csv
    traj = simulate_forward(prop_d1,
                            indicator(prop_d1.grid, BallIndicator(1.0)),
                            ZERO, 0.1, ADAPTIVE)
    path = tmp_path / "traj.csv"
    write_csv(str(path), ["t", "l1", "l2", "linf", "dt", "clamps"],
              list(zip(traj.times, traj.l1, traj.lq, traj.linf,
                       traj.dts, traj.clamp_counts)))
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("t,l1,")
    assert len(rows) == len(traj.times) + 1
    assert [float(v) for v in rows[-1].split(",")[:2]] == \
        [traj.times[-1], traj.l1[-1]]
