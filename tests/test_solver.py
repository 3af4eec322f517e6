"""Radial grid, propagator, Duhamel iteration and simulation tests.

Oracles: continuum Dirichlet eigenvalue (cos(r/2) mode), the erf closed form
via heat_on_ball, the linear-nonlinearity closed form of the existence
horizon, grid/time refinement self-consistency, and four slow references
kept here: the face-by-face propagator assembly diagonalised by dense
eigh, the re-summed Duhamel
history, the quad-based horizon search and the forward stepper with one
lq_norm call per norm.
"""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

import heatlab
from heatlab.databuilder import build_t1_data
from heatlab.heatkernel import (BallIndicator, heat_on_ball, kernel_constants,
                                unit_ball_volume)
from heatlab.nonlinearity import parse_nonlinearity, sup_ratio_envelope
from heatlab.solver import (
    HorizonReport,
    RadialField,
    RadialGrid,
    SimulationControls,
    SolverError,
    build_propagator,
    duhamel_iterate,
    duhamel_lower_bound,
    duhamel_map,
    find_existence_horizon,
    heat_series,
    indicator,
    lq_norm,
    semigroup_apply,
    simulate_forward,
    supersolution_check,
    warmup_shell_sums,
)

ZERO = parse_nonlinearity("0")


@pytest.fixture(scope="module")
def prop_d1():
    grid = RadialGrid.uniform(1, math.pi, 257)
    return build_propagator(grid)


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


@pytest.mark.parametrize("amplitude, q", [(2.0, 1e300), (0.5, 1e300),
                                          (1e-200, 2.0)])
def test_lq_norm_refuses_what_a_double_cannot_hold(amplitude, q):
    # 2^1e300 overflows; 0.5^1e300 and (1e-200)^2 underflow to 0 for a field
    # that is not zero
    u = indicator(RadialGrid.uniform(1, 1.0, 65),
                  BallIndicator(0.5, amplitude=amplitude))
    with pytest.raises(SolverError, match="does not fit in a double"):
        lq_norm(u, q)


def test_lq_norm_of_zero_field_is_zero():
    g = RadialGrid.uniform(1, 1.0, 65)
    assert lq_norm(RadialField(g, np.zeros(g.n)), 1e300) == 0.0


@pytest.mark.parametrize("amplitude", [1.0, 0.1])
def test_simulate_refuses_lq_norm_out_of_range(amplitude):
    # amplitude 1: the initial norm fits, a later step's (values above 1)
    # overflows; amplitude 0.1: the initial norm underflows
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=amplitude))
    ct = SimulationControls(dt_init=1e-3, q=1e300)
    with pytest.raises(SolverError, match="does not fit in a double"):
        simulate_forward(P, u0, parse_nonlinearity("s^2"), 0.01, ct)


# --- propagator --------------------------------------------------------------

def test_smallest_eigenvalue_d1(prop_d1):
    # radial even problem on [0, pi], Dirichlet at pi: cos(r/2), lambda = 1/4
    assert prop_d1.eigenvalues[0] == pytest.approx(0.25, rel=0.01)


def test_eigenvalues_increasing(prop_d1):
    assert np.all(np.diff(prop_d1.eigenvalues) > 0)


def test_propagator_requires_resolution():
    with pytest.raises(ValueError):
        build_propagator(RadialGrid.uniform(1, 1.0, 16))


def _face_by_face_eigh(grid):
    """Reference: assemble the operator one face at a time, symmetrize it
    under the cell volumes and diagonalise it densely."""
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
    return eigh(0.5 * (B + B.T))


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
    # return its eigenpairs bit for bit
    grid = make_grid()
    P = build_propagator(grid)
    lam, Q = _face_by_face_eigh(grid)
    assert np.array_equal(P.eigenvalues, lam)
    assert np.array_equal(P.modes, Q)


def test_propagator_build_allocates_one_dense_matrix():
    # the modes are the one m x m array; a dense assembly of the band
    # peaks at about three of them
    grid = RadialGrid.uniform(2, 1.0, 1025)
    m = grid.n_interior
    build_propagator(grid)
    tracemalloc.start()
    try:
        build_propagator(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m * m * 8


def test_eigenmode_decay(prop_d1):
    P = prop_d1
    mode = np.concatenate([P.from_modal(np.eye(P.grid.n_interior)[:, 0]),
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
            heat_on_ball(chi, [rho], 0.05, 1), abs=1e-3)


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
    u0_hat = P.to_modal(u0.values[:m])
    g = (f.eval_raw(np.maximum(v, 0.0)) * P.sqrt_w) @ P.modes
    out = np.empty_like(v)
    for j in range(len(times)):
        acc = decay[j] * u0_hat
        if j > 0:
            c = np.ones(j + 1)
            c[0] = c[j] = 0.5
            acc = acc + dt * np.einsum("m,mk,mk->k", c, decay[j::-1],
                                       g[:j + 1])
        out[j] = P.from_modal(acc)
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


@pytest.mark.parametrize("n_time", [0, 1])
def test_duhamel_needs_two_time_slices(prop_d1, n_time):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    f = parse_nonlinearity("s^2")
    v = np.ones((n_time, P.grid.n_interior))
    with pytest.raises(ValueError, match="two time slices"):
        duhamel_map(P, u0, f, v, np.linspace(0.0, 0.1, n_time))
    with pytest.raises(ValueError, match="two time slices"):
        duhamel_iterate(P, u0, f, v, 0.1, n_time=n_time)
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
    check = supersolution_check(P, u0, f, v_init, hor.T)
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
    tr = duhamel_iterate(P, u0, f, v_init, hor.T, n_time=64)
    # solving the fixed-point identity on a 2x finer time grid (sharing
    # every coarse point) reproduces the limit there within 1e-4
    base_f = heat_series(P, u0, np.linspace(0, hor.T, 127))
    v_init_f = 2.0 * base_f + chi.values[None, :P.grid.n_interior]
    tr_f = duhamel_iterate(P, u0, f, v_init_f, hor.T, n_time=127)
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


@pytest.mark.parametrize("n_time", [64, 65])
@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_duhamel_iterate_matches_reference_iteration(d, graded, n_time):
    # bit for bit: against the loop over the public duhamel_map, and against
    # the same loop over the slice-by-slice recurrence
    grid = (RadialGrid.graded(d, 1.0, 129, 1e-3) if graded
            else RadialGrid.uniform(d, 1.0, 129))
    P = build_propagator(grid)
    m = grid.n_interior
    f = parse_nonlinearity("s + s^1.5")
    u0 = indicator(grid, BallIndicator(0.4, amplitude=0.3))
    T = find_existence_horizon(lq_norm(u0, 1.0), f, d, A=2.0).T
    chi = indicator(grid, BallIndicator(grid.R * (1 - 1e-12)))
    v_init = 2.0 * heat_series(P, u0, np.linspace(0.0, T, n_time)) \
        + chi.values[None, :m]
    tr = duhamel_iterate(P, u0, f, v_init, T, n_time=n_time, n_iter=50)
    assert tr.n_iter > 2
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
        duhamel_iterate(P, u0, f, v, T, n_time=n_time)
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
    rep = find_existence_horizon(0.0, ZERO, 2)
    assert rep.T == 100.0 and rep.capped_at_max


def test_horizon_zero_data_uses_f_at_one():
    f = parse_nonlinearity("4*s")
    rep = find_existence_horizon(0.0, f, 2)
    assert rep.T == pytest.approx(0.25, rel=1e-12)


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
    r1 = find_existence_horizon(2.0, f, 1)
    r2 = find_existence_horizon(4.0, f, 1)
    assert not r1.smoothing_capped and not r2.smoothing_capped
    assert r2.T < r1.T


@pytest.mark.parametrize("norm,A,T_max", [
    (0.5, 2.0, 0.0), (0.5, 2.0, -1.0), (0.5, 2.0, math.nan),
    (math.inf, 2.0, 100.0), (math.nan, 2.0, 100.0), (-1.0, 2.0, 100.0),
    (0.5, math.nan, 100.0), (0.5, 1.0, 100.0),
    # (2 A c ||u0||_1)^(2/d) overflows, underflows or is infinite in d = 1
    (1e200, 2.0, 100.0), (1e-200, 2.0, 100.0), (0.5, math.inf, 100.0),
])
def test_horizon_rejects_bad_input(norm, A, T_max):
    with pytest.raises(ValueError):
        find_existence_horizon(norm, parse_nonlinearity("s^2"), 1, A=A,
                               T_max=T_max)


def test_horizon_is_a_report(prop_d1):
    rep = find_existence_horizon(0.1, parse_nonlinearity("s^2"), 1)
    assert isinstance(rep, HorizonReport)
    assert rep.integral_value <= rep.condition_bound + 1e-12


def _quad_horizon(u0_l1_norm, f, d, A=2.0, T_max=100.0):
    """Reference: the horizon search that evaluates the integral condition
    at every bisection midpoint, with scipy's quad for the tau > 1 part, and
    clamps to the smoothing cap afterwards."""
    from scipy.integrate import quad

    bound = (A - 1.0) / A
    csm = (4.0 * math.pi) ** (-d / 2.0)
    if u0_l1_norm == 0.0:
        f1 = float(np.asarray(f.eval_raw(np.array([1.0])))[0])
        T = T_max if f1 == 0.0 else min(T_max, 1.0 / f1)
        return HorizonReport(T=T, integral_value=0.0, condition_bound=bound,
                             A=A, u0_l1=0.0, d=d, capped_at_max=(T == T_max),
                             smoothing_capped=False)
    env = sup_ratio_envelope(f, float(2 ** 48))
    scale = (2.0 * A * csm * u0_l1_norm) ** (2.0 / d)

    def tail(s0):
        grid, vals = env.grid, env.values
        s_end, f_end = float(grid[-1]), float(vals[-1])
        s0 = max(s0, 1.0)
        p = 1.0 + 2.0 / d
        frozen = f_end * s_end ** (-2.0 / d) * (2.0 / d) * (d / 2.0)
        if s0 >= s_end:
            return f_end * s0 ** (-2.0 / d)
        sel = grid > s0
        xs = np.concatenate([[s0], grid[sel]])
        fs = np.concatenate([[env.at(s0)], vals[sel]])
        return float((2.0 / d) * np.trapezoid(xs ** (-p) * fs, xs) + frozen)

    def integral(T_prime):
        if T_prime <= 0:
            return 0.0
        total = tail(min(T_prime, 1.0) ** (-d / 2.0))
        if T_prime > 1.0:
            part, _ = quad(lambda tau: tau ** (d / 2.0) * float(np.asarray(
                f.eval_raw(np.array([tau ** (-d / 2.0)])))[0]),
                1.0, T_prime, limit=200)
            total += part
        return total

    def condition(T):
        return scale * integral(T / scale)

    if condition(T_max) <= bound:
        T, capped = T_max, True
    else:
        lo, hi = 0.0, T_max
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if condition(mid) <= bound:
                lo = mid
            else:
                hi = mid
        T, capped = lo, False
        if T == 0.0:
            raise SolverError("integral condition unsatisfiable: the "
                              "ftilde integral appears divergent")
    smoothing_cap = (A * csm * u0_l1_norm) ** (2.0 / d)
    smoothing_capped = T > smoothing_cap
    T = min(T, smoothing_cap)
    return HorizonReport(T=T, integral_value=condition(T),
                         condition_bound=bound, A=A, u0_l1=u0_l1_norm, d=d,
                         capped_at_max=capped and not smoothing_capped,
                         smoothing_capped=smoothing_capped)


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
    ("s^2", 1, 5.0, 100.0, "integral"),
    ("s^1.5", 2, 5.0, 100.0, "integral"),
    ("s^1.5", 3, 5.0, 100.0, "integral"),
    ("s + s^2", 2, 0.5, 100.0, "integral"),  # the README example
])
def test_horizon_matches_quad_reference(expr, d, norm, T_max, kind):
    f = parse_nonlinearity(expr)
    rep = find_existence_horizon(norm, f, d, T_max=T_max)
    assert vars(rep) == vars(_quad_horizon(norm, f, d, T_max=T_max))
    found = ("zero" if norm == 0.0 else "smoothing" if rep.smoothing_capped
             else "T_max" if rep.capped_at_max else "integral")
    assert found == kind


def test_horizon_refusal_matches_quad_reference():
    f = parse_nonlinearity("s^2.95")
    with pytest.raises(SolverError) as ref:
        _quad_horizon(0.44, f, 1)
    with pytest.raises(SolverError) as exc:
        find_existence_horizon(0.44, f, 1)
    assert str(exc.value) == str(ref.value)


def test_horizon_leaves_scipy_integrate_unimported(tmp_path):
    script = ("import sys\n"
              "from heatlab.cli import main\n"
              "main(['experiment', 'horizon', '--f', 's + s^2', '--d', '2',"
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
    lb = duhamel_lower_bound(chi, ZERO, 0.25, 1)
    kc = kernel_constants(1)
    level = 2.0 * kc.c_d * (0.5 / 1.0) ** 1
    assert lb.min_on_ball(0.5) == pytest.approx(level, rel=1e-12)


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
            lb = duhamel_lower_bound(chi, f, t, 1)
            pred = kc.beta_d * r_k ** 2 * phi ** 4
            assert lb.min_on_ball(r_k) >= 0.5 * pred  # t = t_k/2 halves it
        lb = duhamel_lower_bound(chi, f, r_k ** 2, 1)
        assert lb.min_on_ball(r_k) >= pred


def test_lower_bound_lq_norm_positive():
    lb = duhamel_lower_bound(BallIndicator(1.0), parse_nonlinearity("s^2"),
                             0.5, 2, q=2.0)
    assert lb.lq > 0.0
    assert np.all(np.diff(lb.values) <= 1e-12)  # non-increasing in radius


# --- warm-up shells ----------------------------------------------------------

def test_warmup_critical_power_exact_increments():
    for d in (1, 2, 3):
        p = 1.0 + 2.0 / d
        f = parse_nonlinearity(f"s^{p}")
        rep = warmup_shell_sums(f, d, n_shells=12)
        assert np.allclose(rep.increments, rep.asymptotic_constant, rtol=1e-12)
        assert np.all(np.diff(rep.partial_sums) > 0)


def test_warmup_subcritical_saturates():
    rep = warmup_shell_sums(parse_nonlinearity("s^1.5"), 2, n_shells=20)
    assert rep.increments[-1] < 0.1 * rep.asymptotic_constant


# --- forward simulation ------------------------------------------------------

def test_simulate_heat_flow_contracts(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(1.0))
    traj = simulate_forward(P, u0, ZERO, 1.0)
    assert not traj.blowup
    assert all(a >= b - 1e-12 for a, b in zip(traj.lq, traj.lq[1:]))


@pytest.mark.parametrize("T", [-1.0, 0.0, math.inf, math.nan])
def test_simulate_rejects_bad_horizon(prop_d1, T):
    u0 = indicator(prop_d1.grid, BallIndicator(1.0))
    with pytest.raises(ValueError, match="finite and positive"):
        simulate_forward(prop_d1, u0, ZERO, T)


def test_simulate_small_data_stays_below_supersolution(prop_d1):
    P = prop_d1
    f = parse_nonlinearity("s^2")
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.1))
    hor = find_existence_horizon(lq_norm(u0, 1.0), f, 1)
    traj = simulate_forward(P, u0, f, hor.T)
    assert not traj.blowup
    # L1 norm stays below the supersolution's: 2||S(t)u0||_1 + |Omega|
    bound = 2.0 * lq_norm(u0, 1.0) + P.grid.quad_weights.sum()
    assert traj.peak_l1 <= bound


def test_simulate_blowup_detected():
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=30.0))
    traj = simulate_forward(P, u0, parse_nonlinearity("s^4"), 1.0)
    assert traj.blowup and traj.blowup_time is not None


def test_simulate_comparison_property(prop_d1):
    P = prop_d1
    u0 = indicator(P.grid, BallIndicator(0.5, amplitude=0.2))
    ctl = SimulationControls(adaptive=False, dt_init=1e-3)
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


def _reference_simulate(P, u0, f, T, ct):
    """The stepper as first written: three lq_norm passes per accepted step,
    the previous step's sup recomputed as the base, the candidate assembled
    by concatenation; it stops once T - t is within one ulp of T per summed
    step. Also counts the attempts whose unclamped S(dt) image has a
    negative entry, so a case can show that it exercises the clamp."""
    m = P.grid.n_interior
    u = u0.copy()
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
        raw = P.from_modal(np.exp(-P.eigenvalues * dt)
                           * P.to_modal(cand.values[:m]))
        negative_images += bool(np.any(raw < 0.0))
        u_new = semigroup_apply(P, dt, cand)
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
    assert np.array_equal(traj.final.values, ref_final.values)
    assert traj.final.clamp_count == ref_final.clamp_count
    return traj, negative_images


def test_simulate_matches_reference_fixed_step_graded_grid():
    f = parse_nonlinearity("s^4")
    _, u0 = build_t1_data(f, d=1, q=1.0, N=3, epsilon=0.5, R=1.0)
    P = build_propagator(u0.grid)
    sup = lq_norm(u0, math.inf)
    T = 0.1 * sup / sup ** 4
    ct = SimulationControls(dt_init=T / 200, adaptive=False, q=1.5)
    traj, _ = _assert_same_trajectory(P, u0, f, T, ct)
    assert len(traj.times) == 201 and T - traj.times[-1] <= 200 * math.ulp(T)
    assert traj.rejected_steps == 0 and not traj.blowup


def test_simulate_matches_reference_adaptive_blowup():
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=30.0))
    ct = SimulationControls(dt_init=1e-2, q=2.0)
    traj, negative_images = _assert_same_trajectory(
        P, u0, parse_nonlinearity("s^4"), 1.0, ct)
    assert traj.blowup and traj.rejected_steps > 0
    assert negative_images > 0  # the clamp to zero changed some values


@pytest.mark.parametrize("T", [0.01, 0.7])
def test_simulate_fixed_step_takes_exactly_n_steps(T):
    # the 200 summed steps of T/200 fall short of T by 3.3e-17 (T = 0.01)
    # and 2.6e-15 (T = 0.7); that remainder is rounding, not a 201st step
    g = RadialGrid.uniform(1, 1.0, 65)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=T / 200, adaptive=False)
    traj = simulate_forward(P, u0, parse_nonlinearity("s^2"), T, ct)
    assert len(traj.times) == 201
    assert traj.dts[1:] == [T / 200] * 200


@pytest.mark.parametrize("dt", [0.0, -1.0, math.inf, math.nan])
def test_simulate_rejects_bad_step(prop_d1, dt):
    u0 = indicator(prop_d1.grid, BallIndicator(1.0))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        simulate_forward(prop_d1, u0, ZERO, 1.0, SimulationControls(dt_init=dt))


def test_iteration_needs_one_iteration(prop_d1):
    u0 = indicator(prop_d1.grid, BallIndicator(0.5, amplitude=0.1))
    v = np.zeros((8, prop_d1.grid.n_interior))
    with pytest.raises(ValueError, match="n-iter must be at least 1"):
        duhamel_iterate(prop_d1, u0, ZERO, v, 0.1, n_time=8, n_iter=0)


def test_simulate_step_budget_is_an_error(monkeypatch):
    # d = 1, 33 nodes, s^2, T = 1 at a fixed dt of 1e-6 needs a million
    # steps; a run cut at the budget (t = 0.2 at MAX_STEPS) without an
    # error would read as a run that reached T without blow-up
    import heatlab.solver as solver_mod
    monkeypatch.setattr(solver_mod, "MAX_STEPS", 50)
    g = RadialGrid.uniform(1, 1.0, 33)
    P = build_propagator(g)
    u0 = indicator(g, BallIndicator(0.5, amplitude=0.1))
    ct = SimulationControls(dt_init=1e-6, adaptive=False)
    with pytest.raises(SolverError, match=r"ran out at t = 5e-05 before T = 1"):
        simulate_forward(P, u0, parse_nonlinearity("s^2"), 1.0, ct)


def test_trajectory_csv_roundtrip(tmp_path, prop_d1):
    # the trajectory goes through cli.write_csv, the one CSV writer
    from heatlab.cli import write_csv
    traj = simulate_forward(prop_d1,
                            indicator(prop_d1.grid, BallIndicator(1.0)),
                            ZERO, 0.1)
    path = tmp_path / "traj.csv"
    write_csv(str(path), ["t", "l1", "l2", "linf", "dt", "clamps"],
              list(zip(traj.times, traj.l1, traj.lq, traj.linf,
                       traj.dts, traj.clamp_counts)))
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("t,l1,")
    assert len(rows) == len(traj.times) + 1
    assert [float(v) for v in rows[-1].split(",")[:2]] == \
        [traj.times[-1], traj.l1[-1]]
